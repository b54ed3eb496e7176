import pytest

from zdcubes.cube_engine import enumerate_K
from zdcubes.errors import InputError
from zdcubes.finite_system import check_factor_map
from zdcubes.structure import (
    SubgroupSpec,
    compute_QH,
    decompose,
    face_system,
    factor_isomorphism_check,
    iterated_quotient_check,
    maximal_trivial_H_factor,
    relative_independence_check,
    z0h_universality_check,
)


def test_subgroup_spec_elements(systems):
    sys_ = systems["rot6"]
    H = SubgroupSpec(dirs=(2,))
    elems = H.element_perms(sys_)
    assert len(elems) == 3  # T2 = +2 on Z/6 generates a 3-element group
    H_full = SubgroupSpec(dirs=(1, 2))
    assert len(H_full.element_perms(sys_)) == 6
    H_word = SubgroupSpec(words=((2, 0),))
    assert len(H_word.element_perms(sys_)) == 3  # T1^2 = +2


def test_subgroup_spec_rejects_bad_direction(systems):
    with pytest.raises(InputError):
        SubgroupSpec(dirs=(3,)).generator_perms(systems["rot6"])


def test_QH_pair_counts_match_oracle(systems, oracle):
    sys_ = systems["rot6"]
    q1 = compute_QH(sys_, SubgroupSpec(dirs=(1,)))
    q2 = compute_QH(sys_, SubgroupSpec(dirs=(2,)))
    assert len(q1) == oracle["rot6_QH_T1_pairs"]
    assert len(q2) == oracle["rot6_QH_T2_pairs"]


def test_QH_quotient_classes_match_oracle(systems, oracle):
    sys_ = systems["rot6"]
    q_sys, pi = maximal_trivial_H_factor(sys_, SubgroupSpec(dirs=(2,)))
    rel = compute_QH(sys_, SubgroupSpec(dirs=(2,)))
    classes = [sorted(c) for c in rel.classes()]
    assert classes == oracle["rot6_quotient_by_QT2_classes"]
    assert q_sys.n_points == len(classes)
    assert check_factor_map(pi).ok
    # T2 acts trivially downstairs
    assert q_sys.perms[1] == tuple(range(q_sys.n_points))


def test_z0h_universality(systems):
    sys_ = systems["rot6"]
    H = SubgroupSpec(dirs=(2,))
    _, pi = maximal_trivial_H_factor(sys_, H)
    status, witness = z0h_universality_check(pi, H)
    assert status == "pass", witness


def test_iterated_quotient(systems):
    res = iterated_quotient_check(systems["rot6"],
                                  SubgroupSpec(dirs=(1,)),
                                  SubgroupSpec(dirs=(2,)))
    assert res.ok, res


def test_decompose_rot6_matches_oracle(systems, oracle):
    dec = decompose(systems["rot6"], 0)
    want = oracle["rot6_decomposition"]
    assert dec.hypotheses_met
    assert dec.injective
    assert len(dec.K) == want["Y"]
    assert dec.Y.n_points == want["Y"]
    sides = {len(p.values) for p in dec.side_projections}
    assert sorted(len(p.values) for p in dec.side_projections) == \
        sorted([want["Y_1"], want["Y_2"]])
    assert all(len(p.values) == want["Y_12"]
               for p in dec.corner_projections.values())
    assert sides  # non-degenerate


def test_decompose_side_systems_have_identity_at_dropped_direction(systems):
    dec = decompose(systems["rot6"], 0)
    for j, proj in enumerate(dec.side_projections, start=1):
        Y = proj.system
        assert Y.d == systems["rot6"].d
        ident = tuple(range(Y.n_points))
        assert Y.perms[j - 1] == ident


def test_face_system_round(systems):
    K = enumerate_K(systems["rot6"], (1, 2), 0)
    Y = face_system(K)
    assert Y.n_points == len(K)
    assert Y.d == 2
    # the face action permutes K transitively here (minimal base)
    from zdcubes.finite_system import is_minimal

    assert is_minimal(Y).ok


def test_factor_isomorphism_all_directions(systems):
    for name in ("rot6", "z4xz3", "rot8_d3"):
        sys_ = systems[name]
        for j in range(1, sys_.d + 1):
            res = factor_isomorphism_check(sys_, 0, j)
            assert res.ok, (name, j, res.witness)
            assert res.bijective and res.equivariant


def test_factor_isomorphism_rejects_bad_direction(systems):
    with pytest.raises(InputError):
        factor_isomorphism_check(systems["rot6"], 0, 3)


def test_relative_independence(systems):
    for name in ("rot6", "z4xz3", "rot8_d3"):
        dec = decompose(systems[name], 0)
        res = relative_independence_check(dec)
        assert res.status == "pass", (name, res.witness)
        assert res.checked > 0


def test_relative_independence_gates_on_hypotheses(systems):
    dec = decompose(systems["nonmin_z4z2"], 0)
    assert not dec.hypotheses_met
    res = relative_independence_check(dec)
    assert res.status == "hypotheses-unmet"
