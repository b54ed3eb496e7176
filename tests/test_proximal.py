from zdcubes.battery import _constant_tail_keys, proximal_battery
from zdcubes.cube_engine import enumerate_Q
from zdcubes.proximal import (
    check_equivalence,
    compute_R,
    compute_R_j,
    compute_R_j_reordered,
    maximal_ucpp_factor,
    pushforward_check,
    sections,
    template_positions,
)


def test_template_positions_d2():
    pairs, x_pos, y_pos = template_positions(2, 1)
    assert pairs == [(2, 3)]
    assert (x_pos, y_pos) == (0, 1)
    pairs, x_pos, y_pos = template_positions(2, 2)
    assert pairs == [(1, 3)]
    assert (x_pos, y_pos) == (0, 2)


def test_template_positions_d3():
    pairs, x_pos, y_pos = template_positions(3, 2)
    # eta runs over the 3 nonzero 2-bit masks, lifted around position 2
    assert pairs == [(1, 3), (4, 6), (5, 7)]
    assert (x_pos, y_pos) == (0, 2)


def test_relation_diagonal_flags_match_oracle(systems, oracle):
    for name, sys_ in systems.items():
        want = oracle["fixtures"][name]["R_Tj_is_diagonal"]
        for j in range(1, sys_.d + 1):
            rel = compute_R_j(sys_, j)
            assert rel.is_diagonal() == want[j - 1], (name, j)


def test_relation_reorder_cross_check(systems):
    for name in ("rot6", "z4xz3", "rot8_d3", "nonmin_z4z2"):
        sys_ = systems[name]
        for j in range(1, sys_.d + 1):
            a = compute_R_j(sys_, j)
            b = compute_R_j_reordered(sys_, j)
            assert a.pairs == b.pairs, (name, j)


def test_relations_always_reflexive_and_symmetric(systems):
    for sys_ in systems.values():
        for j in range(1, sys_.d + 1):
            rel = compute_R_j(sys_, j)
            assert rel.is_reflexive()[0]
            assert rel.is_symmetric()[0]


def test_intersection_relation_is_invariant_equivalence(minimal_systems):
    for name, sys_ in minimal_systems.items():
        rep = check_equivalence(compute_R(sys_))
        assert rep.ok, name


def test_constant_tail_symmetry(systems):
    # (x, y, .., y) is a cube tuple exactly when (y, x, .., x) is
    for name in ("rot6", "z4xz3", "rot8_d3"):
        sys_ = systems[name]
        n = sys_.n_points
        Q = enumerate_Q(sys_, tuple(range(1, sys_.d + 1)))
        keys = _constant_tail_keys(Q, n)
        flipped = keys % n * n + keys // n
        assert sorted(keys.tolist()) == sorted(flipped.tolist()), name


def test_sections_partition_cube_set(systems):
    Q = enumerate_Q(systems["rot6"], (1, 2))
    sec = sections(Q)
    assert set(sec) == set(range(6))
    assert sum(len(v) for v in sec.values()) == len(Q)


def test_proximal_report_rot6(systems):
    items = {i["check"]: i for i in proximal_battery(systems["rot6"])}
    assert all(i["status"] == "pass" for i in items.values())
    assert items["r_equivalence_invariance"]["detail"] == {"diagonal": True,
                                                          "pairs": 6}
    assert [len(compute_R_j(systems["rot6"], j)) for j in (1, 2)] == [6, 6]


def test_pushforward_exact_on_minimal(systems):
    sys_ = systems["rot6"]
    _, pi = maximal_ucpp_factor(sys_)
    rep = pushforward_check(pi)
    assert rep.equal
    assert rep.easy_inclusion
    assert rep.source_minimal


def test_maximal_ucpp_factor_trivial_when_R_diagonal(systems):
    q_sys, pi = maximal_ucpp_factor(systems["rot6"])
    assert q_sys.n_points == 6
    assert sorted(set(pi.mapping)) == list(range(6))


def test_maximal_ucpp_factor_on_nonminimal_union(systems):
    # the relation splits over orbits, so the factor exists even here; this
    # fixture happens to have a diagonal relation on each orbit
    q_sys, pi = maximal_ucpp_factor(systems["nonmin_z4z2"])
    assert q_sys.n_points == systems["nonmin_z4z2"].n_points
    assert pi.mapping == tuple(range(q_sys.n_points))
