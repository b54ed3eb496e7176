import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_return_times as ref
from zdcubes import _arrays
from zdcubes.errors import InputError
from zdcubes.finite_system import (
    FactorMap,
    FiniteZdSystem,
    PairRelation,
    check_factor_map,
    is_minimal,
    orbit_labels,
    parse_finite_system,
    partition,
    perm_order,
    perm_power,
    quotient,
    to_text,
    validate,
)

ROT2 = "finite-system\npoints = 2\nd = 1\nT1 = [1, 0]\n"

NONCOMMUTING = """finite-system
points = 3
d = 2
T1 = [1, 2, 0]
T2 = [1, 0, 2]
"""


def test_parse_round_trip(systems):
    for sys_ in systems.values():
        again = parse_finite_system(to_text(sys_))
        assert again.perms == sys_.perms
        assert again.d == sys_.d
        assert again.n_points == sys_.n_points


def test_parse_rejects_non_bijection():
    with pytest.raises(InputError):
        parse_finite_system("finite-system\npoints = 2\nd = 1\nT1 = [0, 0]\n")


def test_parse_rejects_non_commuting_by_default():
    with pytest.raises(InputError):
        parse_finite_system(NONCOMMUTING)


def test_lenient_parse_defers_commutation_to_validate():
    sys_ = parse_finite_system(NONCOMMUTING, strict=False)
    rep = validate(sys_)
    assert not rep.ok
    assert not rep.commuting
    assert rep.commute_witness is not None
    i, j, x = rep.commute_witness
    a = sys_.perms[i - 1]
    b = sys_.perms[j - 1]
    assert a[b[x]] != b[a[x]]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputError) as exc:
        parse_finite_system("finite-system\npoints = 2\nd = 1\nT1 = [1, oops]\n")
    assert exc.value.line == 4


def test_validate_reports_orders(systems):
    rep = validate(systems["rot6"])
    assert rep.ok
    assert rep.orders == (6, 3)
    assert rep.n_points == 6
    assert rep.d == 2


def test_perm_order_and_pow():
    cyc = (1, 2, 3, 4, 5, 0)
    assert perm_order(cyc) == 6
    arr = np.array(cyc, dtype=np.int32)
    for e, want in ((0, tuple(range(6))), (2, (2, 3, 4, 5, 0, 1)),
                    (-1, (5, 0, 1, 2, 3, 4)), (7, cyc)):
        got = perm_power(arr, e)
        assert got.dtype == arr.dtype
        assert tuple(got.tolist()) == want == ref.perm_pow(cyc, e)


@given(st.integers(min_value=-10, max_value=10),
       st.integers(min_value=-10, max_value=10))
def test_apply_word_is_additive_on_rot6(n1, n2):
    sys_ = parse_finite_system(
        "finite-system\npoints = 6\nd = 2\n"
        "T1 = [1, 2, 3, 4, 5, 0]\nT2 = [2, 3, 4, 5, 0, 1]\n")
    assert sys_.word_perm((n1, n2))[0] == (n1 + 2 * n2) % 6


def test_minimality(systems):
    assert is_minimal(systems["rot6"]).ok
    res = is_minimal(systems["nonmin_z4z2"])
    assert not res.ok
    assert res.witness is not None
    # the witness orbit must really be proper
    sys_ = systems["nonmin_z4z2"]
    orbits = orbit_labels(sys_.n_points, sys_.perms)
    assert (orbits == orbits[res.witness]).sum() < sys_.n_points


def test_orbit_of_rot6_is_everything(systems):
    assert (orbit_labels(6, systems["rot6"].perms) == 0).all()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_dense_ids_equal_np_unique_on_both_paths(data):
    # at DENSE_RATIO slots per key the mask path runs, one slot more sorts
    size = data.draw(st.integers(1, 300))
    unique = np.unique
    for space in (size * _arrays.DENSE_RATIO, size * _arrays.DENSE_RATIO + 1):
        keys = np.array(data.draw(st.lists(st.integers(0, space - 1),
                                           min_size=size, max_size=size)),
                        dtype=np.int64)
        sorts = []

        def counted(*args, **kwargs):
            sorts.append(1)
            return unique(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "unique", counted)
            distinct, ids = _arrays._dense_ids(keys, space)
        assert len(sorts) == (space > size * _arrays.DENSE_RATIO)
        want = unique(keys, return_inverse=True)
        assert distinct.dtype == want[0].dtype and ids.dtype == want[1].dtype
        assert np.array_equal(distinct, want[0]) and np.array_equal(ids, want[1])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_orbit_labels_match_the_partition_of_the_edges(data):
    # random permutations rarely commute: the passes must still close
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(0, 4))
    perms = [data.draw(st.permutations(range(n))) for _ in range(k)]
    edges = [(x, p[x]) for p in perms for x in range(n)]
    want = partition(n, [u for u, _ in edges], [v for _, v in edges])
    assert np.array_equal(orbit_labels(n, perms), want)
    table = np.array(perms, dtype=np.int32).reshape(k, n)
    assert np.array_equal(orbit_labels(n, table), want)


def test_orbit_labels_of_non_commuting_generators():
    sys_ = parse_finite_system(NONCOMMUTING, strict=False)
    assert orbit_labels(3, sys_.table).tolist() == [0, 0, 0]
    # (1 2)(3 4), then (0 1): one pass leaves 2 labelled 1, the next mends it
    assert orbit_labels(5, [[0, 2, 1, 4, 3], [1, 0, 2, 3, 4]]).tolist() == \
        [0, 0, 0, 3, 3]


def test_pair_relation_basics():
    rel = PairRelation(3, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}))
    assert (0, 1) in rel
    assert (0, 2) not in rel
    assert len(rel) == 5
    assert not rel.is_diagonal()
    assert rel.is_reflexive() == (True, None)
    assert rel.is_symmetric() == (True, None)
    ok, _ = rel.is_transitive()
    assert ok
    assert rel.classes() == ((0, 1), (2,))


def test_pair_relation_diagonal():
    rel = PairRelation.diagonal(4)
    assert rel.is_diagonal()
    assert len(rel) == 4


def test_pair_relation_equivalence_closure():
    rel = PairRelation(3, frozenset({(0, 1)}))
    assert rel.labels().tolist() == [0, 0, 2]
    assert rel.classes() == ((0, 1), (2,))


def test_pair_relation_text_round_trip():
    rel = PairRelation(3, frozenset({(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)}))
    again = PairRelation.from_text(rel.to_text())
    assert again.pairs == rel.pairs
    assert again.n_points == rel.n_points


def test_pair_relation_from_text_rejects_bad_header():
    with pytest.raises(InputError):
        PairRelation.from_text("cube-set d=1 dirs=1\n0\n")
    with pytest.raises(InputError, match="^line 1: malformed pair-relation header$"):
        PairRelation.from_text("pair-relationX n=3\n")


def test_quotient_by_invariant_relation(systems):
    sys_ = systems["rot6"]
    pairs = set()
    for x in range(6):
        for y in range(6):
            if (x - y) % 2 == 0:
                pairs.add((x, y))
    rel = PairRelation(6, frozenset(pairs), sys_)
    q, pi = quotient(sys_, rel)
    assert q.n_points == 2
    assert check_factor_map(pi).ok
    assert pi(0) == pi(2) == pi(4)
    assert pi(1) == pi(3) == pi(5)


def test_quotient_rejects_non_invariant(systems):
    sys_ = systems["rot6"]
    rel = PairRelation(6, frozenset({(0, 1)}), sys_)
    # the closure {0,1} is not invariant under T1
    with pytest.raises(InputError):
        quotient(sys_, rel)


def test_factor_map_identity(systems):
    pi = FactorMap.identity(systems["rot6"])
    rep = check_factor_map(pi)
    assert rep.ok and rep.surjective and rep.equivariant


def test_factor_map_detects_non_equivariance(systems):
    rot2 = parse_finite_system(
        "finite-system\npoints = 2\nd = 2\nT1 = [1, 0]\nT2 = [0, 1]\n")
    pi = FactorMap(systems["rot6"], rot2, (0, 0, 0, 1, 1, 1))
    rep = check_factor_map(pi)
    assert not rep.ok
    assert rep.witness is not None


def test_is_minimal_inverts_each_generator_once(monkeypatch):
    from zdcubes import finite_system

    real = finite_system._invert
    calls = []

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(finite_system, "_invert", counting)
    n = 500
    sys_ = FiniteZdSystem(n, 2, (tuple((x + 1) % n for x in range(n)),
                                 tuple((x + 7) % n for x in range(n))))
    assert is_minimal(sys_).ok
    assert len(calls) <= sys_.d


def test_derived_objects_leave_identity_unchanged(fixture_dir):
    from zdcubes.cube_engine import enumerate_Q
    from zdcubes.proximal import compute_R
    from zdcubes.structure import decompose

    path = str(fixture_dir / "rot6.fsys")
    text = (fixture_dir / "rot6.fsys").read_text()
    sys_ = parse_finite_system(text, path=path)
    Q = enumerate_Q(sys_, (1, 2))
    R = compute_R(sys_)
    dec = decompose(sys_, 0)
    # the second request returns the stored object
    assert enumerate_Q(sys_, (1, 2)) is Q
    assert compute_R(sys_) is R
    assert decompose(sys_, 0) is dec
    fresh = parse_finite_system(text, path=path)
    assert sys_ == fresh
    assert hash(sys_) == hash(fresh)
    assert repr(sys_) == repr(fresh)
    assert to_text(sys_) == to_text(fresh)


def test_bad_system_constructor():
    with pytest.raises(InputError):
        FiniteZdSystem(2, 1, ((0, 0),))
    with pytest.raises(InputError):
        FiniteZdSystem(2, 2, ((1, 0),))  # wrong number of generators


def test_systems_from_tuples_and_from_their_table_are_one_object(systems):
    for name, sys_ in systems.items():
        again = FiniteZdSystem(sys_.n_points, sys_.d, sys_.table, name=sys_.name)
        assert again == sys_ and hash(again) == hash(sys_)
        assert repr(again) == repr(sys_)
        # perfbench/tracing.py hashes perms: a tuple of int tuples
        assert type(again.perms) is tuple and hash(again.perms) == hash(sys_.perms)
        assert all(type(p) is tuple and all(type(v) is int for v in p)
                   for p in again.perms)
        assert again.perms == tuple(map(tuple, sys_.table.tolist()))
        assert again.inverses == sys_.inverses
        assert all(p[q[x]] == x for p, q in zip(again.perms, again.inverses)
                   for x in range(again.n_points))
        # the table is a read-only int32 copy
        assert again.table.dtype == np.int32 and not again.table.flags.writeable
        assert again.table is not sys_.table


def test_table_refusals_match_the_row_by_row_messages():
    table = np.array([[1, 0, 2], [0, 0, 1]])
    for perms in (table, table.tolist()):
        with pytest.raises(InputError, match=r"^T2 is not a bijection of 0\.\.2$"):
            FiniteZdSystem(3, 2, perms)
    with pytest.raises(InputError, match=r"^T1 has 2 entries, expected 3$"):
        FiniteZdSystem(3, 2, ((1, 0), (0, 1, 2)))
    with pytest.raises(InputError, match=r"^T1 is not a bijection of 0\.\.2$"):
        FiniteZdSystem(3, 2, np.array([[1, 0, 2 ** 32 + 2], [0, 1, 2]]))


def test_factor_maps_and_relations_from_arrays_or_sequences_agree(systems):
    sys_ = systems["rot6"]
    rot2 = parse_finite_system(
        "finite-system\npoints = 2\nd = 2\nT1 = [1, 0]\nT2 = [0, 1]\n")
    seq = (0, 1, 0, 1, 0, 1)
    for mapping in (np.array(seq), np.array(seq, dtype=np.int32), list(seq)):
        pi = FactorMap(sys_, rot2, mapping)
        assert pi.mapping == seq and pi.array.dtype == np.int64
        assert pi == FactorMap(sys_, rot2, seq)
        assert hash(pi) == hash(FactorMap(sys_, rot2, seq))
        assert [pi(x) for x in range(6)] == list(seq)
    with pytest.raises(InputError, match=r"^factor map value 2 out of target range$"):
        FactorMap(sys_, rot2, (0, 1, 2, 3, 0, 1))
    with pytest.raises(InputError, match=r"^factor map length"):
        FactorMap(sys_, rot2, (0, 1))
    pairs = {(0, 0), (1, 2), (2, 1), (5, 3)}
    forms = [pairs, sorted(pairs), np.array(sorted(pairs)),
             np.array([x * 6 + y for x, y in pairs] * 2)]
    rels = [PairRelation(6, form, sys_) for form in forms]
    for rel in rels:
        assert rel == rels[0] and hash(rel) == hash(rels[0])
        assert rel.pairs == pairs and len(rel) == 4 and (5, 3) in rel
        assert rel.keys.tolist() == [0, 8, 13, 33]
    for bad in ({(0, 6)}, np.array([[0, 1], [-1, 0]]), np.array([36])):
        with pytest.raises(InputError, match=r"out of range for n = 6$"):
            PairRelation(6, bad)


def test_pair_relations_whose_keys_pass_int64_are_refused():
    # n^2 <= 2^63 exactly up to n = 3,037,000,499, so its last key x*n + y
    # still fits int64 and reads back
    n = 3_037_000_499
    rel = PairRelation(n, {(n - 1, n - 1)})
    assert rel.keys.tolist() == [n * n - 1] and rel.pairs == {(n - 1, n - 1)}
    assert PairRelation.from_text(rel.to_text()) == rel
    for pairs in ({(n, n)}, np.array([0])):
        with pytest.raises(InputError, match=r"^n = 3037000500 exceeds"):
            PairRelation(n + 1, pairs)
    with pytest.raises(InputError, match=r"^x\.rel:2: n = 3037000500 exceeds"):
        PairRelation.from_text(f"# past int64\npair-relation n={n + 1}\n"
                               f"{n},{n}\n", path="x.rel")
