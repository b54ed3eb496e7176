import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdcubes.errors import InputError
from zdcubes.finite_system import (
    FactorMap,
    FiniteZdSystem,
    PairRelation,
    apply_word,
    check_factor_map,
    is_minimal,
    orbit_of,
    parse_finite_system,
    perm_order,
    perm_pow,
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
    assert perm_pow(cyc, 0) == tuple(range(6))
    assert perm_pow(cyc, 2) == (2, 3, 4, 5, 0, 1)
    assert perm_pow(cyc, -1) == (5, 0, 1, 2, 3, 4)
    assert perm_pow(cyc, 7) == cyc


@given(st.integers(min_value=-10, max_value=10),
       st.integers(min_value=-10, max_value=10))
def test_apply_word_is_additive_on_rot6(n1, n2):
    sys_ = parse_finite_system(
        "finite-system\npoints = 6\nd = 2\n"
        "T1 = [1, 2, 3, 4, 5, 0]\nT2 = [2, 3, 4, 5, 0, 1]\n")
    x = apply_word(sys_, (n1, n2), 0)
    assert x == (n1 + 2 * n2) % 6


def test_minimality(systems):
    assert is_minimal(systems["rot6"]).ok
    res = is_minimal(systems["nonmin_z4z2"])
    assert not res.ok
    assert res.witness is not None
    # the witness orbit must really be proper
    assert len(orbit_of(systems["nonmin_z4z2"], res.witness)) < \
        systems["nonmin_z4z2"].n_points


def test_orbit_of_rot6_is_everything(systems):
    assert orbit_of(systems["rot6"], 3) == frozenset(range(6))


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
    closed = rel.equivalence_closure()
    assert (1, 0) in closed
    assert (0, 0) in closed
    assert closed.classes() == ((0, 1), (2,))


def test_pair_relation_text_round_trip():
    rel = PairRelation(3, frozenset({(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)}))
    again = PairRelation.from_text(rel.to_text())
    assert again.pairs == rel.pairs
    assert again.n_points == rel.n_points


def test_pair_relation_from_text_rejects_bad_header():
    with pytest.raises(InputError):
        PairRelation.from_text("cube-set d=1 dirs=1\n0\n")


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
    rel = PairRelation(6, frozenset({(0, 1)}), sys_).equivalence_closure()
    # {0,1} is not invariant under T1
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
