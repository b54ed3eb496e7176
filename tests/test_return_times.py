import random
from itertools import product

import numpy as np
import pytest

import scalar_batteries as ref
from scalar_return_times import apply_word
from zdcubes import battery, return_times
from zdcubes.errors import InputError
from zdcubes.finite_system import parse_finite_system
from zdcubes.structure import decompose
from zdcubes.return_times import (
    PeriodicSet,
    contains_zero_vector,
    d_joining,
    drop_generator,
    insert_identity_generator,
    joining_containment_check,
    phi_image,
    product_system_realization,
    return_set,
)


def _pset(moduli, residues):
    return PeriodicSet(len(moduli), tuple(moduli), frozenset(residues))


def test_pset_reduction_and_membership():
    ps = _pset((4, 6), {(5, 7), (1, 1)})
    assert ps.residues == {(1, 1)}  # both rows reduce to the same class
    assert (1, 1) in ps
    assert (5, 13) in ps
    assert (-3, -5) in ps
    assert (2, 1) not in ps
    # residues and queries past the int64 range reduce exactly
    big = _pset((4, 6), {(4 * 10**30 + 1, 1 - 6 * 10**30)})
    assert big.residues == {(1, 1)}
    assert (10**40 + 1, -(6 * 10**40) + 1) in big


def test_pset_rejects_residues_of_the_wrong_arity():
    for residue in ((1, 2, 3), (1,)):
        with pytest.raises(InputError, match="arity"):
            _pset((4, 4), {residue})


def test_pset_membership_refuses_non_integer_entries():
    # as a wrong arity is refused; 1.5 is not truncated to the residue 1
    ps = PeriodicSet(2, (3, 5), [(1, 2)])
    for vector in ((1.5, 2), (1, 2.0), ("1", 2), (1, 2, 3)):
        with pytest.raises(InputError):
            vector in ps
    assert (1, 2) in ps and (4, -3) in ps


@pytest.mark.parametrize("entry", [True, np.True_, False, np.False_])
def test_pset_membership_refuses_bools(entry):
    # a bool is not read as 0 or 1, as the constructor does not read it so
    ps = PeriodicSet(2, (3, 5), [(1, 2), (0, 2)])
    for vector in ((entry, 2), (1, entry)):
        with pytest.raises(InputError, match="^vector entries must be integers$"):
            vector in ps
    assert (1, 2) in ps and (np.int64(0), 2) in ps


@pytest.mark.parametrize("entry", [1.5, "1", True, np.bool_(True), 2.0])
def test_pset_residues_refuse_non_integer_entries(entry):
    # tuples are refused as arrays of these entries are: 1.5 is not
    # truncated to the residue 1, and a bool is not read as 1
    with pytest.raises(InputError, match="^residues must hold integers$"):
        PeriodicSet(2, (3, 5), [(entry, 2)])
    ints = PeriodicSet(2, (3, 5), [(np.int64(4), np.uint64(7)), (10**30, -1)])
    assert ints.residues == {(1, 2), (1, 4)}


def test_pset_empty_full():
    assert PeriodicSet.empty(2).is_empty()
    box = PeriodicSet(2, (3, 5), product(range(3), range(5)))
    assert PeriodicSet.full(2).equals(box)
    assert (17, -3) in PeriodicSet.full(2)


def test_pset_canonical_reduces_moduli():
    # residues {0, 2, 4} mod 6 is really 0 mod 2
    ps = _pset((6,), {(0,), (2,), (4,)})
    c = ps.canonical()
    assert c.moduli == (2,)
    assert c.residues == {(0,)}
    assert ps.equals(c)


def _canonical_by_divisor_scan(ps):
    """Reference: the first divisor of each modulus that is a period."""
    moduli = list(ps.moduli)
    residues = ps.residues
    for i in range(ps.k):
        for p in [q for q in range(1, moduli[i] + 1) if moduli[i] % q == 0]:
            if p == moduli[i]:
                break
            shifted = frozenset(
                r[:i] + ((r[i] + p) % moduli[i],) + r[i + 1:] for r in residues)
            if shifted == residues:
                residues = frozenset(r[:i] + (r[i] % p,) + r[i + 1:] for r in residues)
                moduli[i] = p
                break
    if not residues:
        return PeriodicSet(ps.k, (1,) * ps.k, frozenset())
    return PeriodicSet(ps.k, tuple(moduli), residues)


def test_pset_canonical_matches_divisor_scan():
    rng = random.Random(11)
    for _ in range(300):
        k = rng.randint(1, 2)
        periods = tuple(rng.choice((1, 2, 3, 4, 6, 8, 9, 12)) for _ in range(k))
        moduli = tuple(p * rng.choice((1, 2, 3, 5, 6)) for p in periods)
        box = list(product(*[range(p) for p in periods]))
        ps = _pset(periods, rng.sample(box, rng.randint(0, len(box))))
        ps = ps.lift_to(moduli)
        if rng.random() < 0.3:  # break the period with one extra residue
            extra = tuple(rng.randrange(m) for m in moduli)
            ps = _pset(moduli, set(ps.residues) | {extra})
        got, want = ps.canonical(), _canonical_by_divisor_scan(ps)
        assert (got.moduli, got.residues) == (want.moduli, want.residues)


def test_pset_canonical_on_a_large_modulus():
    ps = _pset((3_000_000,), {(7,), (1_000_007,), (2_000_007,)})
    c = ps.canonical()
    assert c.moduli == (1_000_000,)
    assert c.residues == {(7,)}


def test_pset_canonical_on_large_prime_and_near_limit_moduli():
    # factoring gcd(modulus, row count) instead of the modulus keeps these
    # instant; trial division up to sqrt(2^61 - 1) would not finish
    p = (1 << 61) - 1
    assert _pset((p,), {(0,)}).canonical().moduli == (p,)
    assert _pset((p,), set()).canonical().moduli == (1,)
    c = _pset((2 * p, p), {(0, 5), (p, 5)}).canonical()
    assert (c.moduli, c.residues) == ((p, p), {(0, 5)})
    c = _pset((2 * p,), {(1,), (2,)}).canonical()
    assert c.moduli == (2 * p,)


def test_sum_image_consistency_near_the_modulus_limit():
    # three residues near 2^62 sum past int64 unless reduced column by column
    p = (1 << 61) - 1
    top = (1 << 62) - 3
    ps = _pset((2 * p, 2 * p, p), {(top, top, p - 1), (1, 2, 3)})
    item = battery.pset_battery(ps)[-1]
    assert item["status"] == "pass"
    g = item["detail"]["image_modulus"]
    assert phi_image(ps).residues == {((2 * top + p - 1) % g,), (6 % g,)}


def test_sum_image_consistency_fails_on_a_wrong_image(monkeypatch):
    ps = _pset((4, 6), {(0, 0), (1, 1), (3, 1)})
    right = phi_image(ps)
    assert right.moduli == (2,) and right.residues == {(0,)}
    wrong = {"shifted": PeriodicSet(1, (2,), [(1,)]),
             "finer": PeriodicSet(1, (4,), [(0,), (1,)]),
             "empty": PeriodicSet.empty(1)}
    for name, img in wrong.items():
        monkeypatch.setattr(battery, "phi_image", lambda ps, img=img: img)
        item = battery.pset_battery(ps)[-1]
        assert item["check"] == "sum_image_consistency"
        assert item["status"] == "fail", name


def test_sum_image_consistency_matches_box_loop():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 3)
        moduli = tuple(rng.randint(1, 8) for _ in range(k))
        residues = {tuple(rng.randint(-20, 20) for _ in range(k))
                    for _ in range(rng.randint(0, 12))}
        ps = _pset(moduli, residues)
        item = battery.pset_battery(ps)[-1]
        assert item == ref.sum_image_consistency(ps)
        assert item["status"] == "pass"


def test_pset_lift_and_equality():
    a = _pset((2,), {(0,)})
    b = _pset((4,), {(0,), (2,)})
    assert a.equals(b)
    assert a.is_subset(b)
    assert not a.equals(_pset((4,), {(0,)}))


def test_pset_lifts_no_larger_than_an_input_are_never_refused(monkeypatch):
    full = _pset((10,), {(i,) for i in range(10)})
    assert full.lift_to((10,), cap=1) is full
    one = _pset((1,), {(0,)})
    with pytest.raises(InputError, match="size cap"):
        one.lift_to((10,), cap=5)
    monkeypatch.setattr(return_times, "JOIN_CAP", 5)
    with pytest.raises(InputError, match="size cap"):
        one.lift_to((10,))
    # lifted to 10, one holds as many rows as full
    la, lb = one._common(full)
    assert la.moduli == (10,) and len(la.rows) == 10 and lb is full
    # lifted to 6, the sets hold 3 and 2 rows: more than either and the cap
    monkeypatch.setattr(return_times, "JOIN_CAP", 2)
    with pytest.raises(InputError, match="size cap"):
        _pset((2,), {(0,)})._common(_pset((3,), {(0,)}))


def test_pset_density():
    assert _pset((4, 6), {(0, 0), (1, 1)}).density() == (2, 24)


def test_pset_text_round_trip():
    ps = _pset((6, 3), {(0, 0), (2, 2), (4, 1)})
    again = PeriodicSet.from_text(ps.to_text())
    assert again.equals(ps)
    assert again.moduli == ps.moduli


def test_pset_from_text_errors():
    with pytest.raises(InputError):
        PeriodicSet.from_text("cube-set d=1 dirs=1\n0,0\n")
    with pytest.raises(InputError):
        PeriodicSet.from_text("periodic-set k=2 moduli=2,2\n0\n")


def test_contains_zero_vector():
    assert contains_zero_vector(_pset((2, 2), {(0, 0)}))
    assert not contains_zero_vector(_pset((2, 2), {(0, 1)}))


# ---------------------------------------------------------------------------
# return sets


def test_return_set_matches_oracle(systems, oracle):
    ps = return_set(systems["rot6"], 0, {0})
    want = oracle["rot6_return_set_x0_U0"]
    assert list(ps.moduli) == want["moduli"]
    assert sorted(ps.residues) == [tuple(r) for r in want["residues"]]


def test_return_set_agrees_with_apply_word(systems):
    # n is in N(x, U) exactly when T^n x lands in U, over one period block
    for name in ("rot6", "z4xz3", "rot8_d3"):
        sys_ = systems[name]
        x = 0
        U = {0, min(1, sys_.n_points - 1)}
        ps = return_set(sys_, x, U)
        for n in product(*(range(L) for L in sys_.orders)):
            assert (n in ps) == (apply_word(sys_, n, x) in U), (name, n)


def test_return_set_rejects_bad_ids(systems):
    with pytest.raises(InputError):
        return_set(systems["rot6"], 9, {0})
    with pytest.raises(InputError):
        return_set(systems["rot6"], 0, {9})


# ---------------------------------------------------------------------------
# joinings


def test_d_joining_formula_d2():
    # (n1, n2) joins exactly when n2 lies in B1 and n1 lies in B2
    B1 = _pset((3,), {(0,), (1,)})
    B2 = _pset((2,), {(1,)})
    J = d_joining([B1, B2])
    for n1 in range(6):
        for n2 in range(6):
            expect = ((n2,) in B1) and ((n1,) in B2)
            assert ((n1, n2) in J) == expect


def test_d_joining_formula_d3():
    B = [_pset((2, 2), {(0, 0), (1, 1)}),
         _pset((2, 2), {(0, 1)}),
         _pset((2, 2), {(1, 0), (0, 0)})]
    J = d_joining(B)
    for n in product(range(2), repeat=3):
        expect = ((n[1], n[2]) in B[0] and (n[0], n[2]) in B[1]
                  and (n[0], n[1]) in B[2])
        assert (n in J) == expect


def test_d_joining_monotone_and_intersection():
    rng = random.Random(7)
    for _ in range(10):
        def rand_set():
            m = (rng.randrange(1, 7),)
            cells = [(c,) for c in range(m[0]) if rng.random() < 0.5]
            return _pset(m, set(cells))

        a1, a2, b1, b2 = rand_set(), rand_set(), rand_set(), rand_set()
        small = d_joining([a1, a2])
        # monotone in each argument
        big1 = d_joining([_union(a1, b1), a2])
        big2 = d_joining([a1, _union(a2, b2)])
        assert small.is_subset(big1)
        assert small.is_subset(big2)
        # commutes with componentwise intersection
        inter = d_joining([_intersect(a1, b1), _intersect(a2, b2)])
        both = _intersect(d_joining([a1, a2]), d_joining([b1, b2]))
        assert inter.equals(both)


def _union(a, b):
    la, lb = a._common(b)
    return PeriodicSet(a.k, la.moduli, la.residues | lb.residues)


def _intersect(a, b):
    la, lb = a._common(b)
    return PeriodicSet(a.k, la.moduli, la.residues & lb.residues)


def test_parity_3_joining_empty(fixture_dir, oracle):
    b1 = PeriodicSet.from_text((fixture_dir / "parityB1.pset").read_text())
    b2 = PeriodicSet.from_text((fixture_dir / "parityB2.pset").read_text())
    b3 = _pset(b1.moduli, {r for r in product(range(2), repeat=2)
                           if sum(r) % 2 == 0})
    J = d_joining([b1, b2, b3])
    assert J.is_empty() == oracle["parity3_joining_empty"]


def test_joining_nonempty_when_zero_vectors_present():
    rng = random.Random(3)
    for _ in range(20):
        sets = []
        for _ in range(2):
            m = (rng.randrange(1, 6),)
            cells = {(0,)} | {(rng.randrange(m[0]),) for _ in range(2)}
            sets.append(_pset(m, cells))
        J = d_joining(sets)
        assert contains_zero_vector(J)
        assert not J.is_empty()


def test_d_joining_rejects_wrong_arity():
    with pytest.raises(InputError):
        d_joining([_pset((2,), {(0,)})])
    with pytest.raises(InputError):
        d_joining([_pset((2, 2), {(0, 0)}), _pset((2,), {(0,)})])


# ---------------------------------------------------------------------------
# phi (coordinate-sum image)


def test_phi_image_oracle_cases(oracle):
    single = oracle["phi_examples"]["singleton"]
    img = phi_image(_pset((6, 6), {(1, 2)}))
    want = PeriodicSet(1, tuple(single["moduli"]),
                       frozenset((r,) for r in single["residues"]))
    assert img.equals(want)
    full = oracle["phi_examples"]["full_2_3"]
    img2 = phi_image(_pset((2, 3), {(0, 0)}))
    want2 = PeriodicSet(1, tuple(full["moduli"]),
                        frozenset((r,) for r in full["residues"]))
    assert img2.equals(want2)
    assert img2.canonical().moduli == (1,) and len(img2.rows) == 1


def test_phi_image_brute_force():
    rng = random.Random(11)
    for _ in range(10):
        m = (rng.randrange(1, 5), rng.randrange(1, 5))
        cells = {c for c in product(range(m[0]), range(m[1]))
                 if rng.random() < 0.4}
        ps = _pset(m, cells)
        img = phi_image(ps)
        M = m[0] * m[1]
        sums = {(a + b) % M for a in range(3 * M) for b in range(3 * M)
                if (a, b) in ps} if cells else set()
        brute = PeriodicSet(1, (M,), frozenset((s,) for s in sums))
        assert img.equals(brute)


# ---------------------------------------------------------------------------
# containment and realization


def test_joining_containment_minimal(systems):
    for name in ("rot6", "z4xz3", "rot8_d3"):
        res = joining_containment_check(systems[name], 0)
        assert res.status == "pass", name
        assert res.diagonal_identity
        assert res.joining.is_subset(res.target)
        # the return sets are the ones kept on their systems, which the
        # battery and product realization read again
        assert return_set(systems[name], 0, {0}) is res.target
        dec = decompose(systems[name], 0)
        for j, side in enumerate(res.side_sets, start=1):
            proj = dec.side_projections[j - 1]
            y = proj.values.index((0,) * len(proj.positions))
            assert return_set(drop_generator(proj.system, j), y, {y}) is side


def test_joining_containment_gates(systems):
    res = joining_containment_check(systems["nonmin_z4z2"], 0)
    assert res.status == "hypotheses-unmet"
    res2 = joining_containment_check(systems["rot6"], 0, U={1})
    assert res2.status == "hypotheses-unmet"  # x outside U


def test_drop_and_insert_generator(systems):
    sys_ = systems["rot6"]
    d1 = drop_generator(sys_, 2)
    assert d1.d == 1
    assert d1.perms == (sys_.perms[0],)
    back = insert_identity_generator(d1, 2)
    assert back.d == 2
    assert back.perms[0] == sys_.perms[0]
    assert back.perms[1] == tuple(range(6))
    with pytest.raises(InputError):
        drop_generator(d1, 1)  # cannot drop to d = 0
    with pytest.raises(InputError):
        insert_identity_generator(d1, 3)


def test_product_system_realization_round_trip():
    rot3 = parse_finite_system(
        "finite-system\npoints = 3\nd = 1\nT1 = [1, 2, 0]\n")
    rot6_1 = parse_finite_system(
        "finite-system\npoints = 6\nd = 1\nT1 = [1, 2, 3, 4, 5, 0]\n")
    factors = [(insert_identity_generator(rot3, 1), 0, frozenset({0})),
               (insert_identity_generator(rot6_1, 2), 0, frozenset({0}))]
    real = product_system_realization(factors)
    assert real.equal
    assert real.ucpp_ok
    assert real.system.n_points == 18
    assert real.return_set.equals(real.joining)


def test_join_cap_is_read_when_it_is_checked(systems, monkeypatch):
    # rot6's order box has 18 vectors, the product orbit below 9 points and
    # the joining of sets mod 2 and mod 3 a box of 6 vectors
    rot3 = parse_finite_system(
        "finite-system\npoints = 3\nd = 1\nT1 = [1, 2, 0]\n")
    factors = [(insert_identity_generator(rot3, 1), 0, frozenset({0})),
               (insert_identity_generator(rot3, 2), 0, frozenset({0}))]
    sets = [_pset((2,), {(0,)}), _pset((3,), {(0,)})]
    monkeypatch.setattr(return_times, "JOIN_CAP", 5)
    with pytest.raises(InputError, match="order box exceeds the size cap"):
        return_set(systems["rot6"], 0, {0})
    with pytest.raises(InputError, match="residue box exceeds the size cap"):
        d_joining(sets)
    with pytest.raises(InputError, match="orbit closure exceeds the size cap"):
        product_system_realization(factors)
    monkeypatch.setattr(return_times, "JOIN_CAP", 18)
    assert return_set(systems["rot6"], 0, {0}).moduli == (6, 3)
    assert d_joining(sets).moduli == (3, 2)
    assert product_system_realization(factors).equal


def test_product_orbit_cap_boundary(monkeypatch):
    # the orbit of 9 states fits a cap of 9, as do its order box and the
    # joining's residue box (3 x 3), so the realization completes; a cap of
    # 8 refuses the orbit itself
    rot3 = parse_finite_system(
        "finite-system\npoints = 3\nd = 1\nT1 = [1, 2, 0]\n")
    factors = [(insert_identity_generator(rot3, 1), 0, frozenset({0})),
               (insert_identity_generator(rot3, 2), 0, frozenset({0}))]
    monkeypatch.setattr(return_times, "JOIN_CAP", 9)
    got = product_system_realization(factors)
    assert got.system.n_points == 9 and got.equal
    monkeypatch.setattr(return_times, "JOIN_CAP", 8)
    with pytest.raises(InputError, match="orbit closure exceeds the size cap"):
        product_system_realization(factors)


def test_product_system_realization_rejects_wrong_slot():
    rot3 = parse_finite_system(
        "finite-system\npoints = 3\nd = 1\nT1 = [1, 2, 0]\n")
    factors = [(insert_identity_generator(rot3, 2), 0, frozenset({0})),
               (insert_identity_generator(rot3, 2), 0, frozenset({0}))]
    # factor 1 must have the identity in slot 1, not slot 2
    with pytest.raises(InputError):
        product_system_realization(factors)
