"""The closed-form test and the discretizer on integer numerators mod q
against the Fraction references in scalar_affine: equal results field by
field, and the same errors, on the fixtures, on random unitriangular
systems, from non-zero base points, past the int64 bound and on
non-unipotent matrices."""

import random
from fractions import Fraction

import pytest

import scalar_affine as ref
from zdcubes import affine
from zdcubes.affine import AffineZdSystem
from zdcubes.errors import InputError


def _outcome(fn, *args, **kwargs):
    """The result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (InputError, AssertionError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _same(fn_name, *args, **kwargs):
    got = _outcome(getattr(affine, fn_name), *args, **kwargs)
    want = _outcome(getattr(ref, fn_name), *args, **kwargs)
    assert got == want, (fn_name, args, kwargs)
    return got


def _unitriangular(rng, r):
    return tuple(tuple(1 if i == j else rng.randint(-3, 3) if j > i else 0
                       for j in range(r)) for i in range(r))


def _random_system(rng, commuting):
    r, d = rng.randint(1, 4), rng.randint(1, 3)
    if commuting:
        # powers of one unitriangular matrix commute
        gen = _unitriangular(rng, r)
        mats = [affine.mat_pow(gen, rng.randint(0, 2)) for _ in range(d)]
    else:
        mats = [_unitriangular(rng, r) for _ in range(d)]
    alphas = [tuple(Fraction(rng.randrange(den), den)
                    for den in (rng.choice((1, 2, 3, 4)) for _ in range(r)))
              for _ in range(d)]
    return AffineZdSystem(r=r, d=d, mats=tuple(mats), alphas=tuple(alphas))


@pytest.mark.parametrize("name", ["example83", "jordan3", "rot6"])
def test_formula_test_matches_reference_on_fixtures(affines, name):
    asys = affines[name]
    base = asys.lattice_denominator()
    for n_range in range(5):
        for q in (base, 2 * base):
            _same("formula_equivalence_test", asys, n_range=n_range, q=q)


@pytest.mark.parametrize("name", ["example83", "jordan3", "rot6"])
def test_discretize_matches_reference_on_fixtures(affines, name):
    asys = affines[name]
    base = asys.lattice_denominator()
    for q in (base, 2 * base):
        _same("discretize", asys, q, mode="orbit")
        # example83's full lattice at q=5 takes the reference about 16 s;
        # test_discretize_respects_the_maps checks it against transform
        if not (name == "example83" and q == base):
            _same("discretize", asys, q, mode="full")


def test_random_unitriangular_systems_match_reference():
    rng = random.Random(4)
    for trial in range(24):
        asys = _random_system(rng, commuting=trial % 2 == 0)
        base = asys.lattice_denominator()
        for n_range in range(3 if asys.d < 3 else 2):
            _same("formula_equivalence_test", asys, n_range=n_range, q=base)
        _same("formula_equivalence_test", asys, n_range=1, q=2 * base)
        # the reference steps one Fraction point at a time: keep its
        # lattices small
        if (2 * base) ** asys.r <= 4096:
            _same("discretize", asys, base, mode="orbit")
            _same("discretize", asys, base, mode="full")
            start = tuple(Fraction(rng.randrange(2 * base), 2 * base)
                          for _ in range(asys.r))
            _same("discretize", asys, 2 * base, mode="orbit", base=start)


def test_orbit_from_nonzero_base_points(affines):
    # the first three coordinates of example83 and the first of jordan3
    # are fixed by the matrices, so these orbits are translates of the
    # orbit of 0
    asys = affines["example83"]
    for start in ((Fraction(1, 5), Fraction(3, 5), Fraction(4, 5), 0, 0, 0),
                  (Fraction(2, 5),) * 6):
        _same("discretize", asys, 5, mode="orbit", base=start)
    _same("discretize", asys, 5, mode="orbit", cap=10)
    jordan = affines["jordan3"]
    for start in ((Fraction(1, 8), 0, 0), (Fraction(3, 8), Fraction(1, 4), 0)):
        _same("discretize", jordan, 8, mode="orbit", base=start)


@pytest.mark.parametrize("q", [10 ** 18, 5 * 10 ** 19])
def test_orbit_past_the_int64_bound(affines, q):
    # r*q^2 passes 2^63 at both q; the numerators themselves pass it at
    # the second
    asys = affines["example83"]
    start = (Fraction(7, q), Fraction(q - 1, q), Fraction(1, 2), 0, 0, 0)
    got = _same("discretize", asys, q, mode="orbit", base=start)
    assert got.n_points == 25
    _same("discretize", asys, q, mode="orbit")
    _same("discretize", affines["jordan3"], 4 * q, mode="orbit",
          base=(Fraction(5, 4 * q), 0, 0))


def test_python_integer_arithmetic_matches_reference(affines, monkeypatch):
    # the arrays of Python integers used past the int64 bound, forced on
    # lattices small enough for the reference
    monkeypatch.setattr(affine, "_ring", lambda r, q: object)
    for asys in affines.values():
        base = asys.lattice_denominator()
        for n_range in (0, 2):
            _same("formula_equivalence_test", asys, n_range=n_range, q=base)
        _same("discretize", asys, base, mode="orbit")
        _same("discretize", asys, 2 * base, mode="orbit")
    _same("discretize", affines["jordan3"], 8, mode="full")


def test_formula_test_with_a_cap_past_the_int64_bound():
    # at q = 2^32 a larger cap is needed and r*q^2 passes 2^63; a witness
    # is re-checked in Fraction arithmetic inside the test itself
    q = 1 << 32
    rot = AffineZdSystem(r=1, d=2, mats=(((1,),), ((1,),)),
                         alphas=((Fraction(3, q),), (Fraction(5, q),)))
    res = affine.formula_equivalence_test(rot, n_range=1, q=q, cap=q)
    assert (res.status, res.n_count, res.x_count) == ("pass", 9, q)
    shear = AffineZdSystem(r=2, d=2, mats=(((1, 1), (0, 1)),) * 2,
                           alphas=((Fraction(0), Fraction(1, q)),) * 2)
    res = affine.formula_equivalence_test(shear, n_range=1, q=q, cap=q * q)
    assert res.status == "witness" and res.lhs != res.rhs
    assert res.witness_n == (-1, -1)


def test_non_unipotent_matrices_raise_where_the_reference_does():
    doubling = AffineZdSystem(r=1, d=1, mats=(((2,),),),
                              alphas=((Fraction(1, 3),),))
    flip = AffineZdSystem(r=2, d=2, mats=(((1, 1), (0, 1)), ((1, 0), (0, -1))),
                          alphas=((Fraction(0), Fraction(1, 2)),) * 2)
    for asys in (doubling, flip):
        base = asys.lattice_denominator()
        for n_range in range(3):
            for q in (base, 2 * base):
                _same("formula_equivalence_test", asys, n_range=n_range, q=q)
        for q in (base, 2 * base, 3 * base):
            for mode in ("orbit", "full"):
                _same("discretize", asys, q, mode=mode)
    assert isinstance(affine.formula_equivalence_test(doubling, n_range=0),
                      affine.FormulaTestResult)
    assert _outcome(affine.discretize, doubling, 3, mode="orbit")[0] \
        is affine.InputError
