"""The affine layer on int arrays and integer numerators against the
Fraction references in scalar_affine: equal results field by field, and the
same errors, for the closed-form test and the discretizer on the fixtures,
on random unitriangular systems, from non-zero base points, past the int64
bound and on non-unipotent matrices; and for the matrix checks and
single-point iteration on random systems whose entries reach 2^32 and
more, some with a non-unipotent matrix."""

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
    if fn_name == "formula_equivalence_test":
        # the library evaluates no lattice point and has no lattice cap; the
        # reference evaluates every one, under a cap
        asys, q = args[0], kwargs.get("q")
        kwargs["cap"] = (asys.lattice_denominator() if q is None else q) ** asys.r
    want = _outcome(getattr(ref, fn_name), *args, **kwargs)
    assert got == want, (fn_name, args, kwargs)
    return got


def _unitriangular(rng, r, big=False):
    def entry():
        if big and rng.random() < 0.5:
            return rng.choice((-1, 1)) * rng.randint(1 << 32, 1 << 41)
        return rng.randint(-3, 3)

    return tuple(tuple(1 if i == j else entry() if j > i else 0
                       for j in range(r)) for i in range(r))


def _random_system(rng, commuting, big=False):
    r, d = rng.randint(1, 4), rng.randint(1, 3)
    if commuting:
        # powers of one unitriangular matrix commute
        gen = _unitriangular(rng, r, big)
        mats = [ref.mat_pow(gen, rng.randint(0, 2)) for _ in range(d)]
    else:
        mats = [_unitriangular(rng, r, big) for _ in range(d)]
    alphas = [tuple(Fraction(rng.randrange(den), den)
                    for den in (rng.choice((1, 2, 3, 4)) for _ in range(r)))
              for _ in range(d)]
    return AffineZdSystem(r=r, d=d, mats=tuple(mats), alphas=tuple(alphas))


@pytest.mark.parametrize("name", ["example83", "jordan3", "rot6"])
def test_formula_test_matches_reference_on_fixtures(affines, name):
    asys = affines[name]
    base = asys.lattice_denominator()
    for q in (base, 2 * base):
        # the reference evaluates every lattice point: on example83's 10^6
        # points at q = 10, it is run on the two smallest ranges only
        for n_range in range(5 if q ** asys.r <= ref.LATTICE_CAP else 2):
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


def test_orbit_from_nonzero_base_points(affines, monkeypatch):
    # the first three coordinates of example83 and the first of jordan3
    # are fixed by the matrices, so these orbits are translates of the
    # orbit of 0
    asys = affines["example83"]
    for start in ((Fraction(1, 5), Fraction(3, 5), Fraction(4, 5), 0, 0, 0),
                  (Fraction(2, 5),) * 6):
        _same("discretize", asys, 5, mode="orbit", base=start)
    jordan = affines["jordan3"]
    for start in ((Fraction(1, 8), 0, 0), (Fraction(3, 8), Fraction(1, 4), 0)):
        _same("discretize", jordan, 8, mode="orbit", base=start)
    # the cap is read when discretize checks it
    monkeypatch.setattr(affine, "LATTICE_CAP", 10)
    assert _outcome(affine.discretize, asys, 5, mode="orbit") == \
        _outcome(ref.discretize, asys, 5, mode="orbit", cap=10)


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


def test_formula_test_past_the_int64_bound():
    # at q = 2^32, r*q^2 passes 2^63; a witness is re-checked in Fraction
    # arithmetic inside the test itself
    q = 1 << 32
    rot = AffineZdSystem(r=1, d=2, mats=(((1,),), ((1,),)),
                         alphas=((Fraction(3, q),), (Fraction(5, q),)))
    res = affine.formula_equivalence_test(rot, n_range=1, q=q)
    assert (res.status, res.n_count, res.x_count) == ("pass", 9, q)
    shear = AffineZdSystem(r=2, d=2, mats=(((1, 1), (0, 1)),) * 2,
                           alphas=((Fraction(0), Fraction(1, q)),) * 2)
    res = affine.formula_equivalence_test(shear, n_range=1, q=q)
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


def _non_unipotent(rng, r):
    """A unitriangular matrix with one diagonal entry replaced by 2 or -1,
    or with one entry planted below the diagonal."""
    m = [list(row) for row in _unitriangular(rng, r, big=True)]
    if r > 1 and rng.random() < 0.5:
        i = rng.randrange(1, r)
        m[i][rng.randrange(i)] = rng.choice((-1, 1, 1 << 33))
    else:
        i = rng.randrange(r)
        m[i][i] = rng.choice((2, -1))
    return tuple(map(tuple, m))


def _random_point(rng, r):
    """Fractions with small denominators, some outside [0, 1), and ints."""
    return tuple(rng.randint(-2, 2) if rng.random() < 0.2
                 else Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7)))
                 for _ in range(r))


def test_matrix_checks_and_points_match_reference_on_random_systems():
    # entries up to 2^41 push products past the int64 bound, onto Python
    # integers; a non-unipotent matrix must give the reference's verdicts,
    # and its error wherever an inverse step is taken
    rng = random.Random(15)
    for trial in range(48):
        asys = _random_system(rng, commuting=trial % 2 == 0, big=trial % 3 > 0)
        if trial % 4 == 3:
            mats = list(asys.mats)
            mats[rng.randrange(asys.d)] = _non_unipotent(rng, asys.r)
            asys = AffineZdSystem(r=asys.r, d=asys.d, mats=tuple(mats),
                                  alphas=asys.alphas)
        _same("validate_affine", asys)
        _same("matcond_check", asys)
        for a in asys.mats:
            _same("nilpotency_index", ref.mat_sub_identity(a))
            _same("unipotent_inverse", a)
        for _ in range(3):
            x = _random_point(rng, asys.r)
            for i in range(1, asys.d + 1):
                for n in (-2, -1, 0, 1, 3):
                    _same("transform", asys, i, n, x)
            n_vec = tuple(rng.randint(-2, 2) for _ in range(asys.d))
            _same("iterate_word", asys, n_vec, x)
            _same("closed_form", asys, n_vec, x)
