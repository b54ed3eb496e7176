from fractions import Fraction
from itertools import product

import pytest

from scalar_affine import closed_form_affine, word_affine
from zdcubes.affine import (
    AffineZdSystem,
    affine_to_text,
    closed_form,
    discretize,
    formula_equivalence_test,
    iterate_word,
    matcond_check,
    mod1,
    nilpotency_index,
    parse_affine,
    unipotent_inverse,
    validate_affine,
)
from zdcubes.errors import InputError
from zdcubes.finite_system import validate


def test_parse_round_trip(affines):
    for name, asys in affines.items():
        again = parse_affine(affine_to_text(asys))
        assert again.mats == asys.mats, name
        assert again.alphas == asys.alphas, name
        assert (again.r, again.d) == (asys.r, asys.d), name


def test_parse_rejects_malformed():
    with pytest.raises(InputError):
        parse_affine("affine-system\nr = 2\nd = 1\nA1 = [[1, 0]]\n"
                     "alpha1 = [0, 0]\n")  # A1 not 2x2
    with pytest.raises(InputError):
        parse_affine("finite-system\npoints = 2\nd = 1\nT1 = [1, 0]\n")


def test_validate_affine_fixtures(affines):
    for name in ("example83", "rot6"):
        v = validate_affine(affines[name])
        assert v.ok, name
        assert all(v.unipotent)
        assert v.mats_commute and v.translations_compatible
    vj = validate_affine(affines["jordan3"])
    assert vj.ok  # jordan3 is a valid system; it only fails the conditions


def test_validate_affine_catches_non_unipotent():
    bad = AffineZdSystem(r=1, d=1, mats=(((2,),),), alphas=((Fraction(0),),))
    v = validate_affine(bad)
    assert not v.ok
    assert v.unipotent == (False,)
    assert v.nilpotency_index == (None,)


def test_validate_affine_catches_non_commuting():
    a = ((1, 1), (0, 1))
    b = ((1, 0), (1, 1))
    bad = AffineZdSystem(r=2, d=2, mats=(a, b),
                         alphas=((Fraction(0),) * 2,) * 2)
    v = validate_affine(bad)
    assert not v.mats_commute
    assert v.mat_witness == (1, 2)


def test_unipotence_cross_checked_with_sympy(affines):
    sympy = pytest.importorskip("sympy")
    for name, asys in affines.items():
        v = validate_affine(asys)
        for i, m in enumerate(asys.mats):
            M = sympy.Matrix(m)
            # unipotent iff the characteristic polynomial is (x - 1)^r
            x = sympy.symbols("x")
            charpoly = M.charpoly(x).as_expr()
            expect = sympy.expand((x - 1) ** asys.r)
            assert (sympy.expand(charpoly - expect) == 0) == v.unipotent[i], \
                (name, i)


def test_nilpotency_index():
    n = ((0, 1), (0, 0))
    assert nilpotency_index(n) == 2
    assert nilpotency_index(((0, 0), (0, 0))) == 1
    assert nilpotency_index(((1, 0), (0, 1))) is None


def test_unipotent_inverse():
    a = ((1, 3), (0, 1))
    inv = unipotent_inverse(a)
    from zdcubes.affine import mat_mul

    assert mat_mul(a, inv) == ((1, 0), (0, 1))
    with pytest.raises(InputError):
        unipotent_inverse(((2, 0), (0, 1)))


def test_matcond_oracle(affines):
    m83 = matcond_check(affines["example83"])
    assert m83.product_zero
    assert all(m83.translation_zero)
    assert m83.all_ok
    mj = matcond_check(affines["jordan3"])
    assert not mj.all_ok


def test_closed_form_matches_iteration_when_conditions_hold(affines):
    for name in ("example83", "rot6"):
        asys = affines[name]
        xs = [tuple(Fraction(0) for _ in range(asys.r)),
              tuple(Fraction(1, 2) for _ in range(asys.r))]
        for n in product(range(-2, 3), repeat=asys.d):
            for x in xs:
                lhs = closed_form(asys, n, x)
                rhs = iterate_word(asys, n, x)
                assert lhs == rhs, (name, n, x)


def test_word_affine_matches_iteration(affines):
    asys = affines["jordan3"]
    x = (Fraction(1, 3),) * asys.r
    for n in product(range(-2, 3), repeat=asys.d):
        A, c = word_affine(asys, n)
        from zdcubes.affine import mat_vec

        direct = mod1(tuple(a + b for a, b in zip(mat_vec(A, x), c)))
        assert direct == iterate_word(asys, n, x), n


def test_formula_statuses(affines):
    ok = formula_equivalence_test(affines["example83"])
    assert ok.status == "pass"
    bad = formula_equivalence_test(affines["jordan3"])
    assert bad.status == "witness"
    assert bad.witness_n is not None and bad.witness_x is not None
    # the reported witness must be genuine
    assert closed_form(affines["jordan3"], bad.witness_n, bad.witness_x) != \
        iterate_word(affines["jordan3"], bad.witness_n, bad.witness_x)
    assert bad.lhs != bad.rhs


def test_formula_witness_matches_frozen_example(affines, oracle):
    # an independently recorded disagreement point: lhs is the iterated
    # value, rhs the closed-form value
    want = oracle["jordan_witness"]
    asys = affines["jordan3"]
    n = tuple(want["n"])
    x = tuple(Fraction(s) for s in want["x"])
    assert iterate_word(asys, n, x) == tuple(Fraction(s) for s in want["lhs"])
    assert closed_form(asys, n, x) == tuple(Fraction(s) for s in want["rhs"])
    assert closed_form(asys, n, x) != iterate_word(asys, n, x)


def test_closed_form_affine_consistency(affines):
    asys = affines["example83"]
    for n in product(range(-1, 2), repeat=asys.d):
        A1, c1 = word_affine(asys, n)
        A2, c2 = closed_form_affine(asys, n)
        assert A1 == A2
        assert mod1(c1) == mod1(c2), n


def test_discretize_orbit(affines, systems, oracle):
    asys = affines["example83"]
    f = discretize(asys, asys.lattice_denominator(), mode="orbit")
    rep = validate(f)
    assert rep.ok
    # the orbit system embeds in the full lattice system
    full = discretize(asys, asys.lattice_denominator(), mode="full")
    assert validate(full).ok
    assert f.n_points <= full.n_points


def test_discretize_matches_shipped_fixture(affines, systems):
    # affine25.fsys is the shipped discretized orbit of example83
    f = discretize(affines["example83"],
                   affines["example83"].lattice_denominator(), mode="orbit")
    shipped = systems["affine25"]
    assert f.n_points == shipped.n_points
    assert f.perms == shipped.perms


def test_discretize_rejects_bad_q(affines):
    with pytest.raises(InputError):
        discretize(affines["example83"], 7)


def test_discretize_respects_the_maps(affines):
    asys = affines["example83"]
    q = asys.lattice_denominator()
    f = discretize(asys, q, mode="full")
    # every generator of the finite system matches the torus map on labels
    assert f.labels is not None
    vecs = [tuple(Fraction(s) for s in lab.split(",")) for lab in f.labels]
    for i in range(asys.d):
        from zdcubes.affine import transform

        for x_id, v in enumerate(vecs):
            image = transform(asys, i + 1, 1, v)
            assert vecs[f.perms[i][x_id]] == image
