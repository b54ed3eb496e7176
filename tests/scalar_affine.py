"""Fraction reference implementations of the affine lattice code.

These are the closed-form test and the discretizer as they were first
written: every composite map built in exact `Fraction` arithmetic by
`affine_pow`, the identity evaluated on every lattice point, and the orbit
found point by point with a Python set.  zdcubes.affine works on integer
numerators mod q instead and must give exactly the same results and raise
the same errors; tests/test_affine_numerators.py compares them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from zdcubes.affine import (LATTICE_CAP, AffineZdSystem, FormulaTestResult,
                            Matrix, TorusPoint, _identity, affine_pow,
                            closed_form, iterate_word, mat_add, mat_mul,
                            mat_scale, mat_vec, matcond_check, transform)
from zdcubes.errors import InputError
from zdcubes.finite_system import FiniteZdSystem


def word_affine(sys: AffineZdSystem, n_vec) -> tuple[Matrix, tuple]:
    """The composite T_1^{n_1} .. T_d^{n_d} as one affine map."""
    r = sys.r
    m = _identity(r)
    t = (Fraction(0),) * r
    for i in range(sys.d, 0, -1):
        mi, ti = affine_pow(sys.mats[i - 1], sys.alphas[i - 1], n_vec[i - 1])
        m = mat_mul(mi, m)
        t = tuple(a + b for a, b in zip(mat_vec(mi, t), ti))
    return m, t


def closed_form_affine(sys: AffineZdSystem, n_vec) -> tuple[Matrix, tuple]:
    """The alternating sum as a single affine map (the sum of affine maps is
    affine; signs carry through matrices and translations)."""
    r = sys.r
    m = tuple((0,) * r for _ in range(r))
    t = (Fraction(0),) * r
    sign_d = (-1) ** sys.d
    for bits in range(1 << sys.d):
        size = bin(bits).count("1")
        if size == sys.d:
            continue
        mi = _identity(r)
        ti = (Fraction(0),) * r
        for i in range(sys.d, 0, -1):
            if (bits >> (i - 1)) & 1:
                ms, ts = affine_pow(sys.mats[i - 1], sys.alphas[i - 1], n_vec[i - 1])
                mi = mat_mul(ms, mi)
                ti = tuple(a + b for a, b in zip(mat_vec(ms, ti), ts))
        coeff = sign_d * ((-1) ** (size + 1))
        m = mat_add(m, mat_scale(coeff, mi))
        t = tuple(a + coeff * b for a, b in zip(t, ti))
    return m, t


def formula_equivalence_test(sys: AffineZdSystem, *, n_range: int = 3,
                             q: int | None = None,
                             cap: int = LATTICE_CAP) -> FormulaTestResult:
    """Both sides as Fraction affine maps, compared on every lattice point."""
    base_q = sys.lattice_denominator()
    if q is None:
        q = base_q
    elif q % base_q:
        raise InputError(
            f"q = {q} is not a multiple of the translation denominator {base_q}")
    if q ** sys.r > cap:
        raise InputError(
            f"lattice has {q ** sys.r} points, over the cap {cap}")
    conds = matcond_check(sys)
    grids = np.meshgrid(*[np.arange(q, dtype=np.int64)] * sys.r, indexing="ij")
    lattice = np.stack([g.ravel() for g in grids], axis=0)  # (r, q^r)
    n_values = list(product(range(-n_range, n_range + 1), repeat=sys.d))
    witness = None
    for n_vec in n_values:
        ml, tl = word_affine(sys, n_vec)
        mr, tr = closed_form_affine(sys, n_vec)
        tl_num = np.array([int(v * q) % q for v in tl], dtype=np.int64)
        tr_num = np.array([int(v * q) % q for v in tr], dtype=np.int64)
        left = (np.array(ml, dtype=np.int64) @ lattice + tl_num[:, None]) % q
        right = (np.array(mr, dtype=np.int64) @ lattice + tr_num[:, None]) % q
        diff = (left != right).any(axis=0)
        if diff.any():
            idx = int(np.argmax(diff))
            x = tuple(Fraction(int(v), q) for v in lattice[:, idx])
            witness = (tuple(n_vec), x)
            break
    x_count = q ** sys.r
    if conds.all_ok:
        status = "pass" if witness is None else "fail"
    else:
        status = "witness" if witness is not None else "inconclusive"
    lhs = rhs = None
    if witness is not None:
        lhs = iterate_word(sys, witness[0], witness[1])
        rhs = closed_form(sys, witness[0], witness[1])
        if lhs == rhs:
            raise AssertionError("vectorized and exact evaluations disagree; bug")
    return FormulaTestResult(
        status=status, conds=conds, q=q, n_range=n_range,
        n_count=len(n_values), x_count=x_count,
        witness_n=witness[0] if witness else None,
        witness_x=witness[1] if witness else None,
        lhs=lhs, rhs=rhs,
    )


def discretize(sys: AffineZdSystem, q: int, *, mode: str = "orbit",
               base: TorusPoint | None = None,
               cap: int = LATTICE_CAP) -> FiniteZdSystem:
    """The lattice or the orbit as sorted Fraction vectors, stepped one
    point at a time."""
    base_q = sys.lattice_denominator()
    if q < 1 or q % base_q:
        raise InputError(
            f"q = {q} is not a positive multiple of the translation "
            f"denominator {base_q}")
    if base is None:
        base = (Fraction(0),) * sys.r
    base = tuple(Fraction(v) % 1 for v in base)
    if len(base) != sys.r:
        raise InputError("base point arity mismatch")
    for v in base:
        if (v * q).denominator != 1:
            raise InputError(f"base coordinate {v} is not on the 1/{q} lattice")
    if mode not in ("orbit", "full"):
        raise InputError(f"mode must be 'orbit' or 'full', got {mode!r}")

    def step(v: TorusPoint, i: int) -> TorusPoint:
        return transform(sys, i, 1, v)

    def step_back(v: TorusPoint, i: int) -> TorusPoint:
        return transform(sys, i, -1, v)

    if mode == "full":
        if q ** sys.r > cap:
            raise InputError(f"full lattice has {q ** sys.r} points, over {cap}")
        points = sorted(
            tuple(Fraction(n, q) for n in vec)
            for vec in product(range(q), repeat=sys.r)
        )
    else:
        seen = {base}
        frontier = [base]
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(1, sys.d + 1):
                    for img in (step(v, i), step_back(v, i)):
                        if img not in seen:
                            seen.add(img)
                            nxt.append(img)
            frontier = nxt
            if len(seen) > cap:
                raise InputError(f"orbit exceeds the size cap {cap}")
        points = sorted(seen)
    index = {p: i for i, p in enumerate(points)}
    perms = []
    for i in range(1, sys.d + 1):
        row = []
        for p in points:
            img = step(p, i)
            if img not in index:
                raise AssertionError("lattice is not invariant; bug")
            row.append(index[img])
        perms.append(tuple(row))
    labels = tuple(",".join(str(v) for v in p) for p in points)
    return FiniteZdSystem(len(points), sys.d, tuple(perms),
                          name=f"{sys.name}@1/{q}" if sys.name else f"lattice 1/{q}",
                          labels=labels)
