"""Fraction reference implementations of the affine layer.

These are the matrix helpers, the condition checks, single-point iteration,
the closed-form test and the discretizer as they were first written: tuple
matrices multiplied in Python integers, every composite map built in exact
`Fraction` arithmetic by `affine_pow`, the identity evaluated on every
lattice point, and the orbit found point by point with a Python set.  Only
the system and result types come from the library.  zdcubes.affine works
on int arrays and integer numerators instead and must give exactly the same
results and raise the same errors; tests/test_affine_numerators.py compares
them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from zdcubes.affine import (LATTICE_CAP, AffineValidation, AffineZdSystem,
                            FormulaTestResult, MatCondReport, Matrix,
                            TorusPoint)
from zdcubes.errors import InputError
from zdcubes.finite_system import FiniteZdSystem


def _identity(r: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    r = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(r)) for j in range(r))
        for i in range(r)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: int, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_sub_identity(a: Matrix) -> Matrix:
    return tuple(
        tuple(x - (1 if i == j else 0) for j, x in enumerate(row))
        for i, row in enumerate(a)
    )


def mat_is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def mat_vec(a: Matrix, v: tuple) -> tuple:
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def mat_pow(a: Matrix, e: int) -> Matrix:
    out = _identity(len(a))
    base = a
    while e:
        if e & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        e >>= 1
    return out


def nilpotency_index(n: Matrix) -> int | None:
    """Smallest s with N^s = 0, or None when N is not nilpotent."""
    r = len(n)
    power = _identity(r)
    for s in range(r + 1):
        if mat_is_zero(power):
            return s
        power = mat_mul(power, n)
    return None


def mod1(v: tuple) -> TorusPoint:
    return tuple(Fraction(x) % 1 for x in v)


def validate_affine(sys: AffineZdSystem) -> AffineValidation:
    nil = tuple(nilpotency_index(mat_sub_identity(a)) for a in sys.mats)
    unip = tuple(s is not None for s in nil)
    mat_witness = None
    for i in range(sys.d):
        for j in range(i + 1, sys.d):
            if mat_mul(sys.mats[i], sys.mats[j]) != mat_mul(sys.mats[j], sys.mats[i]):
                mat_witness = (i + 1, j + 1)
                break
        if mat_witness:
            break
    trans_witness = None
    for i in range(sys.d):
        for j in range(i + 1, sys.d):
            lhs = mat_vec(mat_sub_identity(sys.mats[i]), sys.alphas[j])
            rhs = mat_vec(mat_sub_identity(sys.mats[j]), sys.alphas[i])
            if any((a - b) % 1 != 0 for a, b in zip(lhs, rhs)):
                trans_witness = (i + 1, j + 1)
                break
        if trans_witness:
            break
    return AffineValidation(
        ok=all(unip) and mat_witness is None and trans_witness is None,
        unipotent=unip, nilpotency_index=nil,
        mats_commute=mat_witness is None, mat_witness=mat_witness,
        translations_compatible=trans_witness is None, trans_witness=trans_witness,
    )


def matcond_check(sys: AffineZdSystem) -> MatCondReport:
    ns = [mat_sub_identity(a) for a in sys.mats]
    prod_all = _identity(sys.r)
    for n in ns:
        prod_all = mat_mul(prod_all, n)
    trans = []
    for j in range(sys.d):
        p = _identity(sys.r)
        for i in range(sys.d):
            if i != j:
                p = mat_mul(p, ns[i])
        image = mat_vec(p, sys.alphas[j])
        trans.append(all(x % 1 == 0 for x in image))
    return MatCondReport(product_zero=mat_is_zero(prod_all),
                         translation_zero=tuple(trans))


def unipotent_inverse(a: Matrix) -> Matrix:
    """(I + N)^{-1} = I - N + N^2 - .. for nilpotent N = A - I."""
    n = mat_sub_identity(a)
    idx = nilpotency_index(n)
    if idx is None:
        raise InputError("matrix is not unipotent; no integer inverse")
    out = _identity(len(a))
    power = _identity(len(a))
    for s in range(1, idx):
        power = mat_mul(power, n)
        out = mat_add(out, mat_scale((-1) ** s, power))
    return out


def affine_pow(a: Matrix, alpha: TorusPoint, n: int) -> tuple[Matrix, tuple]:
    """T^n as an affine map (matrix, translation), exact for any sign of n."""
    r = len(a)
    if n >= 0:
        # t_n = (I + A + .. + A^{n-1}) alpha, from T^1 = (A, alpha)
        power, t = (a, tuple(alpha)) if n else (_identity(r), (Fraction(0),) * r)
        for _ in range(n - 1):
            t = tuple(x + y for x, y in zip(mat_vec(power, alpha), t))
            power = mat_mul(power, a)
        return power, t
    _, t_pos = affine_pow(a, alpha, -n)
    inv = mat_pow(unipotent_inverse(a), -n)
    t = tuple(-x for x in mat_vec(inv, t_pos))
    return inv, t


def transform(sys: AffineZdSystem, i: int, n: int, x: TorusPoint) -> TorusPoint:
    """T_i^n x."""
    if not 1 <= i <= sys.d:
        raise InputError(f"direction {i} out of range 1..{sys.d}")
    m, t = affine_pow(sys.mats[i - 1], sys.alphas[i - 1], n)
    return mod1(tuple(a + b for a, b in zip(mat_vec(m, x), t)))


def iterate_word(sys: AffineZdSystem, n_vec, x: TorusPoint) -> TorusPoint:
    """T_1^{n_1} .. T_d^{n_d} x by direct composition."""
    if len(n_vec) != sys.d:
        raise InputError(f"word length {len(n_vec)} != d = {sys.d}")
    y = tuple(Fraction(v) for v in x)
    for i in range(sys.d, 0, -1):
        y = transform(sys, i, n_vec[i - 1], y)
    return mod1(y)


def closed_form(sys: AffineZdSystem, n_vec, x: TorusPoint) -> TorusPoint:
    """The alternating-sum expression over proper subsets of the directions."""
    if len(n_vec) != sys.d:
        raise InputError(f"word length {len(n_vec)} != d = {sys.d}")
    x = tuple(Fraction(v) for v in x)
    acc = [Fraction(0)] * sys.r
    sign_d = (-1) ** sys.d
    for bits in range(1 << sys.d):
        size = bin(bits).count("1")
        if size == sys.d:
            continue
        y = x
        for i in range(sys.d, 0, -1):
            if (bits >> (i - 1)) & 1:
                y = transform(sys, i, n_vec[i - 1], y)
        coeff = sign_d * ((-1) ** (size + 1))
        acc = [a + coeff * v for a, v in zip(acc, y)]
    return mod1(tuple(acc))


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
