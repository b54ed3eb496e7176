"""Affine maps x -> Ax + alpha on the rational torus (R/Z)^r with unipotent
integer matrices, in exact integer arithmetic.

The commuting family T_1..T_d admits a closed form for the composed iterate:
with d directions,

    T_1^{n_1} .. T_d^{n_d} x
        = (-1)^d * sum over proper subsets I of {1..d} of
          (-1)^{|I|+1} (composition of T_k^{n_k}, k in I)(x)

whenever the matrix product of the (A_i - I) vanishes and, for every j, the
product over i != j of (A_i - I) sends alpha_j into Z^r.

A system derives its integer form once (AffineZdSystem.integer_form): the
lattice denominator q of the translations, their numerators q*alpha_i, the
matrices as int arrays, and the nilpotency index and inverse of each
matrix.  Matrix products are exact (_product): int64 while a bound on the
operands' entries keeps every sum below 2^63, Python integers past it.  A
condition on translations is a congruence mod q of numerators, such as
P(q*alpha_j) = 0 (mod q) for P(alpha_j) in Z^r.

The identity test and the discretizer work on the denominator-q lattice in
integer numerators mod q: the point k/q is the row k, and T_i acts as
k -> A_i k + q*alpha_i (mod q).  Both sides of the identity are affine maps
k -> M k + t, so they agree on every lattice point iff their matrices and
translations agree mod q; no lattice point is evaluated.  Powers of each T_i
come from one table built by one-step composition.  Arithmetic mod q is
int64 while r*q^2 < 2^63, which bounds every entry before its reduction,
and Python integers past that (_ring).  Single points (transform,
iterate_word, closed_form) step their numerators over the lcm of q and
their own denominators the same way; Fractions appear only where points
enter and leave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ._arrays import _distinct, _orbit_closure
from ._text import _read_keys
from .cube_engine import RowIndex, row_keys
from .errors import InputError
from .finite_system import FiniteZdSystem

Matrix = tuple[tuple[int, ...], ...]
TorusPoint = tuple[Fraction, ...]

# points of a discretized lattice or orbit; read where it is checked
LATTICE_CAP = 200_000


# ---------------------------------------------------------------------------
# exact integer matrices


def _peak(a: np.ndarray) -> int:
    """The largest absolute value of an entry, as a Python integer."""
    return max(int(a.max()), -int(a.min()))


def _int_array(m) -> np.ndarray:
    """Nested integer sequences as an exact array: int64 while every entry
    is below 2^62 in absolute value, so that A - I stays in int64, and
    Python integers otherwise."""
    try:
        a = np.array(m, dtype=np.int64)
        if _peak(a) < 1 << 62:
            return a
    except OverflowError:
        pass
    return np.array(m, dtype=object)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b exactly, with matmul's broadcasting.  Every entry and partial
    sum is below r*max|a|*max|b|, so the product runs in int64 while that
    bound is below 2^63 and on Python integers past it, the rule _ring
    applies mod q.  A peak is taken as at least 1, so that both operands
    fit in int64 on that path even when the other is zero."""
    if a.shape[-1] * max(_peak(a), 1) * max(_peak(b), 1) < 1 << 63:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return a.astype(object) @ b.astype(object)


def _ring(r: int, q: int):
    """dtype of numerator arithmetic mod q.  A product entry before its
    reduction is below r*q^2 (r products under q^2, plus a translation
    under q), so int64 is exact while r*q^2 < 2^63; past that the arrays
    hold Python integers."""
    return np.int64 if r * q * q < 1 << 63 else object


def _mod(a: np.ndarray, q: int, dtype) -> np.ndarray:
    """a reduced mod q into 0..q-1, as an array of dtype; on Python
    integers unless both a and q fit in int64."""
    if a.dtype == object or q >= 1 << 63:
        a = a.astype(object)
    return (a % q).astype(dtype, copy=False)


def _nilpotent(n: np.ndarray) -> tuple[int | None, np.ndarray | None]:
    """The nilpotency index s of N (the least s with N^s = 0) and the
    inverse (I + N)^{-1} = I - N + N^2 - .. +- N^{s-1}, or (None, None) when
    N^r != 0, that is when I + N is not unipotent."""
    r = len(n)
    powers = [np.eye(r, dtype=np.int64)]
    while np.any(powers[-1]):
        if len(powers) > r:
            return None, None
        powers.append(_product(powers[-1], n))
    powers.pop()
    dtype = np.int64 if sum(map(_peak, powers)) < 1 << 63 else object
    inverse = np.zeros((r, r), dtype=dtype)
    for s, power in enumerate(powers):
        power = power.astype(dtype, copy=False)
        inverse = inverse - power if s % 2 else inverse + power
    return len(powers), inverse


def nilpotency_index(n: Matrix) -> int | None:
    """Smallest s with N^s = 0, or None when N is not nilpotent."""
    return _nilpotent(_int_array(n))[0]


def unipotent_inverse(a: Matrix) -> Matrix:
    """(I + N)^{-1} = I - N + N^2 - .. for nilpotent N = A - I."""
    a = _int_array(a)
    inverse = _nilpotent(a - np.eye(len(a), dtype=np.int64))[1]
    if inverse is None:
        raise InputError("matrix is not unipotent; no integer inverse")
    return tuple(map(tuple, inverse.tolist()))


class _IntegerForm:
    """An AffineZdSystem in integers, derived once per system
    (AffineZdSystem.integer_form).  q is the least common denominator of
    the translations and shifts[i] holds the numerators q*alpha_{i+1}, in
    0..q-1; mats and nils stack the A_i and the A_i - I as exact (d, r, r)
    arrays; nil_index[i] and inverses[i] are the nilpotency index of
    A_{i+1} - I and the inverse of A_{i+1}, both None when A_{i+1} is not
    unipotent."""

    __slots__ = ("q", "shifts", "mats", "nils", "nil_index", "inverses")

    def __init__(self, sys: AffineZdSystem) -> None:
        self.q = q = sys.lattice_denominator()
        self.shifts = tuple(tuple(x.numerator * (q // x.denominator) for x in a)
                            for a in sys.alphas)
        self.mats = _int_array(sys.mats)
        self.nils = self.mats - np.eye(sys.r, dtype=np.int64)
        found = [_nilpotent(n) for n in self.nils]
        self.nil_index = tuple(s for s, _ in found)
        self.inverses = tuple(inverse for _, inverse in found)


@dataclass(frozen=True)
class AffineZdSystem:
    """d commuting affine maps T_i x = A_i x + alpha_i on (R/Z)^r.

    Translations are reduced mod 1 at construction; that never changes the
    maps.  Validity (unipotence, commutation) is a separate report so that
    broken inputs can still be examined."""

    r: int
    d: int
    mats: tuple[Matrix, ...]
    alphas: tuple[TorusPoint, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if self.r < 1:
            raise InputError(f"need r >= 1, got {self.r}")
        if not 1 <= self.d <= 10:
            raise InputError(f"d must be in 1..10, got {self.d}")
        if len(self.mats) != self.d or len(self.alphas) != self.d:
            raise InputError("need one matrix and one translation per direction")
        mats = []
        for i, m in enumerate(self.mats, start=1):
            m = tuple(tuple(int(x) for x in row) for row in m)
            if len(m) != self.r or any(len(row) != self.r for row in m):
                raise InputError(f"A{i} is not {self.r}x{self.r}")
            mats.append(m)
        alphas = []
        for i, a in enumerate(self.alphas, start=1):
            if len(a) != self.r:
                raise InputError(f"alpha{i} does not have {self.r} entries")
            alphas.append(tuple(Fraction(x) % 1 for x in a))
        object.__setattr__(self, "mats", tuple(mats))
        object.__setattr__(self, "alphas", tuple(alphas))

    def lattice_denominator(self) -> int:
        """Least q with every translation in (1/q) Z^r."""
        q = 1
        for a in self.alphas:
            for x in a:
                q = math.lcm(q, x.denominator)
        return q

    @cached_property
    def integer_form(self) -> _IntegerForm:
        return _IntegerForm(self)

    @cached_property
    def _conditions(self) -> MatCondReport:
        return _matrix_conditions(self)

    @cached_property
    def _power_tables(self) -> dict:
        """q -> (lo, hi, tables): the widest range of powers _power_table
        has built on the lattice of denominator q."""
        return {}


class AffineValidation(NamedTuple):
    ok: bool
    unipotent: tuple[bool, ...]
    nilpotency_index: tuple[int | None, ...]
    mats_commute: bool
    mat_witness: tuple[int, int] | None
    translations_compatible: bool
    trans_witness: tuple[int, int] | None


def _first_pair(bad: np.ndarray) -> tuple[int, int] | None:
    """The first (i, j), i < j, numbered from 1, in row-major order with
    bad[i-1, j-1]."""
    for i, j in np.argwhere(bad).tolist():
        if i < j:
            return i + 1, j + 1
    return None


def validate_affine(sys: AffineZdSystem) -> AffineValidation:
    """Unipotence of every matrix, pairwise commutation of the matrices, and
    the mixed condition (A_i - I) alpha_j = (A_j - I) alpha_i mod Z^r that
    makes the affine maps commute on the torus, tested on the numerators as
    (A_i - I)(q*alpha_j) = (A_j - I)(q*alpha_i) (mod q)."""
    form = sys.integer_form
    unip = tuple(s is not None for s in form.nil_index)
    products = _product(form.mats[:, None], form.mats[None, :])  # A_i A_j
    mat_witness = _first_pair(
        (products != products.swapaxes(0, 1)).any(axis=(2, 3)))
    q, dtype = form.q, _ring(sys.r, form.q)
    # images[i, j] = (A_i - I)(q*alpha_j), below r*q^2 before reduction
    images = (_mod(form.nils, q, dtype)
              @ np.array(form.shifts, dtype=dtype).T).swapaxes(1, 2)
    trans_witness = _first_pair(
        ((images - images.swapaxes(0, 1)) % q).any(axis=2))
    return AffineValidation(
        ok=all(unip) and mat_witness is None and trans_witness is None,
        unipotent=unip, nilpotency_index=form.nil_index,
        mats_commute=mat_witness is None, mat_witness=mat_witness,
        translations_compatible=trans_witness is None, trans_witness=trans_witness,
    )


class MatCondReport(NamedTuple):
    """product_zero: the product of all (A_i - I) vanishes.
    translation_zero[j-1]: the product over i != j of (A_i - I) maps alpha_j
    into Z^r.  For d = 2 these are the two classical conditions."""

    product_zero: bool
    translation_zero: tuple[bool, ...]

    @property
    def all_ok(self) -> bool:
        return self.product_zero and all(self.translation_zero)


def matcond_check(sys: AffineZdSystem) -> MatCondReport:
    """The product (A_1 - I) .. (A_d - I) exactly, and for each j the
    congruence P_j(q*alpha_j) = 0 (mod q), P_j the product over i != j in
    index order, taken mod q.  The report is kept on the system, as the
    affine battery and the formula test both ask for it."""
    return sys._conditions


def _matrix_conditions(sys: AffineZdSystem) -> MatCondReport:
    form = sys.integer_form
    prod_all = form.nils[0]
    for n in form.nils[1:]:
        if not np.any(prod_all):
            break  # a zero product stays zero
        prod_all = _product(prod_all, n)
    q, dtype = form.q, _ring(sys.r, form.q)
    nils = _mod(form.nils, q, dtype)
    trans = []
    for j in range(sys.d):
        p = np.eye(sys.r, dtype=dtype)
        for i in range(sys.d):
            if i != j:
                p = p @ nils[i] % q
        image = p @ np.array(form.shifts[j], dtype=dtype) % q
        trans.append(not np.any(image))
    return MatCondReport(product_zero=not np.any(prod_all),
                         translation_zero=tuple(trans))


# ---------------------------------------------------------------------------
# affine maps on the numerators of the 1/q lattice
#
# A lattice point is k/q with k in (Z/q)^r, and T_i acts on numerators as
# k -> A_i k + q*alpha_i (mod q).  A map is a pair (M, t) of arrays with
# entries in 0..q-1; points are rows of numerators, whose lexicographic
# order is the order of the torus vectors.

N_CHUNK = 4096  # exponent vectors per batch of the formula test


def _step(sys: AffineZdSystem, i: int, sign: int,
          q: int) -> tuple[np.ndarray, np.ndarray]:
    """T_{i+1} (sign 1) or its inverse (sign -1) on numerators mod q, a
    multiple of the lattice denominator, as (M, t) with entries in 0..q-1.
    The inverse is k -> A^{-1}k + A^{-1}(q - q*alpha) and raises InputError
    when the matrix is not unipotent."""
    form = sys.integer_form
    dtype = _ring(sys.r, q)
    shift = np.array([q // form.q * x for x in form.shifts[i]], dtype=dtype)
    if sign > 0:
        return _mod(form.mats[i], q, dtype), shift
    if form.inverses[i] is None:
        raise InputError("matrix is not unipotent; no integer inverse")
    m = _mod(form.inverses[i], q, dtype)
    return m, m @ (q - shift) % q


def _power_table(sys: AffineZdSystem, q: int, lo: int,
                 hi: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per direction, T_i^n for lo <= n <= hi (lo <= 0 <= hi) as read-only
    arrays M[n - lo] (r x r) and t[n - lo].  The system keeps the widest
    range built for each q and reads narrower ones off it, so an affine
    verify builds one table for the formula test and the discretization;
    a wider request builds the union of both ranges."""
    built = sys._power_tables.get(q)
    if built is None or lo < built[0] or hi > built[1]:
        span = (lo, hi) if built is None else (min(lo, built[0]),
                                                max(hi, built[1]))
        built = sys._power_tables[q] = (*span,
                                        _build_power_table(sys, q, *span))
    first, _, tables = built
    return [(mats[lo - first:hi - first + 1], trans[lo - first:hi - first + 1])
            for mats, trans in tables]


def _build_power_table(sys: AffineZdSystem, q: int, lo: int,
                       hi: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """_power_table's arrays, built by one-step composition.  The inverse
    step, which raises on a non-unipotent matrix, is taken only when
    lo < 0."""
    r, dtype = sys.r, _ring(sys.r, q)
    tables = []
    for i in range(sys.d):
        mats = np.empty((hi - lo + 1, r, r), dtype=dtype)
        trans = np.empty((hi - lo + 1, r), dtype=dtype)
        mats[-lo], trans[-lo] = np.eye(r, dtype=dtype), 0
        for sign, stop in ((1, hi), (-1, lo)):
            if stop == 0:
                continue
            m, t = _step(sys, i, sign, q)
            for n in range(sign, stop + sign, sign):
                prev = n - sign - lo
                mats[n - lo] = m @ mats[prev] % q
                trans[n - lo] = (m @ trans[prev] + t) % q
        mats.flags.writeable = trans.flags.writeable = False
        tables.append((mats, trans))
    return tables


def _compose(steps: list[tuple[np.ndarray, np.ndarray]], bits: int,
             q: int) -> tuple[np.ndarray, np.ndarray]:
    """The maps T_i^{n_i} for the directions i in the bit mask, composed
    with T_1 outermost, for each exponent vector of a batch; steps[i] holds
    the batch's T_{i+1}^{n_{i+1}}."""
    count, r = steps[0][1].shape
    dtype = steps[0][1].dtype
    m = np.broadcast_to(np.eye(r, dtype=dtype), (count, r, r))
    t = np.zeros((count, r), dtype=dtype)
    for i in reversed(range(len(steps))):
        if bits >> i & 1:
            mi, ti = steps[i]
            m = mi @ m % q
            t = ((mi @ t[..., None])[..., 0] + ti) % q
    return m, t


def _apply(m: np.ndarray, t: np.ndarray, rows: np.ndarray, q: int) -> np.ndarray:
    return (rows @ m.T + t) % q


def _keyable(rows: np.ndarray, q: int) -> np.ndarray:
    """Numerator rows for row_keys and RowIndex with radix q: cast to int64
    while q <= 2^63, otherwise Python integers, which row_keys ranks column
    by column."""
    return rows.astype(np.int64, copy=False) if q <= 1 << 63 else rows


def _numerators(sys: AffineZdSystem, x) -> tuple[np.ndarray, int]:
    """A torus point as its numerators mod den, den being the lcm of the
    lattice denominator and the point's own denominators, which every T_i
    preserves."""
    if len(x) != sys.r:
        raise InputError(f"point has {len(x)} coordinates, expected {sys.r}")
    try:
        ratios = [v.as_integer_ratio() for v in x]
    except AttributeError:  # such as a string
        ratios = [Fraction(v).as_integer_ratio() for v in x]
    den = math.lcm(sys.integer_form.q, *(b for _, b in ratios))
    return np.array([a * (den // b) % den for a, b in ratios],
                    dtype=_ring(sys.r, den)), den


def _torus_point(k: np.ndarray, den: int) -> TorusPoint:
    return tuple(Fraction(v, den) for v in k.tolist())


def _iterate(sys: AffineZdSystem, i: int, n: int, k: np.ndarray,
             den: int) -> np.ndarray:
    """T_i^n on numerators mod den, one step of T_i or its inverse at a
    time."""
    if n:
        m, t = _step(sys, i - 1, 1 if n > 0 else -1, den)
        for _ in range(abs(n)):
            k = (m @ k + t) % den
    return k


def transform(sys: AffineZdSystem, i: int, n: int, x: TorusPoint) -> TorusPoint:
    """T_i^n x."""
    if not 1 <= i <= sys.d:
        raise InputError(f"direction {i} out of range 1..{sys.d}")
    k, den = _numerators(sys, x)
    return _torus_point(_iterate(sys, i, n, k, den), den)


def iterate_word(sys: AffineZdSystem, n_vec, x: TorusPoint) -> TorusPoint:
    """T_1^{n_1} .. T_d^{n_d} x by direct composition."""
    if len(n_vec) != sys.d:
        raise InputError(f"word length {len(n_vec)} != d = {sys.d}")
    k, den = _numerators(sys, x)
    for i in range(sys.d, 0, -1):
        k = _iterate(sys, i, n_vec[i - 1], k, den)
    return _torus_point(k, den)


def closed_form(sys: AffineZdSystem, n_vec, x: TorusPoint) -> TorusPoint:
    """The alternating-sum expression over proper subsets of the directions."""
    if len(n_vec) != sys.d:
        raise InputError(f"word length {len(n_vec)} != d = {sys.d}")
    k, den = _numerators(sys, x)
    acc = np.zeros_like(k)
    sign_d = (-1) ** sys.d
    for bits in range((1 << sys.d) - 1):  # the proper subsets
        y = k
        for i in range(sys.d, 0, -1):
            if (bits >> (i - 1)) & 1:
                y = _iterate(sys, i, n_vec[i - 1], y, den)
        coeff = sign_d * ((-1) ** (bin(bits).count("1") + 1))
        acc = (acc + coeff * y) % den
    return _torus_point(acc, den)


class FormulaTestResult(NamedTuple):
    """status: "pass" (conditions hold, identity verified), "witness"
    (conditions fail and a counterexample was found), "inconclusive"
    (conditions fail, no counterexample at this sample size), or "fail"
    (conditions hold but the identity broke: a library inconsistency)."""

    status: str
    conds: MatCondReport
    q: int
    n_range: int
    n_count: int
    x_count: int
    witness_n: tuple[int, ...] | None
    witness_x: TorusPoint | None
    lhs: TorusPoint | None
    rhs: TorusPoint | None


def formula_equivalence_test(sys: AffineZdSystem, *, n_range: int = 3,
                             q: int | None = None) -> FormulaTestResult:
    """Compare direct iteration with the closed form on the full (1/q)Z^r
    lattice for every exponent vector in [-n_range, n_range]^d.

    Both sides are affine maps k -> M k + t on the lattice numerators mod q,
    built from one power table per direction.  With D = (M_L - M_R) mod q
    and t = (t_L - t_R) mod q, every lattice point agrees iff D = 0 and
    t = 0.  The first disagreeing point in the lattice's row order
    (coordinate 0 most significant) is 0 when t != 0, and otherwise e_j
    for the last column j of D that is not 0.  No lattice point is
    evaluated, so the lattice has no size cap; the arithmetic is int64
    while r*q^2 < 2^63 and Python integers past it.  A witness is re-checked by
    iterate_word and closed_form, which step its numerators one generator
    step at a time and share no table with the lattice test."""
    if n_range < 0:
        raise InputError(f"range must be at least 0, got {n_range}")
    base_q = sys.lattice_denominator()
    if q is None:
        q = base_q
    elif q < 1:
        raise InputError(f"q must be a positive integer, got {q}")
    elif q % base_q:
        raise InputError(
            f"q = {q} is not a multiple of the translation denominator {base_q}")
    conds = matcond_check(sys)
    tables = _power_table(sys, q, -n_range, n_range)
    width = 2 * n_range + 1
    n_count = width ** sys.d
    full = (1 << sys.d) - 1
    sign_d = (-1) ** sys.d
    witness = None
    for start in range(0, n_count, N_CHUNK):
        idx = np.unravel_index(np.arange(start, min(start + N_CHUNK, n_count)),
                               (width,) * sys.d)
        steps = [(mats[e], trans[e]) for (mats, trans), e in zip(tables, idx)]
        ml, tl = _compose(steps, full, q)
        mr, tr = np.zeros_like(ml), np.zeros_like(tl)
        for bits in range(full):  # the proper subsets
            m, t = _compose(steps, bits, q)
            coeff = sign_d * (-1) ** (bin(bits).count("1") + 1)
            mr, tr = (mr + coeff * m) % q, (tr + coeff * t) % q
        dm, dt = (ml - mr) % q != 0, (tl - tr) % q != 0
        bad = dm.any(axis=(1, 2)) | dt.any(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            x = [0] * sys.r
            if not dt[k].any():
                x[int(np.flatnonzero(dm[k].any(axis=0))[-1])] = 1
            witness = (tuple(int(e[k]) - n_range for e in idx),
                       tuple(Fraction(v, q) for v in x))
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
            # the scalar recomputation must confirm the lattice mismatch
            raise AssertionError("vectorized and exact evaluations disagree; bug")
    return FormulaTestResult(
        status=status, conds=conds, q=q, n_range=n_range,
        n_count=n_count, x_count=x_count,
        witness_n=witness[0] if witness else None,
        witness_x=witness[1] if witness else None, lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# discretization to a finite system


def discretize(sys: AffineZdSystem, q: int, *, mode: str = "orbit",
               base: TorusPoint | None = None) -> FiniteZdSystem:
    """Restrict to the (1/q)Z^r lattice, which every T_i preserves when q is
    a multiple of the translation denominator.

    mode="orbit" keeps the orbit of the base point (default 0): the closure
    of the point under the forward steps T_i by doubling, T_i squared to
    T_i^2, T_i^4, ... (_orbit_closure).  Each T_i with a unipotent matrix
    permutes the lattice, so that closure is the orbit under the inverse
    steps too; a non-unipotent matrix has no integer inverse and is refused
    before the search.  mode="full" takes the entire lattice.  Points are
    rows of numerators mod q; point ids follow their lexicographic order,
    which is the order of the lattice vectors, and labels record the
    vectors.  Either set is refused past LATTICE_CAP points.  The
    arithmetic is int64 while r*q^2 < 2^63 and Python integers past that,
    so it is exact for every q."""
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
        if q % v.denominator:
            raise InputError(f"base coordinate {v} is not on the 1/{q} lattice")
    if mode not in ("orbit", "full"):
        raise InputError(f"mode must be 'orbit' or 'full', got {mode!r}")

    dtype = _ring(sys.r, q)
    if mode == "full":
        if q ** sys.r > LATTICE_CAP:
            raise InputError(
                f"full lattice has {q ** sys.r} points, over {LATTICE_CAP}")
        points = np.indices((q,) * sys.r).reshape(sys.r, -1).T.astype(dtype)
    elif None in sys.integer_form.nil_index:
        raise InputError("matrix is not unipotent; no integer inverse")
    # T_i as (M, t), entry 1 of its table of powers 0..1
    steps = [(mats[1], trans[1]) for mats, trans in _power_table(sys, q, 0, 1)]
    if mode == "orbit":
        start = np.array([[v.numerator * (q // v.denominator) for v in base]],
                         dtype=dtype)
        points = _orbit_closure(
            start, steps, lambda rows, g: _apply(*g, rows, q),
            lambda g: (g[0] @ g[0] % q, (g[0] @ g[1] + g[1]) % q),
            lambda rows: row_keys(_keyable(rows, q), q), LATTICE_CAP)
        if points is None:
            raise InputError(f"orbit exceeds the size cap {LATTICE_CAP}")
    index = RowIndex(_keyable(points, q), q)
    perms = []
    for m, t in steps:
        pos, found = index.find(_keyable(_apply(m, t, points, q), q))
        if not found.all():
            raise AssertionError("lattice is not invariant; bug")
        perms.append(pos)
    values = _distinct(points)
    names = [str(Fraction(int(k), q)) for k in values]
    labels = tuple(",".join(names[j] for j in row)
                   for row in np.searchsorted(values, points).tolist())
    return FiniteZdSystem(len(points), sys.d, np.stack(perms),
                          name=f"{sys.name}@1/{q}" if sys.name else f"lattice 1/{q}",
                          labels=labels)


# ---------------------------------------------------------------------------
# text format


def _parse_matrix(text: str, lineno: int, path: str | None) -> Matrix:
    s = text.strip()
    if not (s.startswith("[[") and s.endswith("]]")):
        raise InputError(f"expected [[..],[..]] matrix, got {text!r}",
                         path=path, line=lineno)
    rows = s[2:-2].split("],[")
    out = []
    for row in rows:
        try:
            out.append(tuple(int(tok.strip()) for tok in row.split(",")))
        except ValueError:
            raise InputError(f"non-integer matrix entry in {row!r}",
                             path=path, line=lineno)
    return tuple(out)


def _parse_vector(text: str, lineno: int, path: str | None) -> TorusPoint:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise InputError(f"expected [..] vector, got {text!r}", path=path, line=lineno)
    out = []
    for tok in s[1:-1].split(","):
        tok = tok.strip()
        try:
            out.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad rational {tok!r}", path=path, line=lineno)
    return tuple(out)


def parse_affine(text: str, path: str | None = None) -> AffineZdSystem:
    missing = "missing 'r = ..' or 'd = ..'"
    values, rows = _read_keys(text, path, "affine-system",
                              {"r": missing, "d": missing},
                              {"A": _parse_matrix, "alpha": _parse_vector})
    (_, r), (_, d) = values["r"], values["d"]
    mats, alphas = rows["A"], rows["alpha"]
    if sorted(mats) != list(range(1, d + 1)) or sorted(alphas) != list(range(1, d + 1)):
        raise InputError(f"expected A1..A{d} and alpha1..alpha{d}", path=path)
    try:
        return AffineZdSystem(
            r=r, d=d,
            mats=tuple(mats[i][1] for i in range(1, d + 1)),
            alphas=tuple(alphas[i][1] for i in range(1, d + 1)),
            name=path.rsplit("/", 1)[-1] if path else "",
        )
    except InputError as exc:
        raise InputError(str(exc), path=path)


def affine_to_text(sys: AffineZdSystem) -> str:
    lines = ["affine-system", f"r = {sys.r}", f"d = {sys.d}"]
    for i, m in enumerate(sys.mats, start=1):
        rows = ",".join("[" + ",".join(str(x) for x in row) + "]" for row in m)
        lines.append(f"A{i} = [{rows}]")
    for i, a in enumerate(sys.alphas, start=1):
        lines.append(f"alpha{i} = [{', '.join(str(v) for v in a)}]")
    return "\n".join(lines) + "\n"


def load_affine(path: str) -> AffineZdSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_affine(fh.read(), path=path)
