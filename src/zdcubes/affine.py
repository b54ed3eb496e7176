"""Affine maps x -> Ax + alpha on the rational torus (R/Z)^r with unipotent
integer matrices, in exact arithmetic.

The commuting family T_1..T_d admits a closed form for the composed iterate:
with d directions,

    T_1^{n_1} .. T_d^{n_d} x
        = (-1)^d * sum over proper subsets I of {1..d} of
          (-1)^{|I|+1} (composition of T_k^{n_k}, k in I)(x)

whenever the matrix product of the (A_i - I) vanishes and, for every j, the
product over i != j of (A_i - I) sends alpha_j into Z^r.  The two condition
families are checked exactly in Fraction arithmetic.

The identity test and the discretizer work on the denominator-q lattice in
integer numerators mod q: the point k/q is the row k, and T_i acts as
k -> A_i k + q*alpha_i (mod q).  Both sides of the identity are affine maps
k -> M k + t, so they agree on every lattice point iff their matrices and
translations agree mod q; no lattice point is evaluated.  Powers of each T_i
come from one table built by one-step composition.  Arithmetic is int64
while r*q^2 < 2^63, which bounds every entry before its reduction, and
Python integers past that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cube_engine import RowIndex, orbit_rows, row_keys
from .errors import InputError
from .finite_system import FiniteZdSystem, _parse_header_int

Matrix = tuple[tuple[int, ...], ...]
TorusPoint = tuple[Fraction, ...]

LATTICE_CAP = 200_000


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


@dataclass(frozen=True)
class AffineValidation:
    ok: bool
    unipotent: tuple[bool, ...]
    nilpotency_index: tuple[int | None, ...]
    mats_commute: bool
    mat_witness: tuple[int, int] | None
    translations_compatible: bool
    trans_witness: tuple[int, int] | None


def validate_affine(sys: AffineZdSystem) -> AffineValidation:
    """Unipotence of every matrix, pairwise commutation of the matrices, and
    the mixed condition (A_i - I) alpha_j = (A_j - I) alpha_i mod Z^r that
    makes the affine maps commute on the torus."""
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


@dataclass(frozen=True)
class MatCondReport:
    """product_zero: the product of all (A_i - I) vanishes.
    translation_zero[j-1]: the product over i != j of (A_i - I) maps alpha_j
    into Z^r.  For d = 2 these are the two classical conditions."""

    product_zero: bool
    translation_zero: tuple[bool, ...]

    @property
    def all_ok(self) -> bool:
        return self.product_zero and all(self.translation_zero)


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
        # t_n = (I + A + .. + A^{n-1}) alpha, from T^1 = (A, alpha); n stays
        # small here
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


# ---------------------------------------------------------------------------
# affine maps on the numerators of the 1/q lattice
#
# A lattice point is k/q with k in (Z/q)^r, and T_i acts on numerators as
# k -> A_i k + q*alpha_i (mod q).  A map is a pair (M, t) of arrays with
# entries in 0..q-1; points are rows of numerators, whose lexicographic
# order is the order of the torus vectors.

N_CHUNK = 4096  # exponent vectors per batch of the formula test
_DIGIT = 32  # bits per digit when numerators pass int64 (q > 2^63)


def _ring(r: int, q: int):
    """dtype of numerator arithmetic mod q.  A product entry before its
    reduction is below r*q^2 (r products under q^2, plus a translation
    under q), so int64 is exact while r*q^2 < 2^63; past that the arrays
    hold Python integers."""
    return np.int64 if r * q * q < 1 << 63 else object


def _power_table(sys: AffineZdSystem, q: int, lo: int,
                 hi: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per direction, T_i^n for lo <= n <= hi (lo <= 0 <= hi) as arrays
    M[n - lo] (r x r) and t[n - lo], built by one-step composition.  The
    inverse step, and with it unipotent_inverse (which raises on a
    non-unipotent matrix), is built only when lo < 0."""
    r, dtype = sys.r, _ring(sys.r, q)
    tables = []
    for a, alpha in zip(sys.mats, sys.alphas):
        shift = tuple(int(v * q) for v in alpha)
        mats = np.empty((hi - lo + 1, r, r), dtype=dtype)
        trans = np.empty((hi - lo + 1, r), dtype=dtype)
        mats[-lo], trans[-lo] = np.eye(r, dtype=dtype), 0
        for sign, stop in ((1, hi), (-1, lo)):
            if stop == 0:
                continue
            m, t = a, shift
            if sign < 0:
                m = unipotent_inverse(a)
                t = tuple(-x for x in mat_vec(m, shift))
            m = np.array([[x % q for x in row] for row in m], dtype=dtype)
            t = np.array([x % q for x in t], dtype=dtype)
            for n in range(sign, stop + sign, sign):
                prev = n - sign - lo
                mats[n - lo] = m @ mats[prev] % q
                trans[n - lo] = (m @ trans[prev] + t) % q
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


def _keyable(rows: np.ndarray, q: int) -> tuple[np.ndarray, int]:
    """Numerator rows as int64 rows with entries below the returned radix,
    in the same lexicographic order, for row_keys and RowIndex: the
    numerators themselves while q <= 2^63, otherwise each split into
    base-2^32 digits, most significant first."""
    if q <= 1 << 63:
        return rows.astype(np.int64, copy=False), q
    digits = -(-(q - 1).bit_length() // _DIGIT)
    mask = (1 << _DIGIT) - 1
    cols = [(rows[:, c] >> (_DIGIT * e)) & mask
            for c in range(rows.shape[1]) for e in reversed(range(digits))]
    return np.stack(cols, axis=1).astype(np.int64), 1 << _DIGIT


@dataclass(frozen=True)
class FormulaTestResult:
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
                             q: int | None = None,
                             cap: int = LATTICE_CAP) -> FormulaTestResult:
    """Compare direct iteration with the closed form on the full (1/q)Z^r
    lattice for every exponent vector in [-n_range, n_range]^d.

    Both sides are affine maps k -> M k + t on the lattice numerators mod q,
    built from one power table per direction.  With D = (M_L - M_R) mod q
    and t = (t_L - t_R) mod q, every lattice point agrees iff D = 0 and
    t = 0.  The first disagreeing point in the lattice's row order
    (coordinate 0 most significant) is 0 when t != 0, and otherwise e_j
    for the last column j of D that is not 0.  The cap on q^r keeps
    r*q^2 < 2^63, so the arithmetic is exact in int64 (a larger cap that
    lets q past that runs on Python integers).  A witness is re-checked in
    Fraction arithmetic."""
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
    if q ** sys.r > cap:
        raise InputError(
            f"lattice has {q ** sys.r} points, over the cap {cap}")
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
        witness_x=witness[1] if witness else None,
        lhs=lhs, rhs=rhs,
    )


# ---------------------------------------------------------------------------
# discretization to a finite system


def discretize(sys: AffineZdSystem, q: int, *, mode: str = "orbit",
               base: TorusPoint | None = None,
               cap: int = LATTICE_CAP) -> FiniteZdSystem:
    """Restrict to the (1/q)Z^r lattice, which every T_i preserves when q is
    a multiple of the translation denominator.

    mode="orbit" keeps the orbit of the base point (default 0), found by a
    breadth-first search over forward and backward steps; mode="full"
    takes the entire lattice.  Points are rows of numerators mod q; point
    ids follow their lexicographic order, which is the order of the lattice
    vectors, and labels record the vectors.  The arithmetic is int64 while
    r*q^2 < 2^63 and Python integers past that, so it is exact for every q."""
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

    dtype = _ring(sys.r, q)
    if mode == "full":
        if q ** sys.r > cap:
            raise InputError(f"full lattice has {q ** sys.r} points, over {cap}")
        tables = _power_table(sys, q, 0, 1)
        points = np.indices((q,) * sys.r).reshape(sys.r, -1).T.astype(dtype)
    else:
        tables = _power_table(sys, q, -1, 1)
        start = np.array([[int(v * q) for v in base]], dtype=dtype)
        # entries 0 and 2 of each table are T_i^-1 and T_i
        maps = [(mats[e], trans[e]) for mats, trans in tables for e in (0, 2)]
        points = orbit_rows(
            start, lambda rows: np.concatenate(
                [_apply(m, t, rows, q) for m, t in maps]),
            lambda rows: row_keys(*_keyable(rows, q)), cap)
        if points is None:
            raise InputError(f"orbit exceeds the size cap {cap}")
    index = RowIndex(*_keyable(points, q))
    perms = []
    for mats, trans in tables:  # the last entry of a table is T_i itself
        pos, found = index.find(
            _keyable(_apply(mats[-1], trans[-1], points, q), q)[0])
        if not found.all():
            raise AssertionError("lattice is not invariant; bug")
        perms.append(tuple(pos.tolist()))
    values = np.unique(points)
    names = [str(Fraction(int(k), q)) for k in values]
    labels = tuple(",".join(names[j] for j in row)
                   for row in np.searchsorted(values, points).tolist())
    return FiniteZdSystem(len(points), sys.d, tuple(perms),
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
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows or rows[0][1] != "affine-system":
        raise InputError("expected 'affine-system' header", path=path,
                         line=rows[0][0] if rows else 1)
    r = None
    d = None
    mats: dict[int, Matrix] = {}
    alphas: dict[int, TorusPoint] = {}
    for lineno, line in rows[1:]:
        if "=" not in line:
            raise InputError(f"expected 'key = value', got {line!r}",
                             path=path, line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "r":
            r = _parse_header_int(key, value, lineno, path)
        elif key == "d":
            d = _parse_header_int(key, value, lineno, path)
        elif key.startswith("A") and key[1:].isdigit():
            mats[int(key[1:])] = _parse_matrix(value, lineno, path)
        elif key.startswith("alpha") and key[5:].isdigit():
            alphas[int(key[5:])] = _parse_vector(value, lineno, path)
        else:
            raise InputError(f"unknown directive {key!r}", path=path, line=lineno)
    if r is None or d is None:
        raise InputError("missing 'r = ..' or 'd = ..'", path=path)
    if sorted(mats) != list(range(1, d + 1)) or sorted(alphas) != list(range(1, d + 1)):
        raise InputError(f"expected A1..A{d} and alpha1..alpha{d}", path=path)
    try:
        return AffineZdSystem(
            r=r, d=d,
            mats=tuple(mats[i] for i in range(1, d + 1)),
            alphas=tuple(alphas[i] for i in range(1, d + 1)),
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
