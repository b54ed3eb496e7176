"""Affine maps x -> Ax + alpha on the rational torus (R/Z)^r with unipotent
integer matrices, in exact arithmetic.

The commuting family T_1..T_d admits a closed form for the composed iterate:
with d directions,

    T_1^{n_1} .. T_d^{n_d} x
        = (-1)^d * sum over proper subsets I of {1..d} of
          (-1)^{|I|+1} (composition of T_k^{n_k}, k in I)(x)

whenever the matrix product of the (A_i - I) vanishes and, for every j, the
product over i != j of (A_i - I) sends alpha_j into Z^r.  The two condition
families are checked exactly; the identity test runs over an exhaustive
denominator-q lattice with vectorized integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

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
        t = (Fraction(0),) * r
        power = _identity(r)
        # t_n = (I + A + .. + A^{n-1}) alpha; n stays small here
        for _ in range(n):
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

    Both sides are affine maps, so they are evaluated on all lattice points
    at once with integer matrix arithmetic modulo q (numerators of the 1/q
    lattice); this is exact."""
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
            # the scalar recomputation must confirm the vectorized mismatch
            raise AssertionError("vectorized and exact evaluations disagree; bug")
    return FormulaTestResult(
        status=status, conds=conds, q=q, n_range=n_range,
        n_count=len(n_values), x_count=x_count,
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

    mode="orbit" keeps the orbit of the base point (default 0); mode="full"
    takes the entire lattice.  Point ids follow the lexicographic order of
    the lattice vectors; labels record the vectors."""
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
