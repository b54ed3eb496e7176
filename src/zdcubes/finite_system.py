"""Finite Z^d-systems: d commuting permutations of a finite point set.

Points are ids 0..n-1.  Generator i (1-based) is a permutation stored as a
tuple perm with perm[x] = T_i(x).  A word n = (n_1..n_d) acts by
T_1^{n_1} ... T_d^{n_d}; negative exponents are taken through the inverse
permutation.

The text format::

    finite-system
    points = 6
    d = 2
    T1 = [1, 2, 3, 4, 5, 0]
    T2 = [2, 3, 4, 5, 0, 1]

Blank lines and '#' comments are allowed anywhere.  The parser rejects
non-bijective rows and non-commuting generator pairs with line-numbered
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError

Perm = tuple[int, ...]


def _identity(n: int) -> Perm:
    return tuple(range(n))


def _compose(p: Perm, q: Perm) -> Perm:
    """x -> p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(p)))


def _invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def perm_order(p: Perm) -> int:
    seen = [False] * len(p)
    order = 1
    for x in range(len(p)):
        if seen[x]:
            continue
        length = 0
        y = x
        while not seen[y]:
            seen[y] = True
            y = p[y]
            length += 1
        order = math.lcm(order, length)
    return order


def perm_pow(p: Perm, e: int) -> Perm:
    n = len(p)
    if e < 0:
        p = _invert(p)
        e = -e
    out = _identity(n)
    base = p
    while e:
        if e & 1:
            out = _compose(base, out)
        base = _compose(base, base)
        e >>= 1
    return out


@dataclass(frozen=True)
class FiniteZdSystem:
    """d commuting permutations of {0..n-1}.

    The constructor checks shapes and bijectivity; commutation is checked by
    validate() and enforced by the parser, not here, so that broken inputs
    can still be built and reported on.

    labels optionally names the points (used by affine discretization to
    remember which torus point each id stands for).
    """

    n_points: int
    d: int
    perms: tuple[Perm, ...]
    name: str = ""
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_points < 1:
            raise InputError(f"need at least one point, got {self.n_points}")
        if not 1 <= self.d <= 10:
            raise InputError(f"d must be in 1..10, got {self.d}")
        if len(self.perms) != self.d:
            raise InputError(f"expected {self.d} generators, got {len(self.perms)}")
        perms = tuple(tuple(p) for p in self.perms)
        object.__setattr__(self, "perms", perms)
        for i, p in enumerate(perms, start=1):
            if len(p) != self.n_points:
                raise InputError(f"T{i} has {len(p)} entries, expected {self.n_points}")
            if sorted(p) != list(range(self.n_points)):
                raise InputError(f"T{i} is not a bijection of 0..{self.n_points - 1}")
        if self.labels is not None and len(self.labels) != self.n_points:
            raise InputError("labels length does not match point count")

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(perm_order(p) for p in self.perms)

    @property
    def inverses(self) -> tuple[Perm, ...]:
        return tuple(_invert(p) for p in self.perms)

    def generator(self, i: int) -> Perm:
        if not 1 <= i <= self.d:
            raise InputError(f"generator index {i} out of range 1..{self.d}")
        return self.perms[i - 1]

    def word_perm(self, n_vec: Sequence[int]) -> Perm:
        if len(n_vec) != self.d:
            raise InputError(f"word length {len(n_vec)} != d = {self.d}")
        out = _identity(self.n_points)
        for i, e in enumerate(n_vec):
            out = _compose(perm_pow(self.perms[i], e), out)
        return out


def apply_word(sys: FiniteZdSystem, n_vec: Sequence[int], x: int) -> int:
    """T_1^{n_1} ... T_d^{n_d} x."""
    if not 0 <= x < sys.n_points:
        raise InputError(f"point id {x} out of range")
    for i in range(sys.d - 1, -1, -1):
        e = n_vec[i]
        if e == 0:
            continue
        p = sys.perms[i] if e > 0 else sys.inverses[i]
        for _ in range(abs(e) % perm_order(sys.perms[i])):
            x = p[x]
    return x


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    n_points: int
    d: int
    bijective: tuple[bool, ...]
    commuting: bool
    commute_witness: tuple[int, int, int] | None  # (i, j, point)
    orders: tuple[int, ...] | None


def validate(sys: FiniteZdSystem) -> ValidationReport:
    """Full invariant report: bijectivity per generator, pairwise commutation."""
    bij = tuple(sorted(p) == list(range(sys.n_points)) for p in sys.perms)
    witness = None
    for i in range(sys.d):
        for j in range(i + 1, sys.d):
            p, q = sys.perms[i], sys.perms[j]
            for x in range(sys.n_points):
                if p[q[x]] != q[p[x]]:
                    witness = (i + 1, j + 1, x)
                    break
            if witness:
                break
        if witness:
            break
    ok = all(bij) and witness is None
    return ValidationReport(
        ok=ok,
        n_points=sys.n_points,
        d=sys.d,
        bijective=bij,
        commuting=witness is None,
        commute_witness=witness,
        orders=sys.orders if ok else None,
    )


@dataclass(frozen=True)
class MinimalityResult:
    ok: bool
    witness: int | None  # a point whose orbit misses some other point
    orbit_sizes: tuple[int, ...]


def orbit_of(sys: FiniteZdSystem, x: int) -> frozenset[int]:
    seen = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for p in sys.perms:
            z = p[y]
            if z not in seen:
                seen.add(z)
                stack.append(z)
        for p in sys.inverses:
            z = p[y]
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return frozenset(seen)


def is_minimal(sys: FiniteZdSystem) -> MinimalityResult:
    """Minimal == a single orbit (the acting group is finitely generated
    abelian, so orbit closures are orbits here)."""
    seen: set[int] = set()
    sizes = []
    witness = None
    for x in range(sys.n_points):
        if x in seen:
            continue
        orb = orbit_of(sys, x)
        sizes.append(len(orb))
        seen |= orb
        if witness is None and len(orb) != sys.n_points:
            witness = x
    return MinimalityResult(ok=len(sizes) == 1, witness=witness, orbit_sizes=tuple(sizes))


# ---------------------------------------------------------------------------
# pair relations


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # attach the larger root under the smaller so class reps are minimal ids
            if rx < ry:
                self.parent[ry] = rx
            else:
                self.parent[rx] = ry


@dataclass(frozen=True)
class PairRelation:
    """A set of ordered pairs on {0..n-1}.

    base optionally references the system the relation lives on, which lets
    check_equivalence test invariance without extra arguments.
    """

    n_points: int
    pairs: frozenset[tuple[int, int]]
    base: FiniteZdSystem | None = None

    def __post_init__(self) -> None:
        for x, y in self.pairs:
            if not (0 <= x < self.n_points and 0 <= y < self.n_points):
                raise InputError(f"pair ({x},{y}) out of range for n = {self.n_points}")
        object.__setattr__(self, "pairs", frozenset(self.pairs))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    @classmethod
    def diagonal(cls, n: int, base: FiniteZdSystem | None = None) -> "PairRelation":
        return cls(n, frozenset((x, x) for x in range(n)), base)

    def is_diagonal(self) -> bool:
        return self.pairs == frozenset((x, x) for x in range(self.n_points))

    def is_reflexive(self) -> tuple[bool, int | None]:
        for x in range(self.n_points):
            if (x, x) not in self.pairs:
                return False, x
        return True, None

    def is_symmetric(self) -> tuple[bool, tuple[int, int] | None]:
        for x, y in sorted(self.pairs):
            if (y, x) not in self.pairs:
                return False, (x, y)
        return True, None

    def is_transitive(self) -> tuple[bool, tuple[int, int, int] | None]:
        succ: dict[int, set[int]] = {}
        for x, y in self.pairs:
            succ.setdefault(x, set()).add(y)
        for x, y in sorted(self.pairs):
            for z in sorted(succ.get(y, ())):
                if (x, z) not in self.pairs:
                    return False, (x, y, z)
        return True, None

    def is_invariant(self) -> tuple[bool, tuple[tuple[int, int], int] | None]:
        """Does (T_i x, T_i y) stay in the relation for every generator?"""
        if self.base is None:
            raise InputError("relation has no base system to test invariance against")
        for i, p in enumerate(self.base.perms, start=1):
            for x, y in sorted(self.pairs):
                if (p[x], p[y]) not in self.pairs:
                    return False, ((x, y), i)
        return True, None

    def equivalence_closure(self) -> "PairRelation":
        uf = _UnionFind(self.n_points)
        for x, y in self.pairs:
            uf.union(x, y)
        reps: dict[int, list[int]] = {}
        for x in range(self.n_points):
            reps.setdefault(uf.find(x), []).append(x)
        pairs = frozenset(
            (x, y) for members in reps.values() for x in members for y in members
        )
        return PairRelation(self.n_points, pairs, self.base)

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition classes of the equivalence closure, sorted by least member."""
        uf = _UnionFind(self.n_points)
        for x, y in self.pairs:
            uf.union(x, y)
        groups: dict[int, list[int]] = {}
        for x in range(self.n_points):
            groups.setdefault(uf.find(x), []).append(x)
        return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))

    def to_text(self) -> str:
        lines = [f"pair-relation n={self.n_points}"]
        lines.extend(f"{x},{y}" for x, y in sorted(self.pairs))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, path: str | None = None) -> "PairRelation":
        body = _content_lines(text)
        if not body or not body[0][1].startswith("pair-relation"):
            raise InputError("expected 'pair-relation n=<N>' header", path=path,
                             line=body[0][0] if body else 1)
        header_line, header = body[0]
        try:
            n = int(header.split("n=", 1)[1].strip())
        except (IndexError, ValueError):
            raise InputError("malformed pair-relation header", path=path, line=header_line)
        pairs = set()
        for lineno, line in body[1:]:
            parts = line.split(",")
            if len(parts) != 2:
                raise InputError(f"expected 'x,y', got {line!r}", path=path, line=lineno)
            try:
                pairs.add((int(parts[0]), int(parts[1])))
            except ValueError:
                raise InputError(f"non-integer pair {line!r}", path=path, line=lineno)
        try:
            return cls(n, frozenset(pairs))
        except InputError as exc:
            raise InputError(str(exc), path=path)


# ---------------------------------------------------------------------------
# quotients and factor maps


@dataclass(frozen=True)
class FactorMap:
    """A surjection pi: source -> target carrying each generator to its image."""

    source: FiniteZdSystem
    target: FiniteZdSystem
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mapping) != self.source.n_points:
            raise InputError("factor map length does not match source size")
        for v in self.mapping:
            if not 0 <= v < self.target.n_points:
                raise InputError(f"factor map value {v} out of target range")

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    @classmethod
    def identity(cls, sys: FiniteZdSystem) -> "FactorMap":
        return cls(sys, sys, tuple(range(sys.n_points)))


@dataclass(frozen=True)
class FactorMapReport:
    ok: bool
    surjective: bool
    missed: int | None
    equivariant: bool
    witness: tuple[int, int] | None  # (point, generator) where pi(T_i x) != T_i pi(x)


def check_factor_map(pi: FactorMap) -> FactorMapReport:
    missed = None
    hit = set(pi.mapping)
    for y in range(pi.target.n_points):
        if y not in hit:
            missed = y
            break
    witness = None
    if pi.source.d != pi.target.d:
        raise InputError("source and target have different d")
    for i in range(pi.source.d):
        p, q = pi.source.perms[i], pi.target.perms[i]
        for x in range(pi.source.n_points):
            if pi.mapping[p[x]] != q[pi.mapping[x]]:
                witness = (x, i + 1)
                break
        if witness:
            break
    return FactorMapReport(
        ok=missed is None and witness is None,
        surjective=missed is None,
        missed=missed,
        equivariant=witness is None,
        witness=witness,
    )


class InvarianceError(InputError):
    """Raised by quotient() when the closed relation is not invariant."""

    def __init__(self, pair: tuple[int, int], generator: int):
        self.pair = pair
        self.generator = generator
        super().__init__(
            f"relation is not invariant: pair {pair} leaves its class under T{generator}"
        )


def quotient(sys: FiniteZdSystem, rel: PairRelation) -> tuple[FiniteZdSystem, FactorMap]:
    """Quotient by the equivalence closure of rel.

    The closure must be invariant under every generator; otherwise the
    induced maps are not well defined and InvarianceError reports an
    offending pair and generator.
    """
    if rel.n_points != sys.n_points:
        raise InputError("relation size does not match system size")
    closed = PairRelation(rel.n_points, rel.pairs, sys).equivalence_closure()
    classes = closed.classes()
    class_of = [0] * sys.n_points
    for c, members in enumerate(classes):
        for x in members:
            class_of[x] = c
    for i, p in enumerate(sys.perms, start=1):
        for members in classes:
            target = class_of[p[members[0]]]
            for x in members[1:]:
                if class_of[p[x]] != target:
                    raise InvarianceError((members[0], x), i)
    new_perms = tuple(
        tuple(class_of[sys.perms[i][members[0]]] for members in classes)
        for i in range(sys.d)
    )
    q_sys = FiniteZdSystem(len(classes), sys.d, new_perms,
                           name=f"{sys.name}/~" if sys.name else "")
    pi = FactorMap(sys, q_sys, tuple(class_of))
    return q_sys, pi


# ---------------------------------------------------------------------------
# text format


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(lineno, stripped) for lines that are not blank or comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_int_list(text: str, lineno: int, path: str | None) -> list[int]:
    inner = text.strip()
    if not (inner.startswith("[") and inner.endswith("]")):
        raise InputError(f"expected a [..] list, got {text!r}", path=path, line=lineno)
    inner = inner[1:-1].strip()
    if not inner:
        return []
    try:
        return [int(tok) for tok in inner.split(",")]
    except ValueError:
        raise InputError(f"non-integer entry in {text!r}", path=path, line=lineno)


def _parse_header_int(key: str, value: str, lineno: int, path: str | None) -> int:
    try:
        return int(value)
    except ValueError:
        raise InputError(f"'{key}' must be an integer, got {value!r}",
                         path=path, line=lineno)


def parse_finite_system(text: str, path: str | None = None,
                        strict: bool = True) -> FiniteZdSystem:
    """Parse the finite-system text format.

    strict=True (the default) additionally rejects non-commuting generator
    pairs so downstream analysis can rely on a valid system.  strict=False
    stops at well-formedness, letting a caller run validate() and report the
    commutation witness itself.
    """
    body = _content_lines(text)
    if not body or body[0][1] != "finite-system":
        raise InputError("expected 'finite-system' header", path=path,
                         line=body[0][0] if body else 1)
    n_points = None
    d = None
    rows: dict[int, tuple[int, list[int]]] = {}
    for lineno, line in body[1:]:
        if "=" not in line:
            raise InputError(f"expected 'key = value', got {line!r}", path=path, line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "points":
            n_points = _parse_header_int(key, value, lineno, path)
        elif key == "d":
            d = _parse_header_int(key, value, lineno, path)
        elif key.startswith("T") and key[1:].isdigit():
            i = int(key[1:])
            if i in rows:
                raise InputError(f"duplicate row T{i}", path=path, line=lineno)
            rows[i] = (lineno, _parse_int_list(value, lineno, path))
        else:
            raise InputError(f"unknown directive {key!r}", path=path, line=lineno)
    if n_points is None:
        raise InputError("missing 'points = N'", path=path)
    if d is None:
        raise InputError("missing 'd = D'", path=path)
    if sorted(rows) != list(range(1, d + 1)):
        raise InputError(f"expected rows T1..T{d}, got {sorted(rows)}", path=path)
    perms = []
    for i in range(1, d + 1):
        lineno, row = rows[i]
        if sorted(row) != list(range(n_points)):
            raise InputError(
                f"T{i} is not a permutation of 0..{n_points - 1}", path=path, line=lineno
            )
        perms.append(tuple(row))
    sys = FiniteZdSystem(n_points, d, tuple(perms),
                         name=path.rsplit("/", 1)[-1] if path else "")
    if strict:
        report = validate(sys)
        if not report.commuting:
            i, j, x = report.commute_witness
            raise InputError(
                f"T{i} and T{j} do not commute (first disagreement at point {x}); "
                f"see rows at lines {rows[i][0]} and {rows[j][0]}",
                path=path,
            )
    return sys


def to_text(sys: FiniteZdSystem) -> str:
    lines = ["finite-system", f"points = {sys.n_points}", f"d = {sys.d}"]
    for i, p in enumerate(sys.perms, start=1):
        lines.append(f"T{i} = [{', '.join(str(v) for v in p)}]")
    return "\n".join(lines) + "\n"


def load_finite_system(path: str, strict: bool = True) -> FiniteZdSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_finite_system(fh.read(), path=path, strict=strict)
