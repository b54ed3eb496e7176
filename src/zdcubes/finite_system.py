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

Equivalence relations (orbits, the closure of a pair relation, the classes
of a quotient) are int label arrays from partition(): each point carries the
least member of its class.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .errors import InputError

Perm = tuple[int, ...]


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


def perm_power(perm: np.ndarray, e: int) -> np.ndarray:
    """perm^e as an index array, by square-and-multiply; negative exponents
    go through the inverse."""
    if e < 0:
        perm, e = np.argsort(perm).astype(perm.dtype), -e
    out = np.arange(len(perm), dtype=perm.dtype)
    while e:
        if e & 1:
            out = perm[out]
        perm = perm[perm]
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

    Objects derived from the system (cube sets, relations, minimality, the
    joining decomposition, return sets, systems with a generator dropped)
    are computed once and kept on the instance by memo(); the store takes
    no part in equality, hashing or repr.  Stored values may name and point
    to the system that built them (a cube set's base, a relation's system,
    the joining decomposition's sys and the name of its Y).  The quotient by a discrete partition, which has the same
    points and generators, shares its parent's store; that is sound only
    for checks that read n_points and perms of what they get back, which
    are the ones that run on such a quotient.
    """

    n_points: int
    d: int
    perms: tuple[Perm, ...]
    name: str = ""
    labels: tuple[str, ...] | None = None
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

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

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(perm_order(p) for p in self.perms)

    @cached_property
    def inverses(self) -> tuple[Perm, ...]:
        return tuple(_invert(p) for p in self.perms)

    def memo(self, key: tuple, build: Callable[[], Any]) -> Any:
        """The derived object stored under key, built by build() on first
        use.  Stored objects are shared by every caller, so they must not be
        mutated."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def word_perm(self, n_vec: Sequence[int]) -> Perm:
        if len(n_vec) != self.d:
            raise InputError(f"word length {len(n_vec)} != d = {self.d}")
        out = np.arange(self.n_points)
        for p, e in zip(self.perms, n_vec):
            out = perm_power(np.asarray(p), e)[out]
        return tuple(out.tolist())


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


def _orbits(sys: FiniteZdSystem) -> np.ndarray:
    return sys.memo(("orbits",), lambda: orbit_labels(sys.n_points, sys.perms))


def is_minimal(sys: FiniteZdSystem) -> MinimalityResult:
    """Minimal == a single orbit (the acting group is finitely generated
    abelian, so orbit closures are orbits here)."""
    return sys.memo(("minimal",), lambda: _orbit_census(sys))


def _orbit_census(sys: FiniteZdSystem) -> MinimalityResult:
    counts = np.bincount(_orbits(sys))
    sizes = tuple(counts[counts > 0].tolist())  # by least member
    ok = len(sizes) == 1
    # point 0's orbit is proper whenever there is more than one orbit
    return MinimalityResult(ok=ok, witness=None if ok else 0, orbit_sizes=sizes)


# ---------------------------------------------------------------------------
# partitions as label arrays


def partition(n: int, u, v) -> np.ndarray:
    """Labels of the equivalence relation on 0..n-1 generated by the edges
    (u[k], v[k]): each point's label is the least member of its class.

    Each round hooks, for every edge whose ends still carry different
    labels, the larger of the two roots under the smaller, then jumps
    pointers (lab = lab[lab]) until every label is a root.  Hooking roots
    rather than points keeps the rounds few: about a dozen on a randomly
    relabelled cycle of a million points."""
    lab = np.arange(n, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=np.int64).ravel()
    while True:
        a, b = lab[u], lab[v]
        live = a != b
        if not live.any():
            return lab
        # an edge whose ends share a label keeps sharing it
        u, v, a, b = u[live], v[live], a[live], b[live]
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped


def orbit_labels(n: int, perms: Sequence[Perm]) -> np.ndarray:
    """Labels of the orbits of the group generated by perms, from the edges
    (x, g x) of each generator; the group is never listed."""
    images = np.asarray(perms, dtype=np.int64).reshape(len(perms), n)
    return partition(n, np.tile(np.arange(n), len(perms)), images)


def label_classes(labels) -> tuple[tuple[int, ...], ...]:
    """The fibres of a label array (any class ids), each ascending, ordered
    by least member."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    groups = [g.tolist() for g in np.split(order, cuts)]
    groups.sort(key=lambda g: g[0])
    return tuple(map(tuple, groups))


def _first(mask: np.ndarray) -> int | None:
    return int(mask.argmax()) if mask.any() else None


# ---------------------------------------------------------------------------
# pair relations


@dataclass(frozen=True)
class PairRelation:
    """A set of ordered pairs on {0..n-1}.

    base optionally references the system the relation lives on, which lets
    check_equivalence test invariance without extra arguments.  The
    equivalence closure is read from labels(), the partition of the pairs
    taken as undirected edges.
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

    def labels(self) -> np.ndarray:
        """Least-member labels of the classes of the equivalence closure."""
        flat = np.fromiter((v for pair in self.pairs for v in pair),
                           dtype=np.int64, count=2 * len(self.pairs))
        return partition(self.n_points, flat[0::2], flat[1::2])

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition classes of the equivalence closure, sorted by least member."""
        return label_classes(self.labels())

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
        if n < 1:
            raise InputError(f"need at least one point, got n = {n}", path=path,
                             line=header_line)
        pairs = set()
        for lineno, line in body[1:]:
            parts = line.split(",")
            if len(parts) != 2:
                raise InputError(f"expected 'x,y', got {line!r}", path=path, line=lineno)
            try:
                x, y = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(f"non-integer pair {line!r}", path=path, line=lineno)
            if not (0 <= x < n and 0 <= y < n):
                raise InputError(f"pair ({x},{y}) out of range for n = {n}",
                                 path=path, line=lineno)
            pairs.add((x, y))
        return cls(n, frozenset(pairs))


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
    m = np.asarray(pi.mapping, dtype=np.int64)
    hit = np.zeros(pi.target.n_points, dtype=bool)
    hit[m] = True
    missed = _first(~hit)
    if pi.source.d != pi.target.d:
        raise InputError("source and target have different d")
    witness = None
    for i, (p, q) in enumerate(zip(pi.source.perms, pi.target.perms), start=1):
        x = _first(m[np.asarray(p)] != np.asarray(q)[m])
        if x is not None:
            witness = (x, i)
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
    return _label_quotient(sys, rel.labels())


def _label_quotient(sys: FiniteZdSystem, labels: np.ndarray
                    ) -> tuple[FiniteZdSystem, FactorMap]:
    """Quotient by the partition with least-member labels.  Classes are
    numbered by least member; the first InvarianceError pair is (least
    member, x) for the first generator, class and member x, in that order,
    whose image leaves the image class of the least member.  The quotient
    by the discrete partition is a copy of sys that shares its memo."""
    name = f"{sys.name}/~" if sys.name else ""
    if (np.asarray(labels) == np.arange(sys.n_points)).all():
        q_sys = FiniteZdSystem(sys.n_points, sys.d, sys.perms, name=name)
        object.__setattr__(q_sys, "_memo", sys._memo)
        return q_sys, FactorMap(sys, q_sys, tuple(range(sys.n_points)))
    reps, class_of = np.unique(labels, return_inverse=True)
    perms = [np.asarray(p) for p in sys.perms]
    for i, p in enumerate(perms, start=1):
        image = class_of[p]
        bad = np.flatnonzero(image != image[reps][class_of])
        if len(bad):
            x = int(bad[np.lexsort((bad, class_of[bad]))[0]])
            raise InvarianceError((int(reps[class_of[x]]), x), i)
    new_perms = tuple(tuple(class_of[p[reps]].tolist()) for p in perms)
    q_sys = FiniteZdSystem(len(reps), sys.d, new_perms, name=name)
    pi = FactorMap(sys, q_sys, tuple(class_of.tolist()))
    return q_sys, pi


# ---------------------------------------------------------------------------
# text format


def _content_lines(text: str, start: int = 1) -> list[tuple[int, str]]:
    """(lineno, stripped) for lines that are not blank or comments, the
    first line of text numbered start."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] if "#" in line else line for line in lines]
    return [(lineno, line) for lineno, line in enumerate(map(str.strip, lines), start)
            if line]


# the line boundaries of str.splitlines
_LINE_BREAK = re.compile(r"\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


def _first_content_line(text: str) -> tuple[int, str, str] | None:
    """The first entry of _content_lines(text) followed by the text after
    that line, or None when there is no such line.  Lines are split off one
    at a time, so the rest of the text is never split."""
    start = lineno = 0
    for lineno, brk in enumerate(_LINE_BREAK.finditer(text), 1):
        line = text[start:brk.start()].split("#", 1)[0].strip()
        if line:
            return lineno, line, text[brk.end():]
        start = brk.end()
    line = text[start:].split("#", 1)[0].strip()
    return (lineno + 1, line, "") if line else None


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
