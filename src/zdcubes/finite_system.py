"""Finite Z^d-systems: d commuting permutations of a finite point set.

Points are ids 0..n-1.  A system is stored as table, a read-only int32
array of shape (d, n) whose row i-1 is generator i: table[i-1, x] =
T_i(x).  A word n = (n_1..n_d) acts by T_1^{n_1} ... T_d^{n_d}; negative
exponents are taken through the inverse permutation.

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
of a quotient) are int label arrays, from partition() for edges and from
orbit_labels() for generators: each point carries the least member of its
class.  A pair relation is stored as the sorted,
distinct int64 keys x*n + y of its pairs, and a factor map as the int64
image of each point.  The tuple forms of all three objects (perms and
inverses, pairs, mapping) are views built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from ._arrays import (_chunked_ranks, _dense_ids, _distinct, _find_keys,
                      _first, _frozen, _invert, _same)
from ._text import (_content_lines, _parse_int_list, _read_header, _read_keys,
                    _rows_text)
from .errors import InputError

Perm = tuple[int, ...]

VALIDATE_CHUNK = 1 << 22  # composed entries per chunk of the commutation check
JOIN_CHUNK = 1 << 20  # composed pairs per chunk of the transitivity join
MAX_PAIR_POINTS = math.isqrt(1 << 63)  # the largest n whose keys x*n + y fit int64


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


# ---------------------------------------------------------------------------
# systems


class FieldError(InputError):
    """An InputError of the FiniteZdSystem constructor that names the field
    at fault ('points', 'd' or a generator 'T<i>'), so that the parser can
    point at that field's line."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(message)


def _bijection_table(perms, n: int) -> np.ndarray:
    """perms as a read-only int32[len(perms), n] table, refusing the first
    generator that is not a bijection of 0..n-1.  An array is checked by
    one sort of its rows against 0..n-1; sequences, and an array that fails,
    are checked row by row in order, which on the few points of a system
    file is also the cheaper check.  Either way there is one conversion."""
    if isinstance(perms, np.ndarray):
        if (perms.ndim == 2 and perms.shape[1] == n
                and np.sort(perms, axis=1).tobytes()
                == np.arange(n, dtype=perms.dtype).tobytes() * len(perms)):
            return _frozen(perms.astype(np.int32))
        perms = perms.tolist()
    ident = list(range(n))
    for i, p in enumerate(perms, start=1):
        if len(p) != n:
            raise FieldError(f"T{i}", f"T{i} has {len(p)} entries, expected {n}")
        if sorted(p) != ident:
            raise FieldError(f"T{i}", f"T{i} is not a bijection of 0..{n - 1}")
    return _frozen(np.array(perms, dtype=np.int32))


@dataclass(frozen=True, init=False, repr=False, eq=False)
class FiniteZdSystem:
    """d commuting permutations of {0..n-1}.

    The constructor takes the generators as d sequences or as a (d, n) int
    array and stores them as table, read-only int32, after one conversion
    and one check of the rows, which refuses a non-bijection.  perms and
    inverses are tuple views of the table and of its inverse, built on
    first use; equality, hashing and repr read the system as (n_points, d,
    perms, name, labels).  Commutation is checked by validate() and enforced by
    the parser, not here, so that broken inputs can still be built and
    reported on.

    labels optionally names the points (used by affine discretization to
    remember which torus point each id stands for).

    Objects derived from the system (cube sets, relations, minimality, the
    joining decomposition, return sets, systems with a generator dropped)
    are computed once and kept on the instance by memo(); the store takes
    no part in equality, hashing or repr.  Stored values may name and point
    to the system that built them (a cube set's base, a relation's system,
    the joining decomposition's sys and the name of its Y).
    """

    n_points: int
    d: int
    table: np.ndarray
    name: str
    labels: tuple[str, ...] | None
    _memo: dict = field(compare=False)

    def __init__(self, n_points: int, d: int, perms, name: str = "",
                 labels: tuple[str, ...] | None = None) -> None:
        if n_points < 1:
            raise FieldError("points", f"need at least one point, got {n_points}")
        if not 1 <= d <= 10:
            raise FieldError("d", f"d must be in 1..10, got {d}")
        if len(perms) != d:
            raise InputError(f"expected {d} generators, got {len(perms)}")
        table = _bijection_table(perms, n_points)
        if labels is not None and len(labels) != n_points:
            raise InputError("labels length does not match point count")
        self.__dict__.update(n_points=n_points, d=d, table=table, name=name,
                             labels=labels, _memo={})

    @cached_property
    def perms(self) -> tuple[Perm, ...]:
        return tuple(map(tuple, self.table.tolist()))

    @cached_property
    def inverses(self) -> tuple[Perm, ...]:
        return tuple(map(tuple, _invert(self.table).tolist()))

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(perm_order(p) for p in self.table.tolist())

    @cached_property
    def dirs(self) -> tuple[int, ...]:
        """Every direction, (1, .., d): the directions of the full cube set."""
        return tuple(range(1, self.d + 1))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n_points == other.n_points and self.d == other.d
                and _same(self.table, other.table)
                and self.name == other.name and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self.n_points, self.d, self.perms, self.name, self.labels))

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(n_points={self.n_points!r}, "
                f"d={self.d!r}, perms={self.perms!r}, name={self.name!r}, "
                f"labels={self.labels!r})")

    def memo(self, key: tuple, build: Callable[[], Any]) -> Any:
        """The derived object stored under key, built by build() on first
        use.  Stored objects are shared by every caller, so they must not be
        mutated."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def word_perm(self, n_vec: Sequence[int]) -> np.ndarray:
        """The permutation of the word n_vec as an int32 index array,
        T_1^{n_1} first; zero exponents are skipped."""
        if len(n_vec) != self.d:
            raise InputError(f"word length {len(n_vec)} != d = {self.d}")
        out = np.arange(self.n_points, dtype=np.int32)
        for p, e in zip(self.table, n_vec):
            if e:
                out = perm_power(p, e)[out]
        return out


class ValidationReport(NamedTuple):
    ok: bool
    n_points: int
    d: int
    bijective: tuple[bool, ...]
    commuting: bool
    commute_witness: tuple[int, int, int] | None  # (i, j, point)
    orders: tuple[int, ...] | None


def validate(sys: FiniteZdSystem) -> ValidationReport:
    """Full invariant report: bijectivity per generator (the constructor
    refuses non-bijections, so every generator of a system has it) and
    pairwise commutation.  The table of compositions t[:, t] (taken as
    np.take(t, t, axis=1)), whose entry (i, j, x) is T_i T_j x, is compared
    with its transpose, VALIDATE_CHUNK entries at a time; the witness is
    the least (i, j, x), i < j, where the two disagree."""
    t, n, d = sys.table, sys.n_points, sys.d
    witness = None
    step = max(1, VALIDATE_CHUNK // (d * d))
    for x0 in range(0, n, step):
        both = np.take(t, t[:, x0:x0 + step], axis=1)
        swapped = both.transpose(1, 0, 2)
        if both.tobytes() != swapped.tobytes():
            # the first disagreement in (i, j, x) order has i < j
            split = both != swapped
            i, j, x = np.unravel_index(np.argmax(split), split.shape)
            found = (int(i) + 1, int(j) + 1, x0 + int(x))
            witness = found if witness is None else min(witness, found)
    return ValidationReport(
        ok=witness is None, n_points=n, d=d, bijective=(True,) * d,
        commuting=witness is None, commute_witness=witness,
        orders=sys.orders if witness is None else None)


class MinimalityResult(NamedTuple):
    ok: bool
    witness: int | None  # a point whose orbit misses some other point
    orbit_sizes: tuple[int, ...]


def _orbits(sys: FiniteZdSystem) -> np.ndarray:
    return sys.memo(("orbits",), lambda: orbit_labels(sys.n_points, sys.table))


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


def orbit_labels(n: int, perms) -> np.ndarray:
    """Labels of the orbits of the group generated by perms (a table or a
    list of index arrays): each point's label is the least member of its
    orbit, as partition() gives it for the edges (x, g x); the group is
    never listed.

    The least label is carried along each generator's cycles by doubling:
    with q = g^(2^m), lab becomes min(lab, lab[q]) and q becomes q∘q, so
    after m steps each point holds the least label among its next 2^m
    images, until a step changes nothing; then lab is constant on g's
    cycles, about log2 of the cycle length steps later.  Passes over the
    generators repeat until one changes nothing: a single pass labels the
    orbits of commuting generators, and the next confirms it."""
    tables = np.asarray(perms).reshape(len(perms), n)
    lab = np.arange(n, dtype=np.int64)
    changed = True
    while changed:
        changed = False
        for q in tables:
            while True:
                step = np.minimum(lab, lab[q])
                if _same(step, lab):
                    break
                lab, q, changed = step, q[q], True
    return lab


def label_classes(labels) -> tuple[tuple[int, ...], ...]:
    """The fibres of a label array (any class ids), each ascending, ordered
    by least member."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    groups = [g.tolist() for g in np.split(order, cuts)]
    groups.sort(key=lambda g: g[0])
    return tuple(map(tuple, groups))


# ---------------------------------------------------------------------------
# pair relations


def _out_of_range(x: int, y: int, n: int) -> InputError:
    return InputError(f"pair ({x},{y}) out of range for n = {n}")


def _too_many_points(n: int, **where) -> InputError:
    return InputError(f"n = {n} exceeds {MAX_PAIR_POINTS}, beyond which pair "
                      "keys x*n + y overflow int64", **where)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class PairRelation:
    """A set of ordered pairs on {0..n-1}, stored as keys: the sorted,
    distinct int64 keys x*n + y of its pairs, read-only, so n is at most
    MAX_PAIR_POINTS.

    The constructor takes the pairs as a collection of (x, y) or as a
    one-dimensional int array of keys, in any order and with repeats.
    pairs is the frozenset view, built on first use; equality, hashing and
    repr read the relation as (n_points, pairs, base).  base optionally
    references the system the relation lives on, which lets
    check_equivalence test invariance without extra arguments.  The
    equivalence closure is read from labels(), the partition of the pairs
    taken as undirected edges.  Every check returns the first witness in
    the order of sorted pairs, which is the order of the keys.
    """

    n_points: int
    keys: np.ndarray
    base: FiniteZdSystem | None

    def __init__(self, n_points: int, pairs, base: FiniteZdSystem | None = None
                 ) -> None:
        n = n_points
        if n > MAX_PAIR_POINTS:
            raise _too_many_points(n)
        if isinstance(pairs, np.ndarray) and pairs.ndim == 1:
            given = np.asarray(pairs, dtype=np.int64)
            keys = _distinct(given)
            if len(keys) and (keys[0] < 0 or keys[-1] >= n * n):
                k = given[_first((given < 0) | (given >= n * n))]
                raise _out_of_range(*divmod(int(k), n), n)
        else:
            xy = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
            if len(xy) and (xy.min() < 0 or xy.max() >= n):
                raise _out_of_range(*xy[_first(((xy < 0) | (xy >= n)).any(axis=1))]
                                    .tolist(), n)
            keys = _distinct(xy[:, 0] * n + xy[:, 1])
        self.__dict__.update(n_points=n, keys=_frozen(keys), base=base)

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        x, y = self._xy
        return frozenset(zip(x.tolist(), y.tolist()))

    @cached_property
    def _xy(self) -> tuple[np.ndarray, np.ndarray]:
        return np.divmod(self.keys, self.n_points)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n_points == other.n_points
                and _same(self.keys, other.keys)
                and self.base == other.base)

    def __hash__(self) -> int:
        return hash((self.n_points, self.pairs, self.base))

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(n_points={self.n_points!r}, "
                f"pairs={self.pairs!r}, base={self.base!r})")

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def diagonal(cls, n: int, base: FiniteZdSystem | None = None) -> "PairRelation":
        return cls(n, np.arange(n, dtype=np.int64) * (n + 1), base)

    def is_diagonal(self) -> bool:
        n = self.n_points
        return len(self.keys) == n and bool(
            (self.keys == np.arange(n, dtype=np.int64) * (n + 1)).all())

    @cached_property
    def _closed(self) -> bool:
        """Whether the relation is its equivalence closure, and so an
        equivalence.  It lies inside the closure, so it is the closure when
        it holds at least as many pairs: the sum of the squared class
        sizes.  Each check below passes at once on a closed relation."""
        sizes = np.bincount(self.labels())
        return int(np.dot(sizes, sizes)) <= len(self.keys)

    def is_reflexive(self) -> tuple[bool, int | None]:
        """The pairs (x, x) are the keys on the diagonal, so the relation is
        reflexive when it holds n of them; otherwise the first missing x is
        the first gap in their sorted x."""
        if self._closed:
            return True, None
        x, y = self._xy
        on = x[x == y]
        if len(on) == self.n_points:
            return True, None
        gap = _first(on != np.arange(len(on)))
        return False, len(on) if gap is None else gap

    def is_symmetric(self) -> tuple[bool, tuple[int, int] | None]:
        """The reversed keys, sorted, are the keys exactly when the relation
        is symmetric; otherwise each reversed key is looked up."""
        if self._closed:
            return True, None
        x, y = self._xy
        flipped = y * self.n_points + x
        if np.sort(flipped).tobytes() == self.keys.tobytes():
            return True, None
        k = _first(~_find_keys(self.keys, flipped)[1])
        return False, (int(x[k]), int(y[k]))

    def is_transitive(self) -> tuple[bool, tuple[int, int, int] | None]:
        """A closed relation is transitive.  Otherwise each pair (x, y), in
        order, is joined with the pairs (y, z), which are one key range, in
        order of z; the witness is the first (x, y, z) with (x, z)
        missing."""
        if self._closed:
            return True, None
        n, keys = self.n_points, self.keys
        x, y = self._xy
        start = np.searchsorted(keys, y * n)
        stop = np.searchsorted(keys, (y + 1) * n)
        for owner, rank in _chunked_ranks(stop - start, JOIN_CHUNK):
            z = keys[start[owner] + rank] % n
            k = _first(~_find_keys(keys, x[owner] * n + z)[1])
            if k is not None:
                i = owner[k]
                return False, (int(x[i]), int(y[i]), int(z[k]))
        return True, None

    def is_invariant(self) -> tuple[bool, tuple[tuple[int, int], int] | None]:
        """Does (T_i x, T_i y) stay in the relation for every generator?
        A closed relation does when T_i x falls in the class of the image
        of x's least member, for every x.  Otherwise, as T_i is a bijection
        of the pairs, it does exactly when the sorted image keys are the
        keys.  The witness comes from looking the image keys up."""
        if self.base is None:
            raise InputError("relation has no base system to test invariance against")
        t = self.base.table
        if self._closed:
            image = self.labels()[t]
            if (image == image[:, self.labels()]).all():
                return True, None
        x, y = self._xy
        image = t[:, x].astype(np.int64) * self.n_points + t[:, y]
        if np.sort(image, axis=1).tobytes() == self.keys.tobytes() * len(t):
            return True, None
        i, k = divmod(_first(~_find_keys(self.keys, image.ravel())[1]), len(x))
        return False, ((int(x[k]), int(y[k])), i + 1)

    def labels(self) -> np.ndarray:
        """Least-member labels of the classes of the equivalence closure,
        read-only."""
        return self._labels

    @cached_property
    def _labels(self) -> np.ndarray:
        return _frozen(partition(self.n_points, *self._xy))

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition classes of the equivalence closure, sorted by least member."""
        return label_classes(self.labels())

    def to_text(self) -> str:
        return _rows_text(f"pair-relation n={self.n_points}",
                          np.stack(self._xy, axis=1))

    @classmethod
    def from_text(cls, text: str, path: str | None = None) -> "PairRelation":
        header_line, fields, body = _read_header(text, "pair-relation n=<N>", path)
        n = fields["n"]
        if n < 1:
            raise InputError(f"need at least one point, got n = {n}", path=path,
                             line=header_line)
        if n > MAX_PAIR_POINTS:
            raise _too_many_points(n, path=path, line=header_line)
        pairs = []
        for lineno, line in _content_lines(body, header_line + 1):
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
            pairs.append((x, y))
        return cls(n, pairs)


# ---------------------------------------------------------------------------
# quotients and factor maps


@dataclass(frozen=True, init=False, repr=False, eq=False)
class FactorMap:
    """A surjection pi: source -> target carrying each generator to its
    image, stored as array, the read-only int64 image of each point;
    mapping is its tuple view, built on first use.  Equality, hashing and
    repr read the map as (source, target, mapping)."""

    source: FiniteZdSystem
    target: FiniteZdSystem
    array: np.ndarray

    def __init__(self, source: FiniteZdSystem, target: FiniteZdSystem,
                 mapping) -> None:
        array = np.array(mapping, dtype=np.int64)
        if array.shape != (source.n_points,):
            raise InputError("factor map length does not match source size")
        if array.min() < 0 or array.max() >= target.n_points:
            v = array[_first((array < 0) | (array >= target.n_points))]
            raise InputError(f"factor map value {v} out of target range")
        self.__dict__.update(source=source, target=target, array=_frozen(array))

    @cached_property
    def mapping(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and _same(self.array, other.array))

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.mapping))

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(source={self.source!r}, "
                f"target={self.target!r}, mapping={self.mapping!r})")

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    @classmethod
    def identity(cls, sys: FiniteZdSystem) -> "FactorMap":
        return cls(sys, sys, np.arange(sys.n_points))


class FactorMapReport(NamedTuple):
    ok: bool
    surjective: bool
    missed: int | None
    equivariant: bool
    witness: tuple[int, int] | None  # (point, generator) where pi(T_i x) != T_i pi(x)


def check_factor_map(pi: FactorMap) -> FactorMapReport:
    m = pi.array
    hit = np.zeros(pi.target.n_points, dtype=bool)
    hit[m] = True
    missed = _first(~hit)
    if pi.source.d != pi.target.d:
        raise InputError("source and target have different d")
    # entry (i, x) compares pi(T_i x) with T_i pi(x)
    first = _first((m[pi.source.table] != pi.target.table[:, m]).ravel())
    witness = None
    if first is not None:
        i, x = divmod(first, pi.source.n_points)
        witness = (x, i + 1)
    return FactorMapReport(
        ok=missed is None and witness is None, surjective=missed is None,
        missed=missed, equivariant=witness is None, witness=witness)


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
    by the discrete partition is sys itself."""
    if (np.asarray(labels) == np.arange(sys.n_points)).all():
        return sys, FactorMap.identity(sys)
    reps, class_of = _dense_ids(labels, sys.n_points)
    image = class_of[sys.table]
    table = image[:, reps]
    split = image != table[:, class_of]
    i = _first(split.any(axis=1))
    if i is not None:
        bad = np.flatnonzero(split[i])
        x = int(bad[np.lexsort((bad, class_of[bad]))[0]])
        raise InvarianceError((int(reps[class_of[x]]), x), i + 1)
    q_sys = FiniteZdSystem(len(reps), sys.d, table,
                           name=f"{sys.name}/~" if sys.name else "")
    return q_sys, FactorMap(sys, q_sys, class_of)


# ---------------------------------------------------------------------------
# text format


def parse_finite_system(text: str, path: str | None = None,
                        strict: bool = True) -> FiniteZdSystem:
    """Parse the finite-system text format.

    strict=True (the default) additionally rejects non-commuting generator
    pairs so downstream analysis can rely on a valid system.  strict=False
    stops at well-formedness, letting a caller run validate() and report the
    commutation witness itself.  The rows are checked once, by the
    constructor; its refusals are given the line of the field at fault.
    """
    values, rows = _read_keys(
        text, path, "finite-system",
        {"points": "missing 'points = N'", "d": "missing 'd = D'"},
        {"T": _parse_int_list})
    (_, n_points), (_, d), rows = values["points"], values["d"], rows["T"]
    if sorted(rows) != list(range(1, d + 1)):
        raise InputError(f"expected rows T1..T{d}, got {sorted(rows)}", path=path)
    try:
        sys = FiniteZdSystem(n_points, d, [rows[i][1] for i in range(1, d + 1)],
                             name=path.rsplit("/", 1)[-1] if path else "")
    except FieldError as exc:
        if exc.key in values:
            raise InputError(str(exc), path=path, line=values[exc.key][0])
        raise InputError(f"{exc.key} is not a permutation of 0..{n_points - 1}",
                         path=path, line=rows[int(exc.key[1:])][0])
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
    for i, p in enumerate(sys.table.tolist(), start=1):
        lines.append(f"T{i} = [{', '.join(map(str, p))}]")
    return "\n".join(lines) + "\n"


def load_finite_system(path: str, strict: bool = True) -> FiniteZdSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_finite_system(fh.read(), path=path, strict=strict)
