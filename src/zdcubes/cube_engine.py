"""Directional cube sets of a finite Z^d-system and the face group acting
on them.

For directions (j_1..j_k) the cube set Q collects all tuples

    ( T_{j_1}^{n_1 eps_1} ... T_{j_k}^{n_k eps_k} x )_{eps in {0,1}^k}

with x a point and 0 <= n_i < order(T_{j_i}); coordinates sit in canonical
vertex order (hypercube.py).  K^{x0} is the restriction to base point x0
with the eps = 0 coordinate dropped, so its tuples have width 2^k - 1
and vertex m sits in column m - 1 (CubeSet.columns).

A CubeSet holds its tuples as one sorted, duplicate-free int32 array with
the RowIndex of their row keys.  Enumeration runs the numpy kernel over
every base point, each exponent below the generator's order on the base
point's orbit, taken in the order of its images, so its rows come out
sorted and distinct.  The sets over increasing directions are kept on the
system (FiniteZdSystem.memo), so each is enumerated once, and each keeps
its unique-completion verdict.  A face-group element moves the columns
of each upper face through a power of that face's generator, then every
column through its diagonal word, skipping zero exponents; only this
module builds elements.  A face-group orbit is the closure of its start
under the forward generators' maps of a set's rows, by doubling, or, when
a generator leaves the set, a class of the partition of the rows by those
maps' edges.  Cube sets are read and written by the int-row codec of _text.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from ._arrays import (_distinct, _distinct_rows, _find_keys, _first_repeat,
                      _frozen, _has_repeat, _increasing, _row_keys)
from ._text import _read_header, _read_int_rows, _rows_text, _text_chunks
from .errors import InputError
from .finite_system import (FiniteZdSystem, _orbits, is_minimal, orbit_labels,
                            partition, perm_power)
from .hypercube import MAX_DIM, face

CubePoint = tuple[int, ...]

MAX_ENUM_ROWS = 5_000_000
INT32 = np.iinfo(np.int32)


def _columns(vertices, based: bool) -> list[int]:
    """The columns holding the given vertices of a cube tuple, in their
    order: vertex m sits in column m, or in column m - 1 of a based tuple,
    which holds no vertex 0 (skipped)."""
    return [v - 1 for v in vertices if v] if based else list(vertices)


@dataclass(frozen=True, eq=False, init=False)
class CubeSet:
    """An immutable, sorted collection of equal-width cube tuples.

    The tuples are stored once, as rows: a read-only, sorted, duplicate-free,
    C-contiguous int32 array of shape (len, width).  The constructor takes
    them as points, an array or any sequence of tuples, in any order and
    with repeats; the points attribute gives them back as a tuple of tuples,
    built on first use.

    based=True marks a base-point restriction (width 2^k - 1, vertex 0
    dropped).  base keeps the originating system when known, and then the
    coordinates are its point ids; raw sets parsed from text have base=None
    and may hold any int32 coordinates.

    index is the RowIndex of the rows: keyed with radix base.n_points, so
    that images of rows under the system's maps can be looked up, or over
    the value range of a raw set, whose queries are moved like its rows
    (_shifted), as column_keys keys some of their columns.
    """

    dirs: tuple[int, ...]
    rows: np.ndarray = field(repr=False)
    based: bool = False
    base: FiniteZdSystem | None = None

    def __init__(self, dirs, points, based: bool = False,
                 base: FiniteZdSystem | None = None) -> None:
        object.__setattr__(self, "dirs", tuple(dirs))
        object.__setattr__(self, "based", based)
        object.__setattr__(self, "base", base)
        self.__post_init__(points)

    def __post_init__(self, points) -> None:
        k = len(self.dirs)
        if not 1 <= k <= MAX_DIM:
            raise InputError(f"need 1..{MAX_DIM} directions, got {k}")
        if len(set(self.dirs)) != k:
            raise InputError(f"directions must be distinct, got {self.dirs}")
        width = self.width
        try:
            rows = np.asarray(points)
        except ValueError:
            raise InputError(f"cube tuples must all have width {width}")
        if rows.ndim == 1 and rows.size == 0:
            rows = np.empty((0, width), dtype=np.int32)
        if rows.ndim != 2 or rows.shape[1] != width:
            raise InputError(f"cube tuples must all have width {width}")
        if not np.issubdtype(rows.dtype, np.integer):
            raise InputError("cube tuples must hold integers")
        lo, hi = (int(rows.min()), int(rows.max())) if len(rows) else (0, 0)
        if lo < INT32.min or hi > INT32.max:
            raise InputError("cube coordinates must fit in int32")
        if self.base is not None:
            if lo < 0 or hi >= self.base.n_points:
                raise InputError("cube coordinates must be point ids of the "
                                 "base system")
            lo, hi = 0, self.base.n_points - 1
        rows = rows.astype(np.int32, copy=False)  # exact, as checked above
        lo = min(lo, 0)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_n", hi - lo + 1)
        rows, index = RowIndex.of_rows(rows, self._shifted(rows), self._n)
        # rows already sorted and distinct, as enumerated sets are, are kept
        # as they are, through a read-only view
        object.__setattr__(self, "rows", _frozen(
            np.ascontiguousarray(rows).view()))
        object.__setattr__(self, "index", index)

    def _shifted(self, rows: np.ndarray) -> np.ndarray:
        """rows (or some of their columns) moved into 0.._n-1, the range
        row_keys takes; only raw sets can hold negative coordinates."""
        return rows.astype(np.int64) - self._lo if self._lo else rows

    @property
    def k(self) -> int:
        return len(self.dirs)

    @property
    def width(self) -> int:
        return (1 << self.k) - 1 if self.based else 1 << self.k

    @cached_property
    def points(self) -> tuple[CubePoint, ...]:
        return tuple(map(tuple, self.rows.tolist()))

    @cached_property
    def _ucpp(self) -> UcppResult:
        return _ucpp_scan(self)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        q = np.asarray(p).reshape(1, -1)
        if (q.shape[1] != self.width or not len(self)
                or not np.issubdtype(q.dtype, np.integer)):
            return False
        if q.min() < self._lo or q.max() >= self._lo + self._n:
            return False
        return bool(self.index.find(self._shifted(q))[1][0])

    def columns(self, vertices) -> list[int]:
        """The columns holding the given vertices, in their order."""
        return _columns(vertices, self.based)

    def column_keys(self, cols) -> np.ndarray:
        """The row keys of the rows restricted to the columns cols, over
        the set's own shift and radix: ordered as the restricted rows are,
        with no range check, as stored rows lie in range."""
        return _row_keys(self._shifted(self.rows[:, cols]), self._n)

    def to_text(self) -> str:
        return _rows_text(self._header(), self.rows)

    def text_sha256(self) -> str:
        digest = hashlib.sha256()
        for chunk in _text_chunks(self._header(), self.rows):
            digest.update(chunk)
        return digest.hexdigest()

    def _header(self) -> str:
        return f"cube-set d={self.k} dirs={','.join(map(str, self.dirs))}"

    @classmethod
    def from_text(cls, text: str, path: str | None = None) -> "CubeSet":
        header_line, fields, body = _read_header(text, "cube-set d=<k> dirs=<...>", path)
        k, dirs = fields["d"], fields["dirs"]
        if len(dirs) != k:
            raise InputError(f"header says d={k} but lists {len(dirs)} dirs",
                             path=path, line=header_line)

        def width_error(width: int, first: int) -> str | None:
            if width != first:
                return f"row width {width} != {first}"
            if width not in (1 << k, (1 << k) - 1):
                return f"row width {width} matches neither 2^{k} nor 2^{k}-1"
            return None

        points = _read_int_rows(body, header_line, "coordinate", width_error, path,
                                INT32)
        based = len(points) > 0 and len(points[0]) == (1 << k) - 1
        return cls(dirs=dirs, points=points, based=based)


# ---------------------------------------------------------------------------
# row keys and membership


def row_keys(rows: np.ndarray, n: int, tables: list | None = None,
             lookup: bool = False) -> np.ndarray:
    """One int64 key per row of an int array with entries in 0..n-1, ordered
    as the rows are lexicographically: the mixed-radix key (first column
    most significant) while n^width < 2^63, otherwise a key of the ranks of
    the row's column chunks (_row_keys, with tables and lookup), which
    compares only within one call or against one RowIndex."""
    rows = np.asarray(rows)
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"row entries must lie in 0..{n - 1}")
    return _row_keys(rows, n, tables, lookup)


class RowIndex:
    """Membership in a sorted, duplicate-free set of rows with entries in
    0..n-1 (such as CubeSet.rows), by binary search over row keys; queries
    are keyed through the rank tables of wide rows, tables."""

    def __init__(self, rows: np.ndarray, n: int):
        self.n, self.tables = n, []
        self.keys = row_keys(rows, n, self.tables)

    @classmethod
    def of_rows(cls, rows: np.ndarray, keyed: np.ndarray, n: int
                ) -> tuple[np.ndarray, "RowIndex"]:
        """(rows, index): rows sorted by the keys of keyed, rows moved into
        0..n-1, with repeats dropped, and the index over them."""
        index = cls.__new__(cls)
        index.n, index.tables = n, []
        rows, index.keys = _distinct_rows(rows, _row_keys(keyed, n, index.tables))
        return rows, index

    def find(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position, found) per query row; position is meaningful only
        where found is set."""
        return _find_keys(self.keys, row_keys(rows, self.n, self.tables, True))

    def same_set(self, rows: np.ndarray) -> bool:
        """Whether the query rows, as a set, equal the indexed set.  As many
        rows as the index holds are the set exactly when their sorted keys
        are the index keys, which are distinct; others are looked up."""
        if len(rows) == len(self.keys):
            keys = row_keys(rows, self.n, self.tables, True)
            return bool(np.array_equal(np.sort(keys), self.keys))
        pos, found = self.find(rows)
        if not found.all():
            return False
        hit = np.zeros(len(self.keys), dtype=bool)
        hit[pos] = True
        return bool(hit.all())


def _check_range(sys: FiniteZdSystem, dirs: tuple[int, ...]) -> None:
    for j in dirs:
        if not 1 <= j <= sys.d:
            raise InputError(f"direction {j} out of range 1..{sys.d}")


def _pow_table(p, L: int) -> np.ndarray:
    """int32[L, n] whose row e is p^e, built by one-step composition."""
    step = np.asarray(p, dtype=np.int32)
    table = np.empty((L, len(step)), dtype=np.int32)
    table[0] = np.arange(len(step), dtype=np.int32)
    for e in range(1, L):
        table[e] = step[table[e - 1]]
    return table


def _ranked_table(sys: FiniteZdSystem, j: int, L: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(table, ranked): the power table of T_j below L, and int32[n, L]
    whose row x lists the exponents e < L ordered by the image T_j^e x (an
    argsort of the table's column x).  Both are kept on the system memo."""
    def build() -> tuple[np.ndarray, np.ndarray]:
        table = _pow_table(sys.table[j - 1], L)
        ranked = np.argsort(table.T, axis=1).astype(np.int32)
        return table, ranked

    return sys.memo(("ranked", j, L), build)


def _orbit_orders(sys: FiniteZdSystem) -> np.ndarray:
    """int64[d, n] whose entry (i, x) is the order of T_{i+1} on the orbit
    of x: the lcm of its cycle lengths there, which in a commuting system
    are all equal.  An order beyond 2^62 is stored as 2^62; it fails the
    enumeration cap either way."""
    def build() -> np.ndarray:
        n = sys.n_points
        orbit = _orbits(sys)
        orders = np.empty((sys.d, n), dtype=np.int64)
        for i, p in enumerate(sys.table):
            cycle = orbit_labels(n, [p])
            pairs = _distinct(orbit * (n + 1) + np.bincount(cycle)[cycle])
            owner, length = np.divmod(pairs, n + 1)
            order = np.zeros(n, dtype=np.int64)
            order[owner] = length
            for c in _distinct(owner[1:][owner[1:] == owner[:-1]]).tolist():
                order[c] = min(math.lcm(*length[owner == c].tolist()), 1 << 62)
            orders[i] = order[orbit]
        return orders

    return sys.memo(("orbit_orders",), build)


def _enumerate_rows(sys: FiniteZdSystem, dirs: tuple[int, ...],
                    bases: np.ndarray) -> np.ndarray:
    """The cube tuples over dirs of the increasing base points, sorted and
    distinct.  The exponent of T_j runs below its order on the base point's
    orbit, in the order of its images (_ranked_table), so the kernel emits
    each base's rows in order.  The bases of a system that is not minimal
    are enumerated in groups of equal orders, whose blocks are interleaved
    back by base point.  A minimal system has one orbit, on which these are
    the whole-system orders; taking those skips the per-orbit table, whose
    build and grouping cost about 7 % of a verify_d2 pass."""
    _check_range(sys, dirs)
    if is_minimal(sys).ok:
        groups = [([sys.orders[j - 1] for j in dirs], bases)]
    else:
        orders = _orbit_orders(sys)[np.ix_([j - 1 for j in dirs], bases)]
        sort = np.lexsort(orders)
        orders = orders[:, sort]
        cut = np.flatnonzero((orders[:, 1:] != orders[:, :-1]).any(axis=0)) + 1
        groups = [(orders[:, a].tolist(), bases[sort[a:b]]) for a, b in
                  zip([0, *cut.tolist()], [*cut.tolist(), len(bases)])]
    total = sum(len(b) * math.prod(L) for L, b in groups)
    if total > MAX_ENUM_ROWS:
        raise InputError(
            f"enumeration would produce {total} rows (limit {MAX_ENUM_ROWS}); "
            "restrict the directions or the system size")
    blocks = []
    for limits, b in groups:
        tables, ranked = zip(*(_ranked_table(sys, j, L)
                               for j, L in zip(dirs, limits)))
        blocks.append(kernels.enumerate_blocks(list(tables), b,
                                               [r[b] for r in ranked]))
    if len(blocks) == 1:
        return blocks[0]
    # a base's rows are one run of its group's block; gather the runs in
    # base order
    sizes = np.concatenate([np.full(len(b), math.prod(L), dtype=np.int64)
                            for L, b in groups])
    starts = np.cumsum(sizes) - sizes
    back = np.argsort(sort)
    sizes = sizes[back]
    runs = np.repeat(starts[back] - (np.cumsum(sizes) - sizes), sizes)
    return np.concatenate(blocks)[runs + np.arange(total)]


def _check_dirs(dirs: tuple[int, ...]) -> None:
    if not dirs:
        raise InputError("need at least one direction")
    if len(set(dirs)) != len(dirs):
        raise InputError(f"directions must be distinct, got {dirs}")


def _stored(sys: FiniteZdSystem, key: tuple, dirs: tuple[int, ...], build):
    """build() through the system's memo when dirs increase; a set over any
    other order is built afresh, as only the digit-permutation check asks
    for one."""
    return sys.memo(key, build) if list(dirs) == sorted(dirs) else build()


def enumerate_Q(sys: FiniteZdSystem, dirs: tuple[int, ...] | list[int]) -> CubeSet:
    """The full directional cube set over every base point."""
    dirs = tuple(dirs)
    _check_dirs(dirs)

    def build() -> CubeSet:
        rows = _enumerate_rows(sys, dirs, np.arange(sys.n_points, dtype=np.int32))
        return CubeSet(dirs=dirs, points=rows, base=sys)

    return _stored(sys, ("Q", dirs), dirs, build)


def enumerate_K(sys: FiniteZdSystem, dirs: tuple[int, ...] | list[int],
                x0: int) -> CubeSet:
    """The base-point cube set K^{x0}: vertex 0 pinned to x0 and dropped."""
    dirs = tuple(dirs)
    _check_dirs(dirs)
    if not 0 <= x0 < sys.n_points:
        raise InputError(f"base point {x0} out of range")

    def build() -> CubeSet:
        rows = _enumerate_rows(sys, dirs, np.array([x0], dtype=np.int32))
        return CubeSet(dirs=dirs, points=rows[:, 1:], based=True, base=sys)

    return _stored(sys, ("K", dirs, x0), dirs, build)


@dataclass(frozen=True)
class UcppResult:
    """Outcome of the unique-completion check: no two tuples may agree on
    all coordinates but one."""

    ok: bool
    pair: tuple[CubePoint, CubePoint] | None = None
    vertex: int | None = None  # position where the witness pair differs


def ucpp_check(cubes: CubeSet) -> UcppResult:
    """The witness is the first clash in the order vertex by vertex, then
    tuple by tuple: for the first vertex v where two tuples agree off v, p
    is the first tuple whose rest already occurred and the pair is (first
    tuple with that rest, p).  The verdict is kept on the cube set, so each
    set is scanned once.  The scan derives each vertex's keys from the
    set's own row keys and sorts them once; the stable sort that locates
    the witness runs only at the vertex that has one."""
    if cubes.width < 2:
        raise InputError("unique-completion needs tuples of width >= 2")
    return cubes._ucpp


def _ucpp_scan(cubes: CubeSet) -> UcppResult:
    """The scan behind ucpp_check.  While the set's row keys are mixed-radix
    keys (its index holds no rank tables), the keys off vertex v come from
    them by one multiply-subtract: keys - (column v) * n^(width-1-v) is
    exactly the key of each row with column v set to 0, so it compares and
    orders as the rows with column v deleted do.  Wider sets key the
    deleted rows afresh.

    When the rows are distinct on vertex 0 and the single-direction
    vertices e_i (the positions of e_i alone in a based set), as every
    enumerated set is, two rows that agree off any other vertex agree
    everywhere, so only those vertices can hold a clash and only they are
    scanned, in order.  The keys of the rows on those vertices settle it:
    they increase in the rows of an enumerated set, which are ordered as
    their exponents' images are, and otherwise one sort finds a repeat."""
    rows, n, width = cubes.rows, cubes._n, cubes.width
    keys = cubes.index.keys
    k = cubes.k  # vertex 0 and each e_i, the first vertex of the upper i-face
    single = cubes.columns([0] + [face(k, i, 1)[0] for i in range(1, k + 1)])
    vertices = single if len(single) < width and _distinct_on(cubes, single) \
        else range(width)
    for v in vertices:
        if not cubes.index.tables:
            digit = rows[:, v].astype(np.int64) - cubes._lo
            rest = keys - digit * n ** (width - 1 - v)
        else:
            rest = cubes.column_keys([c for c in range(width) if c != v])
        clash = _first_repeat(rest)
        if clash is not None:
            pair = (tuple(rows[clash[0]].tolist()), tuple(rows[clash[1]].tolist()))
            return UcppResult(ok=False, pair=pair, vertex=v)
    return UcppResult(ok=True)


def _distinct_on(cubes: CubeSet, cols: list[int]) -> bool:
    """Whether the rows of cubes are distinct on the columns cols: their
    keys there increase, or one sort finds no repeat."""
    keys = cubes.column_keys(cols)
    return _increasing(keys) or not _has_repeat(keys)


# ---------------------------------------------------------------------------
# the face group


@dataclass(frozen=True)
class FaceGroupElement:
    """A face-group element for a k-cube over a d-system: exponent face[i]
    of T_{dirs[i]} on the coordinates with eps_i = 1, in direction order,
    then the diagonal word diag applied to every coordinate.  Zero
    exponents are skipped, so a generator moves its rows once."""

    face: tuple[int, ...]
    diag: tuple[int, ...]

    def apply_rows(self, sys: FiniteZdSystem, dirs: tuple[int, ...],
                   rows: np.ndarray, based: bool = False) -> np.ndarray:
        """The image of every row of an int array of cube tuples, whose
        coordinates are point ids of sys (vertex m in column m - 1 when
        based): each upper face's columns are gathered through a power of
        its generator, then every column through the diagonal word."""
        k = len(dirs)
        if len(self.face) != k or len(self.diag) != sys.d:
            raise InputError("exponent vectors do not match dimensions")
        _check_range(sys, dirs)
        width = (1 << k) - 1 if based else 1 << k
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != width:
            raise InputError(f"cube tuples must have width {width}")
        if rows.size and (not np.issubdtype(rows.dtype, np.integer)
                          or rows.min() < 0 or rows.max() >= sys.n_points):
            raise InputError("cube coordinates must be point ids of the system")
        # the diagonal gather gives a new array, so the rows are copied only
        # for a face to write into or when no gather follows
        out = rows.astype(np.int32, copy=any(self.face) or not any(self.diag))
        for i, (j, e) in enumerate(zip(dirs, self.face), 1):
            if e:
                cols = _columns(face(k, i, 1), based)
                out[:, cols] = perm_power(sys.table[j - 1], e)[out[:, cols]]
        return sys.word_perm(self.diag)[out] if any(self.diag) else out

    def apply(self, sys: FiniteZdSystem, dirs: tuple[int, ...], p: CubePoint,
              based: bool = False) -> CubePoint:
        return tuple(self.apply_rows(sys, dirs, [p], based)[0].tolist())


def face_group_generators(sys: FiniteZdSystem, dirs: tuple[int, ...]
                          ) -> list[FaceGroupElement]:
    """One face generator (and inverse) per cube direction plus one diagonal
    generator (and inverse) per system direction, the forward one first."""
    k, d = len(dirs), sys.d
    units = [[tuple(e if t == i else 0 for t in range(n)) for i in range(n)
              for e in (1, -1)] for n in (k, d)]
    return ([FaceGroupElement(f, (0,) * d) for f in units[0]]
            + [FaceGroupElement((0,) * k, w) for w in units[1]])


def face_group_orbit(cubes: CubeSet, start: CubePoint
                     ) -> tuple[CubeSet, tuple[FaceGroupElement, np.ndarray] | None]:
    """The members of cubes that face-group generator steps within cubes
    connect to start, and the first forward generator g, in
    face_group_generators order, with the first row whose image under g is
    not a member (None when every image is).  The start must be a member;
    whether the orbit exhausts the set is a separate check.

    For an injective g and a finite set, g(cubes) within cubes gives
    g(cubes) = cubes, so an inverse generator never leaves the set first
    and the escape decides face-group invariance.  Each forward generator
    maps the rows once, to the int32 positions of their images.  With no
    escape these maps permute the rows, and the orbit is the closure of
    {start} under them (_closure), by doubling.  After an escape, the
    orbit is the class of start in the partition of the rows by the edges
    (row, g row) of each forward generator g whose image is a member; the
    inverse of g gives the same edges read backwards.  One generator's
    edges are hooked at a time, together with the edges (row, label so
    far) that carry the classes found before, so the edge arrays stay at
    twice the size of the set."""
    if cubes.base is None:
        raise InputError("cube set carries no base system")
    if start not in cubes:
        raise InputError("start point is not in the cube set")
    sys, rows = cubes.base, cubes.rows
    maps, escape = [], None
    for g in face_group_generators(sys, cubes.dirs)[::2]:  # no inverses
        images = g.apply_rows(sys, cubes.dirs, rows, cubes.based)
        pos, found = cubes.index.find(images)
        if escape is None and not found.all():
            escape = (g, rows[int(np.argmin(found))])
        maps.append((pos.astype(np.int32), found))
    here = int(cubes.index.find(np.asarray(start).reshape(1, -1))[0][0])
    if escape is None:
        inside = _closure([pos for pos, _ in maps], here)
    else:
        every = np.arange(len(rows))
        labels = every
        for pos, found in maps:
            labels = partition(len(rows), np.concatenate([every[found], every]),
                               np.concatenate([pos[found], labels]))
        inside = labels == labels[here]
    orbit = CubeSet(dirs=cubes.dirs, points=rows[inside], based=cubes.based,
                    base=sys)
    return orbit, escape


def _closure(maps: list[np.ndarray], start: int) -> np.ndarray:
    """The mask of the orbit of position start under the group generated
    by the permutations maps (int32 position arrays).

    The set S is closed under each map p in turn by doubling: while p(S)
    is not within S, S grows by p(S) and p becomes p∘p.  After m steps S
    holds the images of the set it started from under p^0..p^(2^m - 1), so
    once p^(2^m)(S) lies within S, S is closed under p; a cycle of length
    L takes about log2(L) steps.  Passes over the maps repeat until none
    adds a row, which for commuting maps is one pass and a pass of subset
    checks; a set that holds every position is closed at once."""
    n = len(maps[0])
    inside = np.zeros(n, dtype=bool)
    inside[start] = True
    members = np.array([start], dtype=np.int32)
    grew = True
    while grew and len(members) < n:
        grew = False
        for p in maps:
            while len(members) < n:
                image = p[members]
                new = image[~inside[image]]
                if not len(new):
                    break
                inside[new] = True
                members = np.concatenate([members, new])
                p = p[p]
                grew = True
    return inside


def section_of(cubes: CubeSet, x0: int) -> CubeSet:
    """The tuples of a full cube set whose vertex-0 coordinate is x0, with
    that coordinate dropped (for comparison against enumerate_K)."""
    if cubes.based:
        raise InputError("section_of needs a full cube set")
    rows = cubes.rows
    return CubeSet(dirs=cubes.dirs, points=rows[rows[:, 0] == x0, 1:], based=True,
                   base=cubes.base)
