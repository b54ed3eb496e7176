"""Directional cube sets of a finite Z^d-system and the face group acting
on them.

For directions (j_1..j_k) the cube set Q collects all tuples

    ( T_{j_1}^{n_1 eps_1} ... T_{j_k}^{n_k eps_k} x )_{eps in {0,1}^k}

with x a point and 0 <= n_i < order(T_{j_i}); coordinates sit in canonical
vertex order (hypercube.py).  K^{x0} is the restriction to base point x0
with the eps = 0 coordinate dropped, so its tuples have width 2^k - 1 and
position p corresponds to vertex mask p.

A CubeSet holds its tuples as one sorted, duplicate-free int32 array and
owns the RowIndex of its row keys, keyed with radix n_points of its base
system (raw sets keep their value range); rows whose keys already increase
are kept as they are, others are sorted and deduped by their keys.
Enumeration runs the numpy kernel over every base point, each exponent
below the generator's order on the base point's orbit, taken in the order
of its images; the kernel gathers each column once per distinct choice of
the exponents it depends on, and its rows come out sorted and distinct.
The sets over increasing directions are kept on the system
(FiniteZdSystem.memo), so each is enumerated once, and each keeps its
unique-completion verdict, which scans vertex 0 and the single-direction
vertices only when the rows are distinct on those.  Whole-set checks work
on that array: the index looks rows up by sorted row keys, and a
face-group element acts as one permutation per coordinate, so its image of
an array is a column gather.
A face-group orbit is a class of the partition of a set's rows by the
images of the forward generators; the same pass reports the first image
that leaves the set, which decides face-group invariance, so each image
is computed once.  orbit_rows is the breadth-first orbit search over int rows that
affine discretization and product realizations share, where no enclosing
set exists in advance.  The surgery closures (glue, insert, duplicate,
project, digit permutation, reflection) are column gathers over whole
cube sets in battery.surgery_battery, where glue and insert in each
direction are first decided by whether the rows, read as pairs (lower
face, upper face), are an equivalence relation, a count over the rows;
the per-point operations they were first written as are the test
reference.

Cube sets and periodic sets (return_times.py) share one text codec of int
rows.  The reader hands the text after the header line to numpy's C text
reader in one pass; the line-at-a-time loop of str.splitlines and int()
reads it only where that reader refuses it or could read it otherwise,
and names the first bad line.  The writer formats each distinct value once
into a table of 2-, 4- or 8-byte cells and reads the cells of the rows off
it with one flat gather of unsigned integers.
"""

from __future__ import annotations

import hashlib
import io
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from . import kernels
from .errors import InputError
from .finite_system import (FiniteZdSystem, _content_lines, _distinct,
                            _find_keys, _first_content_line, _orbits,
                            is_minimal, orbit_labels, partition, perm_power)
from .hypercube import MAX_DIM

CubePoint = tuple[int, ...]

MAX_ENUM_ROWS = 5_000_000
TEXT_CHUNK = 1 << 22  # bytes of cell buffer per chunk of the text form
CACHED_RANGE = 1 << 16  # widest value range whose text cells are kept
# tab, line feed, carriage return and printable ASCII
_PLAIN = bytes([9, 10, 13, *range(32, 127)])
INT32 = np.iinfo(np.int32)


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
    (_shifted).
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
        lo = min(lo, 0)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_n", hi - lo + 1)
        shifted = self._shifted(rows)
        keys = _row_keys(shifted, self._n)
        if _increasing(keys):
            # already sorted and distinct, as enumerated sets are: kept as
            # they are, through a read-only view
            rows = np.ascontiguousarray(rows, dtype=np.int32).view()
        else:
            # lexsort orders rows as their structured keys compare, and faster
            order = (np.argsort(keys) if keys.dtype == np.int64
                     else np.lexsort(shifted.T[::-1]))
            keys = keys[order]
            keep = np.ones(len(keys), dtype=bool)
            keep[1:] = keys[1:] != keys[:-1]
            keys = keys[keep]
            rows = rows[order[keep]].astype(np.int32, copy=False)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "index", RowIndex.of_keys(keys, self._n))

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
        if q.shape[1] != self.width or not len(self):
            return False
        if q.min() < self._lo or q.max() >= self._lo + self._n:
            return False
        return bool(self.index.find(self._shifted(q))[1][0])

    def to_array(self) -> np.ndarray:
        """The stored rows (read-only)."""
        return self.rows

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
        first = _first_content_line(text)
        if first is None or not first[1].startswith("cube-set"):
            raise InputError("expected 'cube-set d=<k> dirs=<...>' header",
                             path=path, line=first[0] if first else 1)
        header_line, header, body = first
        fields = dict(tok.split("=", 1) for tok in header.split()[1:] if "=" in tok)
        try:
            k = int(fields["d"])
            dirs = tuple(int(t) for t in fields["dirs"].split(","))
        except (KeyError, ValueError):
            raise InputError("malformed cube-set header", path=path, line=header_line)
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
# int rows as text


def _read_int_rows(body: str, header_line: int, noun: str, width_error,
                   path: str | None, bounds: np.iinfo | None = None
                   ) -> np.ndarray | list[tuple[int, ...]]:
    """The rows of comma-separated integers in body, the text after the
    header on line header_line, as an int64 array of shape (lines, width),
    or as a list of int tuples: an empty one when there are no content
    lines, and the rows themselves when int() reads a value that numpy's C
    text reader does not, such as one beyond int64 (for the caller to
    reduce exactly).

    width_error(width, first) is the message for a line of width values
    when the first line holds first values, or None when the line is fine.
    Values must lie within bounds when given.

    The body is parsed by _c_rows in one pass.  Where that gives None, or
    rows of a width or range the caller refuses, _read_lines reads it again
    one line at a time and raises at the first bad line."""
    rows = _c_rows(body)
    if rows is not None and not len(rows):
        return []
    if (rows is not None and width_error(rows.shape[1], rows.shape[1]) is None
            and (bounds is None
                 or bounds.min <= rows.min() and rows.max() <= bounds.max)):
        return rows
    return _read_lines(_content_lines(body, header_line + 1), noun, width_error,
                       path, bounds)


def _c_rows(body: str) -> np.ndarray | None:
    """The rows of body read by numpy's C text reader, or None when it
    refuses them or body holds what the reader could split or strip
    otherwise than str.splitlines and int() do: a character that is neither
    printable ASCII nor a tab or line break, or a carriage return outside
    a CR LF pair (a comment runs on past it).  Where it reads rows, it
    reads the values int() reads."""
    if (not body.isascii() or body.encode("ascii").translate(None, _PLAIN)
            or body.count("\r") != body.count("\r\n")):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a body without rows
        # older numpy reads "1.5" as an int with a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(io.StringIO(body), dtype=np.int64, comments="#",
                              delimiter=",", ndmin=2)
        except (ValueError, OverflowError, DeprecationWarning):
            return None


def _read_lines(body: list[tuple[int, str]], noun: str, width_error,
                path: str | None, bounds: np.iinfo | None
                ) -> list[tuple[int, ...]]:
    """The content lines body (as _content_lines gives them) parsed by int()
    one at a time; the first bad line raises with its message and number."""
    rows = []
    for lineno, line in body:
        try:
            row = tuple(int(t) for t in line.split(","))
        except ValueError:
            raise InputError(f"non-integer {noun} in {line!r}", path=path, line=lineno)
        message = width_error(len(row), len(rows[0]) if rows else len(row))
        if message is not None:
            raise InputError(message, path=path, line=lineno)
        if bounds is not None and not bounds.min <= min(row) <= max(row) <= bounds.max:
            raise InputError(f"{noun} outside the {bounds.dtype} range in {line!r}",
                             path=path, line=lineno)
        rows.append(row)
    return rows


def _rows_text(header: str, rows: np.ndarray) -> str:
    return b"".join(_text_chunks(header, rows)).decode("ascii")


def _text_chunks(header: str, rows: np.ndarray):
    """The ASCII bytes of a header line followed by the rows of an int
    array as comma-separated decimals, one line each, TEXT_CHUNK buffer
    bytes at a time.

    Each distinct value is formatted once, into a cell of 2, 4 or 8 bytes
    (or wider for long values) holding its digits followed by a ',' (or,
    for the last column, a newline) and padded with NUL bytes; a chunk of
    rows gathers its cells from the table as unsigned integers of the cell
    width and drops the padding with bytes.translate, which is exact
    because no digit, sign or separator is NUL, and is skipped when no
    cell is padded.  The table spans the value range, or only the values
    that occur when the range exceeds the cell count (as with large
    moduli)."""
    yield f"{header}\n".encode()
    if not len(rows):
        return
    lo, hi = int(rows.min()), int(rows.max())
    if hi - lo < rows.size:
        table, padded = (_range_cells(lo, hi) if hi - lo < CACHED_RANGE
                         else _cells(np.arange(lo, hi + 1)))

        def codes(c):
            return c - lo if lo else c
    else:
        values = _distinct(rows)
        table, padded = _cells(values)
        codes = partial(np.searchsorted, values)
    width = rows.shape[1]
    # the last column reads the newline cells, in the second half
    last = (np.arange(width) == width - 1) * (len(table) // 2)
    step = max(1, TEXT_CHUNK // (width * table.itemsize))
    for start in range(0, len(rows), step):
        data = table[codes(rows[start:start + step]) + last].tobytes()
        yield data.translate(None, b"\0") if padded else data


def _cells(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """(table, padded) for the sorted values: table is the read-only 2V
    cells of _text_chunks, V of them for the values followed by a ',' and
    V followed by a newline, and padded tells whether any cell ends in NUL
    bytes."""
    cell = max(len(str(values[0])), len(str(values[-1]))) + 1
    cell = next((c for c in (2, 4, 8) if c >= cell), cell)
    digits = values.astype(f"S{cell}").view(np.uint8).reshape(-1, cell)
    size = (digits != 0).sum(axis=1) + 1  # digits and separator
    table = np.repeat(digits[None], 2, axis=0)
    table[0, np.arange(len(values)), size - 1] = ord(",")
    table[1, np.arange(len(values)), size - 1] = ord("\n")
    table = table.view(f"u{cell}" if cell <= 8 else f"V{cell}").ravel()
    table.flags.writeable = False
    return table, bool((size < cell).any())


@lru_cache(maxsize=4)
def _range_cells(lo: int, hi: int) -> tuple[np.ndarray, bool]:
    """_cells of lo..hi, built once per range: a system's cube sets share
    the range of its point ids."""
    return _cells(np.arange(lo, hi + 1))


# ---------------------------------------------------------------------------
# row keys and membership


def row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One key per row of an int array with entries in 0..n-1, ordered as the
    rows are lexicographically: int64 mixed-radix keys (first column most
    significant) while n^width < 2^63, otherwise a structured view of the
    rows that compares column by column."""
    rows = np.asarray(rows)
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"row entries must lie in 0..{n - 1}")
    return _row_keys(rows, n)


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """row_keys without its range check, for rows known to lie in 0..n-1."""
    width = rows.shape[1]
    if n ** width < 1 << 63:
        keys = np.zeros(len(rows), dtype=np.int64)
        for c in range(width):
            keys *= n
            keys += rows[:, c]
        return keys
    dtype = np.int32 if n <= 1 << 31 else np.int64
    view = np.dtype([(f"c{c}", dtype) for c in range(width)])
    return np.ascontiguousarray(rows, dtype=dtype).view(view).ravel()


class RowIndex:
    """Membership in a sorted, duplicate-free set of rows with entries in
    0..n-1 (such as CubeSet.rows), by binary search over row keys."""

    def __init__(self, rows: np.ndarray, n: int):
        self.n = n
        self.keys = row_keys(rows, n)

    @classmethod
    def of_keys(cls, keys: np.ndarray, n: int) -> "RowIndex":
        """The index over rows whose sorted, distinct row_keys(rows, n) are
        keys."""
        index = cls.__new__(cls)
        index.n, index.keys = n, keys
        return index

    def find(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position, found) per query row; position is meaningful only
        where found is set."""
        return _find_keys(self.keys, row_keys(rows, self.n))

    def same_set(self, rows: np.ndarray) -> bool:
        """Whether the query rows, as a set, equal the indexed set.  As many
        rows as the index holds are the set exactly when their sorted keys
        are the index keys, which are distinct; others are looked up."""
        if len(rows) == len(self.keys):
            return bool(np.array_equal(np.sort(row_keys(rows, self.n)),
                                       self.keys))
        pos, found = self.find(rows)
        if not found.all():
            return False
        hit = np.zeros(len(self.keys), dtype=bool)
        hit[pos] = True
        return bool(hit.all())


def orbit_rows(start: np.ndarray, step, key, cap: int) -> np.ndarray | None:
    """The distinct rows reachable from the start rows, sorted by key, or
    None once more than cap of them are found.

    A breadth-first search with one frontier array per level.  step(rows)
    gives the images of rows under every generator and its inverse (a
    caller may drop some, such as those outside a set); key(rows) gives row
    keys, ordered as the rows.  With the inverses among the steps, the
    images of a level lie in the level before it, in it or in the next, so
    only those two levels are searched for them."""
    def distinct(rows):
        keys, first = np.unique(key(rows), return_index=True)
        return rows[first], keys

    frontier, keys = distinct(start)
    levels, previous = [frontier], keys[:0]
    total = len(frontier)
    while len(frontier):
        images, image_keys = distinct(step(frontier))
        _, found = _find_keys(np.sort(np.concatenate([previous, keys])),
                              image_keys)
        previous = keys
        frontier, keys = images[~found], image_keys[~found]
        levels.append(frontier)
        total += len(frontier)
        if total > cap:
            return None
    return distinct(np.concatenate(levels))[0]


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
    """The scan behind ucpp_check.  While the set's row keys are int64
    mixed-radix keys, the keys off vertex v come from them by one
    multiply-subtract: keys - (column v) * n^(width-1-v) is exactly the key
    of each row with column v set to 0, so it compares and orders as the
    rows with column v deleted do.  Wider sets key the deleted rows
    afresh.

    When the rows are distinct on vertex 0 and the single-direction
    vertices e_i (the positions of e_i alone in a based set), as every
    enumerated set is, two rows that agree off any other vertex agree
    everywhere, so only those vertices can hold a clash and only they are
    scanned, in order.  The keys of the rows on those vertices settle it:
    they increase in the rows of an enumerated set, which are ordered as
    their exponents' images are, and otherwise one sort finds a repeat."""
    rows, n, width = cubes.rows, cubes._n, cubes.width
    keys = cubes.index.keys
    vertex = [0] + [1 << i for i in range(cubes.k)]  # 0 and the e_i
    single = [m - 1 for m in vertex[1:]] if cubes.based else vertex
    vertices = single if len(single) < width and _distinct_on(cubes, single) \
        else range(width)
    for v in vertices:
        if keys.dtype == np.int64:
            digit = rows[:, v].astype(np.int64) - cubes._lo
            rest = keys - digit * n ** (width - 1 - v)
        else:
            rest = _row_keys(cubes._shifted(np.delete(rows, v, axis=1)), n)
        clash = _first_repeat(rest)
        if clash is not None:
            pair = (tuple(rows[clash[0]].tolist()), tuple(rows[clash[1]].tolist()))
            return UcppResult(ok=False, pair=pair, vertex=v)
    return UcppResult(ok=True)


def _distinct_on(cubes: CubeSet, cols: list[int]) -> bool:
    """Whether the rows of cubes are distinct on the columns cols: their
    keys there increase, or one sort finds no repeat."""
    keys = _row_keys(cubes._shifted(cubes.rows[:, cols]), cubes._n)
    return _increasing(keys) or not _has_repeat(keys)


def _increasing(keys: np.ndarray) -> bool:
    """Whether row keys (as row_keys gives them) strictly increase.  int64
    keys compare directly; a structured view, which comparison operators
    do not order, compares each pair of adjacent rows at the first column
    where they differ."""
    if keys.dtype == np.int64:
        return bool((keys[1:] > keys[:-1]).all())
    rows = keys.view(keys.dtype[0]).reshape(len(keys), -1)
    differ = rows[1:] != rows[:-1]
    first = differ.argmax(axis=1)
    at = np.arange(len(first))
    return bool(differ.any(axis=1).all()
                and (rows[1:][at, first] > rows[:-1][at, first]).all())


def _has_repeat(keys: np.ndarray) -> bool:
    """Whether some key occurs twice, by a plain sort (numpy's SIMD sort on
    int64 keys) and its adjacent pairs."""
    ordered = np.sort(keys)
    return bool((ordered[1:] == ordered[:-1]).any())


def _first_repeat(keys: np.ndarray) -> tuple[int, int] | None:
    """(i, t) for the first index t whose key occurred before, i being the
    first index with that key; None when the keys are distinct.

    Distinct keys are the common answer, and _has_repeat settles it; only a
    repeat pays for the stable argsort that finds the first one."""
    if not _has_repeat(keys):
        return None
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeat = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    # the stable sort keeps each key's indices in order, so the earliest
    # repeat is the second holder of its key and follows the first
    t = repeat[np.argmin(order[repeat])]
    return int(order[t - 1]), int(order[t])


# ---------------------------------------------------------------------------
# the face group


@dataclass(frozen=True)
class FaceGroupElement:
    """A face-group element for a k-cube over a d-system: exponent face[i]
    of T_{dirs[i]} on the coordinates with eps_i = 1, then the diagonal word
    diag applied to every coordinate.

    The element acts coordinate by coordinate, so it is one permutation of
    the points per cube coordinate (column_maps); the image of a whole array
    of cube tuples is a column gather."""

    face: tuple[int, ...]
    diag: tuple[int, ...]

    def column_maps(self, sys: FiniteZdSystem, dirs: tuple[int, ...],
                    based: bool = False) -> np.ndarray:
        """int32[width, n] whose row c is the permutation applied to
        coordinate c (vertex c, or c + 1 when based)."""
        k = len(dirs)
        if len(self.face) != k or len(self.diag) != sys.d:
            raise InputError("exponent vectors do not match dimensions")
        perms = sys.table
        faces = [perm_power(perms[j - 1], e) for j, e in zip(dirs, self.face)]
        diag = np.arange(sys.n_points, dtype=np.int32)
        for p, e in zip(perms, self.diag):
            diag = perm_power(p, e)[diag]
        offset = 1 if based else 0
        maps = np.empty(((1 << k) - offset, sys.n_points), dtype=np.int32)
        for c in range(len(maps)):
            m = np.arange(sys.n_points, dtype=np.int32)
            for i in range(k):
                if (c + offset) >> i & 1:
                    m = faces[i][m]
            maps[c] = diag[m]
        return maps

    def apply_rows(self, sys: FiniteZdSystem, dirs: tuple[int, ...],
                   rows: np.ndarray, based: bool = False) -> np.ndarray:
        """The image of every row of an int array of cube tuples."""
        maps = self.column_maps(sys, dirs, based)
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != len(maps):
            raise InputError(f"cube tuples must have width {len(maps)}")
        return maps[np.arange(len(maps)), rows]

    def apply(self, sys: FiniteZdSystem, dirs: tuple[int, ...], p: CubePoint,
              based: bool = False) -> CubePoint:
        return tuple(self.apply_rows(sys, dirs, [p], based)[0].tolist())


def face_group_generators(sys: FiniteZdSystem, dirs: tuple[int, ...]
                          ) -> list[FaceGroupElement]:
    """One face generator (and inverse) per cube direction plus one diagonal
    generator (and inverse) per system direction."""
    k = len(dirs)
    gens = []
    for i in range(k):
        for e in (1, -1):
            face = [0] * k
            face[i] = e
            gens.append(FaceGroupElement(tuple(face), (0,) * sys.d))
    for j in range(sys.d):
        for e in (1, -1):
            diag = [0] * sys.d
            diag[j] = e
            gens.append(FaceGroupElement((0,) * k, tuple(diag)))
    return gens


def face_group_orbit(cubes: CubeSet, start: CubePoint
                     ) -> tuple[CubeSet, tuple[FaceGroupElement, np.ndarray] | None]:
    """The members of cubes that face-group generator steps within cubes
    connect to start, and the first forward generator g, in
    face_group_generators order, with the first row whose image under g is
    not a member (None when every image is).  The start must be a member;
    whether the orbit exhausts the set is a separate check.

    For an injective g and a finite set, g(cubes) within cubes gives
    g(cubes) = cubes, so an inverse generator never leaves the set first
    and the escape decides face-group invariance.  The orbit is the class
    of start in the partition of the rows by the edges (row, g row) of each
    forward generator g whose image is a member; the inverse of g gives the
    same edges read backwards.  One generator's edges are hooked at a time,
    together with the edges (row, label so far) that carry the classes
    found before, so the edge arrays stay at twice the size of the set."""
    if cubes.base is None:
        raise InputError("cube set carries no base system")
    if start not in cubes:
        raise InputError("start point is not in the cube set")
    sys, rows = cubes.base, cubes.rows
    every = np.arange(len(rows))
    labels = every
    escape = None
    for g in face_group_generators(sys, cubes.dirs)[::2]:  # no inverses
        images = g.apply_rows(sys, cubes.dirs, rows, cubes.based)
        pos, found = cubes.index.find(images)
        if escape is None and not found.all():
            escape = (g, rows[int(np.argmin(found))])
        labels = partition(len(rows), np.concatenate([every[found], every]),
                           np.concatenate([pos[found], labels]))
    here = cubes.index.find(np.asarray(start).reshape(1, -1))[0][0]
    orbit = CubeSet(dirs=cubes.dirs, points=rows[labels == labels[here]],
                    based=cubes.based, base=sys)
    return orbit, escape


def section_of(cubes: CubeSet, x0: int) -> CubeSet:
    """The tuples of a full cube set whose vertex-0 coordinate is x0, with
    that coordinate dropped (for comparison against enumerate_K)."""
    if cubes.based:
        raise InputError("section_of needs a full cube set")
    rows = cubes.rows
    return CubeSet(dirs=cubes.dirs, points=rows[rows[:, 0] == x0, 1:], based=True,
                   base=cubes.base)
