"""Directional cube sets of a finite Z^d-system and surgery on cube points.

For directions (j_1..j_k) the cube set Q collects all tuples

    ( T_{j_1}^{n_1 eps_1} ... T_{j_k}^{n_k eps_k} x )_{eps in {0,1}^k}

with x a point and 0 <= n_i < order(T_{j_i}); coordinates sit in canonical
vertex order (hypercube.py).  K^{x0} is the restriction to base point x0
with the eps = 0 coordinate dropped, so its tuples have width 2^k - 1 and
position p corresponds to vertex mask p.

A CubeSet holds its tuples as one sorted, duplicate-free int32 array.
Enumeration runs the numpy kernel over every base point, then sorts and
dedups by row keys.  The sets over increasing directions are kept on the
system (FiniteZdSystem.memo), so each is enumerated once.  Whole-set checks
work on that array: RowIndex looks rows up by sorted row keys, and a
face-group element acts as one permutation per coordinate, so its image of
an array is a column gather.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import InputError
from .finite_system import FiniteZdSystem
from .hypercube import MAX_DIM, FaceSelector, Vertex, digit_permute

CubePoint = tuple[int, ...]

MAX_ENUM_ROWS = 5_000_000
INT32 = np.iinfo(np.int32)


def _cube_dim(width: int) -> tuple[int, bool]:
    """(k, based) from a tuple width of 2^k or 2^k - 1 (k >= 1)."""
    for k in range(1, MAX_DIM + 1):
        if width == 1 << k:
            return k, False
        if width == (1 << k) - 1:
            return k, True
    raise InputError(f"width {width} is not 2^k or 2^k-1 for any supported k")


@dataclass(frozen=True, eq=False, init=False)
class CubeSet:
    """An immutable, sorted collection of equal-width cube tuples.

    The tuples are stored once, as rows: a read-only, sorted, duplicate-free,
    C-contiguous int32 array of shape (len, width).  The constructor takes
    them as points, an array or any sequence of tuples, in any order and
    with repeats; the points attribute gives them back as a tuple of tuples,
    built on first use.

    based=True marks a base-point restriction (width 2^k - 1, vertex 0
    dropped).  base keeps the originating system when known; raw sets parsed
    from text have base=None and may hold any int32 coordinates.
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
        lo = min(lo, 0)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_n", hi - lo + 1)
        keys = row_keys(self._shifted(rows), self._n)
        order = np.argsort(keys)
        keys = keys[order]
        keep = np.ones(len(keys), dtype=bool)
        keep[1:] = keys[1:] != keys[:-1]
        rows = rows[order[keep]].astype(np.int32, copy=False)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

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
    def _index(self) -> RowIndex:
        return RowIndex(self._shifted(self.rows), self._n)

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
        return bool(self._index.find(self._shifted(q))[1][0])

    def to_array(self) -> np.ndarray:
        """The stored rows (read-only)."""
        return self.rows

    def to_text(self) -> str:
        lines = [f"cube-set d={self.k} dirs={','.join(str(j) for j in self.dirs)}"]
        lines.extend(",".join(map(str, r)) for r in self.rows.tolist())
        return "\n".join(lines) + "\n"

    def text_sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    @classmethod
    def from_text(cls, text: str, path: str | None = None) -> "CubeSet":
        rows: list[tuple[int, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append((lineno, line))
        if not rows or not rows[0][1].startswith("cube-set"):
            raise InputError("expected 'cube-set d=<k> dirs=<...>' header",
                             path=path, line=rows[0][0] if rows else 1)
        header_line, header = rows[0]
        fields = dict(tok.split("=", 1) for tok in header.split()[1:] if "=" in tok)
        try:
            k = int(fields["d"])
            dirs = tuple(int(t) for t in fields["dirs"].split(","))
        except (KeyError, ValueError):
            raise InputError("malformed cube-set header", path=path, line=header_line)
        if len(dirs) != k:
            raise InputError(f"header says d={k} but lists {len(dirs)} dirs",
                             path=path, line=header_line)
        points = []
        width = None
        for lineno, line in rows[1:]:
            try:
                p = tuple(int(t) for t in line.split(","))
            except ValueError:
                raise InputError(f"non-integer coordinate in {line!r}", path=path, line=lineno)
            if width is None:
                width = len(p)
                if width not in (1 << k, (1 << k) - 1):
                    raise InputError(
                        f"row width {width} matches neither 2^{k} nor 2^{k}-1",
                        path=path, line=lineno)
            elif len(p) != width:
                raise InputError(f"row width {len(p)} != {width}", path=path, line=lineno)
            if not INT32.min <= min(p) <= max(p) <= INT32.max:
                raise InputError(f"coordinate outside the int32 range in {line!r}",
                                 path=path, line=lineno)
            points.append(p)
        based = width == (1 << k) - 1 if width is not None else False
        return cls(dirs=dirs, points=points, based=based)


# ---------------------------------------------------------------------------
# row keys and membership


def row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One key per row of an int array with entries in 0..n-1, ordered as the
    rows are lexicographically: int64 mixed-radix keys (first column most
    significant) while n^width < 2^63, otherwise a structured view of the
    rows that compares column by column."""
    rows = np.asarray(rows)
    width = rows.shape[1]
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"row entries must lie in 0..{n - 1}")
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

    def find(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position, found) per query row; position is meaningful only
        where found is set."""
        q = row_keys(rows, self.n)
        pos = np.searchsorted(self.keys, q)
        found = np.zeros(len(q), dtype=bool)
        inside = pos < len(self.keys)
        found[inside] = self.keys[pos[inside]] == q[inside]
        return pos, found

    def same_set(self, rows: np.ndarray) -> bool:
        """Whether the query rows, as a set, equal the indexed set."""
        pos, found = self.find(rows)
        if not found.all():
            return False
        hit = np.zeros(len(self.keys), dtype=bool)
        hit[pos] = True
        return bool(hit.all())


def _dir_orders(sys: FiniteZdSystem, dirs: tuple[int, ...]) -> list[int]:
    for j in dirs:
        if not 1 <= j <= sys.d:
            raise InputError(f"direction {j} out of range 1..{sys.d}")
    return [sys.orders[j - 1] for j in dirs]


def _pow_table(p, L: int) -> np.ndarray:
    """int32[L, n] whose row e is p^e, built by one-step composition."""
    step = np.asarray(p, dtype=np.int32)
    table = np.empty((L, len(step)), dtype=np.int32)
    table[0] = np.arange(len(step), dtype=np.int32)
    for e in range(1, L):
        table[e] = step[table[e - 1]]
    return table


def _enumerate_rows(sys: FiniteZdSystem, dirs: tuple[int, ...],
                    bases: np.ndarray) -> np.ndarray:
    limits = _dir_orders(sys, dirs)
    total = len(bases)
    for L in limits:
        total *= L
    if total > MAX_ENUM_ROWS:
        raise InputError(
            f"enumeration would produce {total} rows (limit {MAX_ENUM_ROWS}); "
            "restrict the directions or the system size")
    tables = [_pow_table(sys.perms[j - 1], L) for j, L in zip(dirs, limits)]
    return kernels.enumerate_blocks(tables, kernels.exponent_combos(limits), bases)


def _check_dirs(dirs: tuple[int, ...]) -> None:
    if not dirs:
        raise InputError("need at least one direction")
    if len(set(dirs)) != len(dirs):
        raise InputError(f"directions must be distinct, got {dirs}")


def _stored(sys: FiniteZdSystem, key: tuple, dirs: tuple[int, ...], build):
    """build() through the system's memo when dirs increase; a set over any
    other order is built afresh, as only the cross-checks of direction
    order ask for one."""
    if list(dirs) == sorted(dirs):
        return sys.memo(key, build)
    return build()


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
    tuple with that rest, p)."""
    width = cubes.width
    if width < 2:
        raise InputError("unique-completion needs tuples of width >= 2")
    rows = cubes.rows
    for v in range(width):
        keys = row_keys(cubes._shifted(np.delete(rows, v, axis=1)), cubes._n)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeat = np.flatnonzero(keys[1:] == keys[:-1]) + 1
        if len(repeat):
            # the stable sort keeps each key's tuples in row order
            t = repeat[np.argmin(order[repeat])]
            first = np.searchsorted(keys, keys[t])
            pair = (tuple(rows[order[first]].tolist()), tuple(rows[order[t]].tolist()))
            return UcppResult(ok=False, pair=pair, vertex=v)
    return UcppResult(ok=True)


# ---------------------------------------------------------------------------
# surgery on cube points


def _point_dim(a: CubePoint) -> int:
    k, based = _cube_dim(len(a))
    if based:
        raise InputError("operation needs a full-width cube point")
    return k


def glue(a: CubePoint, b: CubePoint, j: int) -> CubePoint:
    """Concatenate along direction j; the upper j-face of a must equal the
    lower j-face of b."""
    a, b = tuple(a), tuple(b)
    k = _point_dim(a)
    if len(b) != len(a):
        raise InputError("cube points have different widths")
    if not 1 <= j <= k:
        raise InputError(f"direction {j} out of range 1..{k}")
    bit = 1 << (j - 1)
    for m in range(1 << k):
        if not m & bit and a[m | bit] != b[m]:
            raise InputError(
                f"faces do not match at vertex mask {m}: "
                f"upper({j}) of a is {a[m | bit]}, lower({j}) of b is {b[m]}")
    return tuple(a[m] if not m & bit else b[m] for m in range(1 << k))


def insert(a: CubePoint, b: CubePoint, j: int, side: str = "upper") -> CubePoint:
    """Replace one j-face of a copy of b.

    side names the face of the result taken from b; the opposite face is the
    reflected copy of a's same-side face, so side="lower" yields
    z_eps = b_eps when eps_j = 0 and z_eps = a_{reflect_j(eps)} otherwise.
    """
    a, b = tuple(a), tuple(b)
    k = _point_dim(a)
    if len(b) != len(a):
        raise InputError("cube points have different widths")
    if not 1 <= j <= k:
        raise InputError(f"direction {j} out of range 1..{k}")
    if side not in ("upper", "lower"):
        raise InputError(f"side must be 'upper' or 'lower', got {side!r}")
    bit = 1 << (j - 1)
    keep = bit if side == "upper" else 0
    out = []
    for m in range(1 << k):
        if (m & bit) == keep:
            out.append(b[m])
        else:
            out.append(a[m ^ bit])
    return tuple(out)


def duplicate(a: CubePoint, dirs_sub: tuple[int, ...],
              dirs_full: tuple[int, ...]) -> CubePoint:
    """Spread a cube point over dirs_sub across the cube over dirs_full:
    coordinate eps of the result reads a at the sub-vertex formed by the
    eps-bits sitting at the slots dirs_sub occupies inside dirs_full."""
    a = tuple(a)
    k = _point_dim(a)
    dirs_sub, dirs_full = tuple(dirs_sub), tuple(dirs_full)
    d = len(dirs_full)
    if len(dirs_sub) != k or len(set(dirs_sub)) != k:
        raise InputError(f"need {k} distinct sub-directions, got {dirs_sub}")
    if not 1 <= d <= MAX_DIM or len(set(dirs_full)) != d:
        raise InputError(f"bad full direction list {dirs_full}")
    try:
        slots = [dirs_full.index(j) for j in dirs_sub]
    except ValueError:
        missing = [j for j in dirs_sub if j not in dirs_full]
        raise InputError(f"sub-directions {missing} not among {dirs_full}")
    out = []
    for m in range(1 << d):
        sub = 0
        for ell, s in enumerate(slots):
            sub |= ((m >> s) & 1) << ell
        out.append(a[sub])
    return tuple(out)


def project(a: CubePoint, sel: FaceSelector) -> CubePoint:
    """Restrict to a face: keep the coordinates matching the pinned bits,
    reindexed canonically over the free directions in increasing order."""
    a = tuple(a)
    k = _point_dim(a)
    if sel.dim != k:
        raise InputError(f"selector dimension {sel.dim} != cube dimension {k}")
    free = sel.free
    if not free:
        raise InputError("selector pins every direction; nothing to project onto")
    out = []
    for w in range(1 << len(free)):
        m = 0
        for j, b in sel.pinned:
            m |= b << (j - 1)
        for ell, j in enumerate(free):
            m |= ((w >> ell) & 1) << (j - 1)
        out.append(a[m])
    return tuple(out)


def digit_permute_point(sigma: tuple[int, ...], a: CubePoint) -> CubePoint:
    """Relabel the cube axes of a point: coordinate eps of the result reads a
    at the vertex whose digit i is eps_{sigma(i)}.

    Sends the cube set over directions (j_1..j_k) onto the one over
    (j_{sigma^{-1}(1)}, .., j_{sigma^{-1}(k)}); with dirs = (sigma(1)..sigma(k))
    the image lands on (1..k).
    """
    a = tuple(a)
    k = _point_dim(a)
    return tuple(a[digit_permute(sigma, Vertex(m, k)).mask] for m in range(1 << k))


def reflect_point(j: int, a: CubePoint) -> CubePoint:
    """Flip digit j of every vertex; an involution on full cube points."""
    a = tuple(a)
    k = _point_dim(a)
    if not 1 <= j <= k:
        raise InputError(f"direction {j} out of range 1..{k}")
    bit = 1 << (j - 1)
    return tuple(a[m ^ bit] for m in range(1 << k))


# ---------------------------------------------------------------------------
# the face group


def _perm_power(perm: np.ndarray, e: int) -> np.ndarray:
    """perm^e as an index array; negative exponents go through the inverse."""
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
        perms = [np.asarray(p, dtype=np.int32) for p in sys.perms]
        faces = [_perm_power(perms[j - 1], e) for j, e in zip(dirs, self.face)]
        diag = np.arange(sys.n_points, dtype=np.int32)
        for p, e in zip(perms, self.diag):
            diag = _perm_power(p, e)[diag]
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


def face_group_orbit(cubes: CubeSet, start: CubePoint) -> CubeSet:
    """Breadth-first closure of {start} under the face-group generators,
    intersected with cubes.  The start must be a member; whether the orbit
    exhausts the set is a separate check."""
    if cubes.base is None:
        raise InputError("cube set carries no base system")
    if start not in cubes:
        raise InputError("start point is not in the cube set")
    sys = cubes.base
    rows = cubes.to_array()
    index = RowIndex(rows, sys.n_points)
    maps = [g.column_maps(sys, cubes.dirs, cubes.based)
            for g in face_group_generators(sys, cubes.dirs)]
    cols = np.arange(cubes.width)
    frontier, _ = index.find(np.asarray(start).reshape(1, -1))
    seen = np.zeros(len(rows), dtype=bool)
    seen[frontier] = True
    while len(frontier):
        hits = []
        for m in maps:
            pos, found = index.find(m[cols, rows[frontier]])
            hits.append(pos[found])
        frontier = np.unique(np.concatenate(hits))
        frontier = frontier[~seen[frontier]]
        seen[frontier] = True
    return CubeSet(dirs=cubes.dirs, points=rows[seen], based=cubes.based, base=sys)


def section_of(cubes: CubeSet, x0: int) -> CubeSet:
    """The tuples of a full cube set whose vertex-0 coordinate is x0, with
    that coordinate dropped (for comparison against enumerate_K)."""
    if cubes.based:
        raise InputError("section_of needs a full cube set")
    rows = cubes.rows
    return CubeSet(dirs=cubes.dirs, points=rows[rows[:, 0] == x0, 1:], based=True,
                   base=cubes.base)
