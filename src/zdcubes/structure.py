"""Subgroup orbit relations, their quotients, and the joining decomposition
of a base-point cube set.

For a subgroup H of the acting group, Q_H is the orbit relation of H: x and
hx are related for every h in H.  Its classes are the H-orbits, read as a
label array from the edges (x, g x) of H's generators, so H is never
listed; the quotient by them is the maximal factor on which H acts
trivially.

decompose() studies Y = K^{x0} under the face action: direction j of the
face system moves the coordinates whose vertex has eps_j = 1 by T_j.  The
projections Y_j (coordinates with eps_j = 0) and Y_{i,j} (eps_i = eps_j = 0)
are factors of Y, and when the underlying system is minimal with unique
completion, Y embeds into the product of the Y_j.

Generators are int arrays (rows of FiniteZdSystem.table), and the systems
and factor maps built here (quotients by Q_H, face systems, projections)
are handed their tables and images as arrays, which their constructors
store as they are checked.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._arrays import _chunked_ranks, _dense_ids, _distinct, _first_repeat
from .cube_engine import (CubeSet, RowIndex, UcppResult, enumerate_K,
                          enumerate_Q, face_group_generators, row_keys,
                          section_of, ucpp_check)
from .errors import InputError
from .finite_system import (FactorMap, FiniteZdSystem, _label_quotient,
                            _orbits, is_minimal, label_classes, orbit_labels)
from .hypercube import face

COMBO_CHUNK = 1 << 18  # relative-independence candidates per chunk


class SubgroupSpec(NamedTuple):
    """Generators for a subgroup of Z^d acting through the system: plain
    directions and/or arbitrary words (exponent vectors)."""

    dirs: tuple[int, ...] = ()
    words: tuple[tuple[int, ...], ...] = ()

    def generator_perms(self, sys: FiniteZdSystem) -> list[np.ndarray]:
        """The generators as int32 index arrays: rows of sys.table, then
        the permutations of the words."""
        gens = []
        for j in self.dirs:
            if not 1 <= j <= sys.d:
                raise InputError(f"direction {j} out of range 1..{sys.d}")
            gens.append(sys.table[j - 1])
        for w in self.words:
            gens.append(sys.word_perm(w))
        return gens


def _spec_key(H: SubgroupSpec) -> tuple:
    return tuple(H.dirs), tuple(map(tuple, H.words))


def _H_labels(sys: FiniteZdSystem, H: SubgroupSpec) -> np.ndarray:
    """The least-member labels of the H-orbits, kept on the system memo;
    H generated by every direction has the system's orbits."""
    if sorted(H.dirs) == list(sys.dirs) and not H.words:
        return _orbits(sys)
    return sys.memo(("H_labels", _spec_key(H)),
                    lambda: orbit_labels(sys.n_points, H.generator_perms(sys)))


def maximal_trivial_H_factor(sys: FiniteZdSystem, H: SubgroupSpec
                             ) -> tuple[FiniteZdSystem, FactorMap]:
    """Quotient by Q_H: the maximal factor on which H acts trivially, kept
    on the system memo.  The quotient itself is kept by its orbit labels,
    so subgroups with the same orbits share one; that H acts trivially on
    it is checked for each subgroup."""
    def build() -> tuple[FiniteZdSystem, FactorMap]:
        gens = H.generator_perms(sys)
        labels = _H_labels(sys, H)
        q_sys, pi = sys.memo(("label_quotient", labels.tobytes()),
                             lambda: _label_quotient(sys, labels))
        mapping = pi.array
        for h in gens:
            if (mapping[h] != mapping).any():
                raise AssertionError("H does not act trivially on the quotient; bug")
        return q_sys, pi

    return sys.memo(("H_quotient", _spec_key(H)), build)


class IteratedQuotientResult(NamedTuple):
    ok: bool
    one_step_classes: tuple[tuple[int, ...], ...]
    two_step_classes: tuple[tuple[int, ...], ...]


def iterated_quotient_check(sys: FiniteZdSystem, H1: SubgroupSpec, H2: SubgroupSpec
                            ) -> IteratedQuotientResult:
    """Quotienting by the subgroup generated by H1 and H2 must agree with
    quotienting by H1 and then by H2 on the quotient."""
    joint = SubgroupSpec(dirs=tuple(H1.dirs) + tuple(H2.dirs),
                         words=tuple(H1.words) + tuple(H2.words))
    one_sys, one_pi = maximal_trivial_H_factor(sys, joint)
    mid_sys, mid_pi = maximal_trivial_H_factor(sys, H1)
    end_sys, end_pi = maximal_trivial_H_factor(mid_sys, H2)
    a = label_classes(one_pi.array)
    b = label_classes(end_pi.array[mid_pi.array])
    return IteratedQuotientResult(ok=a == b, one_step_classes=a, two_step_classes=b)


def z0h_universality_check(pi: FactorMap, H: SubgroupSpec
                           ) -> tuple[str, tuple[int, int] | None]:
    """If H acts trivially on the target, the factor map must collapse Q_H:
    returns ("pass"/"fail"/"hypotheses-unmet", witness).  The witness is the
    least pair (x, y) of Q_H with pi(x) != pi(y)."""
    for h in H.generator_perms(pi.target):
        if (h != np.arange(pi.target.n_points)).any():
            return "hypotheses-unmet", None
    labels = _H_labels(pi.source, H)
    mapping = pi.array
    # the members pi separates from the least member of their orbit
    split = np.flatnonzero(mapping != mapping[labels])
    if not len(split):
        return "pass", None
    x = labels[split].min()  # the least point of any orbit pi does not collapse
    return "fail", (int(x), int(split[labels[split] == x][0]))


# ---------------------------------------------------------------------------
# the face system on K^{x0} and its coordinate projections


def face_system(K: CubeSet) -> FiniteZdSystem:
    """The system on the tuples of K whose generator j applies T_j to the
    coordinates with eps_j = 1.  The tuples are numbered in sorted order."""
    if not K.based:
        raise InputError("face systems are built on based cube sets")
    if K.base is None:
        raise InputError("cube set carries no base system")
    sys, rows = K.base, K.rows
    perms = []
    # the forward face generators, one per direction of K
    for j, g in zip(K.dirs, face_group_generators(sys, K.dirs)[::2]):
        pos, found = K.index.find(g.apply_rows(sys, K.dirs, rows, based=True))
        if not found.all():
            p = tuple(rows[int(np.argmin(found))].tolist())
            raise AssertionError(
                f"face action leaves the cube set at {p} (direction {j}); bug")
        perms.append(pos)
    return FiniteZdSystem(len(K), K.k, np.stack(perms),
                          name=(sys.name + ":faces") if sys.name else "faces")


class CoordinateProjection(NamedTuple):
    """Restriction of the face system to the coordinates listed in
    positions (vertex masks of the ambient based set, ascending).  A single
    artificial point stands in when no position remains."""

    positions: tuple[int, ...]
    values: tuple[tuple[int, ...], ...]
    system: FiniteZdSystem
    from_face: FactorMap


def _project_positions(K: CubeSet, Y: FiniteZdSystem, positions: list[int],
                       name: str) -> CoordinateProjection:
    """The distinct projected tuples, in sorted order, are the points of the
    target; each generator's image of a value is read off the first tuple
    over it, and must be the same for every tuple over it."""
    cols = K.columns(positions)
    distinct, mapping = _dense_ids(K.column_keys(cols),
                                   K.base.n_points ** len(cols))
    first = np.full(len(distinct), len(K))
    np.minimum.at(first, mapping, np.arange(len(K)))
    image = mapping[Y.table]
    table = image[:, first]
    if (table[:, mapping] != image).any():
        raise AssertionError(
            f"coordinate projection is not equivariant ({name}); bug")
    target = FiniteZdSystem(len(first), Y.d, table, name=name)
    pi = FactorMap(Y, target, mapping)
    values = tuple(map(tuple, K.rows[first][:, cols].tolist()))
    return CoordinateProjection(positions=tuple(positions), values=values,
                                system=target, from_face=pi)


class JoiningDecomposition(NamedTuple):
    sys: FiniteZdSystem | None
    x0: int | None
    K: CubeSet
    ucpp: UcppResult
    minimal: bool | None
    Y: FiniteZdSystem | None
    side_projections: tuple[CoordinateProjection, ...]  # indexed by dropped dir
    corner_projections: dict[tuple[int, int], CoordinateProjection]
    injective: bool | None
    injectivity_witness: tuple[tuple[int, ...], tuple[int, ...]] | None

    @property
    def hypotheses_met(self) -> bool:
        return bool(self.ucpp.ok and self.minimal)


def decompose(sys: FiniteZdSystem, x0: int) -> JoiningDecomposition:
    """Build Y = K^{x0} with the face action, its side and corner coordinate
    projections, and test injectivity of the product of side projections."""
    if sys.d < 2:
        raise InputError("decomposition needs d >= 2")
    return sys.memo(("decompose", x0), lambda: _decompose(sys, x0))


def _decompose(sys: FiniteZdSystem, x0: int) -> JoiningDecomposition:
    Q = enumerate_Q(sys, sys.dirs)
    K = enumerate_K(sys, sys.dirs, x0)
    if not np.array_equal(section_of(Q, x0).rows, K.rows):
        raise AssertionError("base-point restriction disagrees with the section; bug")
    u = ucpp_check(Q)
    minimal = is_minimal(sys).ok
    Y = face_system(K)
    # the side j and corner (i, j) positions: the vertices but 0 with
    # eps_j = 0, and with eps_i = eps_j = 0
    lower = [face(sys.d, j, 0) for j in sys.dirs]
    sides = tuple(_project_positions(K, Y, lower[j - 1][1:], f"Y_{j}")
                  for j in sys.dirs)
    corners = {}
    for i in range(1, sys.d + 1):
        for j in range(i + 1, sys.d + 1):
            corner = [m for m in lower[i - 1][1:] if m in lower[j - 1]]
            corners[(i, j)] = _project_positions(K, Y, corner, f"Y_{i},{j}")
    injective, witness = _injectivity(K, sides)
    return JoiningDecomposition(
        sys=sys, x0=x0, K=K, ucpp=u, minimal=minimal, Y=Y,
        side_projections=sides, corner_projections=corners,
        injective=injective, injectivity_witness=witness,
    )


def _injectivity(K: CubeSet, sides: tuple[CoordinateProjection, ...]
                 ) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Whether the product of the side projections separates the points of
    K; the witness pairs the first point, in K order, whose side values
    repeat with the first point holding them."""
    labels = np.stack([side.from_face.array for side in sides], axis=1)
    clash = _first_repeat(row_keys(labels, len(K)))
    if clash is None:
        return True, None
    return False, tuple(tuple(K.rows[i].tolist()) for i in clash)


class FactorIsoResult(NamedTuple):
    ok: bool
    j: int
    classes: int
    target_size: int
    constant_on_classes: bool
    bijective: bool
    equivariant: bool
    dropped_trivial: bool
    witness: str | None


def factor_isomorphism_check(sys: FiniteZdSystem, x0: int, j: int
                             ) -> FactorIsoResult:
    """The face system of K quotiented by the direction-j face orbit must be
    carried isomorphically onto K of the remaining directions by forgetting
    the eps_j = 1 coordinates.

    The forgetting map is the side projection Y_j of decompose(sys, x0);
    each class is read through its first point, and the witness names the
    class of the first point that projects differently, or the first class
    whose image under a generator disagrees."""
    if not 1 <= j <= sys.d:
        raise InputError(f"direction {j} out of range 1..{sys.d}")
    if sys.d < 2:
        raise InputError("need d >= 2")
    rest = tuple(i for i in sys.dirs if i != j)
    dec = decompose(sys, x0)
    q_sys, kappa = maximal_trivial_H_factor(dec.Y, SubgroupSpec(dirs=(j,)))
    K_rest = section_of(enumerate_Q(sys, rest), x0)
    rest_rows = K_rest.rows
    Y_rest = face_system(K_rest)
    proj = dec.side_projections[j - 1].from_face.array
    cls = kappa.array
    first = np.full(q_sys.n_points, len(cls))  # classes are 0..m-1
    np.minimum.at(first, cls, np.arange(len(cls)))
    split = np.flatnonzero(proj != proj[first[cls]])
    constant = not len(split)
    witness = None if constant else f"class {cls[split[0]]} projects two ways"
    bijective = False
    if constant:
        labels = proj[first]
        image = dec.K.rows[first][:, dec.K.columns(face(sys.d, j, 0))]
        here, found = K_rest.index.find(image)
        distinct = len(_distinct(labels))
        bijective = (len(first) == q_sys.n_points == len(rest_rows)
                     and bool(found.all()) and distinct == len(rest_rows)
                     and distinct == len(first))
        if not bijective:
            witness = (f"{len(first)} classes vs {len(rest_rows)} "
                       "restricted tuples")
    equivariant = True
    if constant and bijective:
        for gi, i_dir in enumerate(sys.dirs):
            if i_dir == j:
                continue
            lhs = image[q_sys.table[gi]]
            step = Y_rest.table[rest.index(i_dir)]
            rhs = rest_rows[step[here]]
            bad = (lhs != rhs).any(axis=1)
            if bad.any():
                equivariant = False
                witness = (f"direction {i_dir} disagrees at class "
                           f"{int(np.argmax(bad))}")
                break
    dropped_trivial = bool(
        (q_sys.table[j - 1] == np.arange(q_sys.n_points)).all())
    ok = constant and bijective and equivariant and dropped_trivial
    return FactorIsoResult(ok=ok, j=j, classes=q_sys.n_points,
                           target_size=len(rest_rows),
                           constant_on_classes=constant, bijective=bijective,
                           equivariant=equivariant,
                           dropped_trivial=dropped_trivial, witness=witness)


class RelativeIndependenceResult(NamedTuple):
    status: str  # "pass" | "fail" | "hypotheses-unmet"
    checked: int
    witness: tuple | None


def relative_independence_check(dec: JoiningDecomposition
                                ) -> RelativeIndependenceResult:
    """Over each point of K, combine every compatible choice of side values
    and require a unique completion back in K.

    A candidate fixes the coordinates with two or more zero bits from the
    base tuple, draws the all-ones-but-j coordinate from any Y_j member with
    matching pinned part, and must then extend to exactly one K member.

    A count over the rows of K passes it at once (_complete_once); only
    when that count fails do the joins run, for the verdict and witness.
    As joins: for each j, the distinct (pinned part, value) pairs of K,
    sorted, give each pinned part a bucket of side values, which holds the
    point's own value.  A point's candidates are the mixed-radix ranks over
    its bucket sizes, the last direction fastest, which is the order of
    itertools.product over the sorted values; they are expanded COMBO_CHUNK
    at a time in K order and counted among the rows of K without their
    last column.  The witness is the first point with a candidate that
    does not complete exactly once, with that candidate's side values."""
    if not dec.ucpp.ok or not dec.minimal:
        return RelativeIndependenceResult("hypotheses-unmet", 0, None)
    K = dec.K
    rows, n, d = K.rows, K.base.n_points, K.k
    # side j's free vertex is its last, all ones but eps_j; the rest but
    # vertex 0 are its pins
    free = K.columns([face(d, j, 0)[-1] for j in range(1, d + 1)])
    starts, sizes, values = [], [], []
    for j in range(1, d + 1):
        pins = K.columns(face(d, j, 0)[:-1])
        part = _dense_ids(K.column_keys(pins), n ** len(pins))[1]
        pairs = _distinct(part * n + rows[:, free[j - 1]])
        bucket = pairs // n
        starts.append(np.searchsorted(bucket, part))
        sizes.append(np.searchsorted(bucket, part, side="right") - starts[-1])
        values.append(pairs % n)
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)
    total = np.prod(np.stack(sizes, axis=1), axis=1)
    if _complete_once(K, free, head, total):
        return RelativeIndependenceResult("pass", len(K), None)
    prefixes = RowIndex(rows[head, :-1], n)
    completions = np.diff(np.append(np.flatnonzero(head), len(rows)))
    for point, rank in _chunked_ranks(total, COMBO_CHUNK):
        combo = np.empty((len(point), d), dtype=rows.dtype)
        for j in reversed(range(d)):
            size = sizes[j][point]
            combo[:, j] = values[j][starts[j][point] + rank % size]
            rank = rank // size
        partial = rows[point, :-1]
        partial[:, free] = combo
        pos, found = prefixes.find(partial)
        count = np.where(found, completions[np.minimum(pos, len(completions) - 1)],
                         0)
        bad = np.flatnonzero(count != 1)
        if len(bad):
            i = bad[0]
            return RelativeIndependenceResult(
                status="fail", checked=len(K),
                witness=(tuple(rows[point[i]].tolist()),
                         tuple(combo[i].tolist()),
                         f"{int(count[i])} completions"))
    return RelativeIndependenceResult(status="pass", checked=len(K), witness=None)


def _complete_once(K: CubeSet, free: list[int], head: np.ndarray,
                   total: np.ndarray) -> bool:
    """Whether every candidate of every point of K completes exactly once,
    by counting; head marks the first row of each prefix
    (row without its last column) and total the number of candidates of
    each point.

    The core of a row is its columns other than the free ones and the last.
    Each side's pinned columns lie in the core, so a point's candidates
    depend only on its core, and they hold every prefix of K with that
    core.  So they all complete exactly once when no prefix has two
    completions and each core holds as many prefixes as its points have
    candidates.  At d = 2 the core is empty: one class."""
    if not head.all():
        return False
    core = [c for c in range(K.width - 1) if c not in free]
    ids = _dense_ids(K.column_keys(core), K.base.n_points ** len(core))[1]
    return bool((np.bincount(ids)[ids] == total).all())
