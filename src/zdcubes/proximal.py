"""Directional proximality relations extracted from cube sets.

A pair (x, y) lies in the relation for direction j when some full cube
tuple z witnesses it in the shape

    z_0 = x,   z_{e_j} = y,   z_{(eta,0)_j} = z_{(eta,1)_j} for eta != 0,

where (eta,b)_j embeds a (d-1)-vertex by inserting bit b at slot j.  The
intersection over all directions, when it is an invariant equivalence,
produces the maximal factor with unique cube completion.

Relations are PairRelations, stored as sorted int64 keys x*n + y: the
template hits become keys, the intersection is read off the sorted keys of
all directions, and the pushforward and the five-way battery compare keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from ._arrays import _distinct, _same
from .cube_engine import CubeSet, enumerate_Q, ucpp_check
from .errors import HypothesisError, InputError
from .finite_system import (FactorMap, FiniteZdSystem, PairRelation,
                            is_minimal, quotient)
from .hypercube import Vertex, embed_face


def template_positions(d: int, j: int) -> tuple[list[tuple[int, int]], int, int]:
    """Equal-coordinate position pairs plus the (x, y) positions for the
    direction-j template on a d-cube."""
    if not 1 <= j <= d:
        raise InputError(f"direction {j} out of range 1..{d}")
    pairs = []
    for eta in range(1, 1 << (d - 1)):
        w = Vertex(eta, d - 1)
        pairs.append((embed_face(j, 0, w).mask, embed_face(j, 1, w).mask))
    x_pos = 0
    y_pos = 1 << (j - 1)
    return pairs, x_pos, y_pos


def _scan(Q: CubeSet, slot: int) -> PairRelation:
    """The pairs witnessed by the template for the direction in position
    slot of Q.dirs, inside the full cube set Q of its base system."""
    sys = Q.base
    pairs, x_pos, y_pos = template_positions(sys.d, slot)
    eq = np.array(pairs, dtype=np.int32).reshape(len(pairs), 2)
    hits = kernels.template_scan(Q.to_array(), eq, x_pos, y_pos)
    keys = hits[:, 0].astype(np.int64) * sys.n_points + hits[:, 1]
    return PairRelation(sys.n_points, keys, sys)


def compute_R_j(sys: FiniteZdSystem, j: int) -> PairRelation:
    """All pairs witnessed by a direction-j template inside the full cube set."""
    return sys.memo(("R_j", j),
                    lambda: _scan(enumerate_Q(sys, sys.dirs), j))


def compute_R(sys: FiniteZdSystem) -> PairRelation:
    """Intersection of the per-direction relations: in the sorted keys of
    all d of them, a key held by every one is d equal keys in a row."""
    def build() -> PairRelation:
        d = sys.d
        held = np.sort(np.concatenate([compute_R_j(sys, j).keys for j in sys.dirs]))
        every = held[d - 1:][held[d - 1:] == held[:len(held) - d + 1]]
        return PairRelation(sys.n_points, every, sys)

    return sys.memo(("R",), build)


def _reordered_dirs(sys: FiniteZdSystem, j: int) -> tuple[int, ...]:
    return (j,) + tuple(i for i in sys.dirs if i != j)


def compute_R_j_reordered(sys: FiniteZdSystem, j: int) -> PairRelation:
    """Same relation extracted from the cube set listing direction j first,
    then the others in increasing order; a cross-check that the template
    does not depend on direction order.  It is kept on the system memo,
    where keep_reordered_relation may have put it already."""
    return sys.memo(("R_j_reordered", j),
                    lambda: _scan(enumerate_Q(sys, _reordered_dirs(sys, j)), 1))


def keep_reordered_relation(Q: CubeSet) -> None:
    """When Q is the full cube set over (j, the other directions in
    increasing order), put compute_R_j_reordered(Q.base, j), read off Q,
    on the memo; the digit-permutation check builds these sets anyway, and
    the relation is far smaller than the set."""
    sys, j = Q.base, Q.dirs[0]
    if Q.dirs == _reordered_dirs(sys, j):
        sys.memo(("R_j_reordered", j), lambda: _scan(Q, 1))


def sections(Q: CubeSet) -> dict[int, range]:
    """The rows of a full cube set over each of its base points.  Q is
    sorted by its vertex-0 coordinate, so each section is one row range;
    the tails of its rows (the coordinates after vertex 0) are the possible
    completions over that point, in sorted order."""
    if Q.based:
        raise InputError("sections need a full cube set")
    col = Q.rows[:, 0]
    head = np.ones(len(col), dtype=bool)
    head[1:] = col[1:] != col[:-1]
    starts = np.flatnonzero(head)
    stops = np.append(starts[1:], len(col))
    return {x: range(a, b) for x, a, b in
            zip(col[starts].tolist(), starts.tolist(), stops.tolist())}


@dataclass(frozen=True)
class EquivalenceReport:
    ok: bool
    reflexive: bool
    refl_witness: int | None
    symmetric: bool
    sym_witness: tuple[int, int] | None
    transitive: bool
    trans_witness: tuple[int, int, int] | None
    invariant: bool
    inv_witness: tuple[tuple[int, int], int] | None


def check_equivalence(rel: PairRelation) -> EquivalenceReport:
    """Reflexive, symmetric, transitive, and generator-invariant."""
    refl, rw = rel.is_reflexive()
    sym, sw = rel.is_symmetric()
    trans, tw = rel.is_transitive()
    inv, iw = rel.is_invariant()
    return EquivalenceReport(ok=refl and sym and trans and inv,
                             reflexive=refl, refl_witness=rw,
                             symmetric=sym, sym_witness=sw,
                             transitive=trans, trans_witness=tw,
                             invariant=inv, inv_witness=iw)


def _R_equivalence(sys: FiniteZdSystem) -> EquivalenceReport:
    """check_equivalence(compute_R(sys)), kept on the system memo."""
    return sys.memo(("R_equivalence",),
                    lambda: check_equivalence(compute_R(sys)))


@dataclass(frozen=True)
class PushforwardReport:
    equal: bool
    easy_inclusion: bool
    missing: tuple[int, int] | None  # target pair with no source pair above it
    escaped: tuple[int, int] | None  # image pair outside the target relation
    source_minimal: bool
    source_size: int
    target_size: int


def pushforward_check(pi: FactorMap) -> PushforwardReport:
    """Does the source relation push forward exactly onto the target relation?
    The forward inclusion holds for any factor map; equality needs minimality.
    The image is a set of keys; the witnesses are the least keys of the two
    differences, which are formed only when the key sets differ."""
    R_src = compute_R(pi.source)
    R_tgt = compute_R(pi.target)
    n, m = pi.target.n_points, pi.array
    x, y = np.divmod(R_src.keys, pi.source.n_points)
    image = _distinct(m[x] * n + m[y])
    escaped = missing = None
    if not _same(image, R_tgt.keys):
        escaped = _least_pair(np.setdiff1d(image, R_tgt.keys, assume_unique=True), n)
        missing = _least_pair(np.setdiff1d(R_tgt.keys, image, assume_unique=True), n)
    return PushforwardReport(
        equal=escaped is None and missing is None,
        easy_inclusion=escaped is None,
        missing=missing,
        escaped=escaped,
        source_minimal=is_minimal(pi.source).ok,
        source_size=len(R_src),
        target_size=len(R_tgt),
    )


def _least_pair(keys: np.ndarray, n: int) -> tuple[int, int] | None:
    """The pair of the least of some sorted keys on n points, or None."""
    return divmod(int(keys[0]), n) if len(keys) else None


def maximal_ucpp_factor(sys: FiniteZdSystem) -> tuple[FiniteZdSystem, FactorMap]:
    """Quotient by the intersection relation and verify the result has unique
    cube completion with a trivial intersection relation of its own."""
    R = compute_R(sys)
    if not _R_equivalence(sys).ok:
        raise HypothesisError(
            "the intersection relation is not an invariant equivalence here, "
            "so the quotient is undefined (expected only on non-minimal input)")
    q_sys, pi = quotient(sys, R)
    res = ucpp_check(enumerate_Q(q_sys, q_sys.dirs))
    if not res.ok:
        raise AssertionError(
            f"quotient failed unique completion at {res.pair}; this is a bug")
    Rq = compute_R(q_sys)
    if not Rq.is_diagonal():
        raise AssertionError(
            "quotient has a non-trivial intersection relation; this is a bug")
    return q_sys, pi
