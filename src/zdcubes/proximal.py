"""Directional proximality relations extracted from cube sets.

A pair (x, y) lies in the relation for direction j when some full cube
tuple z witnesses it in the shape

    z_0 = x,   z_{e_j} = y,   z_{(eta,0)_j} = z_{(eta,1)_j} for eta != 0,

where (eta,b)_j embeds a (d-1)-vertex by inserting bit b at slot j.  The
intersection over all directions, when it is an invariant equivalence,
produces the maximal factor with unique cube completion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .cube_engine import CubePoint, CubeSet, enumerate_Q, ucpp_check
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


def build_z(x: int, y: int, a_star: tuple[int, ...], j: int) -> CubePoint:
    """Assemble the template cube tuple from a completion a_star, which lists
    the shared values indexed like a based cube point over d-1 directions."""
    width = len(a_star) + 1
    d = 1
    while (1 << (d - 1)) < width:
        d += 1
    if 1 << (d - 1) != width:
        raise InputError(f"completion length {len(a_star)} is not 2^(d-1)-1")
    if not 1 <= j <= d:
        raise InputError(f"direction {j} out of range 1..{d}")
    z = [-1] * (1 << d)
    z[0] = x
    z[1 << (j - 1)] = y
    for eta in range(1, 1 << (d - 1)):
        w = Vertex(eta, d - 1)
        v = a_star[eta - 1]
        z[embed_face(j, 0, w).mask] = v
        z[embed_face(j, 1, w).mask] = v
    return tuple(z)


def _full_dirs(sys: FiniteZdSystem) -> tuple[int, ...]:
    return tuple(range(1, sys.d + 1))


def _scan(sys: FiniteZdSystem, dirs: tuple[int, ...], slot: int) -> PairRelation:
    """The pairs witnessed by the template for the direction in position
    slot of dirs, inside the cube set over dirs."""
    Q = enumerate_Q(sys, dirs)
    pairs, x_pos, y_pos = template_positions(sys.d, slot)
    eq = np.array(pairs, dtype=np.int32).reshape(len(pairs), 2)
    hits = kernels.template_scan(Q.to_array(), eq, x_pos, y_pos)
    return PairRelation(sys.n_points, frozenset(map(tuple, hits.tolist())), sys)


def compute_R_j(sys: FiniteZdSystem, j: int) -> PairRelation:
    """All pairs witnessed by a direction-j template inside the full cube set."""
    return sys.memo(("R_j", j), lambda: _scan(sys, _full_dirs(sys), j))


def compute_R(sys: FiniteZdSystem) -> PairRelation:
    """Intersection of the per-direction relations."""
    def build() -> PairRelation:
        rels = [compute_R_j(sys, j).pairs for j in _full_dirs(sys)]
        return PairRelation(sys.n_points, frozenset.intersection(*rels), sys)

    return sys.memo(("R",), build)


def compute_R_j_reordered(sys: FiniteZdSystem, j: int) -> PairRelation:
    """Same relation extracted from the cube set listing direction j first;
    a cross-check that the template does not depend on direction order."""
    dirs = (j,) + tuple(i for i in _full_dirs(sys) if i != j)
    return _scan(sys, dirs, 1)


def sections(Q: CubeSet) -> dict[int, frozenset[tuple[int, ...]]]:
    """Group the full cube set by its vertex-0 coordinate; the value sets are
    the possible completions over each base point."""
    if Q.based:
        raise InputError("sections need a full cube set")
    acc: dict[int, set[tuple[int, ...]]] = {}
    for p in Q.points:
        acc.setdefault(p[0], set()).add(p[1:])
    return {x: frozenset(v) for x, v in acc.items()}


def constant_tail_symmetry(sys: FiniteZdSystem
                           ) -> tuple[bool, tuple[int, int] | None]:
    """(x, y..y) is a cube tuple exactly when (y, x..x) is."""
    Q = enumerate_Q(sys, _full_dirs(sys))
    w = Q.width
    for x in range(sys.n_points):
        for y in range(sys.n_points):
            if (((x,) + (y,) * (w - 1)) in Q) != (((y,) + (x,) * (w - 1)) in Q):
                return False, (x, y)
    return True, None


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


@dataclass(frozen=True)
class ProximalReport:
    relation_sizes: tuple[int, ...]
    intersection_size: int
    equivalence: EquivalenceReport
    is_diagonal: bool
    minimal: bool


def proximal_report(sys: FiniteZdSystem) -> ProximalReport:
    rels = [compute_R_j(sys, j) for j in _full_dirs(sys)]
    R = compute_R(sys)
    return ProximalReport(
        relation_sizes=tuple(len(r) for r in rels),
        intersection_size=len(R),
        equivalence=check_equivalence(R),
        is_diagonal=R.is_diagonal(),
        minimal=is_minimal(sys).ok,
    )


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
    The forward inclusion holds for any factor map; equality needs minimality."""
    R_src = compute_R(pi.source)
    R_tgt = compute_R(pi.target)
    image = frozenset((pi(x), pi(y)) for x, y in R_src.pairs)
    escaped = None
    for p in sorted(image - R_tgt.pairs):
        escaped = p
        break
    missing = None
    for p in sorted(R_tgt.pairs - image):
        missing = p
        break
    return PushforwardReport(
        equal=escaped is None and missing is None,
        easy_inclusion=escaped is None,
        missing=missing,
        escaped=escaped,
        source_minimal=is_minimal(pi.source).ok,
        source_size=len(R_src),
        target_size=len(R_tgt),
    )


def maximal_ucpp_factor(sys: FiniteZdSystem) -> tuple[FiniteZdSystem, FactorMap]:
    """Quotient by the intersection relation and verify the result has unique
    cube completion with a trivial intersection relation of its own."""
    R = compute_R(sys)
    eq = check_equivalence(R)
    if not eq.ok:
        raise HypothesisError(
            "the intersection relation is not an invariant equivalence here, "
            "so the quotient is undefined (expected only on non-minimal input)")
    q_sys, pi = quotient(sys, R)
    res = ucpp_check(enumerate_Q(q_sys, _full_dirs(q_sys)))
    if not res.ok:
        raise AssertionError(
            f"quotient failed unique completion at {res.pair}; this is a bug")
    Rq = compute_R(q_sys)
    if not Rq.is_diagonal():
        raise AssertionError(
            "quotient has a non-trivial intersection relation; this is a bug")
    return q_sys, pi
