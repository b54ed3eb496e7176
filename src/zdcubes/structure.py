"""Subgroup orbit relations, their quotients, and the joining decomposition
of a base-point cube set.

For a subgroup H of the acting group, Q_H collects the pairs (x, hx).  On a
finite phase space this is always an equivalence relation and its quotient
is the maximal factor on which H acts trivially.

decompose() studies Y = K^{x0} under the face action: direction j of the
face system moves the coordinates whose vertex has eps_j = 1 by T_j.  The
projections Y_j (coordinates with eps_j = 0) and Y_{i,j} (eps_i = eps_j = 0)
are factors of Y, and when the underlying system is minimal with unique
completion, Y embeds into the product of the Y_j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cube_engine import (CubeSet, FaceGroupElement, RowIndex, enumerate_K,
                          enumerate_Q, section_of, ucpp_check, UcppResult)
from .errors import HypothesisError, InputError
from .finite_system import (FactorMap, FiniteZdSystem, PairRelation,
                            is_minimal, quotient)


@dataclass(frozen=True)
class SubgroupSpec:
    """Generators for a subgroup of Z^d acting through the system: plain
    directions and/or arbitrary words (exponent vectors)."""

    dirs: tuple[int, ...] = ()
    words: tuple[tuple[int, ...], ...] = ()

    def describe(self) -> str:
        parts = [f"T{j}" for j in self.dirs]
        parts.extend("T^" + ",".join(str(e) for e in w) for w in self.words)
        return "<" + (", ".join(parts) if parts else "identity") + ">"

    def generator_perms(self, sys: FiniteZdSystem) -> list[tuple[int, ...]]:
        gens = []
        for j in self.dirs:
            if not 1 <= j <= sys.d:
                raise InputError(f"direction {j} out of range 1..{sys.d}")
            gens.append(sys.perms[j - 1])
        for w in self.words:
            gens.append(sys.word_perm(w))
        return gens

    def element_perms(self, sys: FiniteZdSystem) -> list[tuple[int, ...]]:
        """All permutations in the generated subgroup, BFS from the identity."""
        ident = tuple(range(sys.n_points))
        gens = self.generator_perms(sys)
        inv = []
        for g in gens:
            v = [0] * len(g)
            for x, y in enumerate(g):
                v[y] = x
            inv.append(tuple(v))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in list(gens) + inv:
                    q = tuple(g[v] for v in p)
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        return sorted(seen)


def compute_QH(sys: FiniteZdSystem, H: SubgroupSpec) -> PairRelation:
    """The orbit relation {(x, hx) : h in H}."""
    pairs = set()
    for h in H.element_perms(sys):
        for x in range(sys.n_points):
            pairs.add((x, h[x]))
    return PairRelation(sys.n_points, frozenset(pairs), sys)


def maximal_trivial_H_factor(sys: FiniteZdSystem, H: SubgroupSpec
                             ) -> tuple[FiniteZdSystem, FactorMap]:
    """Quotient by Q_H: the maximal factor on which H acts trivially."""
    rel = compute_QH(sys, H)
    q_sys, pi = quotient(sys, rel)
    for h in H.generator_perms(sys):
        for x in range(sys.n_points):
            if pi(h[x]) != pi(x):
                raise AssertionError("H does not act trivially on the quotient; bug")
    return q_sys, pi


@dataclass(frozen=True)
class IteratedQuotientResult:
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
    one_classes: dict[int, list[int]] = {}
    two_classes: dict[int, list[int]] = {}
    for x in range(sys.n_points):
        one_classes.setdefault(one_pi(x), []).append(x)
        two_classes.setdefault(end_pi(mid_pi(x)), []).append(x)
    a = tuple(sorted(tuple(sorted(g)) for g in one_classes.values()))
    b = tuple(sorted(tuple(sorted(g)) for g in two_classes.values()))
    return IteratedQuotientResult(ok=a == b, one_step_classes=a, two_step_classes=b)


def z0h_universality_check(pi: FactorMap, H: SubgroupSpec
                           ) -> tuple[str, tuple[int, int] | None]:
    """If H acts trivially on the target, the factor map must collapse Q_H:
    returns ("pass"/"fail"/"hypotheses-unmet", witness)."""
    for h in H.generator_perms(pi.target):
        if h != tuple(range(pi.target.n_points)):
            return "hypotheses-unmet", None
    rel = compute_QH(pi.source, H)
    for x, y in sorted(rel.pairs):
        if pi(x) != pi(y):
            return "fail", (x, y)
    return "pass", None


# ---------------------------------------------------------------------------
# the face system on K^{x0} and its coordinate projections


def face_system(K: CubeSet) -> FiniteZdSystem:
    """The system on the tuples of K whose generator j applies T_j to the
    coordinates with eps_j = 1.  The tuples are numbered in sorted order."""
    if not K.based:
        raise InputError("face systems are built on based cube sets")
    if K.base is None:
        raise InputError("cube set carries no base system")
    sys = K.base
    rows = K.to_array()
    index = RowIndex(rows, sys.n_points)
    perms = []
    for i, j in enumerate(K.dirs):
        g = FaceGroupElement(tuple(1 if t == i else 0 for t in range(K.k)),
                             (0,) * sys.d)
        pos, found = index.find(g.apply_rows(sys, K.dirs, rows, based=True))
        if not found.all():
            p = tuple(rows[int(np.argmin(found))].tolist())
            raise AssertionError(
                f"face action leaves the cube set at {p} (direction {j}); bug")
        perms.append(tuple(pos.tolist()))
    return FiniteZdSystem(len(K), K.k, tuple(perms),
                          name=(sys.name + ":faces") if sys.name else "faces")


@dataclass(frozen=True)
class CoordinateProjection:
    """Restriction of the face system to the coordinates listed in
    positions (vertex masks of the ambient based set, ascending).  A single
    artificial point stands in when no position remains."""

    positions: tuple[int, ...]
    values: tuple[tuple[int, ...], ...]
    system: FiniteZdSystem
    from_face: FactorMap


def _project_positions(K: CubeSet, Y: FiniteZdSystem, positions: tuple[int, ...],
                       name: str) -> CoordinateProjection:
    idx = [p - 1 for p in positions]
    proj = [tuple(pt[i] for i in idx) for pt in K.points]
    values = tuple(sorted(set(proj)))
    val_index = {v: c for c, v in enumerate(values)}
    mapping = tuple(val_index[v] for v in proj)
    perms = []
    for gi in range(Y.d):
        row = [0] * len(values)
        seen = [False] * len(values)
        for pt_id in range(Y.n_points):
            src = mapping[pt_id]
            dst = mapping[Y.perms[gi][pt_id]]
            if seen[src] and row[src] != dst:
                raise AssertionError(
                    f"coordinate projection is not equivariant ({name}); bug")
            row[src] = dst
            seen[src] = True
        perms.append(tuple(row))
    target = FiniteZdSystem(len(values), Y.d, tuple(perms), name=name)
    pi = FactorMap(Y, target, mapping)
    return CoordinateProjection(positions=positions, values=values,
                                system=target, from_face=pi)


@dataclass(frozen=True)
class JoiningDecomposition:
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


def _side_positions(d: int, j: int) -> tuple[int, ...]:
    return tuple(m for m in range(1, 1 << d) if not (m >> (j - 1)) & 1)


def _corner_positions(d: int, i: int, j: int) -> tuple[int, ...]:
    return tuple(m for m in range(1, 1 << d)
                 if not (m >> (i - 1)) & 1 and not (m >> (j - 1)) & 1)


def decompose(sys: FiniteZdSystem, x0: int) -> JoiningDecomposition:
    """Build Y = K^{x0} with the face action, its side and corner coordinate
    projections, and test injectivity of the product of side projections."""
    if sys.d < 2:
        raise InputError("decomposition needs d >= 2")
    return sys.memo(("decompose", x0), lambda: _decompose(sys, x0))


def _decompose(sys: FiniteZdSystem, x0: int) -> JoiningDecomposition:
    dirs = tuple(range(1, sys.d + 1))
    Q = enumerate_Q(sys, dirs)
    K = enumerate_K(sys, dirs, x0)
    if not np.array_equal(section_of(Q, x0).to_array(), K.to_array()):
        raise AssertionError("base-point restriction disagrees with the section; bug")
    u = ucpp_check(Q)
    minimal = is_minimal(sys).ok
    Y = face_system(K)
    sides = tuple(
        _project_positions(K, Y, _side_positions(sys.d, j), f"Y_{j}")
        for j in range(1, sys.d + 1)
    )
    corners = {}
    for i in range(1, sys.d + 1):
        for j in range(i + 1, sys.d + 1):
            corners[(i, j)] = _project_positions(
                K, Y, _corner_positions(sys.d, i, j), f"Y_{i},{j}")
    combined: dict[tuple[int, ...], tuple[int, ...]] = {}
    witness = None
    injective = True
    for pt_id, pt in enumerate(K.points):
        key = tuple(sides[j].from_face(pt_id) for j in range(sys.d))
        other = combined.get(key)
        if other is not None and other != pt:
            injective = False
            witness = (other, pt)
            break
        combined[key] = pt
    return JoiningDecomposition(
        sys=sys, x0=x0, K=K, ucpp=u, minimal=minimal, Y=Y,
        side_projections=sides, corner_projections=corners,
        injective=injective, injectivity_witness=witness,
    )


@dataclass(frozen=True)
class FactorIsoResult:
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
    the eps_j = 1 coordinates."""
    if not 1 <= j <= sys.d:
        raise InputError(f"direction {j} out of range 1..{sys.d}")
    if sys.d < 2:
        raise InputError("need d >= 2")
    dirs = tuple(range(1, sys.d + 1))
    rest = tuple(i for i in dirs if i != j)
    K = enumerate_K(sys, dirs, x0)
    Y = face_system(K)
    q_sys, kappa = maximal_trivial_H_factor(Y, SubgroupSpec(dirs=(j,)))
    if len(rest) == 1:
        K_rest = enumerate_Q(sys, rest)
        low = tuple(p[1] for p in K_rest.points if p[0] == x0)
        rest_values = tuple((v,) for v in sorted(set(low)))
        Y_rest = None
    else:
        K_rest = enumerate_K(sys, rest, x0)
        rest_values = K_rest.points
        Y_rest = face_system(K_rest)
    rest_index = {v: i for i, v in enumerate(rest_values)}
    positions = _side_positions(sys.d, j)
    idx = [p - 1 for p in positions]
    proj = [tuple(pt[i] for i in idx) for pt in K.points]
    cls_val: dict[int, tuple[int, ...]] = {}
    constant = True
    witness = None
    for pt_id in range(Y.n_points):
        c = kappa(pt_id)
        if c in cls_val and cls_val[c] != proj[pt_id]:
            constant = False
            witness = f"class {c} projects two ways"
            break
        cls_val[c] = proj[pt_id]
    bijective = False
    if constant:
        image = set(cls_val.values())
        bijective = (len(cls_val) == q_sys.n_points == len(rest_values)
                     and image == set(rest_values)
                     and len(image) == len(cls_val))
        if not bijective and witness is None:
            witness = (f"{len(cls_val)} classes vs {len(rest_values)} "
                       "restricted tuples")
    equivariant = True
    if constant and bijective:
        for gi, i_dir in enumerate(dirs):
            if i_dir == j:
                continue
            ri = rest.index(i_dir)
            for c in range(q_sys.n_points):
                lhs = cls_val[q_sys.perms[gi][c]]
                here = rest_index[cls_val[c]]
                if Y_rest is None:
                    rhs = (sys.perms[i_dir - 1][cls_val[c][0]],)
                else:
                    rhs = K_rest.points[Y_rest.perms[ri][here]]
                if lhs != rhs:
                    equivariant = False
                    witness = f"direction {i_dir} disagrees at class {c}"
                    break
            if not equivariant:
                break
    gen_j = q_sys.perms[dirs.index(j)]
    dropped_trivial = gen_j == tuple(range(q_sys.n_points))
    ok = constant and bijective and equivariant and dropped_trivial
    return FactorIsoResult(ok=ok, j=j, classes=q_sys.n_points,
                           target_size=len(rest_values),
                           constant_on_classes=constant, bijective=bijective,
                           equivariant=equivariant,
                           dropped_trivial=dropped_trivial, witness=witness)


@dataclass(frozen=True)
class RelativeIndependenceResult:
    status: str  # "pass" | "fail" | "hypotheses-unmet"
    checked: int
    witness: tuple | None


def relative_independence_check(dec: JoiningDecomposition
                                ) -> RelativeIndependenceResult:
    """Over each point of K, combine every compatible choice of side values
    and require a unique completion back in K.

    A candidate fixes the coordinates with two or more zero bits from the
    base tuple, draws the all-ones-but-j coordinate from any Y_j member with
    matching pinned part, and must then extend to exactly one K member."""
    if not dec.ucpp.ok or not dec.minimal:
        return RelativeIndependenceResult(status="hypotheses-unmet", checked=0,
                                          witness=None)
    K = dec.K
    d = K.k
    full = (1 << d) - 1
    free_pos = [full ^ (1 << (j - 1)) for j in range(1, d + 1)]  # all ones but j
    side_pos = [_side_positions(d, j) for j in range(1, d + 1)]
    side_sets: list[dict[tuple[int, ...], set[int]]] = []
    for j in range(1, d + 1):
        pins = [p for p in side_pos[j - 1] if p != free_pos[j - 1]]
        table: dict[tuple[int, ...], set[int]] = {}
        for pt in K.points:
            key = tuple(pt[p - 1] for p in pins)
            table.setdefault(key, set()).add(pt[free_pos[j - 1] - 1])
        side_sets.append(table)
    completions: dict[tuple[int, ...], set[int]] = {}
    for pt in K.points:
        completions.setdefault(pt[:-1], set()).add(pt[-1])

    def check_point(pt: tuple[int, ...]) -> tuple | None:
        choices = []
        for j in range(1, d + 1):
            pins = [p for p in side_pos[j - 1] if p != free_pos[j - 1]]
            key = tuple(pt[p - 1] for p in pins)
            vals = side_sets[j - 1].get(key)
            if not vals:
                return (pt, f"no side values in direction {j}")
            choices.append(sorted(vals))
        for combo in itertools.product(*choices):
            partial = list(pt[:-1])
            for j, v in enumerate(combo, start=1):
                partial[free_pos[j - 1] - 1] = v
            comp = completions.get(tuple(partial), set())
            if len(comp) != 1:
                return (pt, combo, f"{len(comp)} completions")
        return None

    for pt in K.points:
        r = check_point(pt)
        if r is not None:
            return RelativeIndependenceResult(status="fail", checked=len(K),
                                              witness=r)
    return RelativeIndependenceResult(status="pass", checked=len(K), witness=None)
