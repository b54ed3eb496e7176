"""Scalar reference for the label-array relations.

These are the loops that subgroup orbits, relation closures, quotients,
factor-map checks and minimality were first written as: every element of a
subgroup listed by a BFS over tuple permutations, every pair (x, hx) listed,
a Python union-find over the pairs, and an orbit BFS per point.  The
label-array code in zdcubes must give the same classes, quotient systems,
factor maps and first witnesses; tests/test_relations.py compares them.

The pair-relation checks (reflexive, symmetric, transitive, invariant, the
text form) and the pushforward check are the loops over frozensets of
tuples that PairRelation and pushforward_check were first written as;
tests/test_relations.py compares them with the key-array code.
"""

from __future__ import annotations

from zdcubes.finite_system import (FactorMap, FactorMapReport, FiniteZdSystem,
                                   InvarianceError, MinimalityResult,
                                   PairRelation)
from zdcubes.proximal import PushforwardReport, compute_R
from zdcubes.structure import IteratedQuotientResult, SubgroupSpec


class UnionFind:
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


def classes(n: int, pairs) -> tuple[tuple[int, ...], ...]:
    """Classes of the equivalence closure of pairs, sorted by least member."""
    uf = UnionFind(n)
    for x, y in pairs:
        uf.union(x, y)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(uf.find(x), []).append(x)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


def generator_perms(H: SubgroupSpec, sys: FiniteZdSystem
                    ) -> list[tuple[int, ...]]:
    """H's generators as tuples: the direction generators, then each word
    applied one step at a time."""
    gens = [sys.perms[j - 1] for j in H.dirs]
    for w in H.words:
        p = list(range(sys.n_points))
        for i, e in enumerate(w):
            step = sys.perms[i] if e > 0 else sys.inverses[i]
            for _ in range(abs(e)):
                p = [step[v] for v in p]
        gens.append(tuple(p))
    return gens


def element_perms(H: SubgroupSpec, sys: FiniteZdSystem) -> list[tuple[int, ...]]:
    """All permutations in the generated subgroup, BFS from the identity."""
    ident = tuple(range(sys.n_points))
    gens = generator_perms(H, sys)
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
    pairs = set()
    for h in element_perms(H, sys):
        for x in range(sys.n_points):
            pairs.add((x, h[x]))
    return PairRelation(sys.n_points, frozenset(pairs), sys)


def quotient(sys: FiniteZdSystem, rel: PairRelation
             ) -> tuple[FiniteZdSystem, FactorMap]:
    cls = classes(sys.n_points, rel.pairs)
    class_of = [0] * sys.n_points
    for c, members in enumerate(cls):
        for x in members:
            class_of[x] = c
    for i, p in enumerate(sys.perms, start=1):
        for members in cls:
            target = class_of[p[members[0]]]
            for x in members[1:]:
                if class_of[p[x]] != target:
                    raise InvarianceError((members[0], x), i)
    new_perms = tuple(
        tuple(class_of[sys.perms[i][members[0]]] for members in cls)
        for i in range(sys.d)
    )
    # the quotient by the discrete partition is the system itself, name
    # included
    discrete = len(cls) == sys.n_points
    q_sys = FiniteZdSystem(len(cls), sys.d, new_perms,
                           name=f"{sys.name}/~" if sys.name and not discrete
                           else sys.name)
    return q_sys, FactorMap(sys, q_sys, tuple(class_of))


def maximal_trivial_H_factor(sys: FiniteZdSystem, H: SubgroupSpec
                             ) -> tuple[FiniteZdSystem, FactorMap]:
    q_sys, pi = quotient(sys, compute_QH(sys, H))
    for h in generator_perms(H, sys):
        for x in range(sys.n_points):
            if pi(h[x]) != pi(x):
                raise AssertionError("H does not act trivially on the quotient")
    return q_sys, pi


def iterated_quotient_check(sys: FiniteZdSystem, H1: SubgroupSpec,
                            H2: SubgroupSpec) -> IteratedQuotientResult:
    joint = SubgroupSpec(dirs=tuple(H1.dirs) + tuple(H2.dirs),
                         words=tuple(H1.words) + tuple(H2.words))
    _, one_pi = maximal_trivial_H_factor(sys, joint)
    mid_sys, mid_pi = maximal_trivial_H_factor(sys, H1)
    _, end_pi = maximal_trivial_H_factor(mid_sys, H2)
    one_classes: dict[int, list[int]] = {}
    two_classes: dict[int, list[int]] = {}
    for x in range(sys.n_points):
        one_classes.setdefault(one_pi(x), []).append(x)
        two_classes.setdefault(end_pi(mid_pi(x)), []).append(x)
    a = tuple(sorted(tuple(sorted(g)) for g in one_classes.values()))
    b = tuple(sorted(tuple(sorted(g)) for g in two_classes.values()))
    return IteratedQuotientResult(ok=a == b, one_step_classes=a,
                                  two_step_classes=b)


def z0h_universality_check(pi: FactorMap, H: SubgroupSpec):
    for h in generator_perms(H, pi.target):
        if h != tuple(range(pi.target.n_points)):
            return "hypotheses-unmet", None
    rel = compute_QH(pi.source, H)
    for x, y in sorted(rel.pairs):
        if pi(x) != pi(y):
            return "fail", (x, y)
    return "pass", None


def check_factor_map(pi: FactorMap) -> FactorMapReport:
    missed = None
    hit = set(pi.mapping)
    for y in range(pi.target.n_points):
        if y not in hit:
            missed = y
            break
    witness = None
    for i in range(pi.source.d):
        p, q = pi.source.perms[i], pi.target.perms[i]
        for x in range(pi.source.n_points):
            if pi.mapping[p[x]] != q[pi.mapping[x]]:
                witness = (x, i + 1)
                break
        if witness:
            break
    return FactorMapReport(ok=missed is None and witness is None,
                           surjective=missed is None, missed=missed,
                           equivariant=witness is None, witness=witness)


def orbit_of(sys: FiniteZdSystem, x: int) -> frozenset[int]:
    seen = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for p in sys.perms + sys.inverses:
            z = p[y]
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return frozenset(seen)


def is_minimal(sys: FiniteZdSystem) -> MinimalityResult:
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
    return MinimalityResult(ok=len(sizes) == 1, witness=witness,
                            orbit_sizes=tuple(sizes))


# ---------------------------------------------------------------------------
# pair relations as frozensets of tuples


def is_reflexive(rel: PairRelation):
    for x in range(rel.n_points):
        if (x, x) not in rel.pairs:
            return False, x
    return True, None


def is_symmetric(rel: PairRelation):
    for x, y in sorted(rel.pairs):
        if (y, x) not in rel.pairs:
            return False, (x, y)
    return True, None


def is_transitive(rel: PairRelation):
    succ: dict[int, set[int]] = {}
    for x, y in rel.pairs:
        succ.setdefault(x, set()).add(y)
    for x, y in sorted(rel.pairs):
        for z in sorted(succ.get(y, ())):
            if (x, z) not in rel.pairs:
                return False, (x, y, z)
    return True, None


def is_invariant(rel: PairRelation):
    for i, p in enumerate(rel.base.perms, start=1):
        for x, y in sorted(rel.pairs):
            if (p[x], p[y]) not in rel.pairs:
                return False, ((x, y), i)
    return True, None


def to_text(rel: PairRelation) -> str:
    lines = [f"pair-relation n={rel.n_points}"]
    lines.extend(f"{x},{y}" for x, y in sorted(rel.pairs))
    return "\n".join(lines) + "\n"


def pushforward_check(pi: FactorMap) -> PushforwardReport:
    R_src = compute_R(pi.source)
    R_tgt = compute_R(pi.target)
    image = frozenset((pi(x), pi(y)) for x, y in R_src.pairs)
    escaped = min(image - R_tgt.pairs, default=None)
    missing = min(R_tgt.pairs - image, default=None)
    return PushforwardReport(
        equal=escaped is None and missing is None,
        easy_inclusion=escaped is None,
        missing=missing,
        escaped=escaped,
        source_minimal=is_minimal(pi.source).ok,
        source_size=len(R_src.pairs),
        target_size=len(R_tgt.pairs),
    )
