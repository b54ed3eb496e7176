"""Scalar reference loops for the array code.

These are the per-point Python loops the surgery, face-group, membership
and unique-completion checks and the template scan were first written as:
one cube tuple (or pair) at a time, membership in a Python set.  The array
code in zdcubes must give exactly the same items, witnesses and counts;
tests/test_array_batteries.py compares them.  The periodic-set sum-image
check, which now sums the residues, first looped over the whole moduli box;
tests/test_return_times.py compares the two.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from zdcubes.battery import _pass_fail
from zdcubes.cube_engine import (CubeSet, FaceGroupElement,
                                 digit_permute_point, duplicate, enumerate_Q,
                                 face_group_generators, glue, insert, project,
                                 reflect_point)
from zdcubes.finite_system import perm_order, perm_pow
from zdcubes.hypercube import FaceSelector
from zdcubes.return_times import phi_image


def _face(p, j, b, d):
    return tuple(p[m] for m in range(1 << d) if (m >> (j - 1)) & 1 == b)


def surgery_battery(sys):
    d = sys.d
    dirs = tuple(range(1, d + 1))
    Q = enumerate_Q(sys, dirs)
    members = set(Q.points)
    items = []

    checked = 0
    witness = None
    for j in dirs:
        lower = {}
        for p in Q.points:
            lower.setdefault(_face(p, j, 0, d), []).append(p)
        for a in Q.points:
            for b in lower.get(_face(a, j, 1, d), ()):
                checked += 1
                if witness is None and glue(a, b, j) not in members:
                    witness = [j, list(a), list(b)]
    items.append(_pass_fail("glue_closure", witness is None, witness,
                            pairs=checked))

    checked = 0
    witness = None
    for j in dirs:
        buckets = {}
        for p in Q.points:
            buckets.setdefault(_face(p, j, 1, d), []).append(p)
        for group in buckets.values():
            for a in group:
                for b in group:
                    for side in ("upper", "lower"):
                        checked += 1
                        if witness is None and insert(a, b, j, side) not in members:
                            witness = [j, side, list(a), list(b)]
    items.append(_pass_fail("insert_closure", witness is None, witness,
                            pairs=checked))

    checked = 0
    witness = None
    for k in range(1, d):
        for sub in combinations(dirs, k):
            for a in enumerate_Q(sys, sub):
                checked += 1
                if witness is None and duplicate(a, sub, dirs) not in members:
                    witness = [list(sub), list(a)]
    items.append(_pass_fail("duplicate_closure", witness is None, witness,
                            points=checked))

    checked = 0
    witness = None
    if d >= 2:
        rest_sets = {
            j: set(enumerate_Q(sys, tuple(i for i in dirs if i != j)).points)
            for j in dirs
        }
        for j in dirs:
            for b in (0, 1):
                sel = FaceSelector(dim=d, pinned=((j, b),))
                for p in Q.points:
                    checked += 1
                    if witness is None and project(p, sel) not in rest_sets[j]:
                        witness = [j, b, list(p)]
    items.append(_pass_fail("project_closure", witness is None, witness,
                            points=checked))

    checked = 0
    witness = None
    for sigma in permutations(range(1, d + 1)):
        src = enumerate_Q(sys, sigma)
        image = {digit_permute_point(sigma, p) for p in src.points}
        checked += 1
        if witness is None and image != members:
            witness = list(sigma)
    items.append(_pass_fail("digit_permute_bijection", witness is None, witness,
                            permutations=checked))

    witness = None
    for j in dirs:
        image = {reflect_point(j, p) for p in Q.points}
        if witness is None and image != members:
            witness = j
    items.append(_pass_fail("reflect_invariance", witness is None, witness,
                            directions=d))
    return items


def apply(g, sys, dirs, p, based=False):
    """FaceGroupElement.apply, one coordinate and one power table at a time."""
    offset = 1 if based else 0
    out = list(p)
    for i, j in enumerate(dirs):
        e = g.face[i] % perm_order(sys.perms[j - 1])
        if e == 0:
            continue
        table = perm_pow(sys.perms[j - 1], e)
        for pos in range(len(out)):
            if (pos + offset) >> i & 1:
                out[pos] = table[out[pos]]
    for j, e in enumerate(g.diag, start=1):
        e %= perm_order(sys.perms[j - 1])
        if e == 0:
            continue
        table = perm_pow(sys.perms[j - 1], e)
        out = [table[v] for v in out]
    return tuple(out)


def face_group_invariance(sys, Q):
    dirs = tuple(range(1, sys.d + 1))
    gens = face_group_generators(sys, dirs)
    members = set(Q.points)
    witness = None
    for g in gens:
        for p in Q.points:
            if apply(g, sys, dirs, p) not in members:
                witness = [list(g.face), list(g.diag), list(p)]
                break
        if witness:
            break
    return _pass_fail("face_group_invariance", witness is None, witness,
                      generators=len(gens))


def face_group_orbit(cubes, start):
    sys = cubes.base
    gens = face_group_generators(sys, cubes.dirs)
    members = set(cubes.points)
    seen = {tuple(start)}
    frontier = [tuple(start)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = apply(g, sys, cubes.dirs, p, based=cubes.based)
                if q not in seen and q in members:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return CubeSet(dirs=cubes.dirs, points=tuple(sorted(seen)),
                   based=cubes.based, base=sys)


def face_system_perms(K):
    """The generator permutations of structure.face_system(K)."""
    index = {p: i for i, p in enumerate(K.points)}
    perms = []
    for i in range(K.k):
        g = FaceGroupElement(tuple(1 if t == i else 0 for t in range(K.k)),
                             (0,) * K.base.d)
        perms.append(tuple(index[apply(g, K.base, K.dirs, p, based=True)]
                           for p in K.points))
    return tuple(perms)


def diagonal_membership(sys, Q):
    members = set(Q.points)
    witness = None
    for x in range(sys.n_points):
        if (x,) * Q.width not in members:
            witness = x
            break
    return _pass_fail("diagonal_membership", witness is None, witness,
                      points=sys.n_points)


def single_direction_symmetry(sys):
    witness = None
    for j in range(1, sys.d + 1):
        Qj = enumerate_Q(sys, (j,))
        members = set(Qj.points)
        for (x, y) in Qj.points:
            if (y, x) not in members:
                witness = [j, x, y]
                break
        if witness:
            break
    return _pass_fail("single_direction_symmetry", witness is None, witness)


def ucpp_check(cubes):
    """(ok, pair, vertex) of cube_engine.ucpp_check, by a dict per vertex."""
    width = cubes.width
    for v in range(width):
        seen = {}
        for p in cubes.points:
            key = p[:v] + p[v + 1:]
            other = seen.get(key)
            if other is None:
                seen[key] = p
            elif other[v] != p[v]:
                return False, (other, p), v
    return True, None, None


def template_scan(points, eq_pairs, x_pos, y_pos):
    """kernels.template_scan as a list of (x, y) pairs, one row at a time."""
    pairs = [tuple(p) for p in eq_pairs]
    return [(row[x_pos], row[y_pos]) for row in points.tolist()
            if all(row[a] == row[b] for a, b in pairs)]


def sum_image_consistency(ps):
    """The coordinate sums of every member of the moduli box, against
    phi_image."""
    img = phi_image(ps)
    box = [range(m) for m in ps.moduli]
    sums = {(sum(n) % img.moduli[0],) for n in product(*box) if n in ps}
    brute = {(s[0] % img.moduli[0],) for s in img.residues}
    return _pass_fail("sum_image_consistency", sums == brute, None,
                      image_modulus=img.moduli[0])
