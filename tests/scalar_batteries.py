"""Scalar reference loops for the array code.

These are the per-point Python loops the surgery, face-group, membership
and unique-completion checks and the template scan were first written as:
one cube tuple (or pair) at a time, membership in a Python set, with the
surgeries (glue, insert, duplicate, project onto a face, digit permutation,
reflection) as operations on one cube point.  The array
code in zdcubes must give exactly the same items, witnesses and counts;
tests/test_array_batteries.py compares them.  So were the five-way
agreement of the proximal relations over frozenset sections, relative
independence, the factor isomorphisms, the injectivity of the joining
decomposition and the text form of a cube set; tests/test_array_structure.py
compares those.  The periodic-set sum-image check, which now sums the
residues, first looped over the whole moduli box;
tests/test_return_times.py compares the two.  A cube set was read from text
one line at a time; tests/test_text_rows.py compares that loop with the
library's reader.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import combinations, permutations, product

from zdcubes.battery import _pass_fail
from zdcubes.cube_engine import (INT32, CubePoint, CubeSet, FaceGroupElement,
                                 enumerate_K, enumerate_Q,
                                 face_group_generators)
from zdcubes.proximal import compute_R_j
from zdcubes.structure import (FactorIsoResult, RelativeIndependenceResult,
                               SubgroupSpec, face_system,
                               maximal_trivial_H_factor)
from zdcubes.errors import InputError
from zdcubes._text import _content_lines
from zdcubes.finite_system import perm_order
from zdcubes.hypercube import MAX_DIM, Vertex, _check_dim, digit_permute, face
from zdcubes.return_times import phi_image

from scalar_return_times import header_fields, perm_pow


# ---------------------------------------------------------------------------
# surgery on one cube point, and faces of the cube


def _cube_dim(width: int) -> tuple[int, bool]:
    """(k, based) from a tuple width of 2^k or 2^k - 1 (k >= 1)."""
    for k in range(1, MAX_DIM + 1):
        if width == 1 << k:
            return k, False
        if width == (1 << k) - 1:
            return k, True
    raise InputError(f"width {width} is not 2^k or 2^k-1 for any supported k")


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


@dataclass(frozen=True)
class FaceSelector:
    """A face of the cube: some directions pinned to fixed bits, the rest free.

    pinned is a sorted tuple of (direction, bit) pairs; directions are 1-based
    and must be distinct.
    """

    dim: int
    pinned: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        dirs = [j for j, _ in self.pinned]
        if len(set(dirs)) != len(dirs):
            raise ValueError("pinned directions must be distinct")
        for j, b in self.pinned:
            if not 1 <= j <= self.dim:
                raise ValueError(f"pinned direction {j} out of range 1..{self.dim}")
            if b not in (0, 1):
                raise ValueError("pinned bits must be 0/1")
        object.__setattr__(self, "pinned", tuple(sorted(self.pinned)))

    @property
    def free(self) -> tuple[int, ...]:
        pinned_dirs = {j for j, _ in self.pinned}
        return tuple(j for j in range(1, self.dim + 1) if j not in pinned_dirs)

    def matches(self, v: Vertex) -> bool:
        return v.dim == self.dim and all(v.bit(j) == b for j, b in self.pinned)


def face_vertices(sel: FaceSelector) -> list[Vertex]:
    """All vertices matching the pinned assignment, in canonical order."""
    out = [v for m in range(1 << sel.dim) if sel.matches(v := Vertex(m, sel.dim))]
    assert len(out) == 1 << len(sel.free)
    return out


# ---------------------------------------------------------------------------
# the batteries


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


# ---------------------------------------------------------------------------
# proximal relations and the joining decomposition


def sections(Q):
    acc = {}
    for p in Q.points:
        acc.setdefault(p[0], set()).add(p[1:])
    return {x: frozenset(v) for x, v in acc.items()}


def five_way_battery(sys):
    dirs = tuple(range(1, sys.d + 1))
    Q = enumerate_Q(sys, dirs)
    rels = [compute_R_j(sys, j).pairs for j in dirs]
    sec = sections(Q)
    tails = {(p[0], p[1]) for p in Q.points if len(set(p[1:])) == 1}
    checked = 0
    for x in range(sys.n_points):
        sx = sec.get(x, frozenset())
        for y in range(sys.n_points):
            sy = sec.get(y, frozenset())
            conds = (
                all((x, y) in r for r in rels),
                (x, y) in tails,
                bool(sx & sy),
                sx == sy,
                any((x, y) in r for r in rels),
            )
            checked += 1
            if len(set(conds)) != 1:
                return False, checked, [x, y, list(conds)]
    return True, checked, None


def injectivity(K, sides):
    """(injective, witness) of the product of the side projections."""
    combined = {}
    for pt_id, pt in enumerate(K.points):
        key = tuple(side.from_face(pt_id) for side in sides)
        other = combined.get(key)
        if other is not None and other != pt:
            return False, (other, pt)
        combined[key] = pt
    return True, None


def factor_isomorphism_check(sys, x0, j):
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
    idx = [p - 1 for p in face(sys.d, j, 0)[1:]]
    proj = [tuple(pt[i] for i in idx) for pt in K.points]
    cls_val = {}
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


def relative_independence_check(dec):
    if not dec.ucpp.ok or not dec.minimal:
        return RelativeIndependenceResult(status="hypotheses-unmet", checked=0,
                                          witness=None)
    K = dec.K
    d = K.k
    full = (1 << d) - 1
    free_pos = [full ^ (1 << (j - 1)) for j in range(1, d + 1)]
    side_pos = [face(d, j, 0)[1:] for j in range(1, d + 1)]
    side_sets = []
    for j in range(1, d + 1):
        pins = [p for p in side_pos[j - 1] if p != free_pos[j - 1]]
        table = {}
        for pt in K.points:
            key = tuple(pt[p - 1] for p in pins)
            table.setdefault(key, set()).add(pt[free_pos[j - 1] - 1])
        side_sets.append(table)
    completions = {}
    for pt in K.points:
        completions.setdefault(pt[:-1], set()).add(pt[-1])

    def check_point(pt):
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


def to_text(cubes):
    lines = [f"cube-set d={cubes.k} dirs={','.join(str(j) for j in cubes.dirs)}"]
    lines.extend(",".join(map(str, r)) for r in cubes.rows.tolist())
    return "\n".join(lines) + "\n"


def cube_set_from_text(text, path=None):
    rows = _content_lines(text)
    if not rows or not rows[0][1].startswith("cube-set"):
        raise InputError("expected 'cube-set d=<k> dirs=<...>' header",
                         path=path, line=rows[0][0] if rows else 1)
    header_line, header = rows[0]
    fields = header_fields(header, "cube-set", ("d", "dirs"), path, header_line)
    try:
        k = int(fields["d"])
        dirs = tuple(int(t) for t in fields["dirs"].split(","))
    except ValueError:
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
    return CubeSet(dirs=dirs, points=points, based=based)
