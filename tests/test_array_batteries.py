"""The array batteries, unique-completion check and template scan against
the scalar reference loops: identical items, first witnesses and counts, on
intact and on corrupted cube sets; unique completion also against the
pairwise brute force, with a second completion planted at each vertex."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scalar_batteries as ref
from conftest import ALL_FSYS
from test_relations import BRUTE_BUDGET, SETTINGS, brute, commuting_systems
from zdcubes import battery, kernels
from zdcubes.cube_engine import (CubeSet, RowIndex, enumerate_K, enumerate_Q,
                                 face_group_orbit, row_keys, ucpp_check)
from zdcubes.finite_system import FiniteZdSystem
from zdcubes.proximal import template_positions
from zdcubes.structure import face_system


def _z2_power(d: int) -> FiniteZdSystem:
    """(Z/2)^d with T_j flipping coordinate j; 2^d points."""
    perms = tuple(tuple(x ^ (1 << j) for x in range(1 << d)) for j in range(d))
    return FiniteZdSystem(1 << d, d, perms, name=f"z2^{d}")


def _corrupt(monkeypatch, where: str) -> None:
    """Make every enumerate_Q the batteries call lose one row (the first,
    middle or last) or every other row ("half"), so that the closure checks
    fail and report their first witness."""
    real = enumerate_Q

    def corrupted(sys, dirs, **kw):
        Q = real(sys, dirs, **kw)
        if len(Q) < 2:
            return Q
        if where == "half":
            return CubeSet(dirs=Q.dirs, points=Q.points[::2], base=Q.base)
        drop = {"first": 0, "middle": len(Q) // 2, "last": len(Q) - 1}[where]
        return CubeSet(dirs=Q.dirs, points=Q.points[:drop] + Q.points[drop + 1:],
                       base=Q.base)

    for module in (battery, ref):
        monkeypatch.setattr(module, "enumerate_Q", corrupted)


def _face_items(sys):
    items = battery.cube_battery(sys)
    return {i["check"]: i for i in items}


def _join_spy(monkeypatch, module):
    """One entry per pair or candidate join that module runs from now on
    (a call of its _chunked_ranks), so that a test sees which checks a
    certificate sent down the exhaustive path."""
    calls = []
    real = module._chunked_ranks

    def spy(counts, chunk):
        calls.append(int(np.sum(counts)))
        return real(counts, chunk)

    monkeypatch.setattr(module, "_chunked_ranks", spy)
    return calls


def _face_equivalences(Q):
    """Per direction j, whether the rows of Q, read as pairs (lower j-face,
    upper j-face), form an equivalence relation, by Python sets."""
    out = []
    for j in range(1, Q.k + 1):
        bit = 1 << (j - 1)
        low = [m for m in range(Q.width) if not m & bit]
        rel = {(tuple(r[m] for m in low), tuple(r[m | bit] for m in low))
               for r in Q.rows.tolist()}
        after = {}
        for a, b in rel:
            after.setdefault(a, set()).add(b)
        out.append(all((a, a) in rel and (b, b) in rel and (b, a) in rel
                       and after[b] <= after[a] for a, b in rel))
    return out


def _surgery(sys_):
    """surgery_battery(sys_) on the Q enumerate_Q gives the batteries.  It
    must equal the reference and its own result with the face certificate
    switched off; glue and insert must each join the pairs of exactly the
    directions whose faces are no equivalence, up to their first witness,
    which lies in such a direction."""
    Q = battery.enumerate_Q(sys_, tuple(range(1, sys_.d + 1)))
    closed = _face_equivalences(Q)
    with pytest.MonkeyPatch.context() as mp:
        joins = _join_spy(mp, battery)
        got = battery.surgery_battery(sys_)
        expected = 0
        for item in got[:2]:
            last = item["witness"][0] if item["witness"] else sys_.d
            assert item["status"] == "pass" or not closed[last - 1]
            expected += closed[:last].count(False)
        assert len(joins) == expected
        mp.setattr(battery, "_faces_equivalent", lambda *args: False)
        assert battery.surgery_battery(sys_) == got
    assert got == ref.surgery_battery(sys_)
    return got


@pytest.mark.parametrize("name", ALL_FSYS)
def test_surgery_battery_matches_scalar_loops(systems, name):
    _surgery(systems[name])


@pytest.mark.parametrize("broken", [((2, 1, 3), (2, 3, 1)),
                                    ((1, 3, 2), (3, 1, 2)),
                                    ((3, 1, 2), (3, 2, 1))])
def test_digit_permutation_witness_is_the_first_failing_order(
        systems, monkeypatch, broken):
    # the witness is the first failing order in permutation order, though
    # every order is built
    real = enumerate_Q

    def corrupted(sys, dirs):
        Q = real(sys, dirs)
        return CubeSet(Q.dirs, Q.rows[1:], base=Q.base) if dirs in broken else Q

    for module in (battery, ref):
        monkeypatch.setattr(module, "enumerate_Q", corrupted)
    sys_ = systems["rot8_d3"]
    got = battery.surgery_battery(sys_)
    assert got == ref.surgery_battery(sys_)
    item = {i["check"]: i for i in got}["digit_permute_bijection"]
    assert item["witness"] == list(min(broken))
    assert item["detail"] == {"permutations": 6}


def _orbit_cases(sys_):
    """(cube set, start) pairs: Q from its first, middle and last rows, Q
    without every other row from its first row, and from its last row K^x0
    over all directions and over each single direction, for the first and
    the last point; the values of a based set may stop short of the last
    point id or start above 0."""
    dirs = tuple(range(1, sys_.d + 1))
    Q = enumerate_Q(sys_, dirs)
    thinned = CubeSet(Q.dirs, Q.rows[::2], base=Q.base)
    cases = [(Q, row) for row in (Q.rows[0], Q.rows[len(Q) // 2], Q.rows[-1])]
    cases.append((thinned, thinned.rows[0]))
    for K_dirs in [dirs] + [(j,) for j in dirs if (j,) != dirs]:
        for x0 in (0, sys_.n_points - 1):
            K = enumerate_K(sys_, K_dirs, x0)
            cases.append((K, K.rows[-1]))
    return cases


def _same_orbits(sys_):
    for cubes, start in _orbit_cases(sys_):
        assert face_group_orbit(cubes, start)[0].points == \
            ref.face_group_orbit(cubes, start).points


@pytest.mark.parametrize("name", ALL_FSYS)
def test_face_group_matches_scalar_loops(systems, name):
    sys_ = systems[name]
    dirs = tuple(range(1, sys_.d + 1))
    Q = enumerate_Q(sys_, dirs)
    got = _face_items(sys_)
    assert got["face_group_invariance"] == ref.face_group_invariance(sys_, Q)
    assert got["diagonal_membership"] == ref.diagonal_membership(sys_, Q)
    assert got["single_direction_symmetry"] == ref.single_direction_symmetry(sys_)
    _same_orbits(sys_)
    assert got["orbit_covers_when_minimal"]["detail"]["orbit"] == \
        len(ref.face_group_orbit(Q, Q.points[0]))
    if sys_.d >= 2:
        K = enumerate_K(sys_, dirs, 0)
        assert face_system(K).perms == ref.face_system_perms(K)


@SETTINGS
@given(commuting_systems(max_parts=2, max_modulus=4))
def test_face_group_orbit_matches_scalar_loop_on_random_systems(sys_):
    _same_orbits(sys_)


def test_orbit_cases_hold_a_proper_class_and_a_short_based_set(systems):
    # the thinned Q of rot12 splits into several classes; K^x0 over one
    # direction of nonmin_z4z2 stops short of the last point id, which the
    # diagonal generators reach and its index, keyed over all points, looks
    # up as a miss
    thinned, start = _orbit_cases(systems["rot12"])[3]
    assert 1 < len(face_group_orbit(thinned, start)[0]) < len(thinned)
    sys_ = systems["nonmin_z4z2"]
    assert any(K.based and int(K.rows.max()) < sys_.n_points - 1
               for K, _ in _orbit_cases(sys_))


def _rotation_union(parts, relabel=None) -> FiniteZdSystem:
    """The disjoint union of Z/m rotated by steps (one step per direction)
    for each (m, steps) in parts, point x of a part numbered after the
    earlier parts, then renamed relabel[x] when a relabelling is given."""
    d = len(parts[0][1])
    perms, offset = [[] for _ in range(d)], 0
    for m, steps in parts:
        for p, s in zip(perms, steps):
            p.extend(offset + (x + s) % m for x in range(m))
        offset += m
    sigma = range(offset) if relabel is None else relabel
    table = [[0] * offset for _ in range(d)]
    for p, q in zip(perms, table):
        for x, y in enumerate(p):
            q[sigma[x]] = sigma[y]
    return FiniteZdSystem(offset, d, tuple(map(tuple, table)), name="rotations")


def _same_orbit_and_escape(cubes, start):
    orbit, escape = face_group_orbit(cubes, start)
    assert orbit.points == ref.face_group_orbit(cubes, start).points
    want = ref.face_group_escape(cubes)
    assert (escape is None) == (want is None)
    if escape is not None:
        assert escape[0] == want[0]
        assert tuple(escape[1].tolist()) == want[1]
    return orbit, escape


@pytest.mark.parametrize("parts", [
    [(16, (1,)), (8, (3,))],
    [(16, (1, 3)), (8, (1, 1))],
    [(12, (5, 1)), (5, (2, 1))],
    [(9, (1, 2)), (3, (1, 0))],
])
def test_face_group_orbit_on_unions_with_long_cycles(parts):
    # a face generator's cycles on Q have the length of its rotation's
    # order, up to 16, so the closure takes up to four doublings; Q is
    # face-group invariant, and the orbit of a row over one part is that
    # part's rows, a proper subset
    sys_ = _rotation_union(parts)
    Q = enumerate_Q(sys_, tuple(range(1, sys_.d + 1)))
    for start, (m, steps) in ((Q.rows[0], parts[0]), (Q.rows[-1], parts[-1])):
        orbit, escape = _same_orbit_and_escape(Q, start)
        assert escape is None
        orders = [m // math.gcd(m, s) for s in steps]
        assert len(orbit) == m * math.prod(orders) < len(Q)


@SETTINGS
@given(st.lists(st.tuples(st.integers(1, 16), st.integers(0, 15),
                          st.integers(0, 15)), min_size=1, max_size=3),
       st.integers(1, 2), st.randoms(use_true_random=False))
def test_face_group_orbit_matches_scalar_loop_on_rotation_unions(parts, d,
                                                                  rng):
    # relabelled unions of rotations by up to 16 points, so unlike
    # commuting_systems (moduli up to 4) a cycle can need four doublings
    parts = [(m, (a % m, b % m)[:d]) for m, a, b in parts]
    n = sum(m for m, _ in parts)
    sigma = list(range(n))
    rng.shuffle(sigma)
    sys_ = _rotation_union(parts, sigma)
    Q = enumerate_Q(sys_, tuple(range(1, d + 1)))
    if len(Q) > 800:
        return
    for start in (Q.rows[0], Q.rows[-1]):
        _same_orbit_and_escape(Q, start)


@pytest.mark.parametrize("parts", [
    [(16, (1, 3)), (8, (1, 1))],
    [(12, (5, 1)), (5, (2, 1))],
])
def test_face_group_orbit_with_planted_escapes(parts):
    # Q without its middle row, and with a row across the two parts that no
    # generator reaches: the escape and the orbits under the partial maps
    # match the scalar loops
    sys_ = _rotation_union(parts)
    Q = enumerate_Q(sys_, (1, 2))
    across = np.array([[0, parts[0][0], 0, parts[0][0]]], dtype=np.int32)
    rows = np.concatenate([np.delete(Q.rows, len(Q) // 2, axis=0), across])
    planted = CubeSet(Q.dirs, rows, base=sys_)
    for start in (planted.rows[0], planted.rows[-1]):
        assert _same_orbit_and_escape(planted, start)[1] is not None
    assert len(_same_orbit_and_escape(planted, across[0])[0]) == 1


@pytest.mark.parametrize("name,where", [(n, "middle") for n in ALL_FSYS]
                         + [(n, "half") for n in ALL_FSYS]
                         + [("rot6", "first"), ("z4xz3", "last"),
                            ("rot8_d3", "first")])
def test_batteries_match_scalar_loops_on_corrupted_Q(systems, monkeypatch,
                                                     name, where):
    sys_ = systems[name]
    _corrupt(monkeypatch, where)
    got = _surgery(sys_)
    if len(battery.enumerate_Q(sys_, tuple(range(1, sys_.d + 1)))) > 1:
        assert any(item["status"] == "fail" for item in got)
    Q = battery.enumerate_Q(sys_, tuple(range(1, sys_.d + 1)))
    face = _face_items(sys_)
    want = ref.face_group_invariance(sys_, Q)
    assert face["face_group_invariance"] == want
    assert face["diagonal_membership"] == ref.diagonal_membership(sys_, Q)
    assert face["single_direction_symmetry"] == ref.single_direction_symmetry(sys_)
    assert face["orbit_covers_when_minimal"]["detail"]["orbit"] == \
        len(ref.face_group_orbit(Q, Q.points[0]))


# per fixture, with the middle row of Q over directions 2..d removed: the
# project witness, the glue pairs and the duplicate points, as the battery
# gives them when it keys every face
MISSING_FACE_ITEMS = {
    "rot6": ([1, 0, [3, 0, 1, 4]], 972, 53),
    "z4xz3": ([1, 0, [6, 0, 6, 0]], 1008, 83),
    "rot8_d3": ([1, 0, [4, 0, 0, 4, 0, 4, 4, 0]], 7168, 559),
}


@pytest.mark.parametrize("name", sorted(MISSING_FACE_ITEMS))
def test_face_ids_fall_back_to_keys_where_a_face_is_missing(
        systems, monkeypatch, name):
    # Q itself stays whole, so glue and insert are unchanged; direction 1's
    # faces are keyed (_face_ids), the others' read off the project lookups
    sys_ = systems[name]
    rest = tuple(range(2, sys_.d + 1))
    real_Q, real_ids = enumerate_Q, battery._face_ids

    def missing_face(sys, dirs, **kw):
        Q = real_Q(sys, dirs, **kw)
        if tuple(dirs) != rest:
            return Q
        drop = len(Q) // 2
        return CubeSet(dirs=Q.dirs, points=Q.points[:drop] + Q.points[drop + 1:],
                       base=Q.base)

    keyed = []

    def face_ids(Q, faces):
        keyed.append(faces)
        return real_ids(Q, faces)

    whole = battery.surgery_battery(sys_)
    for module in (battery, ref):
        monkeypatch.setattr(module, "enumerate_Q", missing_face)
    monkeypatch.setattr(battery, "_face_ids", face_ids)
    got = _surgery(sys_)
    first = battery.face(sys_.d, 1, 0), battery.face(sys_.d, 1, 1)
    assert keyed and all(f == first for f in keyed)
    assert got[:2] == whole[:2]
    witness, glued, duplicated = MISSING_FACE_ITEMS[name]
    size = len(enumerate_Q(sys_, sys_.dirs))
    assert got[3] == battery._item("project_closure", "fail", witness,
                                   points=2 * sys_.d * size)
    assert got[0]["detail"]["pairs"] == glued
    assert got[2]["detail"]["points"] == duplicated


def test_surgery_battery_on_wide_rows_matches_scalar_loops(monkeypatch):
    # (Z/2)^4: cube tuples of width 16 over 16 points overflow int64 keys
    sys_ = _z2_power(4)
    _surgery(sys_)
    Q = enumerate_Q(sys_, (1, 2, 3, 4))
    assert _face_items(sys_)["face_group_invariance"] == \
        ref.face_group_invariance(sys_, Q)
    results = [_ucpp(v) for v in _variants(Q)]
    assert results == [ref.ucpp_check(v) for v in _variants(Q)]
    assert not all(ok for ok, _, _ in results)
    _corrupt(monkeypatch, "middle")
    got = _surgery(sys_)
    assert got[0]["status"] == "fail" or got[1]["status"] == "fail"


def test_insert_witness_when_both_sides_fail(monkeypatch):
    # Q = {(0, 1), (2, 1)}: the first insert pair (a, a) leaves Q on both sides
    sys_ = FiniteZdSystem(3, 1, ((1, 2, 0),))

    def fake(sys, dirs, **kw):
        return CubeSet(dirs=tuple(dirs), points=((0, 1), (2, 1)), base=sys)

    for module in (battery, ref):
        monkeypatch.setattr(module, "enumerate_Q", fake)
    got = _surgery(sys_)
    assert got[1]["witness"] == [1, "upper", [0, 1], [0, 1]]


def test_pair_chunks_do_not_change_witnesses(systems, monkeypatch):
    monkeypatch.setattr(battery, "PAIR_CHUNK", 7)
    for name in ("rot6", "z4xz3", "nonmin_z4z2"):
        assert battery.surgery_battery(systems[name]) == \
            ref.surgery_battery(systems[name])
    _corrupt(monkeypatch, "middle")
    assert battery.surgery_battery(systems["z4xz3"]) == \
        ref.surgery_battery(systems["z4xz3"])


# ---------------------------------------------------------------------------
# unique completion and the template scan


# brute_ucpp compares every pair of tuples; larger sets meet the scalar
# loop alone
UCPP_BRUTE_ROWS = 150


def _ucpp(cubes):
    res = ucpp_check(cubes)
    return res.ok, res.pair, res.vertex


def _variants(cubes):
    """The set itself, with its middle row or every other row dropped, and
    with a copy of every third row changed in one coordinate (a clash)."""
    rows = cubes.rows
    out = [cubes,
           CubeSet(cubes.dirs, np.delete(rows, len(rows) // 2, axis=0),
                   cubes.based, cubes.base),
           CubeSet(cubes.dirs, rows[::2], cubes.based, cubes.base)]
    for col in (0, cubes.width // 2, cubes.width - 1):
        changed = rows[::3].copy()
        changed[:, col] = (changed[:, col] + 1) % (rows.max() + 1)
        out.append(CubeSet(cubes.dirs, np.concatenate([rows, changed]),
                           cubes.based, cubes.base))
    return out


@pytest.mark.parametrize("name", ALL_FSYS)
def test_ucpp_matches_scalar_loop(systems, name):
    sys_ = systems[name]
    dirs = tuple(range(1, sys_.d + 1))
    sets = [enumerate_Q(sys_, dirs)]
    if sys_.d >= 2:
        sets.append(enumerate_K(sys_, dirs, 0))
    for cubes in sets:
        for variant in _variants(cubes):
            assert _ucpp(variant) == ref.ucpp_check(variant)


def test_raw_cube_set_with_negative_coordinates():
    rng = np.random.default_rng(3)
    lines = [",".join(map(str, r)) for r in rng.integers(-4, 3, size=(60, 4))]
    cs = CubeSet.from_text("cube-set d=2 dirs=1,2\n" + "\n".join(lines) + "\n")
    want = sorted({tuple(int(t) for t in line.split(",")) for line in lines})
    assert cs.points == tuple(want)
    assert cs.rows.dtype == np.int32 and not cs.rows.flags.writeable
    assert CubeSet.from_text(cs.to_text()).points == cs.points
    assert want[0] in cs and (9, 9, 9, 9) not in cs and (-5, 0, 0, 0) not in cs
    for variant in _variants(cs):
        assert _ucpp(variant) == ref.ucpp_check(variant)


def _planted(cubes):
    """(v, set) per vertex v: cubes with a second completion planted at v, a
    copy of its middle row whose coordinate v is the first value that makes
    it a new row (a point id of the base system when there is one)."""
    rows = cubes.rows
    row = rows[len(rows) // 2]
    top = cubes.base.n_points if cubes.base is not None else int(rows.max()) + 2
    for v in range(cubes.width):
        for c in range(int(rows.min()), top):
            extra = row.copy()
            extra[v] = c
            if tuple(extra.tolist()) not in cubes:
                yield v, CubeSet(cubes.dirs, np.vstack([rows, extra]),
                                 cubes.based, cubes.base)
                break


def _ucpp_against_references(cubes):
    """The verdict of ucpp_check, after checking it against the pairwise
    brute force (on small sets) and its witness against the scalar loop,
    which scans vertex by vertex and tuple by tuple in the same order."""
    got = _ucpp(cubes)
    assert got == ref.ucpp_check(cubes)
    if len(cubes) <= UCPP_BRUTE_ROWS:
        assert got[0] == brute.brute_ucpp(cubes.points)[0]
    return got[0]


def _ucpp_with_plants(cubes):
    """Checks cubes and each of its planted sets against the references;
    the vertices that got a plant."""
    _ucpp_against_references(cubes)
    planted = []
    for v, variant in _planted(cubes):
        assert not _ucpp_against_references(variant)
        planted.append(v)
    return planted


@SETTINGS
@given(commuting_systems())
def test_ucpp_matches_brute_force(sys_):
    orders = [brute.perm_order(list(p)) for p in sys_.perms]
    if sys_.n_points * math.prod(orders) << sys_.d > BRUTE_BUDGET:
        return
    dirs = tuple(range(1, sys_.d + 1))
    _ucpp_with_plants(enumerate_Q(sys_, dirs))
    if sys_.d >= 2:
        _ucpp_with_plants(enumerate_K(sys_, dirs, sys_.n_points - 1))


@pytest.mark.parametrize("name", ["rot6", "z4xz3", "rot8_d3", "nonmin_z4z2"])
def test_ucpp_witness_on_planted_completions(systems, name):
    sys_ = systems[name]
    dirs = tuple(range(1, sys_.d + 1))
    Q = enumerate_Q(sys_, dirs)
    # the fixtures have unique completion, so every vertex takes a plant
    for cubes in (Q, enumerate_K(sys_, dirs, 0),
                  CubeSet(dirs, Q.rows.astype(np.int64) - 3)):  # raw, below 0
        assert _ucpp_with_plants(cubes) == list(range(cubes.width))


def test_ucpp_witness_on_planted_completions_in_wide_rows():
    # (Z/2)^4: 16^16 overflows int64 row keys, so the scan keys each
    # vertex's rows afresh
    Q = enumerate_Q(_z2_power(4), (1, 2, 3, 4))
    assert Q.index.keys.dtype == np.int64
    assert _ucpp_with_plants(Q) == list(range(Q.width))


@pytest.mark.parametrize("name", ALL_FSYS)
def test_template_scan_matches_scalar_loop(systems, name):
    sys_ = systems[name]
    Q = enumerate_Q(sys_, tuple(range(1, sys_.d + 1)))
    for j in range(1, sys_.d + 1):
        pairs, x_pos, y_pos = template_positions(sys_.d, j)
        for rows in (Q.rows, Q.rows[::2]):
            got = kernels.template_scan(rows, pairs, x_pos, y_pos)
            assert got.dtype == np.int32
            assert list(map(tuple, got.tolist())) == \
                ref.template_scan(rows, pairs, x_pos, y_pos)


# ---------------------------------------------------------------------------
# the membership helper


def test_row_index_chunk_rank_branch_matches_python_set():
    rng = np.random.default_rng(5)
    rows = np.unique(rng.integers(0, 16, size=(300, 16)), axis=0)
    keys = row_keys(rows, 16)
    assert keys.dtype == np.int64  # 16^16 does not fit a mixed-radix key
    index = RowIndex(rows, 16)
    members = set(map(tuple, rows.tolist()))
    queries = np.concatenate([rows[::3], rng.integers(0, 16, size=(200, 16))])
    pos, found = index.find(queries)
    assert found.tolist() == [tuple(q) in members for q in queries.tolist()]
    assert (rows[pos[found]] == queries[found]).all()
    assert index.same_set(rows[::-1])
    assert index.same_set(np.concatenate([rows, rows[:5]]))
    assert not index.same_set(rows[1:])
    assert not index.same_set(np.concatenate([rows, queries[-1:]]))


@pytest.mark.parametrize("n,width", [(7, 3), (16, 16)],
                         ids=["int64-keys", "chunk-rank-keys"])
def test_row_index_same_set_by_sorted_keys(n, width):
    # as many query rows as indexed rows are compared by sorted keys, other
    # counts are looked up; shuffled and repeated queries reach both paths
    rng = np.random.default_rng(11)
    rows = np.unique(rng.integers(0, n, size=(200, width)), axis=0)
    index = RowIndex(rows, n)
    members = set(map(tuple, rows.tolist()))
    outsider = next(r for r in rng.integers(0, n, size=(50, width)).tolist()
                    if tuple(r) not in members)
    shuffled = rows[rng.permutation(len(rows))]
    assert index.same_set(shuffled)
    assert index.same_set(np.concatenate([shuffled, shuffled[:3]]))
    repeated = shuffled.copy()
    repeated[0] = repeated[1]
    assert not index.same_set(repeated)
    replaced = shuffled.copy()
    replaced[-1] = outsider
    assert not index.same_set(replaced)
    assert not index.same_set(shuffled[1:])
    assert not index.same_set(np.concatenate([shuffled, [outsider]]))


def test_raw_set_with_chunk_rank_keys_sorts_rows_lexicographically():
    # values spread over 2^31 make n^4 overflow int64 keys; the rows are
    # keyed by the ranks of their column chunks, which order them
    # lexicographically, and indexed by those keys
    rng = np.random.default_rng(7)
    rows = rng.integers(-(1 << 30), 1 << 30, size=(300, 4))
    rows[::3, :2] = rows[0, :2]  # long shared prefixes
    rows = np.concatenate([rows, rows[::5]])  # repeats
    cs = CubeSet((1, 2), rows)
    assert cs.index.keys.dtype == np.int64
    assert cs.points == tuple(sorted(set(map(tuple, rows.tolist()))))
    assert all(tuple(r) in cs for r in rows[::7].tolist())
    assert (rows[0, 0], rows[0, 1], 1 << 30, 0) not in cs


def test_row_keys_follow_row_order():
    rows = np.array(list(itertools.product(range(3), repeat=4)))
    assert (np.diff(row_keys(rows, 3)) > 0).all()  # int64 branch
    wide = np.array(list(itertools.product(range(2), repeat=4)))
    wide = np.repeat(wide, 16, axis=1) * 15  # width 64 over 16 symbols
    keys = row_keys(wide, 16)
    assert keys.dtype == np.int64
    assert (np.argsort(keys, kind="stable") == np.arange(len(wide))).all()
    with pytest.raises(ValueError):
        row_keys(np.array([[0, 3]]), 3)
