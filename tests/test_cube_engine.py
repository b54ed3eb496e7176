import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_batteries import (FaceSelector, digit_permute_point, duplicate,
                              glue, insert, project, reflect_point)
from scalar_batteries import apply as ref_apply
from test_relations import BRUTE_BUDGET, SETTINGS, brute, commuting_systems
from zdcubes import cube_engine, kernels
from zdcubes.cli import cmd_verify
from zdcubes.cube_engine import (
    CubeSet,
    FaceGroupElement,
    UcppResult,
    enumerate_K,
    enumerate_Q,
    face_group_orbit,
    section_of,
    ucpp_check,
)
from zdcubes.errors import InputError
from zdcubes.finite_system import (FiniteZdSystem, PairRelation, is_minimal,
                                   parse_finite_system, quotient)
from zdcubes.proximal import compute_R, maximal_ucpp_factor
from zdcubes.structure import SubgroupSpec, maximal_trivial_H_factor


def test_rot6_census(systems, oracle):
    Q = enumerate_Q(systems["rot6"], (1, 2))
    K = enumerate_K(systems["rot6"], (1, 2), 0)
    want = oracle["fixtures"]["rot6"]
    assert len(Q) == want["Q_size"]
    assert Q.text_sha256() == want["Q_sha256"]
    assert len(K) == want["K0_size"]
    assert K.text_sha256() == want["K0_sha256"]


def test_all_fixture_censuses(systems, oracle):
    for name, sys_ in systems.items():
        want = oracle["fixtures"][name]
        dirs = tuple(range(1, sys_.d + 1))
        Q = enumerate_Q(sys_, dirs)
        assert len(Q) == want["Q_size"], name
        assert Q.text_sha256() == want["Q_sha256"], name
        if "K0_sha256" in want:
            K = enumerate_K(sys_, dirs, 0)
            assert len(K) == want["K0_size"], name
            assert K.text_sha256() == want["K0_sha256"], name


def test_width_one_based_set(systems):
    # single-direction K drops vertex 0 and keeps width-1 tuples
    K = enumerate_K(systems["rot6"], (1,), 0)
    assert K.based and K.width == 1
    assert len(K) == 6
    assert set(K.points) == {(v,) for v in range(6)}


def test_enumerate_rejects_repeated_direction(systems):
    with pytest.raises(InputError):
        enumerate_Q(systems["rot6"], (1, 1))
    with pytest.raises(InputError):
        enumerate_Q(systems["rot6"], ())


def test_enumeration_size_guard():
    # 4096 bases x 4096 x 2048 exponent combos is far past the row cap
    many = parse_finite_system(
        "finite-system\npoints = 4096\nd = 2\n"
        f"T1 = [{', '.join(str((i + 1) % 4096) for i in range(4096))}]\n"
        f"T2 = [{', '.join(str((i + 2) % 4096) for i in range(4096))}]\n")
    with pytest.raises(InputError):
        enumerate_Q(many, (1, 2))


def test_cube_set_text_round_trip(systems):
    Q = enumerate_Q(systems["rot6"], (1, 2))
    again = CubeSet.from_text(Q.to_text())
    assert again.points == Q.points
    assert again.dirs == Q.dirs
    assert not again.based
    K = enumerate_K(systems["rot6"], (1, 2), 0)
    again_k = CubeSet.from_text(K.to_text())
    assert again_k.based
    assert again_k.points == K.points


def test_cube_set_from_text_errors():
    with pytest.raises(InputError):
        CubeSet.from_text("periodic-set k=1 moduli=2\n0\n")
    with pytest.raises(InputError):
        CubeSet.from_text("cube-set d=2 dirs=1,2\n0,0\n")  # width 2: not 4 or 3
    with pytest.raises(InputError):
        CubeSet.from_text("cube-set d=2 dirs=1,2\n0,0,0,0\n0,0,0\n")  # mixed
    with pytest.raises(InputError):
        CubeSet.from_text("cube-set d=2 dirs=1\n0,0,0,0\n")


def test_ucpp_witness_on_raw_set():
    bad = CubeSet(dirs=(1, 2), points=((0, 0, 0, 0), (0, 0, 0, 1)))
    res = ucpp_check(bad)
    assert not res.ok
    assert res.vertex == 3
    assert set(res.pair) == {(0, 0, 0, 0), (0, 0, 0, 1)}


def test_ucpp_holds_on_rot6(systems):
    assert ucpp_check(enumerate_Q(systems["rot6"], (1, 2))).ok


def _all_vertex_scan(cubes):
    """The unique-completion verdict by a dict per vertex over every vertex
    in order: the first vertex where a row's rest occurred before, with the
    first row holding that rest."""
    rows = [tuple(r) for r in cubes.rows.tolist()]
    for v in range(cubes.width):
        first = {}
        for row in rows:
            rest = row[:v] + row[v + 1:]
            if rest in first:
                return UcppResult(ok=False, pair=(first[rest], row), vertex=v)
            first[rest] = row
    return UcppResult(ok=True)


@st.composite
def clashing_sets(draw):
    """Raw full or based sets with k = 2..4 over a few values, so rows
    often agree on vertex 0 and the single-direction vertices, plus copies
    of drawn rows changed at one drawn vertex: a clash there, at a
    single-direction vertex or at one of several bits."""
    k, based = draw(st.integers(2, 4)), draw(st.booleans())
    width = (1 << k) - based
    value = st.integers(-2, 3)
    row = st.lists(value, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        copy = list(draw(st.sampled_from(rows)))
        copy[draw(st.integers(0, width - 1))] = draw(value)
        rows.append(copy)
    return CubeSet(tuple(range(1, k + 1)), rows, based=based)


@SETTINGS
@given(clashing_sets())
def test_ucpp_matches_the_all_vertex_scan_on_raw_sets(cubes):
    assert ucpp_check(cubes) == _all_vertex_scan(cubes)


@pytest.mark.parametrize("rows,based,vertex", [
    # a clash at vertex 0 alone, with the single-direction vertices distinct
    ([[0, 1, 2, 3, 4, 5, 6, 7], [1, 1, 2, 3, 4, 5, 6, 7]], False, 0),
    # a clash at the multi-bit vertex 3 (the same rows on 0, e_1, e_2, e_3)
    ([[0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 0, 4, 5, 6, 7]], False, 3),
    # rows equal on 0, e_1, e_2, e_3 that clash nowhere
    ([[0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 0, 4, 0, 6, 7]], False, None),
    # based: a clash at position 6, the vertex (1, 1, 1)
    ([[1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 0]], True, 6),
    # based: at position 0, the vertex e_1
    ([[1, 2, 3, 4, 5, 6, 7], [0, 2, 3, 4, 5, 6, 7]], True, 0),
])
def test_ucpp_scan_examples(rows, based, vertex):
    cubes = CubeSet((1, 2, 3), rows, based=based)
    res = ucpp_check(cubes)
    assert res == _all_vertex_scan(cubes)
    assert res.vertex == vertex


def _d4_systems():
    return commuting_systems(d=4, max_parts=3, max_modulus=2)


@SETTINGS
@given(st.one_of(commuting_systems(), _d4_systems()), st.data())
def test_ucpp_matches_the_all_vertex_scan_on_enumerated_sets(sys_, data):
    dirs = tuple(range(1, sys_.d + 1))
    x0 = data.draw(st.integers(0, sys_.n_points - 1))
    for cubes in (enumerate_Q(sys_, dirs), enumerate_K(sys_, dirs, x0)):
        if cubes.width >= 2:
            assert ucpp_check(cubes) == _all_vertex_scan(cubes)


# ---------------------------------------------------------------------------
# surgery on one cube point (the reference the surgery battery is checked
# against), unit examples


def test_glue_example():
    # d=1 cubes (a0, a1), (a1, b1) glue along direction 1 to (a0, b1)
    assert glue((0, 1), (1, 2), 1) == (0, 2)
    with pytest.raises(InputError):
        glue((0, 1), (2, 3), 1)  # faces disagree


def test_glue_d2():
    a = (0, 1, 2, 3)
    b = (1, 4, 3, 5)  # lower 1-face of b == upper 1-face of a
    assert glue(a, b, 1) == (0, 4, 2, 5)


def test_insert_examples():
    a = (0, 1, 2, 3)
    # result's lower 1-face taken from b = a's lower face duplicated
    assert insert(a, a, 1, side="lower") == (0, 0, 2, 2)
    assert insert(a, a, 1, side="upper") == (1, 1, 3, 3)


def test_insert_rejects_bad_side():
    with pytest.raises(InputError):
        insert((0, 1), (0, 1), 1, side="sideways")


def test_duplicate_example():
    a = (0, 1, 2, 3)
    assert duplicate(a, (1, 2), (1, 2, 3)) == (0, 1, 2, 3, 0, 1, 2, 3)
    assert duplicate(a, (1, 2), (3, 1, 2)) == (0, 0, 1, 1, 2, 2, 3, 3)


def test_duplicate_rejects_missing_direction():
    with pytest.raises(InputError):
        duplicate((0, 1), (2,), (1, 3))


def test_project_example():
    a = (0, 1, 2, 3)
    low = project(a, FaceSelector(2, ((2, 0),)))
    high = project(a, FaceSelector(2, ((2, 1),)))
    assert low == (0, 1)
    assert high == (2, 3)


def test_digit_permute_point_swap():
    a = (0, 1, 2, 3)
    assert digit_permute_point((2, 1), a) == (0, 2, 1, 3)
    assert digit_permute_point((1, 2), a) == a


def test_reflect_point_involution():
    a = (0, 1, 2, 3)
    assert reflect_point(1, a) == (1, 0, 3, 2)
    assert reflect_point(2, a) == (2, 3, 0, 1)
    assert reflect_point(1, reflect_point(1, a)) == a


# ---------------------------------------------------------------------------
# closure of Q under surgery (spot checks; the battery runs these in bulk)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_glue_stays_in_Q(systems, data):
    Q = enumerate_Q(systems["rot6"], (1, 2))
    j = data.draw(st.integers(min_value=1, max_value=2))
    a = data.draw(st.sampled_from(Q.points))
    sel_up = FaceSelector(2, ((j, 1),))
    sel_lo = FaceSelector(2, ((j, 0),))
    mates = [b for b in Q.points if project(b, sel_lo) == project(a, sel_up)]
    assert mates, "every upper face extends (surjectivity of the action)"
    b = data.draw(st.sampled_from(mates))
    assert glue(a, b, j) in Q


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_reflect_stays_in_Q(systems, data):
    Q = enumerate_Q(systems["rot6"], (1, 2))
    a = data.draw(st.sampled_from(Q.points))
    j = data.draw(st.integers(min_value=1, max_value=2))
    assert reflect_point(j, a) in Q


def test_digit_permute_maps_between_direction_orders(systems):
    # Q over (sigma(1)..sigma(d)) maps onto Q over (1..d)
    sys_ = systems["z4xz3"]
    Q12 = enumerate_Q(sys_, (1, 2))
    for sigma in itertools.permutations((1, 2)):
        src = enumerate_Q(sys_, sigma)
        image = {digit_permute_point(sigma, p) for p in src.points}
        assert image == set(Q12.points), sigma


def test_face_group_orbit_covers_minimal(systems):
    Q = enumerate_Q(systems["rot6"], (1, 2))
    orb, _ = face_group_orbit(Q, Q.points[0])
    assert set(orb.points) == set(Q.points)


def test_face_group_orbit_proper_on_nonminimal(systems):
    sys_ = systems["nonmin_z4z2"]
    Q = enumerate_Q(sys_, (1, 2))
    orb, _ = face_group_orbit(Q, Q.points[0])
    assert len(orb) < len(Q)


@st.composite
def non_commuting_systems(draw):
    """Random generator tables, which need not commute."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    return FiniteZdSystem(n, d, tuple(tuple(draw(st.permutations(range(n))))
                                      for _ in range(d)))


@st.composite
def three_factor_systems(draw):
    """Translations of (Z/2)^3 or Z/2 x Z/4 x Z/2 at d = 3, which
    commuting_systems never draws."""
    moduli = draw(st.sampled_from([(2, 2, 2), (2, 4, 2)]))
    elems = list(itertools.product(*(range(m) for m in moduli)))
    index = {e: k for k, e in enumerate(elems)}
    perms = []
    for _ in range(3):
        step = [draw(st.integers(0, m - 1)) for m in moduli]
        perms.append(tuple(index[tuple((a + s) % m for a, s, m in
                                       zip(e, step, moduli))] for e in elems))
    return FiniteZdSystem(len(elems), 3, tuple(perms))


@SETTINGS
@given(st.one_of(commuting_systems(), non_commuting_systems(),
                 three_factor_systems()), st.data())
def test_apply_rows_matches_the_scalar_loop(sys_, data):
    # face powers then the diagonal word, in the order of a non-commuting
    # table too, on full rows and on based rows (vertex m in column m - 1)
    dirs = tuple(data.draw(st.lists(st.integers(1, sys_.d), min_size=1,
                                    unique=True)))
    def vector(n):  # exponents in -3..3, the zero vector among them
        return st.one_of(st.just((0,) * n),
                         st.tuples(*[st.integers(-3, 3)] * n))

    for based in (False, True):
        g = FaceGroupElement(data.draw(vector(len(dirs))),
                             data.draw(vector(sys_.d)))
        width = (1 << len(dirs)) - based
        rows = data.draw(st.lists(st.lists(
            st.integers(0, sys_.n_points - 1), min_size=width,
            max_size=width), min_size=1, max_size=6))
        got = g.apply_rows(sys_, dirs, np.array(rows, dtype=np.int32), based)
        assert got.dtype == np.int32
        assert [tuple(r) for r in got.tolist()] == \
            [ref_apply(g, sys_, dirs, r, based) for r in rows]


def test_apply_rows_refuses_coordinates_that_are_not_point_ids(systems):
    sys_ = systems["rot6"]
    g = FaceGroupElement((1, 0), (0, 0))
    assert g.apply(sys_, (1, 2), (0, 5, 2, 3)) == (0, 0, 2, 4)
    for p in [(0, -1, 2, 3), (0, 6, 2, 3), (0.0, 1.0, 2.0, 3.0)]:
        with pytest.raises(InputError, match="must be point ids"):
            g.apply(sys_, (1, 2), p)
    with pytest.raises(InputError, match="must be point ids"):
        g.apply_rows(sys_, (1, 2), np.array([[0, 1, 2]]) - 1, based=True)


def test_apply_rows_refuses_directions_out_of_range(systems):
    # direction 0 would read the last generator's row, and d + 1 none
    sys_ = systems["rot6"]
    g = FaceGroupElement((1, 0), (0, 0))
    for dirs in [(0, 1), (1, 3)]:
        with pytest.raises(InputError, match="out of range 1..2"):
            g.apply_rows(sys_, dirs, np.array([[0, 1, 2, 3]]))


def test_section_consistency(systems, oracle):
    Q = enumerate_Q(systems["rot6"], (1, 2))
    K = enumerate_K(systems["rot6"], (1, 2), 0)
    sec = section_of(Q, 0)
    assert sec.points == K.points
    assert sec.text_sha256() == oracle["fixtures"]["rot6"]["K0_sha256"]


# ---------------------------------------------------------------------------
# enumeration by orbit


def _union_5_7():
    """Z/5 rotated by (1, 2) beside Z/7 rotated by (3, 1): the generators
    have order 35, but 5 and 7 on the two orbits."""
    perms = [[(x + a) % 5 for x in range(5)] + [5 + (x + b) % 7 for x in range(7)]
             for a, b in ((1, 3), (2, 1))]
    return FiniteZdSystem(12, 2, tuple(map(tuple, perms)), name="z5+z7")


@SETTINGS
@given(commuting_systems())
def test_enumeration_matches_brute_force(sys_):
    orders = [brute.perm_order(list(p)) for p in sys_.perms]
    if sys_.n_points * math.prod(orders) << sys_.d > BRUTE_BUDGET:
        return
    perms = [list(p) for p in sys_.perms]
    dirs = tuple(range(1, sys_.d + 1))
    assert enumerate_Q(sys_, dirs).points == \
        tuple(brute.brute_Q(perms, sys_.n_points, orders))
    for x0 in (0, sys_.n_points - 1):
        assert enumerate_K(sys_, dirs, x0).points == \
            tuple(brute.brute_K(perms, sys_.n_points, orders, x0))


def test_enumeration_of_a_non_commuting_system_matches_brute_force():
    # on the orbit {0, 1, 2} each generator has a fixed point and a
    # 2-cycle, so the exponents must run to the lcm of both lengths
    sys_ = FiniteZdSystem(4, 2, ((1, 0, 2, 3), (0, 2, 1, 3)))
    perms = [list(p) for p in sys_.perms]
    assert enumerate_Q(sys_, (1, 2)).points == tuple(brute.brute_Q(perms, 4, [2, 2]))
    for x0 in range(4):
        assert enumerate_K(sys_, (1, 2), x0).points == \
            tuple(brute.brute_K(perms, 4, [2, 2], x0))


@SETTINGS
@given(commuting_systems(max_parts=1))
def test_orbit_orders_of_a_minimal_system_are_its_orders(sys_):
    # _enumerate_rows takes the whole-system orders on a minimal system in
    # place of the per-orbit table; the two agree there
    if is_minimal(sys_).ok:
        assert cube_engine._orbit_orders(sys_).tolist() == \
            [[k] * sys_.n_points for k in sys_.orders]


def test_enumeration_cap_counts_rows_by_orbit(monkeypatch):
    # 12 * 35^2 = 14,700 rows at the whole-system orders; 5^3 + 7^3 = 468
    sys_ = _union_5_7()
    tables = []
    real = cube_engine._pow_table
    monkeypatch.setattr(cube_engine, "_pow_table",
                        lambda p, L: tables.append(L) or real(p, L))
    monkeypatch.setattr(cube_engine, "MAX_ENUM_ROWS", 467)
    with pytest.raises(InputError, match="would produce 468 rows"):
        enumerate_Q(sys_, (1, 2))
    assert tables == []  # the cap is checked before any power table
    monkeypatch.setattr(cube_engine, "MAX_ENUM_ROWS", 468)
    Q = enumerate_Q(sys_, (1, 2))
    assert sorted(tables) == [5, 5, 7, 7]
    perms = [list(p) for p in sys_.perms]
    assert Q.points == tuple(brute.brute_Q(perms, 12, [35, 35]))
    assert enumerate_K(sys_, (1, 2), 11).points == \
        tuple(brute.brute_K(perms, 12, [35, 35], 11))


class _Admitted(Exception):
    pass


def test_the_cap_admits_the_z200_d2_rung(monkeypatch):
    # Z/200 with d = 2 has 200^3 = 8,000,000 rows, the largest ladder rung
    # that verifies within 2 GB and the ladder timeout; one more point is
    # refused.  The kernel is stubbed, so nothing is enumerated.
    def rotation(n):
        return FiniteZdSystem(n, 2, tuple(tuple((x + s) % n for x in range(n))
                                          for s in (1, 7)))

    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(kernels, "enumerate_blocks", admitted)
    with pytest.raises(_Admitted):
        enumerate_Q(rotation(200), (1, 2))
    with pytest.raises(InputError,
                       match=r"would produce 8120601 rows \(limit 8000000\)"):
        enumerate_Q(rotation(201), (1, 2))


def _sorted_product_order(sys_, dirs, bases):
    """The cube tuples over dirs of the bases, each under the orders on its
    own orbit, with the exponents in the kernel's product order
    (exponents=None), then sorted and deduped."""
    orders = cube_engine._orbit_orders(sys_)
    blocks = [kernels.enumerate_blocks(
        [cube_engine._pow_table(sys_.perms[j - 1], int(orders[j - 1, x]))
         for j in dirs], np.array([x], dtype=np.int32)) for x in bases]
    return np.unique(np.concatenate(blocks), axis=0)


@SETTINGS
@given(st.one_of(commuting_systems(), _d4_systems()), st.data())
def test_enumeration_is_the_sorted_product_order_enumeration(sys_, data):
    # unions of parts with unequal orders, at d = 1..4, over every
    # direction order
    dirs = tuple(data.draw(st.permutations(range(1, sys_.d + 1))))
    x0 = data.draw(st.integers(0, sys_.n_points - 1))
    every = range(sys_.n_points)
    assert enumerate_Q(sys_, dirs).rows.tolist() == \
        _sorted_product_order(sys_, dirs, every).tolist()
    assert enumerate_K(sys_, dirs, x0).rows.tolist() == \
        _sorted_product_order(sys_, dirs, [x0])[:, 1:].tolist()


def _counting_sorts(build):
    """build() and the number of np.argsort and np.lexsort calls it made."""
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort, \
            mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        result = build()
    return result, argsort.call_count + lexsort.call_count


@SETTINGS
@given(st.one_of(commuting_systems(), _d4_systems()), st.data())
def test_enumerated_sets_take_the_certified_path(sys_, data):
    # the kernel's rows are sorted and distinct, so CubeSet keeps them
    # without a sort; the same rows shuffled, or repeated next to each
    # other, are sorted and deduped to the same set
    dirs = tuple(data.draw(st.permutations(range(1, sys_.d + 1))))
    x0 = data.draw(st.integers(0, sys_.n_points - 1))
    for bases, based in ((np.arange(sys_.n_points, dtype=np.int32), False),
                         (np.array([x0], dtype=np.int32), True)):
        rows = cube_engine._enumerate_rows(sys_, dirs, bases)[:, int(based):]
        cubes, sorts = _counting_sorts(
            lambda: CubeSet(dirs, rows, based=based, base=sys_))
        assert sorts == 0
        assert cubes.rows.flags.c_contiguous and not cubes.rows.flags.writeable
        assert cubes.rows.tolist() == np.unique(rows, axis=0).tolist()
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        order = rng.permutation(len(rows))
        repeat = data.draw(st.integers(0, len(rows) - 1))
        for other, want in (
                (rows[order], int((order != np.arange(len(rows))).any())),
                (np.insert(rows, repeat, rows[repeat], axis=0), 1)):
            again, sorts = _counting_sorts(
                lambda: CubeSet(dirs, other, based=based, base=sys_))
            assert again.rows.tolist() == cubes.rows.tolist()
            assert np.array_equal(again.index.keys, cubes.index.keys)
            assert sorts == want


@pytest.mark.parametrize("rows,certified", [
    ([[0, 5, 9, 9], [0, 6, 0, 0], [1, 0, 0, 0]], True),
    ([[0, 5, 9, 9], [0, 5, 9, 9], [1, 0, 0, 0]], False),  # a repeat
    ([[0, 6, 0, 0], [0, 5, 9, 9], [1, 0, 0, 0]], False),  # out of order
    ([[0, 5, 9, 9], [1, 0, 0, 0], [0, 6, 0, 0]], False),
    ([[-7, 0, 1, 1]], True),
])
def test_rows_past_int64_keys_are_certified_in_order(rows, certified):
    # values 2^18 apart over four columns pass the int64 keys, so the rows
    # are keyed by the ranks of their column chunks; sorted, distinct rows
    # skip the sort there too
    rows = np.array(rows, dtype=np.int64) * (1 << 18)
    cubes, sorts = _counting_sorts(lambda: CubeSet((1, 2), rows))
    assert cubes.index.keys.dtype == np.int64
    assert sorts == (not certified)
    assert cubes.rows.tolist() == np.unique(rows, axis=0).tolist()


def test_sorted_raw_rows_with_repeats_are_deduped():
    # raw rows with negative values, sorted, with a row repeated at the end
    rows = np.array([[-3, 0, 1, 2], [-1, 5, 5, 5], [2, 2, 2, 2], [2, 2, 2, 2]])
    cubes = CubeSet((1, 2), rows)
    assert cubes.rows.tolist() == rows[:3].tolist()
    assert len(cubes.index.keys) == 3
    # sorted rows are kept through a read-only view of the caller's array
    distinct = rows[:3].astype(np.int32)
    cubes = CubeSet((1, 2), distinct)
    assert cubes.rows.tolist() == distinct.tolist()
    assert not cubes.rows.flags.writeable and distinct.flags.writeable


# ---------------------------------------------------------------------------
# derived objects built once


def test_discrete_quotient_shares_the_memo(systems):
    sys_ = systems["rot6"]  # unique completion: R is the diagonal
    Q = enumerate_Q(sys_, (1, 2))
    diagonal, pi = quotient(sys_, PairRelation.diagonal(sys_.n_points))
    assert pi.mapping == tuple(range(sys_.n_points))
    assert diagonal.perms == sys_.perms
    assert enumerate_Q(diagonal, (1, 2)) is Q
    q_sys, _ = maximal_ucpp_factor(sys_)
    assert enumerate_Q(q_sys, (1, 2)) is Q
    assert compute_R(q_sys) is compute_R(sys_)
    parent = systems["z4xz3"]
    coarse, _ = maximal_trivial_H_factor(parent, SubgroupSpec((1,)))
    assert coarse._memo is not parent._memo
    assert enumerate_Q(coarse, (1, 2)).base is coarse


def test_ucpp_scans_each_cube_set_once(fixture_dir, monkeypatch):
    scanned = []
    real = cube_engine._ucpp_scan
    monkeypatch.setattr(cube_engine, "_ucpp_scan",
                        lambda cubes: scanned.append(cubes) or real(cubes))
    _, code = cmd_verify(str(fixture_dir / "rot12.fsys"))
    assert code == 0 and scanned
    assert len({id(c) for c in scanned}) == len(scanned)
    before = len(scanned)
    Q = CubeSet((1, 2), scanned[0].rows)
    assert ucpp_check(Q) == ucpp_check(Q) == ucpp_check(scanned[0])
    assert scanned[before:] == [Q]


def test_contains_on_a_based_set_short_of_the_last_point(systems):
    sys_ = systems["nonmin_z4z2"]
    K = enumerate_K(sys_, (1, 2), 0)
    top = int(K.rows.max())
    assert top < sys_.n_points - 1
    assert tuple(K.rows[0].tolist()) in K
    for v in (top + 1, sys_.n_points - 1, sys_.n_points, 2**40, -1):
        assert (v,) * K.width not in K
        assert (v,) + tuple(K.rows[0, 1:].tolist()) not in K


def test_tuples_of_non_integers_are_not_members(systems):
    # as a wrong-width tuple is not; so face_group_orbit refuses such a
    # start as it refuses any non-member
    Q = enumerate_Q(systems["rot6"], (1, 2))
    row = tuple(Q.rows[0].tolist())
    assert row in Q
    for p in ((0.5,) + row[1:], tuple(map(float, row)), tuple(map(str, row)),
              row + (0,)):
        assert p not in Q
    with pytest.raises(InputError, match="^start point is not in the cube set$"):
        face_group_orbit(Q, (0.5,) + row[1:])
