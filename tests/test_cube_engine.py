import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_batteries import (FaceSelector, digit_permute_point, duplicate,
                              glue, insert, project, reflect_point)
from test_relations import BRUTE_BUDGET, SETTINGS, brute, commuting_systems
from zdcubes import cube_engine
from zdcubes.cli import cmd_verify
from zdcubes.cube_engine import (
    CubeSet,
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
