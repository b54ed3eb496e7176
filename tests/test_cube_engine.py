import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdcubes.cube_engine import (
    CubeSet,
    digit_permute_point,
    duplicate,
    enumerate_K,
    enumerate_Q,
    face_group_orbit,
    glue,
    insert,
    project,
    reflect_point,
    section_of,
    ucpp_check,
)
from zdcubes.errors import InputError
from zdcubes.finite_system import parse_finite_system
from zdcubes.hypercube import FaceSelector


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


def test_enumeration_threads_clamped_to_cpu_count(systems, monkeypatch):
    from zdcubes import cube_engine

    workers = []

    class Recording(cube_engine.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(cube_engine, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(cube_engine.os, "cpu_count", lambda: 2)
    sys_ = systems["rot6"]
    want = enumerate_Q(sys_, (1, 2))
    assert enumerate_Q(sys_, (1, 2), threads=5).points == want.points
    assert workers == [2]


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
# surgery, unit examples


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
    orb = face_group_orbit(Q, Q.points[0])
    assert set(orb.points) == set(Q.points)


def test_face_group_orbit_proper_on_nonminimal(systems):
    sys_ = systems["nonmin_z4z2"]
    Q = enumerate_Q(sys_, (1, 2))
    orb = face_group_orbit(Q, Q.points[0])
    assert len(orb) < len(Q)


def test_section_consistency(systems, oracle):
    Q = enumerate_Q(systems["rot6"], (1, 2))
    K = enumerate_K(systems["rot6"], (1, 2), 0)
    sec = section_of(Q, 0)
    assert sec.points == K.points
    assert sec.text_sha256() == oracle["fixtures"]["rot6"]["K0_sha256"]
