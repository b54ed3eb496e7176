"""The five-way agreement, relative independence, factor isomorphisms,
decomposition injectivity and cube-set text against the scalar reference
loops: identical verdicts, counts and first witnesses, on the fixtures, on
random commuting systems, and on planted failures: cube sets with rows
lost or added, quotients that are too coarse, too fine, by another
direction or mislabelled, a shifted target set, and side projections that
merge points."""

import dataclasses
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_batteries as ref
from conftest import ALL_FSYS
from test_array_batteries import _join_spy, _surgery, _z2_power
from test_relations import BRUTE_BUDGET, SETTINGS, brute, commuting_systems
from zdcubes import _text, battery, structure
from zdcubes.cube_engine import (INT32, CubeSet, UcppResult, enumerate_K,
                                 enumerate_Q, row_keys)
from zdcubes.finite_system import FactorMap, FiniteZdSystem
from zdcubes.hypercube import face
from zdcubes.proximal import sections
from zdcubes.structure import (_injectivity, decompose,
                               factor_isomorphism_check,
                               relative_independence_check)


def _as_sets(Q):
    return {x: frozenset(map(tuple, Q.rows[r, 1:].tolist()))
            for x, r in sections(Q).items()}


def _assume_hypotheses(dec):
    """The decomposition with its gate forced open, so that relative
    independence runs on whatever K holds."""
    return dataclasses.replace(dec, ucpp=UcppResult(ok=True), minimal=True)


def _relative_independence(dec):
    """relative_independence_check(dec), which must equal the reference and
    its own result with the count certificate switched off, and must run
    the candidate join exactly when it fails."""
    with pytest.MonkeyPatch.context() as mp:
        joins = _join_spy(mp, structure)
        got = relative_independence_check(dec)
        assert bool(joins) == (got.status == "fail")
        mp.setattr(structure, "_complete_once", lambda *args: False)
        assert relative_independence_check(dec) == got
    assert got == ref.relative_independence_check(dec)
    return got


def _same_everywhere(sys_):
    """Every array battery of this file against its reference on sys_."""
    Q = enumerate_Q(sys_, tuple(range(1, sys_.d + 1)))
    assert _as_sets(Q) == ref.sections(Q)
    assert battery.five_way_battery(sys_) == ref.five_way_battery(sys_)
    assert Q.to_text() == ref.to_text(Q)
    if sys_.d < 2:
        return
    dec = decompose(sys_, 0)
    assert (dec.injective, dec.injectivity_witness) == \
        ref.injectivity(dec.K, dec.side_projections)
    assert dec.K.to_text() == ref.to_text(dec.K)
    for d in (dec, _assume_hypotheses(dec)):
        _relative_independence(d)
    for j in range(1, sys_.d + 1):
        assert factor_isomorphism_check(sys_, 0, j) == \
            ref.factor_isomorphism_check(sys_, 0, j)


@pytest.mark.parametrize("name", ALL_FSYS)
def test_fixtures_match_scalar_loops(systems, name):
    _same_everywhere(systems[name])


@SETTINGS
@given(commuting_systems(max_parts=2, max_modulus=4))
def test_random_systems_match_scalar_loops(sys_):
    _same_everywhere(sys_)
    with pytest.MonkeyPatch.context() as mp:
        _corrupt_Q(mp, CORRUPTIONS["every-third"])
        assert battery.five_way_battery(sys_) == ref.five_way_battery(sys_)
    if sys_.d < 2:
        return
    dec = decompose(sys_, 0)
    for K in _planted_K(dec.K):
        _relative_independence(_assume_hypotheses(dataclasses.replace(dec, K=K)))
    for how in ("coarse", "fine", "other", "relabelled"):
        with pytest.MonkeyPatch.context() as mp:
            _plant_quotient(mp, how)
            for j in range(1, sys_.d + 1):
                assert factor_isomorphism_check(sys_, 0, j) == \
                    ref.factor_isomorphism_check(sys_, 0, j)


def test_wide_rows_match_scalar_loops():
    # (Z/2)^4: tuples of width 16 over 16 points overflow int64 row keys
    _same_everywhere(_z2_power(4))


def test_small_chunks_do_not_change_witnesses(systems, monkeypatch):
    monkeypatch.setattr(battery, "PAIR_CHUNK", 7)
    monkeypatch.setattr(structure, "COMBO_CHUNK", 5)
    monkeypatch.setattr(_text, "TEXT_CHUNK", 7)
    for name in ("rot6", "z4xz3", "rot8_d3", "nonmin_z4z2"):
        _same_everywhere(systems[name])
    dec = decompose(systems["rot6"], 0)
    K = dec.K
    for rows in (np.delete(K.rows, len(K) // 2, axis=0), K.rows[::2]):
        _relative_independence(_assume_hypotheses(dataclasses.replace(
            dec, K=CubeSet(K.dirs, rows, True, K.base))))


# ---------------------------------------------------------------------------
# planted failures


def _planted_K(K):
    """K with its first, middle or last row dropped, every other row
    dropped, or copies of some rows given another value in one of the
    coordinates that side values or completions are read from."""
    rows = K.rows
    out = [np.delete(rows, i, axis=0) for i in (0, len(rows) // 2, len(rows) - 1)]
    out.append(rows[::2])
    full = (1 << K.k) - 1
    for col in [(full ^ 1) - 1, full - 1]:
        changed = rows[::3].copy()
        changed[:, col] = (changed[:, col] + 1) % (rows.max() + 1)
        out.append(np.concatenate([rows, changed]))
    return [CubeSet(K.dirs, r, True, K.base) for r in out]


@pytest.mark.parametrize("name", ["rot6", "z4xz3", "rot12", "rot8_d3",
                                  "z2z2z3_d3", "affine25"])
def test_relative_independence_witness_on_planted_K(systems, name):
    dec = decompose(systems[name], 0)
    assert _relative_independence(dec).status == "pass"
    statuses = [_relative_independence(dataclasses.replace(dec, K=K)).status
                for K in _planted_K(dec.K)]
    # a copy of rows with another last coordinate completes twice; with
    # d = 2 nothing is pinned, every point tries every pair of side values,
    # and a dropped row leaves one of them without a completion
    assert statuses[-1] == "fail"
    if systems[name].d == 2:
        assert statuses[:3] == ["fail"] * 3


def test_relative_independence_counts_completions(systems):
    # a copy of the first row with another last coordinate completes twice
    dec = decompose(systems["rot6"], 0)
    rows = dec.K.rows
    extra = rows[:1].copy()
    extra[0, -1] = (extra[0, -1] + 1) % 6
    K = CubeSet(dec.K.dirs, np.concatenate([rows, extra]), True, dec.K.base)
    got = _relative_independence(dataclasses.replace(dec, K=K))
    assert got.witness == (tuple(rows[0].tolist()), (0, 0), "2 completions")


def _corrupt_Q(monkeypatch, change):
    """enumerate_Q of the batteries and their reference gives the rows
    change(Q) instead; the relations still come from the intact set."""
    real = enumerate_Q

    def corrupted(sys, dirs, **kw):
        Q = real(sys, dirs, **kw)
        return CubeSet(Q.dirs, change(Q), base=Q.base)

    for module in (battery, ref):
        monkeypatch.setattr(module, "enumerate_Q", corrupted)


def _last_diagonal_dropped(Q):
    return Q.rows[(Q.rows != Q.rows[-1, 0]).any(axis=1)]


def _tail_shared(Q):
    """Q with the last non-constant tail over the last point also placed
    over point 0."""
    rows = Q.rows
    varied = (rows[:, 1:] != rows[:, 1:2]).any(axis=1)
    tail = rows[varied & (rows[:, 0] == rows[-1, 0])][-1, 1:]
    return np.concatenate([rows, [[0] + tail.tolist()]])


CORRUPTIONS = {
    "first": lambda Q: Q.rows[1:],
    "every-third": lambda Q: np.delete(Q.rows, np.arange(1, len(Q), 3), axis=0),
    "last-diagonal": _last_diagonal_dropped,
    "shared-tail": _tail_shared,
}


@pytest.mark.parametrize("chunk", [7, battery.PAIR_CHUNK])
@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
@pytest.mark.parametrize("name", ["rot6", "z4xz3", "rot8_d3", "affine25"])
def test_five_way_witness_on_corrupted_Q(systems, monkeypatch, name, how,
                                         chunk):
    sys_ = systems[name]
    n = sys_.n_points
    monkeypatch.setattr(battery, "PAIR_CHUNK", chunk)
    _corrupt_Q(monkeypatch, CORRUPTIONS[how])
    got = battery.five_way_battery(sys_)
    assert not got[0]
    assert got == ref.five_way_battery(sys_)
    if how == "last-diagonal":
        assert got == (False, n * n, [n - 1, n - 1, [True, False, True, True,
                                                      True]])
    if how == "shared-tail":
        # the sections of 0 and n - 1 meet but differ, outside every R_j
        assert got == (False, n, [0, n - 1, [False, False, True, False,
                                            False]])


def _face_variants(Q):
    """Rows for Q: every third row dropped; copies of every third row with
    another last coordinate; copies of every other row with the upper
    1-face of the row after it, so that faces pair up anew; and Q without
    the rows whose lower 1-face is related to its first row's, which keeps
    direction 1 an equivalence where Q's was one."""
    rows, n = Q.rows, Q.base.n_points
    low, high = (face(Q.k, 1, b) for b in (0, 1))
    changed = rows[::3].copy()
    changed[:, -1] = (changed[:, -1] + 1) % n
    shared = rows[:-1:2].copy()
    shared[:, high] = rows[1::2][:, high]
    lower, upper = (row_keys(rows[:, c], n) for c in (low, high))
    return [np.delete(rows, np.arange(1, len(rows), 3), axis=0),
            np.concatenate([rows, changed]),
            np.concatenate([rows, shared]),
            rows[~np.isin(lower, upper[lower == lower[0]])]]


@SETTINGS
@given(commuting_systems(max_parts=2, max_modulus=4))
def test_face_certificate_matches_the_pair_joins_on_random_systems(sys_):
    for i in range(4):
        with pytest.MonkeyPatch.context() as mp:
            _corrupt_Q(mp, lambda Q, i=i: _face_variants(Q)[i])
            _surgery(sys_)


def _plant_quotient(monkeypatch, how):
    """maximal_trivial_H_factor, as the factor isomorphisms and their
    reference call it, gives a coarser, finer, other or relabelled
    quotient."""
    real = structure.maximal_trivial_H_factor

    def planted(sys, H):
        if how == "coarse":  # every direction collapsed
            H = structure.SubgroupSpec(dirs=tuple(range(1, sys.d + 1)))
        if how == "fine":  # nothing collapsed
            H = structure.SubgroupSpec()
        if how == "other":  # the next direction collapsed instead
            H = structure.SubgroupSpec(dirs=(H.dirs[0] % sys.d + 1,))
        q_sys, pi = real(sys, H)
        if how == "relabelled" and q_sys.n_points > 1:
            swap = np.arange(q_sys.n_points)
            swap[[0, 1]] = [1, 0]
            pi = FactorMap(pi.source, q_sys,
                           tuple(swap[np.asarray(pi.mapping)].tolist()))
        return q_sys, pi

    for module in (structure, ref):
        monkeypatch.setattr(module, "maximal_trivial_H_factor", planted)


@pytest.mark.parametrize("how", ["coarse", "fine", "other", "relabelled"])
@pytest.mark.parametrize("name", ["rot6", "z4xz3", "rot8_d3", "z2z2z3_d3"])
def test_factor_isomorphism_witness_on_planted_quotients(systems, monkeypatch,
                                                         name, how):
    sys_ = systems[name]
    _plant_quotient(monkeypatch, how)
    results = []
    for j in range(1, sys_.d + 1):
        got = factor_isomorphism_check(sys_, 0, j)
        assert got == ref.factor_isomorphism_check(sys_, 0, j)
        results.append(got)
    assert not all(r.ok for r in results)
    assert all(r.witness for r in results if not r.ok)


@pytest.mark.parametrize("name", ["rot6", "rot8_d3"])
def test_factor_isomorphism_witness_on_shifted_target(systems, monkeypatch,
                                                      name):
    # the cube set over the remaining directions moved by x -> x + 1 mod n
    # off vertex 0: as many tuples as classes, but not the image of the
    # projection (these rotations keep it a face-invariant set)
    sys_ = systems[name]
    n = sys_.n_points
    decompose(sys_, 0)
    real_K, real_Q = enumerate_K, enumerate_Q

    def shifted_K(sys, dirs, x0):
        K = real_K(sys, dirs, x0)
        if len(dirs) == sys.d:
            return K
        return CubeSet(K.dirs, (K.rows + 1) % n, True, K.base)

    def shifted_Q(sys, dirs):
        Q = real_Q(sys, dirs)
        if len(dirs) == sys.d:
            return Q
        return CubeSet(Q.dirs, np.concatenate(
            [Q.rows[:, :1], (Q.rows[:, 1:] + 1) % n], axis=1), base=Q.base)

    for module in (structure, ref):
        monkeypatch.setattr(module, "enumerate_K", shifted_K)
        monkeypatch.setattr(module, "enumerate_Q", shifted_Q)
    witnesses = []
    for j in range(1, sys_.d + 1):
        got = factor_isomorphism_check(sys_, 0, j)
        assert got == ref.factor_isomorphism_check(sys_, 0, j)
        witnesses.append(got.witness or "")
    assert any(w.endswith("restricted tuples") for w in witnesses)


@pytest.mark.parametrize("name", ["rot6", "z4xz3", "rot8_d3", "nonmin_z4z2"])
def test_injectivity_witness_on_merged_sides(systems, name):
    dec = decompose(systems[name], 0)
    for j in range(len(dec.side_projections)):
        # side j sends every point to one value, the others keep theirs
        sides = list(dec.side_projections)
        side = sides[j]
        one = FiniteZdSystem(1, side.system.d, ((0,),) * side.system.d)
        sides[j] = dataclasses.replace(
            side, from_face=FactorMap(dec.Y, one, (0,) * len(dec.K)))
        got = _injectivity(dec.K, sides)
        assert got == ref.injectivity(dec.K, sides)
    lonely = [dataclasses.replace(
        s, from_face=FactorMap(dec.Y, one, (0,) * len(dec.K)))
        for s in dec.side_projections]
    got = _injectivity(dec.K, lonely)
    assert got == ref.injectivity(dec.K, lonely)
    assert got == (False, (dec.K.points[0], dec.K.points[1]))


# ---------------------------------------------------------------------------
# the text form


@pytest.mark.parametrize("chunk", [7, 64, _text.TEXT_CHUNK])
def test_text_matches_join(monkeypatch, chunk):
    monkeypatch.setattr(_text, "TEXT_CHUNK", chunk)
    rng = np.random.default_rng(11)
    i32 = np.iinfo(np.int32)
    sets = [
        CubeSet((1, 2), rng.integers(-12, 300, size=(50, 4))),
        CubeSet((1, 2), rng.integers(0, 3, size=(20, 3)), based=True),
        CubeSet((2,), [[i32.min, i32.max], [-1, 0], [7, i32.min]]),
        CubeSet((1, 2, 3), np.empty((0, 8), dtype=np.int32)),
        CubeSet((3, 1), [[5] * 4]),
        # no rows, keyed by a structured view: 300^8 passes int64
        CubeSet((1, 2, 3), np.empty((0, 8), dtype=np.int32),
                base=FiniteZdSystem(300, 3, np.tile(np.arange(300), (3, 1)))),
    ]
    for cs in sets:
        text = ref.to_text(cs)
        assert cs.to_text() == text
        assert cs.text_sha256() == hashlib.sha256(text.encode()).hexdigest()
        assert CubeSet.from_text(text).points == cs.points


@SETTINGS
@given(commuting_systems())
def test_census_text_matches_brute_force(sys_):
    orders = [brute.perm_order(list(p)) for p in sys_.perms]
    if sys_.n_points * math.prod(orders) << sys_.d > BRUTE_BUDGET:
        return
    perms = [list(p) for p in sys_.perms]
    dirs = tuple(range(1, sys_.d + 1))
    sets = [(enumerate_Q(sys_, dirs), brute.brute_Q(perms, sys_.n_points, orders))]
    sets += [(enumerate_K(sys_, dirs, x0),
              brute.brute_K(perms, sys_.n_points, orders, x0))
             for x0 in (0, sys_.n_points - 1)]
    for cubes, points in sets:
        text = brute.cube_text(points, dirs)
        assert cubes.to_text() == text
        assert cubes.text_sha256() == brute.sha(text)


@st.composite
def int_rows(draw):
    """Up to 12 rows of width 1..5 around a centre: 0, an int32 bound or
    near +-2^62, spread narrowly (one table entry per value in the range)
    or widely (one entry per value that occurs)."""
    width = draw(st.integers(1, 5))
    centre = draw(st.sampled_from([0, -(1 << 62), 1 << 62, INT32.min, INT32.max]))
    spread = draw(st.sampled_from([2, 40, 1 << 40]))
    values = st.integers(centre - spread, centre + spread)
    rows = draw(st.lists(st.lists(values, min_size=width, max_size=width),
                         max_size=12))
    return np.array(rows, dtype=np.int64).reshape(-1, width)


@settings(SETTINGS, max_examples=200)
@given(int_rows(), st.sampled_from([1, 7, 64, _text.TEXT_CHUNK]))
def test_text_chunks_match_a_plain_join(rows, chunk):
    want = "".join(["h\n", *(",".join(map(str, r)) + "\n" for r in rows.tolist())])
    with mock.patch.object(_text, "TEXT_CHUNK", chunk):
        assert b"".join(_text._text_chunks("h", rows)) == want.encode()
