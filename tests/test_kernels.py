from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdcubes import _text, kernels
from zdcubes.cube_engine import _pow_table
from zdcubes.finite_system import FiniteZdSystem, perm_order
from zdcubes.kernels import backend_name

from scalar_return_times import apply_word
from test_relations import SETTINGS, commuting_systems


def _rotation(n, steps):
    return FiniteZdSystem(n, len(steps), tuple(
        tuple((x + s) % n for x in range(n)) for s in steps))


def _word_row(sys_, e, x):
    """The cube tuple of base x and exponents e, one apply_word per
    coordinate: vertex m applies the exponent of every direction whose bit
    is set in m."""
    return [apply_word(sys_, tuple(e[i] if m >> i & 1 else 0
                                   for i in range(len(e))), x)
            for m in range(1 << len(e))]


def _word_rows(sys_, limits, bases):
    """The cube tuples enumerate_blocks should give: bases outermost, then
    the exponent vectors in itertools.product order."""
    return [_word_row(sys_, e, x)
            for x in bases for e in product(*map(range, limits))]


def _blocks(sys_, limits, bases):
    tables = [_pow_table(p, L) for p, L in zip(sys_.perms, limits)]
    rows = kernels.enumerate_blocks(tables, np.array(bases, dtype=np.int32))
    assert rows.dtype == np.int32 and rows.flags.c_contiguous
    assert rows.shape == (len(bases) * int(np.prod(limits)), 1 << len(limits))
    return rows


def test_backend_name_is_known():
    assert backend_name() == "numpy"


def test_enumerate_blocks_row_order():
    # T1 adds 10 and T2 adds 1 on Z/100, so the row of exponents (a, b) over
    # base x is (x, x + 10a, x + b, x + 10a + b): bases outermost, then the
    # exponents in itertools.product order, the last direction fastest
    sys_ = _rotation(100, (10, 1))
    rows = _blocks(sys_, [2, 3], [0, 50])
    assert rows.tolist() == [[x, x + 10 * a, x + b, x + 10 * a + b]
                             for x in (0, 50) for a in range(2) for b in range(3)]


def test_enumerate_blocks_rows_match_word_action(systems):
    for name in ("rot6", "rot8_d3", "nonmin_z4z2"):
        sys_ = systems[name]
        limits = [perm_order(p) for p in sys_.perms]
        bases = list(range(sys_.n_points))
        assert _blocks(sys_, limits, bases).tolist() == \
            _word_rows(sys_, limits, bases), name


@SETTINGS
@given(st.data())
def test_enumerate_blocks_matches_word_action_on_random_systems(data):
    # unions of parts whose generators have unequal orders; the exponents
    # run below limits of their own, and a single base gives K's rows
    sys_ = data.draw(commuting_systems(max_parts=3))
    limits = data.draw(st.lists(st.integers(1, 4), min_size=sys_.d,
                                max_size=sys_.d))
    point = st.integers(0, sys_.n_points - 1)
    for bases in (data.draw(st.lists(point, min_size=1, max_size=4)),
                  [data.draw(point)]):
        assert _blocks(sys_, limits, bases).tolist() == \
            _word_rows(sys_, limits, bases)


@SETTINGS
@given(st.data())
def test_enumerate_blocks_takes_each_base_its_own_exponent_order(data):
    # row b of exponents[i] is the order in which base b takes the
    # exponents of direction i; the rows follow it in product order
    sys_ = data.draw(commuting_systems(max_parts=2))
    limits = data.draw(st.lists(st.integers(1, 4), min_size=sys_.d,
                                max_size=sys_.d))
    bases = data.draw(st.lists(st.integers(0, sys_.n_points - 1), min_size=1,
                               max_size=3))
    exponents = [[data.draw(st.permutations(range(L))) for _ in bases]
                 for L in limits]
    tables = [_pow_table(p, L) for p, L in zip(sys_.perms, limits)]
    rows = kernels.enumerate_blocks(tables, np.array(bases, dtype=np.int32),
                                    [np.array(e, dtype=np.int32) for e in exponents])
    assert rows.tolist() == [
        _word_row(sys_, e, x) for b, x in enumerate(bases)
        for e in product(*(order[b] for order in exponents))]


def test_enumerate_blocks_matches_word_action_with_d4():
    sys_ = _rotation(6, (1, 2, 3, 5))
    limits = [perm_order(p) for p in sys_.perms]
    assert limits == [6, 3, 2, 6]
    bases = list(range(6))
    assert _blocks(sys_, limits, bases).tolist() == _word_rows(sys_, limits, bases)


def _joined(header, rows):
    return "".join([f"{header}\n"] + [",".join(map(str, row)) + "\n"
                                      for row in rows])


@st.composite
def raw_rows(draw):
    """An int array of rows mixing small values of either sign with values
    of up to ten digits, so the digit table is dense or sparse."""
    width = draw(st.integers(1, 8))
    small = st.integers(-120, 120)
    big = st.integers(-(1 << 31), (1 << 31) - 1)
    value = draw(st.sampled_from([small, st.one_of(small, big)]))
    rows = draw(st.lists(st.lists(value, min_size=width, max_size=width),
                         min_size=1, max_size=30))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return np.array(rows, dtype=dtype)


@SETTINGS
@given(raw_rows(), st.sampled_from([_text.TEXT_CHUNK, 7, 64]))
def test_rows_text_matches_joined_rows(rows, chunk):
    with mock.patch.object(_text, "TEXT_CHUNK", chunk):
        assert _text._rows_text("rows", rows) == \
            _joined("rows", rows.tolist())


@pytest.mark.parametrize("lo,hi", [(0, 9), (-9, 9), (100, 999), (0, 999),
                                   (0, 9999), (-999999, 0), (0, 10 ** 7)])
def test_rows_text_cell_widths(lo, hi):
    # cells of 2, 4 and 8 bytes, with and without padding, and wider ones,
    # from dense and sparse tables
    rows = np.random.default_rng(hi).integers(lo, hi + 1, size=(4000, 3))
    rows[0, 0], rows[-1, -1] = lo, hi
    assert _text._rows_text("rows", rows) == _joined("rows", rows.tolist())


def test_rows_text_sparse_range():
    # two values further apart than there are cells: the sparse table
    rows = np.array([[-(1 << 31), 7, 7], [0, -7, (1 << 31) - 1]], dtype=np.int64)
    assert _text._rows_text("rows", rows) == _joined("rows", rows.tolist())
    assert _text._rows_text("rows", rows[:0]) == "rows\n"
