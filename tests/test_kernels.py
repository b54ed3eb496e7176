import numpy as np

from zdcubes import kernels
from zdcubes.cube_engine import _pow_table
from zdcubes.finite_system import apply_word, perm_order
from zdcubes.kernels import backend_name, exponent_combos


def test_exponent_combos_order():
    combos = exponent_combos([2, 3])
    # itertools.product order: last coordinate fastest
    assert combos.tolist() == [[0, 0], [0, 1], [0, 2],
                               [1, 0], [1, 1], [1, 2]]


def test_backend_name_is_known():
    assert backend_name() == "numpy"


def test_enumerate_blocks_rows_match_word_action(systems):
    # row layout: for each base point, a block of one row per combo; column
    # m applies exponent combo[i] of direction i for every bit i set in m
    for name in ("rot6", "rot8_d3", "nonmin_z4z2"):
        sys_ = systems[name]
        limits = [perm_order(p) for p in sys_.perms]
        tables = [_pow_table(p, L) for p, L in zip(sys_.perms, limits)]
        combos = exponent_combos(limits)
        bases = np.arange(sys_.n_points, dtype=np.int32)
        rows = kernels.enumerate_blocks(tables, combos, bases)
        assert rows.dtype == np.int32
        assert rows.shape == (len(combos) * len(bases), 1 << sys_.d), name
        for ci in (0, 1, len(combos) // 2, len(combos) - 1):
            for x in (0, sys_.n_points - 1):
                row = rows[x * len(combos) + ci]
                expect = [apply_word(sys_, tuple(int(combos[ci, i]) if m >> i & 1
                                                 else 0 for i in range(sys_.d)), x)
                          for m in range(1 << sys_.d)]
                assert row.tolist() == expect, (name, ci, x)
