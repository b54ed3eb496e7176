"""The two hot kernels, as whole-array numpy operations.

enumerate_blocks expands base points into cube tuples through per-direction
power tables; template_scan reads coordinate pairs off the cube tuples that
match a template.  Both are deterministic, so enumeration output does not
depend on how the caller splits the base points.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def exponent_combos(limits: list[int]) -> np.ndarray:
    """All exponent vectors over prod([0, L_i)) in itertools.product order
    (the last listed direction varies fastest)."""
    grids = np.meshgrid(*[np.arange(L, dtype=np.int32) for L in limits], indexing="ij")
    return np.ascontiguousarray(
        np.stack([g.ravel() for g in grids], axis=1), dtype=np.int32
    )


def enumerate_blocks(tables: list[np.ndarray], combos: np.ndarray,
                     bases: np.ndarray) -> np.ndarray:
    """int32[B*R, 2^k] whose row b*R + r is the cube tuple of base point
    bases[b] with exponents combos[r], in canonical vertex order (direction 1
    varies fastest).  tables[i] is the int32[L_i, n] power table of direction
    i: row e is T^e.  Column block [size, 2*size) is direction i's power
    applied to columns [0, size)."""
    n_combos, k = combos.shape
    out = np.empty((len(bases) * n_combos, 1 << k), dtype=np.int32)
    out[:, 0] = np.repeat(bases, n_combos)
    size = 1
    for i in range(k):
        combo = np.tile(combos[:, i], len(bases))
        out[:, size:2 * size] = tables[i][combo[:, None], out[:, :size]]
        size <<= 1
    return out


def template_scan(points: np.ndarray, eq_pairs, x_pos: int,
                  y_pos: int) -> np.ndarray:
    """int32[m, 2] of (row[x_pos], row[y_pos]) for the rows of points where
    every coordinate pair (a, b) of eq_pairs has row[a] == row[b], in row
    order, with repeats."""
    hit = np.ones(len(points), dtype=bool)
    for a, b in np.asarray(eq_pairs).reshape(-1, 2).tolist():
        hit &= points[:, a] == points[:, b]
    return points[np.ix_(hit, [x_pos, y_pos])]
