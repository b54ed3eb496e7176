"""The two hot kernels, as whole-array numpy operations.

enumerate_blocks expands base points into cube tuples through per-direction
power tables, gathering each column once per distinct choice of the
exponents it depends on; given each base point's exponents ordered by
their images, its rows come out sorted and distinct.  template_scan reads
coordinate pairs off the cube tuples that match a template.  Both are
deterministic, so enumeration output does not depend on how the caller
splits the base points.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def enumerate_blocks(tables: list[np.ndarray], bases: np.ndarray,
                     exponents: list[np.ndarray] | None = None) -> np.ndarray:
    """int32[B*R, 2^k], R = L_1 ... L_k, whose row b*R + r is the cube tuple
    of base point bases[b] with the r-th exponent vector (e_1..e_k) in
    itertools.product order (e_k varies fastest), in canonical vertex order
    (direction 1 varies fastest).  tables[i] is the int32[L_i, n] power
    table of direction i: row e is T^e.  exponents[i] is an int[B, L_i]
    array whose row b lists the exponents of direction i for base b in the
    order they are taken; without it every base takes 0..L_i-1.

    Column c + 2^i, for c < 2^i, is T_i^{e_i} of column c, so it depends
    only on the base and the exponents of the directions set in c + 2^i.
    Each column is gathered over those axes of a (B, L_1, .., L_k) grid and
    broadcast over the others.  Column 2^i is T_i^{e_i} of the base, and it
    determines e_i when e_i runs below the order of T_i on the base's
    orbit; so when every row of exponents[i] is ordered by the image
    T_i^e of its base, a block of increasing bases comes out in
    lexicographic row order, without repeats."""
    k = len(tables)
    out = np.empty((len(bases), *map(len, tables), 1 << k), dtype=np.int32)
    cols = [np.asarray(bases).reshape(-1, *[1] * k)]
    for i, table in enumerate(tables):
        if exponents is None:
            e = np.arange(len(table)).reshape(-1, *[1] * (k - 1 - i))
        else:
            e = exponents[i].reshape(len(bases), *[1] * i, -1,
                                     *[1] * (k - 1 - i))
        cols += [table[e, col] for col in cols]
    for c, col in enumerate(cols):
        out[..., c] = col
    return out.reshape(-1, 1 << k)


def template_scan(points: np.ndarray, eq_pairs, x_pos: int,
                  y_pos: int) -> np.ndarray:
    """int32[m, 2] of (row[x_pos], row[y_pos]) for the rows of points where
    every coordinate pair (a, b) of eq_pairs has row[a] == row[b], in row
    order, with repeats."""
    hit = np.ones(len(points), dtype=bool)
    for a, b in np.asarray(eq_pairs).reshape(-1, 2).tolist():
        hit &= points[:, a] == points[:, b]
    return points[np.ix_(hit, [x_pos, y_pos])]
