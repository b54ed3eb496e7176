"""Array primitives on sorted int rows and their keys (row_keys in
cube_engine is the range-checked public form of _row_keys): keying rows,
sorting them by key with repeats dropped, numbering keys densely, looking
keys up, finding a repeat, walking ranks in chunks, and closing a set of
rows under maps by doubling (the orbit searches of affine discretization
and product realization).

A row key is one int64, ordered as the rows are.  Keys of rows too wide
for a mixed-radix key rank chunks among the rows keyed, so they compare
only within one call, or against one RowIndex, which keys queries alike.
"""

from __future__ import annotations

import numpy as np

# _dense_ids masks a key space of at most this many slots per key; past
# it, on random int64 keys, the sort is faster
DENSE_RATIO = 8


def _invert(table: np.ndarray) -> np.ndarray:
    """The inverse of each row of a permutation table, by one argsort."""
    return np.argsort(table, axis=1)


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) by a sort and an adjacent compare: numpy 2.4 hashes
    integers in a plain np.unique call, 20-31 times slower."""
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _dense_ids(keys: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, ids) equal to np.unique(keys, return_inverse=True) for
    keys in 0..space-1: the sorted distinct keys and each key's position
    among them.

    When the space holds at most DENSE_RATIO slots per key, a bool mask of
    the space marks the keys, np.flatnonzero lists them in order, and a
    rank table, written only at those keys, numbers them; no sort runs.
    A larger space, such as wide rows' chunk keys have, is sorted."""
    if space > DENSE_RATIO * len(keys):
        return np.unique(keys, return_inverse=True)
    seen = np.zeros(space, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    rank = np.empty(space, dtype=np.intp)
    rank[distinct] = np.arange(len(distinct))
    return distinct.astype(keys.dtype, copy=False), rank[keys]


def _row_keys(rows: np.ndarray, n: int, tables: list | None = None,
              lookup: bool = False) -> np.ndarray:
    """row_keys without its range check, for rows known to lie in 0..n-1.

    Rows too wide for a mixed-radix key are cut into balanced column chunks
    whose keys fit (a one-column chunk is its values, Python ints too); each
    chunk key becomes its rank in the chunk's sorted distinct keys, its
    table, and the rows of ranks are keyed in turn.  tables receives the
    tables, chunk by chunk; with lookup set, it holds an earlier call's,
    which rank the chunks instead, and a row with a chunk missing from its
    table gets a negative key, which no row of that call has."""
    rounds = iter(tables) if lookup else None
    while n ** rows.shape[1] >= 1 << 63:
        ranked, m = [], 0  # m: the radix of the ranks, the largest table
        for c in np.array_split(np.arange(rows.shape[1]),
                                -(-rows.shape[1] // max(1, 63 // n.bit_length()))):
            chunk = rows[:, c[0]] if len(c) == 1 else _row_keys(rows[:, c], n)
            if lookup:
                table = next(rounds)
                ranks, found = _find_keys(table, chunk)
                ranks[~found] = -1
            else:
                table, ranks = _dense_ids(chunk, n ** len(c))
                if tables is not None:
                    tables.append(table)
            ranked.append(ranks)
            m = max(m, len(table))
        rows, n = np.stack(ranked, axis=1), m
        if lookup:  # all -1, so that the key is negative, not another row's
            rows[(rows < 0).any(axis=1)] = -1
    keys = np.zeros(len(rows), dtype=np.int64)
    for c in range(rows.shape[1]):
        keys *= n
        keys += rows[:, c]
    return keys


def _distinct_rows(rows: np.ndarray, keys: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(rows, keys) sorted by their row keys with repeats dropped, each
    key's first row kept; rows whose keys already increase come back as
    they are."""
    if _increasing(keys):
        return rows, keys
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return rows[order[keep]], keys[keep]


def _orbit_closure(start: np.ndarray, generators, apply, square, key,
                   cap: int) -> np.ndarray | None:
    """The orbit of the start rows under the generators, as distinct rows
    sorted by key, or None once more than cap rows are found.

    apply(rows, g) gives the images of rows under a generator, square(g)
    gives g∘g, and key(rows) gives row keys, ordered as the rows.  The set
    S of rows found is closed under each generator g in turn by doubling:
    while g(S) is not within S, S grows by g(S) and g becomes g∘g, so a
    cycle of length L takes about log2(L) steps; after m steps S holds the
    images of the set it started from under g^0..g^(2^m - 1), so once
    g^(2^m)(S) lies within S, S is closed under g.  S and g(S) are keyed
    in one call, so that keys ranking column chunks compare, and S becomes
    their distinct rows.  Passes over the generators repeat until none
    adds a row.  The generators permute a finite set, so closing under
    them alone gives the orbit, and S always lies within it: the cap
    refuses exactly the orbits larger than cap."""
    states = _distinct_rows(start, key(start))[0]
    grew = True
    while grew:
        grew = False
        for g in generators:
            while True:
                rows = np.concatenate([states, apply(states, g)])
                rows = _distinct_rows(rows, key(rows))[0]
                if len(rows) == len(states):
                    break
                states = rows
                if len(states) > cap:
                    return None
                g = square(g)
                grew = True
    return states


def _increasing(keys: np.ndarray) -> bool:
    """Whether row keys strictly increase."""
    return bool((keys[1:] > keys[:-1]).all())


def _has_repeat(keys: np.ndarray) -> bool:
    """Whether some key occurs twice, by a plain sort (numpy's SIMD sort on
    int64 keys) and its adjacent pairs."""
    ordered = np.sort(keys)
    return bool((ordered[1:] == ordered[:-1]).any())


def _first_repeat(keys: np.ndarray) -> tuple[int, int] | None:
    """(i, t) for the first index t whose key occurred before, i being the
    first index with that key; None when the keys are distinct.

    Distinct keys are the common answer, and _has_repeat settles it; only a
    repeat pays for the stable argsort that finds the first one."""
    if not _has_repeat(keys):
        return None
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeat = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    # the stable sort keeps each key's indices in order, so the earliest
    # repeat is the second holder of its key and follows the first
    t = repeat[np.argmin(order[repeat])]
    return int(order[t - 1]), int(order[t])


def _find_keys(keys: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position, found) of each query key in the sorted keys."""
    pos = np.searchsorted(keys, q)
    found = np.zeros(len(q), dtype=bool)
    inside = pos < len(keys)
    found[inside] = keys[pos[inside]] == q[inside]
    return pos, found


def _chunked_ranks(counts: np.ndarray, chunk: int):
    """Owner i holds counts[i] consecutive items; yields (owner, rank) index
    arrays for the items in order, chunk at a time."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    starts = ends - counts
    for t0 in range(0, total, chunk):
        t = np.arange(t0, min(t0 + chunk, total))
        owner = np.searchsorted(ends, t, side="right")
        yield owner, t - starts[owner]


def _first(mask: np.ndarray) -> int | None:
    return int(mask.argmax()) if mask.any() else None


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays of one dtype are equal: the same shape and the
    same bytes, a cheaper test than np.array_equal on small arrays."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
