"""Row keys past int64: rows whose n^width does not fit are keyed by the
ranks of their column chunks, round after round, into one int64 key per
row.  The keys order rows as np.lexsort does, a RowIndex finds exactly the
rows of a Python set through its rank tables, and the sites that compare
keys of wide rows (face ids, product orbits) key them in one call.  No
library file builds a structured dtype.  The constructors that key rows
take integer arrays of any dtype and refuse the others."""

import ast
import itertools
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdcubes import battery
from zdcubes._arrays import _orbit_closure
from zdcubes.cube_engine import CubeSet, RowIndex, enumerate_Q, row_keys
from zdcubes.errors import InputError
from zdcubes.finite_system import FiniteZdSystem
from zdcubes.hypercube import face
from zdcubes.return_times import JOIN_CAP, PeriodicSet, _act

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "zdcubes"
BIG = (1 << 64) + 13  # object rows of Python ints past 2^63
# (n, width, rounds): ROWS random rows of this width over 0..n-1 take this
# many rounds of chunk ranks before their rows of ranks fit a mixed-radix key
CASES = [(6, 32, 1), (6, 320, 2), (16, 16, 1), (16, 200, 2), (1000, 8, 1),
         (1000, 96, 2), (1000, 800, 3), (1 << 32, 4, 1), (1 << 32, 20, 2),
         (1 << 32, 160, 3), (BIG, 3, 1), (BIG, 20, 2), (BIG, 160, 3)]
ROWS = 40


def _random_rows(n: int, width: int, count: int, rng: random.Random
                 ) -> np.ndarray:
    values = [[rng.randrange(n) for _ in range(width)] for _ in range(count)]
    return np.array(values, dtype=object if n > 1 << 62 else np.int64)


def _chunks(n: int, width: int) -> list[np.ndarray]:
    """The column chunks of the first round: balanced, and few enough that
    each chunk's mixed-radix key fits in int64."""
    return np.array_split(np.arange(width),
                          -(-width // max(1, 63 // n.bit_length())))


def _rounds(tables: list, n: int, width: int) -> int:
    """The rounds of chunk ranks behind a keying's tables, one table per
    chunk, replayed from their sizes: the ranks of a round have the size
    of its largest table as their radix."""
    rounds = used = 0
    while n ** width >= 1 << 63:
        width = len(_chunks(n, width))
        n = max(len(t) for t in tables[used:used + width])
        used += width
        rounds += 1
    assert used == len(tables)
    return rounds


def _lex_order(rows: np.ndarray) -> list[int]:
    return sorted(range(len(rows)), key=lambda i: tuple(rows[i].tolist()))


@pytest.mark.parametrize("n,width,rounds", CASES)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.integers(0, 1 << 32))
def test_wide_row_keys_and_index_match_python_sets(n, width, rounds, seed):
    rng = random.Random(seed)
    rows = _random_rows(n, width, ROWS, rng)
    half = width // 2  # shared prefixes and suffixes, and repeats
    rows[1::4, :half] = rows[0, :half]
    rows[2::4, half:] = rows[0, half:]
    rows[3::8] = rows[2]

    keys = row_keys(rows, n)
    assert keys.dtype == np.int64
    order = np.argsort(keys, kind="stable")
    assert order.tolist() == _lex_order(rows)
    ordered = rows[order]
    same_row = (ordered[1:] == ordered[:-1]).all(axis=1)
    assert (keys[order][1:] == keys[order][:-1]).tolist() == same_row.tolist()

    members = rows[order[np.r_[True, ~same_row]]]
    index = RowIndex(members, n)
    assert _rounds(index.tables, n, width) == rounds
    assert index.keys.tolist() == sorted(set(index.keys.tolist()))
    held = set(map(tuple, members.tolist()))
    # rows holding a chunk that no member holds in round 1, and rows made
    # of members' chunks, whose chunks are all in the round-1 tables
    fresh = _random_rows(n, width, 20, rng)
    spliced = members[:20].copy()
    for cols in _chunks(n, width):
        spliced[:, cols] = members[[rng.randrange(len(members))
                                    for _ in range(20)]][:, cols]
    # members with the last column lowered by one: the lowered chunk, when
    # missing, sorts just below the member's own in its table
    nudged = members[members[:, -1] > 0]
    nudged[:, -1] -= 1
    queries = np.concatenate([members[::3], fresh, spliced, nudged])
    pos, found = index.find(queries)
    assert found.tolist() == [tuple(q) in held for q in queries.tolist()]
    assert (members[pos[found]] == queries[found]).all()
    assert any(tuple(q) not in held for q in spliced.tolist())

    shuffled = members[rng.sample(range(len(members)), len(members))]
    assert index.same_set(shuffled)
    assert index.same_set(np.concatenate([shuffled, shuffled[:3]]))
    repeated = shuffled.copy()
    repeated[0] = repeated[1]
    assert not index.same_set(repeated)
    outsider = next(q for q in np.concatenate([spliced, fresh])
                    if tuple(q.tolist()) not in held)
    replaced = shuffled.copy()
    replaced[-1] = outsider
    assert not index.same_set(replaced)
    assert not index.same_set(np.concatenate([shuffled, [outsider]]))


def test_face_ids_past_int64_equal_the_scalar_reference():
    # 240 points, d = 4, identity generators: faces of 8 coordinates over
    # 240 points, and 240^8 > 2^63.  Q's two sides hold the same faces; in
    # random tuples over the system they differ, and keys of the two sides
    # taken in separate calls would not compare
    n = 240
    ident = tuple(range(n))
    sys_ = FiniteZdSystem(n, 4, (ident,) * 4)
    Q = enumerate_Q(sys_, (1, 2, 3, 4))
    assert n ** 8 >= 1 << 63 and len(Q) == n
    rng = np.random.default_rng(3)
    raw = CubeSet((1, 2, 3, 4), rng.integers(0, n, size=(300, 16)), base=sys_)
    for cubes, j in itertools.product((Q, raw), range(1, 5)):
        faces = (face(4, j, 0), face(4, j, 1))
        sides = [[tuple(p[m] for m in f) for p in cubes.points] for f in faces]
        distinct = sorted(set(sides[0]) | set(sides[1]))
        rank = {t: i for i, t in enumerate(distinct)}
        lower, upper, count = battery._face_ids(cubes, faces)
        assert lower.tolist() == [rank[t] for t in sides[0]]
        assert upper.tolist() == [rank[t] for t in sides[1]]
        assert count == len(distinct)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_orbit_closure_past_int64_equals_a_breadth_first_search(data):
    # factors Z/m with m dividing 12, so every rotation has order at most
    # 12 and the orbit stays small, over at least 18 factors: 12^18 > 2^63
    radix = 12
    sizes = data.draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 12]),
                               min_size=18, max_size=22))
    steps = data.draw(st.lists(st.lists(st.integers(0, 11), min_size=len(sizes),
                                        max_size=len(sizes)),
                               min_size=1, max_size=3))
    start = [data.draw(st.integers(0, m - 1)) for m in sizes]
    assert radix ** len(sizes) >= 1 << 63
    forward = [[(np.arange(m) + s) % m for m, s in zip(sizes, step)]
               for step in steps]
    seen, todo = {tuple(start)}, [tuple(start)]
    while todo:
        state = todo.pop()
        for g in forward:
            image = tuple(int(p[x]) for p, x in zip(g, state))
            if image not in seen:
                seen.add(image)
                todo.append(image)
    got = _orbit_closure(np.array([start]), forward, _act,
                         lambda g: [p[p] for p in g],
                         lambda rows: row_keys(rows, radix), JOIN_CAP)
    assert got.tolist() == sorted(map(list, seen))


def _structured_dtype_calls(tree: ast.AST):
    """Lines that build a dtype from a field list: np.dtype([...]) or a
    dtype= or .view() argument given as a list, tuple or dict."""
    fields = (ast.List, ast.ListComp, ast.Tuple, ast.Dict, ast.DictComp)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        args = list(node.args) if name in ("dtype", "view") else []
        args += [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if any(isinstance(a, fields) for a in args):
            yield node.lineno


def test_no_library_file_builds_a_structured_dtype():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{line}" for path in files
             for line in _structured_dtype_calls(ast.parse(path.read_text()))]
    assert found == []


# the constructors that key rows take integer ndarrays of any width and
# sign, and refuse the others as CubeSet refuses non-integer tuples
def test_periodic_set_reduces_uint64_residues_exactly():
    top = (1 << 64) - 1
    rows = np.array([[top, 9], [4, 7], [1, 2]], dtype=np.uint64)
    got = PeriodicSet(2, (3, 5), rows)
    assert got.rows.dtype == np.int64
    assert got.rows.tolist() == PeriodicSet(2, (3, 5), rows.tolist()).rows.tolist()
    assert got.rows.tolist() == [[0, 4], [1, 2]]


def test_periodic_set_takes_narrow_integer_residues():
    for dtype in (np.int8, np.uint8, np.int32, np.uint32):
        rows = np.array([[4, 7], [1, 2], [2, 0]], dtype=dtype)
        assert PeriodicSet(2, (3, 5), rows).rows.tolist() == \
            [[1, 2], [2, 0]]


@pytest.mark.parametrize("dtype", [bool, np.float64, object])
def test_periodic_set_refuses_residues_that_are_not_integers(dtype):
    with pytest.raises(InputError, match="residues must hold integers"):
        PeriodicSet(2, (3, 5), np.array([[4, 7], [1, 2]], dtype=dtype))


def test_cube_set_keys_uint64_tuples_in_int32_range():
    rows = np.array([[4, 7], [1, 2]], dtype=np.uint64)
    got = CubeSet((1,), rows)
    assert got.rows.dtype == np.int32
    assert got.points == ((1, 2), (4, 7))
    assert (4, 7) in got and (7, 4) not in got


@pytest.mark.parametrize("dtype", [bool, np.float64, object])
def test_cube_set_refuses_tuples_that_are_not_integers(dtype):
    with pytest.raises(InputError, match="cube tuples must hold integers"):
        CubeSet((1,), np.array([[4, 7], [1, 2]], dtype=dtype))
