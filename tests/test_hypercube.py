import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ALL_FSYS
from scalar_batteries import FaceSelector, face_vertices
from zdcubes.cube_engine import CubeSet, enumerate_K, enumerate_Q, row_keys
from zdcubes.hypercube import (MAX_DIM, Vertex, digit_permute, embed_face, face,
                               flip, restrict)


def test_canonical_order_d2():
    assert [str(Vertex(m, 2)) for m in range(4)] == ["00", "10", "01", "11"]


def test_bit_one_is_least_significant():
    v = Vertex(0b101, 3)
    assert (v.bit(1), v.bit(2), v.bit(3)) == (1, 0, 1)
    assert v.bits == (1, 0, 1)
    assert v.index == 5


def test_vertex_bounds():
    with pytest.raises(ValueError):
        Vertex(4, 2)
    with pytest.raises(ValueError):
        Vertex(-1, 2)


def test_digit_permute_example():
    # sigma = (2, 1) swaps the two digits
    v = Vertex(0b01, 2)  # eps = (1, 0)
    w = digit_permute((2, 1), v)
    assert w.bits == (0, 1)


def test_digit_permute_rejects_non_permutation():
    with pytest.raises(ValueError):
        digit_permute((1, 1), Vertex(0, 2))


@given(st.integers(min_value=1, max_value=5), st.data())
def test_digit_permute_composition_law(d, data):
    perms = list(itertools.permutations(range(1, d + 1)))
    sigma = data.draw(st.sampled_from(perms))
    tau = data.draw(st.sampled_from(perms))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    v = Vertex(mask, d)
    sigma_tau = tuple(sigma[tau[i] - 1] for i in range(d))  # i -> sigma(tau(i))
    lhs = digit_permute(sigma_tau, v)
    rhs = digit_permute(tau, digit_permute(sigma, v))
    assert lhs == rhs


@given(st.integers(min_value=1, max_value=6), st.data())
def test_digit_permute_is_bijection(d, data):
    perms = list(itertools.permutations(range(1, d + 1)))
    sigma = data.draw(st.sampled_from(perms))
    images = {digit_permute(sigma, Vertex(m, d)).mask for m in range(1 << d)}
    assert images == set(range(1 << d))


@given(st.integers(min_value=1, max_value=5), st.data())
def test_embed_then_delete_is_identity(d, data):
    j = data.draw(st.integers(min_value=1, max_value=d + 1))
    b = data.draw(st.integers(min_value=0, max_value=1))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    w = Vertex(mask, d)
    v = embed_face(j, b, w)
    assert v.bit(j) == b
    assert v.bits[:j - 1] + v.bits[j:] == w.bits


def test_embed_face_shifts_later_bits():
    # w = (1, 1) in dim 2; insert 0 at position 1 -> (0, 1, 1)
    assert embed_face(1, 0, Vertex(0b11, 2)).bits == (0, 1, 1)
    # insert 0 at position 2 -> (1, 0, 1)
    assert embed_face(2, 0, Vertex(0b11, 2)).bits == (1, 0, 1)


def test_face_selector_and_vertices():
    sel = FaceSelector(3, ((2, 1),))
    assert sel.free == (1, 3)
    vs = face_vertices(sel)
    assert len(vs) == 4
    assert all(v.bit(2) == 1 for v in vs)
    # canonical order preserved within the face
    assert [v.mask for v in vs] == sorted(v.mask for v in vs)


def test_face_selector_rejects_duplicates():
    with pytest.raises(ValueError):
        FaceSelector(3, ((1, 0), (1, 1)))


def _faces_by_definition(face_fn, d):
    """Whether face_fn(d, j, b) lists the vertices with bit j equal to b,
    ascending, the w-th of them being embed_face(j, b, w), for every j, b."""
    for j in range(1, d + 1):
        for b in (0, 1):
            want = [m for m in range(1 << d) if Vertex(m, d).bit(j) == b]
            if d > 1 and want != [embed_face(j, b, Vertex(w, d - 1)).mask
                                  for w in range(1 << (d - 1))]:
                return False
            if face_fn(d, j, b) != want:
                return False
    return True


@pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
def test_face_and_flip_follow_the_vertex_bits(d):
    assert _faces_by_definition(face, d)
    for j in range(1, d + 1):
        flipped = flip(d, j)
        for m in range(1 << d):
            bits = Vertex(m, d).bits
            assert Vertex(flipped[m], d).bits == tuple(
                e ^ (i == j) for i, e in enumerate(bits, 1))


def test_a_face_off_by_one_is_caught():
    shifted = lambda d, j, b: [m for m in range(1 << d) if (m >> j) & 1 == b]
    no_zero = lambda d, j, b: [m for m in range(1, 1 << d)
                               if (m >> (j - 1)) & 1 == b]
    for mutant in (shifted, no_zero):
        assert not all(_faces_by_definition(mutant, d)
                       for d in range(1, MAX_DIM + 1))


@pytest.mark.parametrize("d", range(1, 6))
def test_restrict_reads_the_chosen_bits(d):
    for k in range(1, d + 1):
        for dirs in itertools.permutations(range(1, d + 1), k):
            got = restrict(d, dirs)
            for m in range(1 << d):
                assert Vertex(got[m], k).bits == tuple(Vertex(m, d).bit(j)
                                                       for j in dirs)
            if k == d:
                assert got == [digit_permute(dirs, Vertex(m, d)).mask
                               for m in range(1 << d)]


def _raw_sets():
    rng = np.random.default_rng(7)
    return [
        CubeSet((1, 2), [[-3, 5, 0, -1], [2, 2, -7, 4], [0, 0, 0, 0]]),
        CubeSet((2, 1), [[5, 0, -1], [2, -7, 4], [-2, 9, 9]], based=True),
        CubeSet((1, 2), [[3, 5, 0, 1], [2, 2, 7, 4]]),
        # coordinates up to 999 at d = 3: whole rows have structured keys
        CubeSet((1, 2, 3), rng.integers(0, 1000, (40, 8))),
        CubeSet((1, 2, 3), rng.integers(-999, 1000, (40, 7)), based=True),
        CubeSet((1, 2, 3), np.empty((0, 8), dtype=np.int64)),
    ]


def _check_column_keys(cs, lo, n):
    """column_keys against row_keys of the columns moved into 0..n-1."""
    rows = cs.rows.astype(np.int64) - lo
    d = cs.k
    every = list(range(cs.width))
    cases = [every, every[::-1], every[1:], [every[-1]], slice(1, None)]
    cases += [cs.columns(face(d, j, b)) for j in range(1, d + 1) for b in (0, 1)]
    for cols in cases:
        got, want = cs.column_keys(cols), row_keys(rows[:, cols], n)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
    return cs.column_keys(every).dtype


def test_column_keys_of_raw_sets():
    dtypes = []
    for cs in _raw_sets():
        lo = min(int(cs.rows.min()), 0) if len(cs) else 0
        n = int(cs.rows.max()) - lo + 1 if len(cs) else 1
        dtypes.append(_check_column_keys(cs, lo, n))
    assert dtypes[0] == np.int64 and dtypes[3] != np.int64


@pytest.mark.parametrize("name", ALL_FSYS)
def test_columns_and_column_keys_of_enumerated_sets(systems, name):
    sys_ = systems[name]
    Q = enumerate_Q(sys_, sys_.dirs)
    K = enumerate_K(sys_, sys_.dirs, 0)
    section = Q.rows[Q.rows[:, 0] == 0]
    for j in sys_.dirs:
        for b in (0, 1):
            vertices = face(sys_.d, j, b)
            assert Q.columns(vertices) == vertices
            assert np.array_equal(K.rows[:, K.columns(vertices)],
                                  section[:, [v for v in vertices if v]])
    for cs in (Q, K):
        _check_column_keys(cs, 0, sys_.n_points)
