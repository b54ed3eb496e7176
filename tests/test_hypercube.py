import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalar_batteries import FaceSelector, face_vertices
from zdcubes.hypercube import Vertex, digit_permute, embed_face


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
