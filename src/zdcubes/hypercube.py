"""Combinatorics of the discrete cube {0,1}^d.

A vertex eps is a length-d binary word; direction i holds bit eps_i for
i in 1..d.  The canonical position of a vertex inside a cube tuple is

    index(eps) = sum_i eps_i * 2^(i-1)

so direction 1 varies fastest: for d=2 the order is 00, 10, 01, 11 (written
as eps_1 eps_2 strings).  Every module that serializes 2^d-tuples relies on
this single convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

MAX_DIM = 10


def _check_dim(d: int) -> None:
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {d}")


@dataclass(frozen=True)
class Vertex:
    """A vertex of {0,1}^d stored as (bitmask, dimension)."""

    mask: int
    dim: int

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if not 0 <= self.mask < (1 << self.dim):
            raise ValueError(f"mask {self.mask} out of range for dim {self.dim}")

    def bit(self, i: int) -> int:
        """eps_i for a 1-based direction i."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"direction {i} out of range 1..{self.dim}")
        return (self.mask >> (i - 1)) & 1

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.mask >> i) & 1 for i in range(self.dim))

    @property
    def index(self) -> int:
        """Canonical position of this vertex in a cube tuple."""
        return self.mask

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def digit_permute(sigma: Sequence[int], v: Vertex) -> Vertex:
    """eps' with eps'_i = eps_{sigma(i)}; sigma is 1-based, sigma[i-1] = sigma(i)."""
    d = v.dim
    if sorted(sigma) != list(range(1, d + 1)):
        raise ValueError(f"sigma {sigma!r} is not a permutation of 1..{d}")
    mask = 0
    for i in range(1, d + 1):
        mask |= v.bit(sigma[i - 1]) << (i - 1)
    return Vertex(mask, d)


def embed_face(j: int, b: int, w: Vertex) -> Vertex:
    """Insert bit b at position j, shifting later bits right (dim grows by 1)."""
    d = w.dim + 1
    _check_dim(d)
    if not 1 <= j <= d:
        raise ValueError(f"insert position {j} out of range 1..{d}")
    if b not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    low = w.mask & ((1 << (j - 1)) - 1)
    high = w.mask >> (j - 1)
    return Vertex(low | (b << (j - 1)) | (high << j), d)
