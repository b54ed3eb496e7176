"""Return-time sets of finite systems and the joining algebra on periodic
subsets of Z^k.

A periodic set is stored as int rows: its residue vectors, reduced modulo a
fixed modulus per coordinate, in one sorted, duplicate-free int64 array, as
a CubeSet stores its tuples, and owns the RowIndex of the row keys it was
sorted by.  Return sets N(x, U) = {n : T^n x in U} of a finite system are
periodic with the generator orders as moduli; they are read off the images
of x over the exponent box, built by doubling in each direction, and kept
on the system (FiniteZdSystem.memo), as are the systems
drop_generator derives from it, so each is built once.  The
d-joining glues d sets of dimension d-1: a vector belongs when every
drop-one-coordinate projection lands in the corresponding input set.  It
is a broadcast AND of dense bool masks over the output residue box, one
byte per vector: under JOIN_CAP a mask takes at most 1 MB, and
coordinates of modulus 1 are left out, so any number of inputs fits
numpy's 64 axes.  A product realization closes its marked tuple under the
product generators by doubling, in the orbit search (_orbit_closure) that
affine discretization shares.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._arrays import _frozen, _orbit_closure
from ._text import _read_header, _read_int_rows, _rows_text
from .cube_engine import RowIndex, enumerate_Q, row_keys, ucpp_check
from .errors import InputError
from .finite_system import FiniteZdSystem, is_minimal

# rows of a derived periodic set or product orbit; read where it is checked
JOIN_CAP = 1_000_000
# moduli stay below 2^62, so that sums of two residues fit in int64
MODULUS_LIMIT = 1 << 62


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, by trial division."""
    out = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.append(m)
    return out


@dataclass(frozen=True, eq=False, init=False)
class PeriodicSet:
    """A subset of Z^k that is periodic modulo componentwise moduli.

    It is stored as rows: the residue vectors reduced into the moduli box,
    as a read-only, sorted, duplicate-free int64 array of shape (len, k).
    The constructor takes the residues as such an array or as any iterable
    of k-tuples, unreduced, in any order and with repeats; the residues
    attribute gives them back as a frozenset of tuples.  index is the
    RowIndex of the rows, keyed with radix max(moduli)."""

    k: int
    moduli: tuple[int, ...]
    rows: np.ndarray = field(repr=False)

    def __init__(self, k: int, moduli, residues=()) -> None:
        moduli = tuple(moduli)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "moduli", moduli)
        if k < 1:
            raise InputError("periodic sets need k >= 1")
        if len(moduli) != k:
            raise InputError(f"expected {k} moduli, got {len(moduli)}")
        for m in moduli:
            if m < 1:
                raise InputError(f"modulus {m} must be positive")
            if m >= MODULUS_LIMIT:
                raise InputError(f"modulus {m} must be below 2^62")
        if not isinstance(residues, np.ndarray):
            residues = [tuple(r) for r in residues]
            if any(len(r) != k for r in residues):
                raise InputError("residue arity does not match k")
            # reduced as Python ints first, so any int fits
            residues = np.array([[v % m for v, m in zip(r, moduli)]
                                 for r in residues], dtype=np.int64).reshape(-1, k)
        if residues.ndim != 2 or residues.shape[1] != k:
            raise InputError("residue arity does not match k")
        if not np.issubdtype(residues.dtype, np.integer):
            raise InputError("residues must hold integers")
        # rows already in the box, as the derived sets (d_joining, lift_to,
        # return sets) give them, are not copied, and are kept through a
        # read-only view; uint64 rows are reduced in their own dtype, which
        # is exact, as mixing them with int64 gives float64
        box = np.array(moduli, dtype=np.int64)
        rows = residues
        if rows.dtype == np.uint64:
            rows = (rows % box.astype(np.uint64)).astype(np.int64)
        if rows.dtype != np.int64 or len(rows) and not (
                (rows.min(axis=0) >= 0).all() and (rows.max(axis=0) < box).all()):
            rows = rows % box
        rows, index = RowIndex.of_rows(rows, rows, max(moduli))
        object.__setattr__(self, "rows", _frozen(rows.view()))
        object.__setattr__(self, "index", index)

    @classmethod
    def empty(cls, k: int) -> "PeriodicSet":
        return cls(k, (1,) * k)

    @classmethod
    def full(cls, k: int) -> "PeriodicSet":
        return cls(k, (1,) * k, [(0,) * k])

    @property
    def residues(self) -> frozenset[tuple[int, ...]]:
        return frozenset(map(tuple, self.rows.tolist()))

    def __contains__(self, n: tuple[int, ...]) -> bool:
        if len(n) != self.k:
            raise InputError(f"vector arity {len(n)} != k = {self.k}")
        try:  # a float would be reduced and then truncated to a residue
            n = [operator.index(v) for v in n]
        except TypeError:
            raise InputError("vector entries must be integers") from None
        q = np.array([[v % m for v, m in zip(n, self.moduli)]], dtype=np.int64)
        return bool(self.index.find(q)[1][0])

    def is_empty(self) -> bool:
        return not len(self.rows)

    def density(self) -> tuple[int, int]:
        return len(self.rows), math.prod(self.moduli)

    def lift_to(self, moduli: tuple[int, ...], cap: int | None = None
                ) -> "PeriodicSet":
        """The same subset of Z^k with the given moduli, multiples of the
        set's own; refused when it would hold more than cap rows (JOIN_CAP
        when cap is None)."""
        if len(moduli) != self.k:
            raise InputError("lift arity mismatch")
        if tuple(moduli) == self.moduli:
            return self
        factors = []
        for m_new, m_old in zip(moduli, self.moduli):
            if m_new % m_old:
                raise InputError(f"{m_new} is not a multiple of {m_old}")
            factors.append(m_new // m_old)
        if math.prod(factors) * max(1, len(self.rows)) > (
                JOIN_CAP if cap is None else cap):
            raise InputError("lift would exceed the size cap")
        shifts = np.indices(factors).reshape(self.k, -1).T * np.array(self.moduli)
        rows = (self.rows[:, None, :] + shifts[None]).reshape(-1, self.k)
        return PeriodicSet(self.k, moduli, rows)

    def canonical(self) -> "PeriodicSet":
        """Reduce each modulus to the minimal period of the set in that
        coordinate; the result represents the same subset of Z^k.

        The periods in a coordinate form a subgroup g*Z with g dividing the
        modulus m, so dividing m by a prime q while m/q is still a period
        ends at g.  m/q is a period when shifting that coordinate by it
        keeps every row in the set.  The rows whose reduced coordinates lie
        below their new moduli represent the reduced set, so only they are
        shifted, modulo this set's own moduli, and looked up in this set's
        index; the reduced set is built once, at the end.  Such a shift has
        order q and acts freely on the representatives, so q also divides
        their count: only the primes of gcd(m, count) are tried, and a large
        prime modulus is never factored."""
        if self.is_empty():
            return PeriodicSet.empty(self.k)
        moduli = list(self.moduli)
        rows = self.rows
        for i in range(self.k):
            m = moduli[i]
            for q in _prime_factors(math.gcd(m, len(rows))):
                while m % q == 0:
                    shifted = rows.copy()
                    shifted[:, i] = (shifted[:, i] + m // q) % self.moduli[i]
                    if not self.index.find(shifted)[1].all():
                        break
                    m //= q
                    rows = rows[rows[:, i] < m]
            moduli[i] = m
        if tuple(moduli) == self.moduli:
            return self
        return PeriodicSet(self.k, moduli, rows)

    def _common(self, other: "PeriodicSet"
                ) -> tuple["PeriodicSet", "PeriodicSet"]:
        if self.k != other.k:
            raise InputError("dimension mismatch")
        moduli = tuple(math.lcm(a, b) for a, b in zip(self.moduli, other.moduli))
        # a lift no larger than an input is not a derived object to refuse
        cap = max(JOIN_CAP, len(self.rows), len(other.rows))
        return self.lift_to(moduli, cap), other.lift_to(moduli, cap)

    def equals(self, other: "PeriodicSet") -> bool:
        a, b = self._common(other)
        return np.array_equal(a.rows, b.rows)

    def is_subset(self, other: "PeriodicSet") -> bool:
        a, b = self._common(other)
        return bool(b.index.find(a.rows)[1].all())

    def to_text(self) -> str:
        return _rows_text(
            f"periodic-set k={self.k} moduli={','.join(map(str, self.moduli))}",
            self.rows)

    @classmethod
    def from_text(cls, text: str, path: str | None = None) -> "PeriodicSet":
        line, fields, body = _read_header(text, "periodic-set k=<K> moduli=<...>", path)
        k, moduli = fields["k"], fields["moduli"]

        def width_error(width: int, first: int) -> str | None:
            return f"residue arity {width} != k = {k}" if width != k else None

        residues = _read_int_rows(body, line, "residue", width_error, path)
        try:
            return cls(k, moduli, residues)
        except InputError as exc:
            # every check left to the constructor is about the header
            raise InputError(str(exc), path=path, line=line)


def contains_zero_vector(ps: PeriodicSet) -> bool:
    return (0,) * ps.k in ps


def return_set(sys: FiniteZdSystem, x: int, U: frozenset[int] | set[int]
               ) -> PeriodicSet:
    """N(x, U) = {n : T^n x in U}, periodic modulo the generator orders.

    The set is kept on the system, so each (x, U) is built once; the ids
    and JOIN_CAP are checked on every call."""
    if not 0 <= x < sys.n_points:
        raise InputError(f"point id {x} out of range")
    U = frozenset(U)
    for u in U:
        if not 0 <= u < sys.n_points:
            raise InputError(f"target id {u} out of range")
    if math.prod(sys.orders) > JOIN_CAP:
        raise InputError("order box exceeds the size cap")
    return sys.memo(("return_set", x, U), lambda: _return_set(sys, x, U))


def _return_set(sys: FiniteZdSystem, x: int, U: frozenset[int]) -> PeriodicSet:
    """images[n_1, .., n_d] = T_1^{n_1} .. T_d^{n_d} x is built direction by
    direction, the last first, by doubling: the layers of a direction
    start as the array so far, and while fewer than order_i, the layers
    p^0..p^(2^m - 1) gain their images under p^(2^m), p = T_i, which is
    then squared; about log2(order_i) gathers each."""
    orders = sys.orders
    images = np.array(x)
    for i in reversed(range(sys.d)):
        order, step = orders[i], sys.table[i]
        layers = images[None]
        while len(layers) < order:
            more = step[layers[:order - len(layers)]]
            layers = np.concatenate([layers, more])
            step = step[step]
        images = layers
    inside = np.zeros(sys.n_points, dtype=bool)
    inside[np.fromiter(U, dtype=np.int64, count=len(U))] = True
    return PeriodicSet(sys.d, orders, np.argwhere(inside[images]))


def d_joining(sets: list[PeriodicSet] | tuple[PeriodicSet, ...]
              ) -> PeriodicSet:
    """The set of n in Z^d whose i-th drop-one projection lies in sets[i-1].

    Input i constrains the coordinates other than i, so its moduli line up
    with (1..d) minus i; output modulus at coordinate c is the lcm of the
    matching input moduli.  The output box is one bool array: each input's
    rows are scattered into a mask of its own moduli box, which is tiled
    to the output moduli (each input modulus divides the output one) by
    a gather of arange(M) % m per axis and ANDed in, broadcast along
    coordinate i.  The rows are read back with np.argwhere, in C order,
    which is lexicographic, so the constructor does not sort them.  The box
    is refused past JOIN_CAP vectors before anything is built; no mask
    is larger than the box, so each takes at most JOIN_CAP bytes."""
    d = len(sets)
    if d < 2:
        raise InputError("joining needs at least 2 sets")
    for i, s in enumerate(sets, start=1):
        if s.k != d - 1:
            raise InputError(
                f"input {i} has dimension {s.k}, expected {d - 1}")
    moduli = []
    for c in range(d):  # 0-based output coordinate
        m = 1
        for i in range(1, d + 1):
            if i - 1 == c:
                continue
            pos = c if c < i - 1 else c - 1
            m = math.lcm(m, sets[i - 1].moduli[pos])
        moduli.append(m)
    if math.prod(moduli) > JOIN_CAP:
        raise InputError("joining residue box exceeds the size cap")
    # a coordinate of modulus 1 holds only 0, so the masks leave it out:
    # under JOIN_CAP at most 19 coordinates remain, within numpy's 64 axes
    axes = [c for c in range(d) if moduli[c] > 1]
    keep = np.ones([moduli[c] for c in axes], dtype=bool)
    for i, s in enumerate(sets):
        own = [c for c in axes if c != i]
        pos = [c if c < i else c - 1 for c in own]
        mask = np.zeros([s.moduli[p] for p in pos], dtype=bool)
        if len(s.rows):  # with no axis left, () would index the whole mask
            mask[tuple(s.rows[:, pos].T)] = True
        tiled = mask[np.ix_(*(np.arange(moduli[c]) % s.moduli[p]
                              for c, p in zip(own, pos)))]
        keep &= tiled.reshape([1 if c == i else moduli[c] for c in axes])
    rows = np.argwhere(keep)
    if len(axes) < d:  # the coordinates of modulus 1 come back as zeros
        full = np.zeros((len(rows), d), dtype=rows.dtype)
        full[:, axes] = rows
        rows = full
    return PeriodicSet(d, moduli, rows)


def phi_image(ps: PeriodicSet) -> PeriodicSet:
    """Image under (n_1..n_k) -> n_1 + .. + n_k.  Each residue class maps onto
    a full class modulo the gcd of the moduli, because the coordinate lattices
    sum to gcd * Z."""
    g = math.gcd(*ps.moduli)
    if ps.is_empty():
        return PeriodicSet.empty(1)
    sums = np.zeros(len(ps.rows), dtype=np.int64)
    for column in ps.rows.T:  # below g plus a residue, so below 2^63
        sums = (sums + column) % g
    return PeriodicSet(1, (g,), sums[:, None]).canonical()


# ---------------------------------------------------------------------------
# the joining structure of return sets


@dataclass(frozen=True)
class JoiningContainment:
    status: str  # "pass" | "fail" | "hypotheses-unmet"
    reason: str | None
    side_sets: tuple[PeriodicSet, ...] | None
    joining: PeriodicSet | None
    target: PeriodicSet | None
    diagonal_identity: bool | None  # joining == return set of the diagonal in Y


def joining_containment_check(sys: FiniteZdSystem, x: int,
                              U: frozenset[int] | set[int] | None = None
                              ) -> JoiningContainment:
    """Return-time sets of the diagonal point in each side projection join
    into a subset of N(x, U).

    Hypotheses: the system is minimal with unique cube completion and x lies
    in U.  The diagonal of K^x projects to the constant tuple in every side
    system; its return sets are the inputs of the joining."""
    from .structure import decompose

    if U is None:
        U = frozenset({x})
    U = frozenset(U)
    if sys.d < 2:
        return JoiningContainment("hypotheses-unmet", "need d >= 2",
                                  None, None, None, None)
    if not is_minimal(sys).ok:
        return JoiningContainment("hypotheses-unmet", "system is not minimal",
                                  None, None, None, None)
    if x not in U:
        return JoiningContainment("hypotheses-unmet", "x is not in U",
                                  None, None, None, None)
    dec = decompose(sys, x)
    if not dec.ucpp.ok:
        return JoiningContainment("hypotheses-unmet",
                                  "cube completion is not unique",
                                  None, None, None, None)
    d = sys.d
    side_sets = []
    for j in range(1, d + 1):
        proj = dec.side_projections[j - 1]
        diag = (x,) * len(proj.positions)
        yj = proj.values.index(diag)
        # the side system drops direction j from the face action
        side_sets.append(return_set(drop_generator(proj.system, j), yj, {yj}))
    joined = d_joining(side_sets)
    target = return_set(sys, x, U)
    contained = joined.is_subset(target)
    y_id = int(np.flatnonzero((dec.K.rows == x).all(axis=1))[0])
    n_diag = return_set(dec.Y, y_id, {y_id})
    identity = joined.equals(n_diag)
    return JoiningContainment(
        status="pass" if contained else "fail",
        reason=None if contained else "joining escapes the return set",
        side_sets=tuple(side_sets), joining=joined, target=target,
        diagonal_identity=identity,
    )


@dataclass(frozen=True)
class ProductRealization:
    system: FiniteZdSystem
    point: int
    nbhd: frozenset[int]
    return_set: PeriodicSet
    joining: PeriodicSet
    equal: bool
    ucpp_ok: bool


def drop_generator(sys: FiniteZdSystem, j: int) -> FiniteZdSystem:
    """Forget generator j, turning a Z^d-system into a Z^(d-1)-system on the
    same point set.  The result is kept on sys, so the return sets built on
    it are shared by every caller."""
    if sys.d < 2:
        raise InputError("cannot drop the only generator")
    if not 1 <= j <= sys.d:
        raise InputError(f"generator {j} out of range 1..{sys.d}")
    return sys.memo(("drop", j), lambda: FiniteZdSystem(
        sys.n_points, sys.d - 1, np.concatenate((sys.table[:j - 1], sys.table[j:])),
        name=f"{sys.name}/drop{j}" if sys.name else "", labels=sys.labels))


def insert_identity_generator(sys: FiniteZdSystem, j: int) -> FiniteZdSystem:
    """Present a Z^(d-1)-system as a Z^d-system whose generator j is the
    identity."""
    if not 1 <= j <= sys.d + 1:
        raise InputError(f"slot {j} out of range 1..{sys.d + 1}")
    ident = np.arange(sys.n_points, dtype=np.int32)[None]
    perms = np.concatenate((sys.table[:j - 1], ident, sys.table[j - 1:]))
    return FiniteZdSystem(sys.n_points, sys.d + 1, perms,
                          name=f"{sys.name}+id{j}" if sys.name else "",
                          labels=sys.labels)


def _act(states: np.ndarray, maps: list[np.ndarray]) -> np.ndarray:
    """A product generator, one map per factor, on states: rows whose
    column j is a point of factor j."""
    return np.stack([p[states[:, j]] for j, p in enumerate(maps)], axis=1)


def product_system_realization(
    factors: list[tuple[FiniteZdSystem, int, frozenset[int] | set[int]]],
) -> ProductRealization:
    """Realize a d-joining as an honest return set.

    Factor i is a Z^(d-1)-system presented with d generators, generator i
    being the identity (insert_identity_generator builds such a presentation).
    The generators act diagonally on the product of the factors; the orbit
    closure of the marked tuple is the realizing system, and the return set
    of the tuple into the product neighborhood equals the joining of the
    factor return sets exactly.
    """
    d = len(factors)
    if d < 2:
        raise InputError("need at least 2 factors")
    for i, (f_sys, y, Uf) in enumerate(factors, start=1):
        if f_sys.d != d:
            raise InputError(f"factor {i} must be presented with {d} generators")
        if (f_sys.table[i - 1] != np.arange(f_sys.n_points)).any():
            raise InputError(f"generator {i} of factor {i} must be the identity")
        if not 0 <= y < f_sys.n_points:
            raise InputError(f"marked point of factor {i} out of range")
        for u in Uf:
            if not 0 <= u < f_sys.n_points:
                raise InputError(f"neighborhood id of factor {i} out of range")
    systems = [f for f, _, _ in factors]
    forward = [[f.table[i] for f in systems] for i in range(d)]
    radix = max(f.n_points for f in systems)
    start = np.array([[y for _, y, _ in factors]])
    points = _orbit_closure(start, forward, _act, lambda g: [p[p] for p in g],
                            lambda rows: row_keys(rows, radix), JOIN_CAP)
    if points is None:
        raise InputError("orbit closure exceeds the size cap")
    index = RowIndex(points, radix)
    perms = np.stack([index.find(_act(points, m))[0] for m in forward])
    prod_sys = FiniteZdSystem(len(points), d, perms, name="product-orbit")
    # Q first: an over-budget product system then costs only the orbit search
    u = ucpp_check(enumerate_Q(prod_sys, prod_sys.dirs))
    inside = np.ones(len(points), dtype=bool)
    for j, (f, _, Uf) in enumerate(factors):
        member = np.zeros(f.n_points, dtype=bool)
        member[np.fromiter(Uf, dtype=np.int64, count=len(Uf))] = True
        inside &= member[points[:, j]]
    nbhd = frozenset(np.flatnonzero(inside).tolist())
    point = int(index.find(start)[0][0])
    N = return_set(prod_sys, point, nbhd)
    joined = d_joining(
        [return_set(drop_generator(f, i), y, frozenset(Uf))
         for i, (f, y, Uf) in enumerate(factors, start=1)])
    return ProductRealization(
        system=prod_sys, point=point, nbhd=nbhd, return_set=N,
        joining=joined, equal=N.equals(joined), ucpp_ok=u.ok,
    )
