"""Return-time sets of finite systems and the joining algebra on periodic
subsets of Z^k.

A periodic set is stored as residue vectors modulo a fixed modulus per
coordinate.  Return sets N(x, U) = {n : T^n x in U} of a finite system are
periodic with the generator orders as moduli.  The d-joining glues d sets of
dimension d-1: a vector belongs when every drop-one-coordinate projection
lands in the corresponding input set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import InputError
from .finite_system import FiniteZdSystem, perm_order, perm_pow

JOIN_CAP = 1_000_000


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


@dataclass(frozen=True)
class PeriodicSet:
    """Residue vectors modulo componentwise moduli; set semantics on Z^k."""

    k: int
    moduli: tuple[int, ...]
    residues: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError("periodic sets need k >= 1")
        if len(self.moduli) != self.k:
            raise InputError(f"expected {self.k} moduli, got {len(self.moduli)}")
        for m in self.moduli:
            if m < 1:
                raise InputError(f"modulus {m} must be positive")
        reduced = frozenset(
            tuple(r[i] % self.moduli[i] for i in range(self.k)) for r in self.residues
        )
        for r in reduced:
            if len(r) != self.k:
                raise InputError("residue arity does not match k")
        object.__setattr__(self, "residues", reduced)

    @classmethod
    def empty(cls, k: int) -> "PeriodicSet":
        return cls(k, (1,) * k, frozenset())

    @classmethod
    def full(cls, k: int) -> "PeriodicSet":
        return cls(k, (1,) * k, frozenset({(0,) * k}))

    def __contains__(self, n: tuple[int, ...]) -> bool:
        if len(n) != self.k:
            raise InputError(f"vector arity {len(n)} != k = {self.k}")
        return tuple(v % m for v, m in zip(n, self.moduli)) in self.residues

    def is_empty(self) -> bool:
        return not self.residues

    def is_full(self) -> bool:
        c = self.canonical()
        return c.moduli == (1,) * self.k and len(c.residues) == 1

    def density(self) -> tuple[int, int]:
        return len(self.residues), math.prod(self.moduli)

    def lift_to(self, moduli: tuple[int, ...], cap: int = JOIN_CAP) -> "PeriodicSet":
        if len(moduli) != self.k:
            raise InputError("lift arity mismatch")
        factor = 1
        for m_new, m_old in zip(moduli, self.moduli):
            if m_new % m_old:
                raise InputError(f"{m_new} is not a multiple of {m_old}")
            factor *= m_new // m_old
        if factor * max(1, len(self.residues)) > cap:
            raise InputError("lift would exceed the size cap")
        residues = set()
        ranges = [range(m_new // m_old)
                  for m_new, m_old in zip(moduli, self.moduli)]
        for r in self.residues:
            for shift in product(*ranges):
                residues.add(tuple(r[i] + shift[i] * self.moduli[i]
                                   for i in range(self.k)))
        return PeriodicSet(self.k, tuple(moduli), frozenset(residues))

    def canonical(self) -> "PeriodicSet":
        """Reduce each modulus to the minimal period of the set in that
        coordinate; the result represents the same subset of Z^k.

        The periods in a coordinate form a subgroup g*Z with g dividing the
        modulus m, so dividing m by a prime q while m/q is still a period
        ends at g."""
        moduli = list(self.moduli)
        residues = self.residues
        for i in range(self.k):
            m = moduli[i]
            for q in _prime_factors(m):
                while m % q == 0:
                    p = m // q
                    shifted = frozenset(
                        r[:i] + ((r[i] + p) % m,) + r[i + 1:] for r in residues
                    )
                    if shifted != residues:
                        break
                    residues = frozenset(
                        r[:i] + (r[i] % p,) + r[i + 1:] for r in residues
                    )
                    m = p
            moduli[i] = m
        if not residues:
            return PeriodicSet(self.k, (1,) * self.k, frozenset())
        return PeriodicSet(self.k, tuple(moduli), residues)

    def _common(self, other: "PeriodicSet", cap: int = JOIN_CAP
                ) -> tuple["PeriodicSet", "PeriodicSet"]:
        if self.k != other.k:
            raise InputError("dimension mismatch")
        moduli = tuple(math.lcm(a, b) for a, b in zip(self.moduli, other.moduli))
        return self.lift_to(moduli, cap), other.lift_to(moduli, cap)

    def equals(self, other: "PeriodicSet") -> bool:
        a, b = self._common(other)
        return a.residues == b.residues

    def is_subset(self, other: "PeriodicSet") -> bool:
        a, b = self._common(other)
        return a.residues <= b.residues

    def to_text(self) -> str:
        lines = [
            f"periodic-set k={self.k} moduli={','.join(str(m) for m in self.moduli)}"
        ]
        lines.extend(",".join(str(v) for v in r) for r in sorted(self.residues))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, path: str | None = None) -> "PeriodicSet":
        rows: list[tuple[int, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append((lineno, line))
        if not rows or not rows[0][1].startswith("periodic-set"):
            raise InputError("expected 'periodic-set k=<K> moduli=<...>' header",
                             path=path, line=rows[0][0] if rows else 1)
        header_line, header = rows[0]
        fields = dict(tok.split("=", 1) for tok in header.split()[1:] if "=" in tok)
        try:
            k = int(fields["k"])
            moduli = tuple(int(t) for t in fields["moduli"].split(","))
        except (KeyError, ValueError):
            raise InputError("malformed periodic-set header", path=path,
                             line=header_line)
        residues = set()
        for lineno, line in rows[1:]:
            try:
                r = tuple(int(t) for t in line.split(","))
            except ValueError:
                raise InputError(f"non-integer residue in {line!r}", path=path,
                                 line=lineno)
            if len(r) != k:
                raise InputError(f"residue arity {len(r)} != k = {k}", path=path,
                                 line=lineno)
            residues.add(r)
        try:
            return cls(k, moduli, frozenset(residues))
        except InputError as exc:
            raise InputError(str(exc), path=path)


def contains_zero_vector(ps: PeriodicSet) -> bool:
    return (0,) * ps.k in ps


def intersects(a: PeriodicSet, b: PeriodicSet,
               cap: int = JOIN_CAP) -> tuple[bool, tuple[int, ...] | None]:
    """Nonempty intersection, with the smallest common residue as witness."""
    la, lb = a._common(b, cap)
    both = la.residues & lb.residues
    if not both:
        return False, None
    return True, min(sorted(both))


def return_set(sys: FiniteZdSystem, x: int, U: frozenset[int] | set[int],
               cap: int = JOIN_CAP) -> PeriodicSet:
    """N(x, U) = {n : T^n x in U}, periodic modulo the generator orders."""
    if not 0 <= x < sys.n_points:
        raise InputError(f"point id {x} out of range")
    U = frozenset(U)
    for u in U:
        if not 0 <= u < sys.n_points:
            raise InputError(f"target id {u} out of range")
    orders = sys.orders
    if math.prod(orders) > cap:
        raise InputError("order box exceeds the size cap")
    tables = [
        [perm_pow(sys.perms[i], e) for e in range(orders[i])] for i in range(sys.d)
    ]
    residues = set()
    for n in product(*(range(L) for L in orders)):
        y = x
        for i in range(sys.d):
            y = tables[i][n[i]][y]
        if y in U:
            residues.add(n)
    return PeriodicSet(sys.d, orders, frozenset(residues))


def _drop(n: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Remove 1-based coordinate i."""
    return n[:i - 1] + n[i:]


def d_joining(sets: list[PeriodicSet] | tuple[PeriodicSet, ...],
              cap: int = JOIN_CAP) -> PeriodicSet:
    """The set of n in Z^d whose i-th drop-one projection lies in sets[i-1].

    Input i constrains the coordinates other than i, so its moduli line up
    with (1..d) minus i; output modulus at coordinate c is the lcm of the
    matching input moduli."""
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
    if math.prod(moduli) > cap:
        raise InputError("joining residue box exceeds the size cap")
    residues = set()
    for n in product(*(range(m) for m in moduli)):
        if all(_drop(n, i) in sets[i - 1] for i in range(1, d + 1)):
            residues.add(n)
    return PeriodicSet(d, tuple(moduli), frozenset(residues))


def phi_image(ps: PeriodicSet) -> PeriodicSet:
    """Image under (n_1..n_k) -> n_1 + .. + n_k.  Each residue class maps onto
    a full class modulo the gcd of the moduli, because the coordinate lattices
    sum to gcd * Z."""
    g = math.gcd(*ps.moduli) if ps.k > 1 else ps.moduli[0]
    if ps.is_empty():
        return PeriodicSet(1, (1,), frozenset())
    sums = frozenset((sum(r) % g,) for r in ps.residues)
    return PeriodicSet(1, (g,), sums).canonical()


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
                              U: frozenset[int] | set[int] | None = None,
                              *, threads: int = 1) -> JoiningContainment:
    """Return-time sets of the diagonal point in each side projection join
    into a subset of N(x, U).

    Hypotheses: the system is minimal with unique cube completion and x lies
    in U.  The diagonal of K^x projects to the constant tuple in every side
    system; its return sets are the inputs of the joining."""
    from .cube_engine import enumerate_Q, ucpp_check
    from .structure import decompose

    if U is None:
        U = frozenset({x})
    U = frozenset(U)
    if sys.d < 2:
        return JoiningContainment("hypotheses-unmet", "need d >= 2",
                                  None, None, None, None)
    from .finite_system import is_minimal
    if not is_minimal(sys).ok:
        return JoiningContainment("hypotheses-unmet", "system is not minimal",
                                  None, None, None, None)
    if x not in U:
        return JoiningContainment("hypotheses-unmet", "x is not in U",
                                  None, None, None, None)
    if not ucpp_check(enumerate_Q(sys, tuple(range(1, sys.d + 1)),
                                  threads=threads)).ok:
        return JoiningContainment("hypotheses-unmet",
                                  "cube completion is not unique",
                                  None, None, None, None)
    dec = decompose(sys, x, threads=threads)
    d = sys.d
    side_sets = []
    for j in range(1, d + 1):
        proj = dec.side_projections[j - 1]
        diag = (x,) * len(proj.positions)
        yj = proj.values.index(diag)
        # the side system drops direction j from the face action
        perms = tuple(proj.system.perms[i] for i in range(d) if i != j - 1)
        side = FiniteZdSystem(proj.system.n_points, d - 1, perms)
        side_sets.append(return_set(side, yj, {yj}))
    joined = d_joining(side_sets)
    target = return_set(sys, x, U)
    contained = joined.is_subset(target)
    diag_full = (x,) * len(dec.K.points[0])
    y_id = dec.K.points.index(diag_full)
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
    same point set."""
    if sys.d < 2:
        raise InputError("cannot drop the only generator")
    if not 1 <= j <= sys.d:
        raise InputError(f"generator {j} out of range 1..{sys.d}")
    perms = sys.perms[:j - 1] + sys.perms[j:]
    return FiniteZdSystem(sys.n_points, sys.d - 1, perms,
                          name=f"{sys.name}/drop{j}" if sys.name else "",
                          labels=sys.labels)


def insert_identity_generator(sys: FiniteZdSystem, j: int) -> FiniteZdSystem:
    """Present a Z^(d-1)-system as a Z^d-system whose generator j is the
    identity."""
    if not 1 <= j <= sys.d + 1:
        raise InputError(f"slot {j} out of range 1..{sys.d + 1}")
    ident = tuple(range(sys.n_points))
    perms = sys.perms[:j - 1] + (ident,) + sys.perms[j - 1:]
    return FiniteZdSystem(sys.n_points, sys.d + 1, perms,
                          name=f"{sys.name}+id{j}" if sys.name else "",
                          labels=sys.labels)


def product_system_realization(
    factors: list[tuple[FiniteZdSystem, int, frozenset[int] | set[int]]],
    *, threads: int = 1, cap: int = JOIN_CAP,
) -> ProductRealization:
    """Realize a d-joining as an honest return set.

    Factor i is a Z^(d-1)-system presented with d generators, generator i
    being the identity (insert_identity_generator builds such a presentation).
    The generators act diagonally on the product of the factors; the orbit
    closure of the marked tuple is the realizing system, and the return set
    of the tuple into the product neighborhood equals the joining of the
    factor return sets exactly.
    """
    from .cube_engine import enumerate_Q, ucpp_check

    d = len(factors)
    if d < 2:
        raise InputError("need at least 2 factors")
    for i, (f_sys, y, Uf) in enumerate(factors, start=1):
        if f_sys.d != d:
            raise InputError(f"factor {i} must be presented with {d} generators")
        if f_sys.perms[i - 1] != tuple(range(f_sys.n_points)):
            raise InputError(f"generator {i} of factor {i} must be the identity")
        if not 0 <= y < f_sys.n_points:
            raise InputError(f"marked point of factor {i} out of range")
        for u in Uf:
            if not 0 <= u < f_sys.n_points:
                raise InputError(f"neighborhood id of factor {i} out of range")
    start = tuple(y for _, y, _ in factors)
    systems = [f for f, _, _ in factors]

    def act(state: tuple[int, ...], i: int, inverse: bool = False) -> tuple[int, ...]:
        out = []
        for j, v in enumerate(state):
            p = (systems[j].inverses if inverse else systems[j].perms)[i - 1]
            out.append(p[v])
        return tuple(out)

    orbit = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for i in range(1, d + 1):
                for inv in (False, True):
                    t = act(s, i, inv)
                    if t not in orbit:
                        orbit.add(t)
                        nxt.append(t)
        frontier = nxt
        if len(orbit) > cap:
            raise InputError("orbit closure exceeds the size cap")
    points = sorted(orbit)
    index = {p: i for i, p in enumerate(points)}
    perms = tuple(
        tuple(index[act(p, i)] for p in points) for i in range(1, d + 1)
    )
    prod_sys = FiniteZdSystem(len(points), d, perms, name="product-orbit")
    nbhd = frozenset(
        index[p] for p in points
        if all(p[j] in frozenset(factors[j][2]) for j in range(d))
    )
    N = return_set(prod_sys, index[start], nbhd, cap=cap)
    joined = d_joining(
        [return_set(drop_generator(f, i), y, frozenset(Uf), cap=cap)
         for i, (f, y, Uf) in enumerate(factors, start=1)],
        cap=cap)
    u = ucpp_check(enumerate_Q(prod_sys, tuple(range(1, d + 1)), threads=threads))
    return ProductRealization(
        system=prod_sys, point=index[start], nbhd=nbhd, return_set=N,
        joining=joined, equal=N.equals(joined), ucpp_ok=u.ok,
    )
