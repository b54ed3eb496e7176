"""Scalar reference for periodic sets, return times and the product orbit.

These are the loops the return-time layer was first written as: a periodic
set is a frozenset of residue tuples, reduced tuple by tuple; lifts expand
every shift in Python; the canonical form shifts the tuples one coordinate
at a time; the d-joining tests every vector of its box; return sets walk
the exponent box through full powers of the generators built by
square-and-multiply over tuple permutations; the product realization is a
breadth-first search over tuple states.  The array code in zdcubes must
give the same sets and systems; tests/test_relations.py and
tests/test_return_times.py compare them.  The text form of a periodic set
was read and written one line at a time; tests/test_text_rows.py compares
those loops with the library's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from zdcubes.errors import InputError
from zdcubes._text import _content_lines
from zdcubes.return_times import PeriodicSet


def _prime_factors(m):
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


def _identity(n):
    return tuple(range(n))


def _compose(p, q):
    """x -> p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(p)))


def _invert(p):
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def perm_pow(p, e):
    n = len(p)
    if e < 0:
        p = _invert(p)
        e = -e
    out = _identity(n)
    base = p
    while e:
        if e & 1:
            out = _compose(base, out)
        base = _compose(base, base)
        e >>= 1
    return out


def apply_word(sys, n_vec, x):
    """T_1^{n_1} ... T_d^{n_d} x, one generator step at a time."""
    if not 0 <= x < sys.n_points:
        raise InputError(f"point id {x} out of range")
    for i in range(sys.d - 1, -1, -1):
        e = n_vec[i]
        if e == 0:
            continue
        p = sys.perms[i] if e > 0 else sys.inverses[i]
        for _ in range(abs(e) % sys.orders[i]):
            x = p[x]
    return x


@dataclass(frozen=True)
class PSet:
    k: int
    moduli: tuple
    residues: frozenset

    def __post_init__(self):
        object.__setattr__(self, "residues", frozenset(
            tuple(r[i] % self.moduli[i] for i in range(self.k))
            for r in self.residues))

    @classmethod
    def of(cls, ps):
        """The reference copy of a zdcubes PeriodicSet."""
        return cls(ps.k, tuple(ps.moduli), ps.residues)

    def __contains__(self, n):
        return tuple(v % m for v, m in zip(n, self.moduli)) in self.residues

    def lift_to(self, moduli):
        ranges = [range(m_new // m_old)
                  for m_new, m_old in zip(moduli, self.moduli)]
        residues = set()
        for r in self.residues:
            for shift in product(*ranges):
                residues.add(tuple(r[i] + shift[i] * self.moduli[i]
                                   for i in range(self.k)))
        return PSet(self.k, tuple(moduli), frozenset(residues))

    def canonical(self):
        moduli = list(self.moduli)
        residues = self.residues
        for i in range(self.k):
            m = moduli[i]
            for q in _prime_factors(m):
                while m % q == 0:
                    p = m // q
                    shifted = frozenset(
                        r[:i] + ((r[i] + p) % m,) + r[i + 1:] for r in residues)
                    if shifted != residues:
                        break
                    residues = frozenset(
                        r[:i] + (r[i] % p,) + r[i + 1:] for r in residues)
                    m = p
            moduli[i] = m
        if not residues:
            return PSet(self.k, (1,) * self.k, frozenset())
        return PSet(self.k, tuple(moduli), residues)

    def common(self, other):
        moduli = tuple(math.lcm(a, b) for a, b in zip(self.moduli, other.moduli))
        return self.lift_to(moduli), other.lift_to(moduli)

    def equals(self, other):
        a, b = self.common(other)
        return a.residues == b.residues

    def is_subset(self, other):
        a, b = self.common(other)
        return a.residues <= b.residues


def d_joining(sets):
    d = len(sets)
    moduli = []
    for c in range(d):
        m = 1
        for i in range(d):
            if i != c:
                m = math.lcm(m, sets[i].moduli[c if c < i else c - 1])
        moduli.append(m)
    residues = {n for n in product(*(range(m) for m in moduli))
                if all(n[:i] + n[i + 1:] in sets[i] for i in range(d))}
    return PSet(d, tuple(moduli), frozenset(residues))


def return_set(sys, x, U):
    orders = sys.orders
    tables = [[perm_pow(sys.perms[i], e) for e in range(orders[i])]
              for i in range(sys.d)]
    residues = set()
    for n in product(*(range(L) for L in orders)):
        y = x
        for i in range(sys.d):
            y = tables[i][n[i]][y]
        if y in U:
            residues.add(n)
    return PSet(sys.d, orders, frozenset(residues))


def product_orbit(factors):
    """(sorted tuple states, generator perms on their ids, id of the
    marked state, neighbourhood ids) of the diagonal action on the product
    of the factors."""
    d = len(factors)
    systems = [f for f, _, _ in factors]
    start = tuple(y for _, y, _ in factors)

    def act(state, i, inverse=False):
        return tuple((systems[j].inverses if inverse else systems[j].perms)[i][v]
                     for j, v in enumerate(state))

    orbit = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for i in range(d):
                for inv in (False, True):
                    t = act(s, i, inv)
                    if t not in orbit:
                        orbit.add(t)
                        nxt.append(t)
        frontier = nxt
    points = sorted(orbit)
    index = {p: i for i, p in enumerate(points)}
    perms = tuple(tuple(index[act(p, i)] for p in points) for i in range(d))
    nbhd = frozenset(index[p] for p in points
                     if all(p[j] in factors[j][2] for j in range(d)))
    return points, perms, index[start], nbhd


# ---------------------------------------------------------------------------
# text


def pset_to_text(ps):
    lines = [f"periodic-set k={ps.k} moduli={','.join(str(m) for m in ps.moduli)}"]
    lines.extend(",".join(map(str, r)) for r in ps.rows.tolist())
    return "\n".join(lines) + "\n"


def pset_from_text(text, path=None):
    rows = _content_lines(text)
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
    residues = []
    for lineno, line in rows[1:]:
        try:
            r = tuple(int(t) for t in line.split(","))
        except ValueError:
            raise InputError(f"non-integer residue in {line!r}", path=path,
                             line=lineno)
        if len(r) != k:
            raise InputError(f"residue arity {len(r)} != k = {k}", path=path,
                             line=lineno)
        residues.append(r)
    try:
        return PeriodicSet(k, moduli, residues)
    except InputError as exc:
        raise InputError(str(exc), path=path, line=header_line)
