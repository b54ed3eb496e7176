"""Label-array relations and int-row return times against the scalar
references and the brute force.

Random commuting systems are disjoint unions of products of cyclic groups,
each generator a translation, under a random relabelling of the points.  On
each, the subgroup orbits, relation closures, quotients, factor-map checks,
first witnesses and minimality must equal those of the union-find and BFS
loops in tests/scalar_relations.py, and the closure of R must equal the
closure of the relation the stdlib brute force in
tests/oracles/gen_oracles.py extracts from its own cube set.  Return sets,
random periodic sets (reduction, lifts, canonical forms, equality,
subsets), d-joinings and product-realization orbits must equal those of the
tuple loops in tests/scalar_return_times.py.
"""

import importlib.util
import itertools
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_relations as ref
import scalar_return_times as rt
from zdcubes.finite_system import (FactorMap, FiniteZdSystem,
                                   InvarianceError, PairRelation,
                                   check_factor_map, is_minimal,
                                   label_classes, orbit_labels, partition,
                                   perm_order, quotient)
from zdcubes import return_times
from zdcubes.errors import InputError
from zdcubes.proximal import compute_R, compute_R_j, pushforward_check
from zdcubes.return_times import (PeriodicSet, d_joining, drop_generator,
                                  insert_identity_generator,
                                  product_system_realization, return_set)
from zdcubes.structure import (SubgroupSpec, iterated_quotient_check,
                               maximal_trivial_H_factor,
                               z0h_universality_check)

_spec = importlib.util.spec_from_file_location(
    "gen_oracles",
    pathlib.Path(__file__).resolve().parent / "oracles" / "gen_oracles.py")
brute = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(brute)

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
# brute_Q visits n * prod(orders) * 2^d coordinates; larger systems skip it
BRUTE_BUDGET = 20_000


@st.composite
def commuting_systems(draw, d=None, max_parts=3, max_modulus=5):
    """A disjoint union of 1..max_parts products of one or two cyclic
    groups, each generator a translation, under a random relabelling."""
    if d is None:
        d = draw(st.integers(1, 3))
    parts = []
    for _ in range(draw(st.integers(1, max_parts))):
        moduli = draw(st.lists(st.integers(1, max_modulus), min_size=1,
                               max_size=2))
        steps = [tuple(draw(st.integers(0, m - 1)) for m in moduli)
                 for _ in range(d)]
        parts.append((moduli, steps))
    perms = [[] for _ in range(d)]
    offset = 0
    for moduli, steps in parts:
        elems = list(itertools.product(*(range(m) for m in moduli)))
        index = {e: k for k, e in enumerate(elems)}
        for i, step in enumerate(steps):
            perms[i].extend(
                offset + index[tuple((a + s) % m
                                     for a, s, m in zip(e, step, moduli))]
                for e in elems)
        offset += len(elems)
    sigma = draw(st.permutations(range(offset)))
    relabelled = []
    for p in perms:
        q = [0] * offset
        for x, y in enumerate(p):
            q[sigma[x]] = sigma[y]
        relabelled.append(tuple(q))
    return FiniteZdSystem(offset, d, tuple(relabelled), name="random")


@st.composite
def subgroups(draw, d):
    dirs = tuple(draw(st.lists(st.integers(1, d), max_size=2, unique=True)))
    words = tuple(tuple(draw(st.lists(st.integers(-3, 3), min_size=d,
                                      max_size=d)))
                  for _ in range(draw(st.integers(0, 1))))
    return SubgroupSpec(dirs=dirs, words=words)


def _same_quotient(got, want):
    (q_got, pi_got), (q_want, pi_want) = got, want
    assert q_got == q_want
    assert pi_got.mapping == pi_want.mapping


@SETTINGS
@given(st.data())
def test_subgroup_orbits_and_quotients_match_reference(data):
    sys_ = data.draw(commuting_systems())
    H1 = data.draw(subgroups(sys_.d))
    H2 = data.draw(subgroups(sys_.d))
    for H in (H1, H2):
        got = maximal_trivial_H_factor(sys_, H)
        assert label_classes(got[1].mapping) == \
            ref.classes(sys_.n_points, ref.compute_QH(sys_, H).pairs)
        _same_quotient(got, ref.maximal_trivial_H_factor(sys_, H))
        assert check_factor_map(got[1]) == ref.check_factor_map(got[1])
        assert z0h_universality_check(got[1], H) == ("pass", None)
    assert iterated_quotient_check(sys_, H1, H2) == \
        ref.iterated_quotient_check(sys_, H1, H2)
    assert is_minimal(sys_) == ref.is_minimal(sys_)
    x = data.draw(st.integers(0, sys_.n_points - 1))
    orbits = orbit_labels(sys_.n_points, sys_.perms)
    assert frozenset(np.flatnonzero(orbits == orbits[x]).tolist()) == \
        ref.orbit_of(sys_, x)


@SETTINGS
@given(st.data())
def test_relation_closures_and_invariance_witnesses_match_reference(data):
    sys_ = data.draw(commuting_systems())
    point = st.integers(0, sys_.n_points - 1)
    pairs = frozenset(data.draw(st.lists(st.tuples(point, point),
                                         max_size=6)))
    rel = PairRelation(sys_.n_points, pairs, sys_)
    assert rel.classes() == ref.classes(sys_.n_points, pairs)
    try:
        want = ref.quotient(sys_, rel)
    except InvarianceError as exc:
        want = (exc.pair, exc.generator)
    try:
        got = quotient(sys_, rel)
    except InvarianceError as exc:
        assert (exc.pair, exc.generator) == want
    else:
        _same_quotient(got, want)


@SETTINGS
@given(st.data())
def test_factor_map_and_z0h_witnesses_match_reference(data):
    sys_ = data.draw(commuting_systems())
    H = data.draw(subgroups(sys_.d))
    k = data.draw(st.integers(1, 4))
    mapping = tuple(data.draw(st.lists(st.integers(0, k - 1),
                                       min_size=sys_.n_points,
                                       max_size=sys_.n_points)))
    # H (indeed everything) acts trivially on this target, so z0h applies
    still = FiniteZdSystem(k, sys_.d, (tuple(range(k)),) * sys_.d)
    pi = FactorMap(sys_, still, mapping)
    assert check_factor_map(pi) == ref.check_factor_map(pi)
    assert z0h_universality_check(pi, H) == ref.z0h_universality_check(pi, H)
    # a target with a non-trivial generator: maps rarely commute with it
    moving = FiniteZdSystem(k, sys_.d, tuple(
        tuple((y + i) % k for y in range(k)) for i in range(sys_.d)))
    pi = FactorMap(sys_, moving, mapping)
    assert check_factor_map(pi) == ref.check_factor_map(pi)
    assert z0h_universality_check(pi, H) == ref.z0h_universality_check(pi, H)


@st.composite
def pair_relations(draw, sys_):
    """A relation on the points of sys_ with sys_ as its base: empty, full,
    random, an equivalence, an equivalence with one pair added or removed,
    a strict order (transitive, neither reflexive nor symmetric), or random
    pairs closed under the generators (invariant)."""
    n = sys_.n_points
    point = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["empty", "full", "random", "equivalence",
                                 "perturbed", "order", "invariant"]))
    if kind == "empty":
        pairs = set()
    elif kind == "full":
        pairs = {(x, y) for x in range(n) for y in range(n)}
    elif kind == "random":
        pairs = set(draw(st.lists(st.tuples(point, point), max_size=3 * n)))
    elif kind in ("equivalence", "perturbed"):
        lab = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        pairs = {(x, y) for x in range(n) for y in range(n) if lab[x] == lab[y]}
        if kind == "perturbed":
            pairs ^= {draw(st.tuples(point, point))}
    elif kind == "order":
        rank = draw(st.permutations(range(n)))
        coin = draw(st.randoms(use_true_random=False))
        pairs = {(x, y) for x in range(n) for y in range(n)
                 if rank[x] < rank[y] and coin.random() < 0.5}
        # the transitive closure of the drawn order pairs
        for z in range(n):
            pairs |= {(x, w) for x, y in pairs if y == z
                      for v, w in pairs if v == z}
    else:
        pairs = set(draw(st.lists(st.tuples(point, point), max_size=3)))
        frontier = set(pairs)
        while frontier:
            frontier = {(p[x], p[y]) for x, y in frontier
                        for p in sys_.perms} - pairs
            pairs |= frontier
    return PairRelation(n, frozenset(pairs), sys_)


@SETTINGS
@given(st.data())
def test_pair_relation_checks_match_scalar_loops(data):
    sys_ = data.draw(commuting_systems())
    rel = data.draw(pair_relations(sys_))
    n = rel.n_points
    assert rel.is_reflexive() == ref.is_reflexive(rel)
    assert rel.is_symmetric() == ref.is_symmetric(rel)
    assert rel.is_transitive() == ref.is_transitive(rel)
    assert rel.is_invariant() == ref.is_invariant(rel)
    assert rel.classes() == ref.classes(n, rel.pairs)
    assert rel.to_text() == ref.to_text(rel)
    assert rel.is_diagonal() == (rel.pairs == {(x, x) for x in range(n)})
    # the same relation from an (m, 2) array and from keys, shuffled and
    # with repeats, has the same keys and views
    order = data.draw(st.permutations(sorted(rel.pairs)))
    xy = np.array(list(order) * 2, dtype=np.int64).reshape(-1, 2)
    for other in (PairRelation(n, xy, sys_),
                  PairRelation(n, xy[:, 0] * n + xy[:, 1], sys_)):
        assert other == rel and hash(other) == hash(rel)
        assert repr(other) == repr(rel)
        assert np.array_equal(other.keys, rel.keys)
        assert other.pairs == rel.pairs and len(other) == len(rel)


@SETTINGS
@given(st.data())
def test_pushforward_and_factor_maps_match_scalar_loops(data):
    """Quotient maps, which push R forward, and maps drawn at random onto
    another system, which mostly do not."""
    sys_ = data.draw(commuting_systems(max_modulus=4))
    H = data.draw(subgroups(sys_.d))
    _, pi = maximal_trivial_H_factor(sys_, H)
    target = data.draw(commuting_systems(d=sys_.d, max_modulus=4))
    mapping = data.draw(st.lists(st.integers(0, target.n_points - 1),
                                 min_size=sys_.n_points,
                                 max_size=sys_.n_points))
    for f in (pi, FactorMap(sys_, target, mapping)):
        assert check_factor_map(f) == ref.check_factor_map(f)
        assert pushforward_check(f) == ref.pushforward_check(f)
        again = FactorMap(f.source, f.target, np.array(f.mapping))
        assert again == f and hash(again) == hash(f) and repr(again) == repr(f)
        assert again.mapping == f.mapping
        assert np.array_equal(again.array, f.array)


@SETTINGS
@given(commuting_systems())
def test_R_closures_match_brute_force(sys_):
    orders = [brute.perm_order(list(p)) for p in sys_.perms]
    if sys_.n_points * math.prod(orders) << sys_.d > BRUTE_BUDGET:
        return
    Q = brute.brute_Q([list(p) for p in sys_.perms], sys_.n_points, orders)
    rels = [set(brute.brute_R_j(Q, sys_.d, j)) for j in range(1, sys_.d + 1)]
    for j, want in enumerate(rels, start=1):
        assert compute_R_j(sys_, j).pairs == want
    R = compute_R(sys_)
    assert R.pairs == set.intersection(*rels)
    assert R.classes() == ref.classes(sys_.n_points, set.intersection(*rels))


def test_relabelled_cycle_of_2_pow_15_points():
    n = 1 << 15
    sigma = np.random.default_rng(15).permutation(n)
    step = np.empty(n, dtype=np.int64)
    step[sigma] = sigma[(np.arange(n) + 1) % n]  # sigma(k) -> sigma(k + 1)
    sys_ = FiniteZdSystem(n, 1, (tuple(step.tolist()),))
    res = is_minimal(sys_)
    assert res.ok and res.witness is None and res.orbit_sizes == (n,)
    assert (partition(n, np.arange(n), step) == 0).all()
    # <T^8> has the 8 residue classes of k as orbits, numbered by least member
    residue = np.empty(n, dtype=np.int64)
    residue[sigma] = np.arange(n) % 8
    least = np.array([sigma[r::8].min() for r in range(8)])
    rank = np.argsort(np.argsort(least))
    H = SubgroupSpec(words=((8,),))
    q_sys, pi = maximal_trivial_H_factor(sys_, H)
    assert pi.mapping == tuple(rank[residue].tolist())
    assert q_sys.perms[0] == tuple(rank[(np.argsort(rank) + 1) % 8].tolist())
    assert z0h_universality_check(pi, H) == ("pass", None)
    assert (partition(n, np.arange(n), np.asarray(sys_.word_perm((8,))))
            == least[residue]).all()


# ---------------------------------------------------------------------------
# return times and periodic sets against tests/scalar_return_times.py


@st.composite
def residue_lists(draw, k):
    """(moduli, residues): residues drawn modulo small periods and lifted to
    multiples of them, perhaps with one stray residue that breaks the
    periods, each moved by random multiples of its moduli."""
    periods = [draw(st.sampled_from((1, 2, 3, 4, 6))) for _ in range(k)]
    moduli = tuple(p * draw(st.sampled_from((1, 2, 3))) for p in periods)
    box = list(itertools.product(*(range(p) for p in periods)))
    cells = draw(st.lists(st.sampled_from(box), max_size=4))
    lifts = itertools.product(*(range(m // p) for m, p in zip(moduli, periods)))
    residues = [tuple(c + p * t for c, p, t in zip(cell, periods, shift))
                for shift in lifts for cell in cells]
    if draw(st.booleans()):
        residues.append(tuple(draw(st.integers(0, m - 1)) for m in moduli))
    wrap = st.integers(-2, 2)
    return moduli, [tuple(r + m * draw(wrap) for r, m in zip(res, moduli))
                    for res in residues]


def _same(got, want):
    assert (got.k, got.moduli, got.residues) == (want.k, want.moduli,
                                                 want.residues)


@SETTINGS
@given(st.data())
def test_periodic_sets_match_reference(data):
    k = data.draw(st.integers(1, 2))
    (ma, ra), (mb, rb) = data.draw(residue_lists(k)), data.draw(residue_lists(k))
    a, b = PeriodicSet(k, ma, ra), PeriodicSet(k, mb, rb)
    ref_a, ref_b = rt.PSet(k, ma, frozenset(ra)), rt.PSet(k, mb, frozenset(rb))
    _same(a, ref_a)
    _same(a.canonical(), ref_a.canonical())
    _same(a.lift_to(tuple(2 * m for m in ma)), ref_a.lift_to([2 * m for m in ma]))
    assert a.equals(b) == ref_a.equals(ref_b)
    assert a.is_subset(b) == ref_a.is_subset(ref_b)
    assert b.is_subset(a) == ref_b.is_subset(ref_a)
    assert a.equals(a.canonical()) and a.is_subset(a.canonical())


@SETTINGS
@given(st.data())
def test_d_joining_matches_reference(data):
    d = data.draw(st.integers(2, 3))
    inputs = [data.draw(residue_lists(d - 1)) for _ in range(d)]
    _same(*_joinings(inputs))


def _joinings(inputs):
    """The library's and the scalar d-joining of (moduli, residues) inputs."""
    k = len(inputs) - 1
    return (d_joining([PeriodicSet(k, m, r) for m, r in inputs]),
            rt.d_joining([rt.PSet(k, m, frozenset(r)) for m, r in inputs]))


@st.composite
def small_sets(draw, k):
    """(moduli, residues) with moduli 1..3 and any subset of their box."""
    moduli = tuple(draw(st.integers(1, 3)) for _ in range(k))
    box = list(itertools.product(*(range(m) for m in moduli)))
    return moduli, draw(st.lists(st.sampled_from(box), max_size=len(box)))


@SETTINGS
@given(st.data())
def test_d_joining_matches_reference_at_d4(data):
    # moduli of 1..3 keep the scalar box at most 6^4 vectors
    inputs = [data.draw(small_sets(3)) for _ in range(4)]
    _same(*_joinings(inputs))


@pytest.mark.parametrize("inputs", [
    [((2, 3), []), ((2, 2), [(0, 0), (1, 1)]), ((3, 2), [(0, 0)])],
    [((2, 3), []), ((2, 2), []), ((3, 2), [])],
    # every output modulus is 1: the masks have no axis left
    [((1,), []), ((1,), [(0,)])],
    [((1, 1), [(0, 0)]), ((1, 1), []), ((1, 1), [(0, 0)])],
])
def test_d_joining_of_empty_inputs(inputs):
    got, want = _joinings(inputs)
    _same(got, want)
    assert got.is_empty()


def _tiled_inputs():
    """Inputs of d = 3 whose output moduli (12, 10, 15) repeat each input
    mask at least twice along every axis: input i constrains the output
    coordinates other than i."""
    rng = random.Random(25)
    inputs = []
    for moduli in ((2, 3), (4, 5), (3, 5)):
        box = list(itertools.product(*(range(m) for m in moduli)))
        inputs.append((moduli, rng.sample(box, len(box) * 2 // 3)))
    return inputs


def test_d_joining_tiles_each_input():
    got, want = _joinings(_tiled_inputs())
    assert got.moduli == (12, 10, 15)
    assert not got.is_empty()
    _same(got, want)


def test_d_joining_at_and_over_the_cap(monkeypatch):
    monkeypatch.setattr(return_times, "JOIN_CAP", 12 * 10 * 15)
    _same(*_joinings(_tiled_inputs()))
    monkeypatch.setattr(return_times, "JOIN_CAP", 12 * 10 * 15 - 1)
    with pytest.raises(InputError,
                       match="^joining residue box exceeds the size cap$"):
        _joinings(_tiled_inputs())


@pytest.mark.parametrize("d", [64, 65, 100])
def test_d_joining_past_numpy_axis_limit(d):
    # numpy arrays have at most 64 axes; the coordinates of output modulus
    # 1 are left out of the masks, so only the three that reach 2 are axes
    rng = random.Random(d)
    inputs = []
    for i in range(d):
        moduli = tuple(2 if c in (0, 5, d - 1) and rng.random() < 0.7 else 1
                       for c in range(d) if c != i)
        box = list(itertools.product(*(range(m) for m in moduli)))
        inputs.append((moduli, rng.sample(box, len(box) // 2) + [box[0]]))
    got, want = _joinings(inputs)
    _same(got, want)
    assert got.moduli.count(2) == 3 and (0,) * d in got.residues


@SETTINGS
@given(st.data())
def test_return_sets_match_reference(data):
    sys_ = data.draw(commuting_systems())
    if math.prod(sys_.orders) > BRUTE_BUDGET:
        return
    x = data.draw(st.integers(0, sys_.n_points - 1))
    U = frozenset(data.draw(st.lists(st.integers(0, sys_.n_points - 1),
                                     max_size=3)))
    _same(return_set(sys_, x, U), rt.return_set(sys_, x, U))


@SETTINGS
@given(st.data())
def test_product_realization_matches_reference(data):
    d = data.draw(st.integers(2, 3))
    factors = []
    for i in range(1, d + 1):
        f = data.draw(commuting_systems(d - 1, max_parts=2, max_modulus=3))
        y = data.draw(st.integers(0, f.n_points - 1))
        U = frozenset(data.draw(st.lists(st.integers(0, f.n_points - 1),
                                         min_size=1, max_size=2)))
        factors.append((insert_identity_generator(f, i), y, U))
    points, perms, start, nbhd = rt.product_orbit(factors)
    if len(points) * math.prod(perm_order(p) for p in perms) << d > BRUTE_BUDGET:
        return
    real = product_system_realization(factors)
    assert (real.system.perms, real.point, real.nbhd) == (perms, start, nbhd)
    _same(real.return_set, rt.return_set(real.system, start, nbhd))
    want = rt.d_joining([rt.return_set(drop_generator(f, i), y, U)
                         for i, (f, y, U) in enumerate(factors, start=1)])
    _same(real.joining, want)
    assert real.equal == rt.PSet.of(real.return_set).equals(want)


def test_label_classes_orders_any_ids_by_least_member():
    assert label_classes([5, 2, 5, 0, 2]) == ((0, 2), (1, 4), (3,))
