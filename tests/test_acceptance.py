"""End-to-end acceptance criteria.

Each test covers one numbered criterion; the conftest hook prints a one-line
PASS/FAIL verdict per criterion after the run.  Time bounds are asserted
inside the tests that carry one.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

from click.testing import CliRunner

from zdcubes import battery
from zdcubes.affine import (
    closed_form,
    formula_equivalence_test,
    iterate_word,
    matcond_check,
    validate_affine,
)
from zdcubes.cli import main
from zdcubes.cube_engine import enumerate_K, enumerate_Q, ucpp_check
from zdcubes.finite_system import quotient
from zdcubes.proximal import (
    check_equivalence,
    compute_R,
    compute_R_j,
    maximal_ucpp_factor,
    pushforward_check,
)
from zdcubes.return_times import (
    PeriodicSet,
    d_joining,
    drop_generator,
    joining_containment_check,
    product_system_realization,
    return_set,
)
from zdcubes.structure import (
    SubgroupSpec,
    decompose,
    factor_isomorphism_check,
    maximal_trivial_H_factor,
    relative_independence_check,
)

MINIMAL = ["rot6", "z4xz3", "rot12", "triv1", "rot8_d3", "z2z2z3_d3",
           "affine25"]


def _full_dirs(sys_):
    return tuple(range(1, sys_.d + 1))


def test_criterion_1(affines):
    """affine fixture verifies the matrix conditions and unipotence in < 1s"""
    t0 = time.perf_counter()
    asys = affines["example83"]
    v = validate_affine(asys)
    m = matcond_check(asys)
    elapsed = time.perf_counter() - t0
    assert v.ok
    assert all(v.unipotent)
    assert m.product_zero  # (A1 - I)(A2 - I) = 0
    assert all(m.translation_zero)
    assert m.all_ok
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2(systems, oracle):
    """rot6 census, unique completion, and relations match the oracle in < 1s"""
    t0 = time.perf_counter()
    sys_ = systems["rot6"]
    Q = enumerate_Q(sys_, (1, 2))
    K = enumerate_K(sys_, (1, 2), 0)
    u = ucpp_check(Q)
    r1 = compute_R_j(sys_, 1)
    r2 = compute_R_j(sys_, 2)
    elapsed = time.perf_counter() - t0
    want = oracle["fixtures"]["rot6"]
    assert len(Q) == 108 == want["Q_size"]
    assert len(K) == 18 == want["K0_size"]
    assert Q.text_sha256() == want["Q_sha256"]
    assert K.text_sha256() == want["K0_sha256"]
    assert Q.to_text() == oracle["rot6_Q_text"]
    assert u.ok and want["ucpp"]
    assert r1.is_diagonal() and r2.is_diagonal()
    assert want["R_Tj_is_diagonal"] == [True, True]
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3(minimal_systems):
    """five-way agreement on every pair of every minimal fixture in < 60s"""
    t0 = time.perf_counter()
    assert len(minimal_systems) >= 6
    dims = {s.d for s in minimal_systems.values()}
    assert {2, 3} <= dims
    assert all(s.n_points <= 64 for s in minimal_systems.values())
    for name, sys_ in minimal_systems.items():
        agree, checked, witness = battery.five_way_battery(sys_)
        assert agree, (name, witness)
        assert checked == sys_.n_points ** 2  # exhaustive over ordered pairs
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.3f}s"


def test_criterion_4(minimal_systems):
    """the intersection relation quotients to a unique-completion system

    Exhaustive on every minimal fixture: the relation is an invariant
    equivalence, the quotient has unique completion, and its own relation
    is the diagonal."""
    for name, sys_ in minimal_systems.items():
        R = compute_R(sys_)
        eq = check_equivalence(R)
        assert eq.ok, (name, eq)
        assert eq.invariant, name
        q_sys, pi = quotient(sys_, R)
        Qq = enumerate_Q(q_sys, _full_dirs(q_sys))
        assert ucpp_check(Qq).ok, name
        Rq = compute_R(q_sys)
        assert Rq.is_diagonal(), name


def test_criterion_5(minimal_systems):
    """every shipped factor map pushes the relation exactly onto the target"""
    maps = []
    for name, sys_ in minimal_systems.items():
        _, pi = maximal_ucpp_factor(sys_)
        maps.append((f"{name}:ucpp-quotient", pi))
        for j in range(1, sys_.d + 1):
            _, pj = maximal_trivial_H_factor(sys_, SubgroupSpec(dirs=(j,)))
            maps.append((f"{name}:trivial-T{j}", pj))
    assert maps
    for label, pi in maps:
        rep = pushforward_check(pi)
        assert rep.equal, (label, rep)


def test_criterion_6(minimal_systems):
    """all six surgery operations preserve every minimal fixture's cube sets"""
    wanted = {"glue_closure", "insert_closure", "duplicate_closure",
              "project_closure", "digit_permute_bijection",
              "reflect_invariance"}
    for name, sys_ in minimal_systems.items():
        items = battery.surgery_battery(sys_)
        by_name = {i["check"]: i for i in items}
        assert wanted <= set(by_name), name
        for check in wanted:
            assert by_name[check]["status"] == "pass", (name, check,
                                                        by_name[check])


def test_criterion_7(minimal_systems, oracle):
    """joining decompositions verify on every unique-completion fixture in < 120s"""
    t0 = time.perf_counter()
    for name, sys_ in minimal_systems.items():
        if not oracle["fixtures"][name]["ucpp"]:
            continue
        dec = decompose(sys_, 0)
        assert dec.hypotheses_met, name
        assert dec.injective, (name, dec.injectivity_witness)
        for j in range(1, sys_.d + 1):
            iso = factor_isomorphism_check(sys_, 0, j)
            assert iso.ok, (name, j, iso.witness)
        ri = relative_independence_check(dec)
        assert ri.status == "pass", (name, ri.witness)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.3f}s"


def test_criterion_8(minimal_systems, fixture_dir, oracle):
    """joinings obey the product rule and are realized by product systems

    Random 2-joinings match brute-force membership, the parity 3-joining
    is empty, and on every unique-completion minimal fixture the diagonal
    return sets join to a set realized exactly by a product system."""
    # random 2-joinings against brute-force membership
    rng = random.Random(0)
    for _ in range(25):
        def rand_set():
            m = rng.randrange(1, 9)
            cells = {(c,) for c in range(m) if rng.random() < 0.5}
            return PeriodicSet(1, (m,), frozenset(cells))

        b1, b2 = rand_set(), rand_set()
        J = d_joining([b1, b2])
        M1 = b1.moduli[0] * b2.moduli[0]
        for n1 in range(M1):
            for n2 in range(M1):
                expect = ((n1,) in b2) and ((n2,) in b1)
                assert ((n1, n2) in J) == expect, (b1, b2, n1, n2)

    # parity triple
    b1 = PeriodicSet.from_text((fixture_dir / "parityB1.pset").read_text())
    b2 = PeriodicSet.from_text((fixture_dir / "parityB2.pset").read_text())
    b3 = PeriodicSet(2, (2, 2), frozenset({(0, 0), (1, 1)}))
    assert d_joining([b1, b2, b3]).is_empty() == oracle["parity3_joining_empty"]

    # containment and realization on every unique-completion minimal fixture
    for name, sys_ in minimal_systems.items():
        if not oracle["fixtures"][name]["ucpp"]:
            continue
        res = joining_containment_check(sys_, 0)
        assert res.status == "pass", name
        assert res.diagonal_identity, name

        dec = decompose(sys_, 0)
        factors = []
        for j, proj in enumerate(dec.side_projections, start=1):
            diag = (0,) * len(proj.positions)
            yj = proj.values.index(diag)
            factors.append((proj.system, yj, frozenset({yj})))
        real = product_system_realization(factors)
        assert real.ucpp_ok, name
        assert real.equal, name  # return set == the input d-joining
        assert real.return_set.equals(real.joining), name


def test_criterion_9(affines, oracle):
    """closed form equals iteration exactly where the conditions hold

    Exhaustive over every exponent vector in [-3, 3]^d and every lattice
    point; the fixture failing the conditions yields a concrete witness
    matching the frozen one."""
    for name in ("example83", "rot6"):
        asys = affines[name]
        assert matcond_check(asys).all_ok, name
        assert asys.lattice_denominator() <= 6
        res = formula_equivalence_test(asys, n_range=3)
        assert res.status == "pass", name
        assert res.n_count == 7 ** asys.d
        assert res.x_count == asys.lattice_denominator() ** asys.r

    bad = formula_equivalence_test(affines["jordan3"], n_range=3)
    assert bad.status == "witness"
    n, x = bad.witness_n, bad.witness_x
    assert iterate_word(affines["jordan3"], n, x) != \
        closed_form(affines["jordan3"], n, x)
    # frozen independent witness
    want = oracle["jordan_witness"]
    wn = tuple(want["n"])
    wx = tuple(Fraction(s) for s in want["x"])
    assert iterate_word(affines["jordan3"], wn, wx) == \
        tuple(Fraction(s) for s in want["lhs"])
    assert closed_form(affines["jordan3"], wn, wx) == \
        tuple(Fraction(s) for s in want["rhs"])


def test_criterion_10(fixture_dir):
    """verification reports are byte-identical with 1 and 8 threads"""
    runner = CliRunner()
    fixtures = sorted(p.name for p in fixture_dir.iterdir()
                      if p.suffix in (".fsys", ".affine", ".pset"))
    assert len(fixtures) == 13
    for name in fixtures:
        outs = []
        codes = []
        for t in ("1", "8"):
            res = runner.invoke(main, ["verify", str(fixture_dir / name),
                                       "--threads", t])
            outs.append(res.output)
            codes.append(res.exit_code)
        assert outs[0] == outs[1], name
        assert codes[0] == codes[1] == 0, (name, codes)
        rep = json.loads(outs[0])
        assert rep["counts"]["fail"] == 0, name
