"""Seeded workloads: input files, the request list, and what each report
must contain.

`--seed` fixes the parameters of every generated system (steps are units
mod n, periodic-set residues are random) and the random relabelling of its
points.  Pass p of a run relabels afresh from (seed, p), so no two passes
send byte-identical inputs while every pass does the same amount of work.
Sizes never depend on the seed, and neither does the work: the steps of a
rotation are one random unit u times fixed multipliers (`scaled_steps`), so
every seed gives a system isomorphic to the others, while the ratio between
two steps, which changes the cost of `verify` by up to a quarter, is fixed.

Expected values come from the benchmark's own arithmetic, never from the
library: the cube-set size of a finite system is the closed form
sum over orbit components c of n_c * prod_i L_i(c), where L_i(c) is the order
of T_i restricted to c, and |K^x0| = prod_i L_i(c(x0)).  On the repository's
fixtures the census hashes must also match tests/data/oracle.json.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from itertools import product

FIXTURES = "fixtures"
ORACLE = os.path.join("tests", "data", "oracle.json")

FSYS_FIXTURES = ("affine25", "nonmin_z4z2", "rot12", "rot6", "rot8_d3",
                 "triv1", "z2z2z3_d3", "z4xz3")
AFFINE_FIXTURES = ("example83", "jordan3", "rot6")
PSET_FIXTURES = ("parityB1", "parityB2")

WHY = {
    "verify_d2": "verify on the 8 finite fixtures and seeded d=2 rotations, "
                 "products and a non-minimal union: the face-group and "
                 "surgery batteries dominate while cube sets stay small",
    "analyze_d3": "cubes, ucpp, rpp and structure on d=3 systems with few "
                  "base points and many exponent combos, or the reverse: "
                  "enumeration, dedup, CubeSet build and template scans",
    "affine_periodic": "affine formula tests, discretization, periodic-set "
                       "verify and joinings that never build a cube set: "
                       "the control where cube-engine changes must not move",
}


# report keys each command must carry, checked against the expectations
CHECKED = {
    "verify": {"Q_size", "K_size", "Q_sha256", "K_sha256"},
    "cubes": {"Q_size", "K_size", "Q_sha256", "K_sha256"},
    "ucpp": {"Q_size"},
    "rpp": set(),
    "structure": {"K_size"},
}
# the flags the click wrappers pass for these commands
FLAGS = {
    "cubes": {"basepoint": 0, "dump": False},
    "structure": {"basepoint": 0},
}


@dataclass
class Request:
    name: str
    command: str                  # verify | joining | an analysis subcommand
    paths: tuple[str, ...]
    flags: dict = field(default_factory=dict)
    code: int = 0                 # expected exit code
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# finite systems as lists of permutations


def rotation(n: int, steps: list[int]) -> list[list[int]]:
    return [[(x + s) % n for x in range(n)] for s in steps]


def cyclic_product(ns: list[int], steps: list[int]) -> list[list[int]]:
    """T_i adds steps[i] in coordinate i of Z/ns[0] x ... (mixed radix ids)."""
    pts = list(product(*(range(n) for n in ns)))
    index = {p: i for i, p in enumerate(pts)}
    return [[index[p[:i] + ((p[i] + s) % n,) + p[i + 1:]] for p in pts]
            for i, (n, s) in enumerate(zip(ns, steps))]


def disjoint_union(parts: list[tuple[int, list[int]]]) -> list[list[int]]:
    """Rotations of Z/n_c side by side; part c moves by its own steps."""
    d = len(parts[0][1])
    perms: list[list[int]] = [[] for _ in range(d)]
    offset = 0
    for n, steps in parts:
        for i in range(d):
            perms[i] += [offset + (x + steps[i]) % n for x in range(n)]
        offset += n
    return perms


def relabel(perms: list[list[int]], rng: random.Random) -> list[list[int]]:
    n = len(perms[0])
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = []
    for p in perms:
        q = [0] * n
        for x in range(n):
            q[sigma[x]] = sigma[p[x]]
        out.append(q)
    return out


def fsys_text(perms: list[list[int]], comment: str) -> str:
    lines = [f"# {comment}", "finite-system", f"points = {len(perms[0])}",
             f"d = {len(perms)}"]
    lines += [f"T{i} = [{','.join(map(str, p))}]"
              for i, p in enumerate(perms, start=1)]
    return "\n".join(lines) + "\n"


def parse_fsys_perms(text: str) -> list[list[int]]:
    perms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("T") and "=" in line:
            body = line.split("=", 1)[1].strip().strip("[]")
            perms.append([int(t) for t in body.split(",")])
    return perms


def census_sizes(perms: list[list[int]], x0: int = 0) -> tuple[int, int]:
    """(|Q|, |K^x0|) from the closed form over orbit components."""
    n = len(perms[0])
    comp = [-1] * n
    components = []
    for start in range(n):
        if comp[start] >= 0:
            continue
        members, stack = [], [start]
        comp[start] = len(components)
        while stack:
            x = stack.pop()
            members.append(x)
            for p in perms:
                if comp[p[x]] < 0:
                    comp[p[x]] = comp[start]
                    stack.append(p[x])
        components.append(members)
    q_size, k_size = 0, 0
    for c, members in enumerate(components):
        orders = [_restricted_order(p, members) for p in perms]
        q_size += len(members) * math.prod(orders)
        if comp[x0] == c:
            k_size = math.prod(orders)
    return q_size, k_size


def _restricted_order(p: list[int], members: list[int]) -> int:
    seen, order = set(), 1
    for x in members:
        if x in seen:
            continue
        length, y = 0, x
        while y not in seen:
            seen.add(y)
            y = p[y]
            length += 1
        order = math.lcm(order, length)
    return order


def units(n: int) -> list[int]:
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def scaled_steps(params: random.Random, n: int, ratios: tuple[int, ...]):
    """Steps u*r mod n for a random unit u; x -> u*x carries the rotation
    by `ratios` to this one."""
    u = params.choice(units(n))
    return [u * r % n for r in ratios]


# ---------------------------------------------------------------------------
# periodic sets


def pset_text(moduli: tuple[int, ...], residues, comment: str) -> str:
    lines = [f"# {comment}",
             f"periodic-set k={len(moduli)} moduli={','.join(map(str, moduli))}"]
    lines += [",".join(map(str, r)) for r in sorted(residues)]
    return "\n".join(lines) + "\n"


def periodic_residues(rng: random.Random, periods: tuple[int, ...],
                      moduli: tuple[int, ...], count: int) -> list[tuple]:
    """`count` random residues modulo `periods`, lifted to `moduli`."""
    box = list(product(*(range(p) for p in periods)))
    base = rng.sample(box, count)
    shifts = list(product(*(range(m // p) for p, m in zip(periods, moduli))))
    return [tuple(r[i] + s[i] * periods[i] for i in range(len(r)))
            for r in base for s in shifts]


# ---------------------------------------------------------------------------
# workloads


class Builder:
    """Collects the files and requests of one pass."""

    def __init__(self, workdir: str, pass_index: int):
        self.dir = os.path.join(workdir, f"p{pass_index}")
        self.files: dict[str, str] = {}
        self.requests: list[Request] = []

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        self.files[path] = text
        return path

    def finite(self, name: str, perms, comment: str, commands) -> None:
        path = self.write(name + ".fsys", fsys_text(perms, comment))
        self._finite_requests(name, path, perms, commands, {})

    def fixture(self, name: str, commands, oracle: dict) -> None:
        path = os.path.join(FIXTURES, name + ".fsys")
        with open(path, encoding="utf-8") as fh:
            perms = parse_fsys_perms(fh.read())
        self._finite_requests(name, path, perms, commands,
                              oracle["fixtures"][name])

    def _finite_requests(self, name, path, perms, commands, oracle) -> None:
        q_size, k_size = census_sizes(perms)
        expect = {"Q_size": q_size, "K_size": k_size}
        for key, src in (("Q_sha256", "Q_sha256"), ("K_sha256", "K0_sha256")):
            if src in oracle:
                expect[key] = oracle[src]
        for command in commands:
            self.requests.append(Request(
                f"{command}:{name}", command, (path,), FLAGS.get(command, {}),
                0, {k: v for k, v in expect.items() if k in CHECKED[command]}))


def _load_oracle() -> dict:
    with open(ORACLE, encoding="utf-8") as fh:
        return json.load(fh)


def _verify_d2(b: Builder, params: random.Random, rng: random.Random,
               smoke: bool, oracle: dict) -> None:
    fixtures = ("rot6", "z4xz3", "triv1", "nonmin_z4z2") if smoke \
        else FSYS_FIXTURES
    for name in fixtures:
        b.fixture(name, ("verify",), oracle)
    if smoke:
        return
    for n in (7, 8):
        steps = scaled_steps(params, n, (1, 3))
        b.finite(f"rot{n}", relabel(rotation(n, steps), rng),
                 f"Z/{n} rotation by {steps}", ("verify",))
    for ns in ((2, 6), (3, 5)):
        steps = [params.choice(units(n)) for n in ns]
        b.finite("z" + "z".join(map(str, ns)),
                 relabel(cyclic_product(list(ns), steps), rng),
                 f"product of Z/{ns[0]} and Z/{ns[1]} by {steps}", ("verify",))
    parts = [(n, scaled_steps(params, n, (1, 2))) for n in (5, 3)]
    b.finite("union5_3", relabel(disjoint_union(parts), rng),
             f"non-minimal union {parts}", ("verify",))


def _analyze_d3(b: Builder, params: random.Random, rng: random.Random,
                smoke: bool, oracle: dict) -> None:
    commands = ("cubes", "ucpp", "rpp", "structure")
    b.fixture("z2z2z3_d3", commands, oracle)
    if smoke:
        return
    b.fixture("rot8_d3", ("cubes",), oracle)
    steps = scaled_steps(params, 10, (1, 3, 7))
    b.finite("rot10_d3", relabel(rotation(10, steps), rng),
             f"Z/10 rotation by {steps}", commands)
    ns = (3, 5, 6)
    steps = [params.choice(units(n)) for n in ns]
    b.finite("z3z5z6", relabel(cyclic_product(list(ns), steps), rng),
             f"product of Z/3, Z/5, Z/6 by {steps}", commands)


def _affine_periodic(b: Builder, params: random.Random, rng: random.Random,
                     smoke: bool, oracle: dict) -> None:
    fx = {name: os.path.join(FIXTURES, name + ".affine")
          for name in AFFINE_FIXTURES}
    add = b.requests.append
    add(Request("formula-test:example83", "formula-test", (fx["example83"],),
                {"range": 1 if smoke else 4, "q": None}))
    add(Request("formula-test:jordan3", "formula-test", (fx["jordan3"],),
                {"range": 3, "q": None}, code=1))
    if not smoke:
        add(Request("discretize-full:jordan3", "discretize", (fx["jordan3"],),
                    {"q": 8, "mode": "full", "out": None},
                    expect={"points": 8 ** 3}))
    add(Request("discretize-orbit:example83", "discretize",
                (fx["example83"],), {"q": None, "mode": "orbit", "out": None}))
    for name in AFFINE_FIXTURES:
        add(Request(f"verify:{name}", "verify", (fx[name],)))
    if smoke:
        for name in PSET_FIXTURES:
            add(Request(f"verify:{name}", "verify",
                        (os.path.join(FIXTURES, name + ".pset"),)))
        return
    for i, (periods, moduli) in enumerate((((12, 10), (96, 100)),
                                           ((15, 8), (105, 96)),
                                           ((9, 14), (108, 98)),
                                           ((10, 9), (100, 108)))):
        count = math.prod(periods) // 2
        residues = periodic_residues(rng, periods, moduli, count)
        path = b.write(f"pset{i}.pset", pset_text(
            moduli, residues, f"true periods {periods} lifted to {moduli}"))
        add(Request(f"verify:pset{i}", "verify", (path,),
                    expect={"canonical_moduli": list(periods)}))
    for i, moduli in enumerate(((20, 24, 30), (24, 30, 40))):
        paths = []
        for j in range(3):
            sub = tuple(m for c, m in enumerate(moduli) if c != j)
            box = list(product(*(range(m) for m in sub)))
            residues = rng.sample(box, len(box) // 2)
            paths.append(b.write(f"join{i}_{j}.pset", pset_text(
                sub, residues, f"joining input {j + 1} of 3")))
        add(Request(f"joining:{i}", "joining", tuple(paths),
                    expect={"moduli": list(moduli)}))


BUILDERS = {
    "verify_d2": _verify_d2,
    "analyze_d3": _analyze_d3,
    "affine_periodic": _affine_periodic,
}


def build(workload: str, seed: int, pass_index: int, workdir: str,
          smoke: bool = False) -> Builder:
    """Files and requests of pass `pass_index`; the same arguments always
    give the same bytes."""
    b = Builder(workdir, pass_index)
    params = random.Random(f"{workload}:{seed}")
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    BUILDERS[workload](b, params, rng, smoke, _load_oracle())
    return b


def problems(req: Request, report: dict, code: int) -> list[str]:
    """Everything wrong with one report; empty when it is correct."""
    out = []
    if code != req.code:
        out.append(f"exit code {code}, expected {req.code}")
    want = "pass" if req.code == 0 else "fail"
    if report.get("status") != want:
        out.append(f"status {report.get('status')!r}, expected {want!r}")
    if req.code == 1 and report.get("result") != "witness":
        out.append(f"result {report.get('result')!r}, expected 'witness'")
    checks = {item["check"]: item for item in report.get("checks", ())}
    failed = sorted(name for name, item in checks.items()
                    if item["status"] == "fail")
    if failed:
        out.append(f"failed checks {failed}")
    observed = dict(report)
    for check, keys in (("census", ("Q_size", "Q_sha256")),
                        ("section_consistency", ("K_size", "K_sha256")),
                        ("canonical_equivalent", ("canonical_moduli",))):
        detail = checks.get(check, {}).get("detail", {})
        observed.update((k, detail[k]) for k in keys if k in detail)
    for key, value in req.expect.items():
        if observed.get(key) != value:
            out.append(f"{key} {observed.get(key)!r}, expected {value!r}")
    return out
