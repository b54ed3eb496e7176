"""Report bytes of the fixture commands against frozen hashes.

Each report is serialised as `zdcubes` prints it (sorted keys, indent 2)
followed by its exit code, from the repository root so that the input paths
in it read `fixtures/<name>`; on the affine fixtures they include
`affine-check`, a passing and a witnessed `formula-test`, and `discretize`
in both modes.  More reports run on generated inputs, written
under relative names into a temporary working directory: periodic sets at
the sizes of the benchmark's, from a fixed seed, and two finite systems
whose face-group orbits are many generator steps deep, a Z/24 rotation
with d=2 and a relabelled disjoint union of Z/5 and Z/7.  tests/data/reports.json
holds the SHA-256 of each; regenerate it only for a deliberate change of
output:

    PYTHONPATH=src python tests/test_report_bytes.py > tests/data/reports.json
"""

import hashlib
import json
import os
import pathlib
import random
import tempfile
from itertools import product

from zdcubes import cli
from zdcubes.errors import HypothesisError, InputError

ROOT = pathlib.Path(__file__).resolve().parent.parent
FROZEN = ROOT / "tests" / "data" / "reports.json"


def _bytes(call) -> bytes:
    try:
        report, code = call()
    except InputError as exc:
        report, code = {"error": str(exc), "status": "input-error"}, 3
    except HypothesisError as exc:
        report, code = {"error": str(exc), "status": "hypotheses-unmet"}, 2
    return (json.dumps(report, indent=2, sort_keys=True,
                       default=cli._json_default) + f"\n{code}\n").encode()


def _pset_text(moduli, residues) -> str:
    lines = [f"periodic-set k={len(moduli)} moduli={','.join(map(str, moduli))}"]
    lines += [",".join(map(str, r)) for r in residues]
    return "\n".join(lines) + "\n"


def _fsys_text(perms) -> str:
    lines = ["finite-system", f"points = {len(perms[0])}", f"d = {len(perms)}"]
    lines += [f"T{i} = [{', '.join(map(str, p))}]"
              for i, p in enumerate(perms, start=1)]
    return "\n".join(lines) + "\n"


def generated_systems(rng: random.Random) -> dict[str, str]:
    """Text of a Z/24 rotation by steps (1, 5), and of the union of Z/5
    rotated by (1, 2) and Z/7 rotated by (3, 1) under a random relabelling
    of its 12 points."""
    files = {"rot24.fsys": _fsys_text(
        [[(x + s) % 24 for x in range(24)] for s in (1, 5)])}
    union = [[(x + a) % 5 for x in range(5)] + [5 + (x + b) % 7 for x in range(7)]
             for a, b in ((1, 3), (2, 1))]
    sigma = list(range(12))
    rng.shuffle(sigma)
    relabelled = []
    for p in union:
        q = [0] * 12
        for x, y in enumerate(p):
            q[sigma[x]] = sigma[y]
        relabelled.append(q)
    files["union5_7.fsys"] = _fsys_text(relabelled)
    return files


def generated_inputs() -> dict[str, str]:
    """Text of periodic sets as large as the benchmark's: 4,800 residues
    with true periods (12, 10) lifted to the moduli (96, 100), in random
    order and some unreduced, and the three inputs of a joining with output
    moduli (20, 24, 30), each half of its box; then the finite systems of
    generated_systems."""
    rng = random.Random(20181)
    base = rng.sample(list(product(range(12), range(10))), 60)
    lifted = [(a + 12 * s + 96 * rng.randint(-2, 2), b + 10 * t)
              for a, b in base for s in range(8) for t in range(10)]
    rng.shuffle(lifted)
    files = {"lifted.pset": _pset_text((96, 100), lifted)}
    moduli = (20, 24, 30)
    for j in range(3):
        sub = moduli[:j] + moduli[j + 1:]
        box = list(product(*map(range, sub)))
        files[f"join{j + 1}.pset"] = _pset_text(sub, rng.sample(box, len(box) // 2))
    files.update(generated_systems(random.Random(20182)))
    return files


def _generated_calls() -> dict:
    joined = ("join1.pset", "join2.pset", "join3.pset")
    calls = {f"verify {name}": lambda p=name: cli.cmd_verify(p)
             for name in ("lifted.pset", "rot24.fsys", "union5_7.fsys")}
    calls["joining " + " ".join(joined)] = lambda: cli.cmd_joining(joined)
    return calls


def report_hashes() -> dict[str, str]:
    """SHA-256 of every report, keyed by command and input; run from the
    repository root."""
    calls = {}
    for name in sorted(os.listdir("fixtures")):
        path = f"fixtures/{name}"
        calls[f"verify {path}"] = lambda p=path: cli.cmd_verify(p)
        if name.endswith(".fsys"):
            calls[f"return-times {path} --point 0"] = (
                lambda p=path: cli.cmd_analyze(p, "return-times", {"point": 0}))
            calls[f"cubes {path} --basepoint 0"] = (
                lambda p=path: cli.cmd_analyze(
                    p, "cubes", {"basepoint": 0, "dump": False}))
            calls[f"rpp {path}"] = lambda p=path: cli.cmd_analyze(p, "rpp", {})
            calls[f"structure {path} --basepoint 0"] = (
                lambda p=path: cli.cmd_analyze(p, "structure", {"basepoint": 0}))
        if name.endswith(".affine"):
            calls[f"affine-check {path}"] = (
                lambda p=path: cli.cmd_analyze(p, "affine-check", {}))
    for name, n_range in (("example83", 4), ("jordan3", 3)):
        path = f"fixtures/{name}.affine"
        calls[f"formula-test {path} --range {n_range}"] = (
            lambda p=path, n=n_range: cli.cmd_analyze(
                p, "formula-test", {"range": n, "q": None}))
    for name, q, mode in (("jordan3", 8, "full"), ("example83", None, "orbit")):
        path = f"fixtures/{name}.affine"
        key = f"discretize {path}" + (f" --q {q}" if q else "") + f" --mode {mode}"
        calls[key] = lambda p=path, q=q, mode=mode: cli.cmd_analyze(
            p, "discretize", {"q": q, "out": None, "mode": mode})
    pair = ("fixtures/parityB1.pset", "fixtures/parityB2.pset")
    calls["joining " + " ".join(pair)] = lambda: cli.cmd_joining(pair)
    hashes = {key: hashlib.sha256(_bytes(call)).hexdigest()
              for key, call in calls.items()}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in generated_inputs().items():
                pathlib.Path(name).write_text(text)
            hashes.update((key, hashlib.sha256(_bytes(call)).hexdigest())
                          for key, call in _generated_calls().items())
        finally:
            os.chdir(here)
    return hashes


def test_reports_match_frozen_hashes(monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads(FROZEN.read_text())
    got = report_hashes()
    assert sorted(got) == sorted(want)
    assert [k for k in got if got[k] != want[k]] == []


if __name__ == "__main__":
    os.chdir(ROOT)
    print(json.dumps(report_hashes(), indent=1, sort_keys=True))
