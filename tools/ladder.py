"""Scale ladder: `zdcubes verify` on large synthetic rotations, a large
periodic set and a large raw cube set, each run in a fresh interpreter,
recording wall time, peak RSS, seconds per battery and the SHA-256 of the
report.

    python3 tools/ladder.py --out BENCH.json [--workdir DIR] TREE [TREE]

A TREE is a source checkout holding src/zdcubes.  Given two trees (the
parent first, then the change), every rung runs on both, and which one
goes first alternates from rung to rung, since a shared machine drifts in
speed.  Each rung writes its input into the work directory and runs there
as the recorded command, so the report's "input" field is the bare file
name: a report hash is comparable only together with that command line.
A run longer than TIMEOUT_S is killed and recorded as a timeout; a child
that dies before writing its stats is recorded with its return code.

Wall time spans the child interpreter from start to exit.  Peak RSS and
the seconds per battery are measured inside the child, which wraps the
battery functions of zdcubes.battery from outside before running the
command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

TIMEOUT_S = 300
# name: (input suffix, arguments of the suffix's writer after the path)
RUNGS = {
    "z48_d2": ("fsys", (48, (1, 5))),
    "rot32_d3": ("fsys", (32, (1, 3, 5))),
    "z12_d4": ("fsys", (12, (1, 5, 7, 11))),
    "z100_d2": ("fsys", (100, (1, 7))),
    "z160_d2": ("fsys", (160, (1, 7))),
    "pset900k_k2": ("pset", ((100, 90), (1000, 1800), 4500)),
    "cubes400k_d3": ("cubes", (3, 400_000, 13)),
}
BATTERIES = ("cube_battery", "surgery_battery", "proximal_battery",
             "structure_battery", "return_battery", "pset_battery")
CHILD = """
import json, resource, sys, time
from zdcubes import battery, cli

spent = {}

def timed(name, f):
    def run(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            spent[name] = spent.get(name, 0.0) + time.perf_counter() - t0
    return run

for name in %r:
    setattr(battery, name, timed(name, getattr(battery, name)))
code = 0
try:
    cli.main(["verify", sys.argv[1]])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[2], "w") as fh:
    json.dump({"exit": code, "battery_s": spent, "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}, fh)
""" % (BATTERIES,)


def write_system(path: str, n: int, steps: tuple[int, ...]) -> None:
    """The system on Z/n with one generator x -> x + s per step s."""
    lines = ["finite-system", f"points = {n}", f"d = {len(steps)}"]
    lines += [f"T{i} = [{', '.join(str((x + s) % n) for x in range(n))}]"
              for i, s in enumerate(steps, start=1)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_pset(path: str, periods: tuple[int, ...], moduli: tuple[int, ...],
               count: int) -> None:
    """The residues of the period box whose flat index i has 7919 i mod
    (box size) below count, lifted to moduli, written as the benchmark
    writes a set: a comment, the header, the sorted rows."""
    size = int(np.prod(periods))
    base = np.flatnonzero(np.arange(size) * 7919 % size < count)
    base = np.stack(np.unravel_index(base, periods), axis=1)
    shifts = np.indices([m // p for p, m in zip(periods, moduli)])
    shifts = shifts.reshape(len(periods), -1).T * np.array(periods)
    rows = (base[:, None] + shifts[None]).reshape(-1, len(periods))
    rows = rows[np.lexsort(rows.T[::-1])]
    with open(path, "w") as fh:
        fh.write(f"# periods {periods} lifted to {moduli}\n"
                 f"periodic-set k={len(moduli)} moduli={','.join(map(str, moduli))}\n")
        np.savetxt(fh, rows, fmt="%d", delimiter=",")


def write_cube_set(path: str, d: int, rows: int, seed: int) -> None:
    """rows raw tuples of width 2^d with coordinates below 1000, drawn by
    numpy's default generator from seed."""
    values = np.random.default_rng(seed).integers(0, 1000, size=(rows, 1 << d))
    with open(path, "w") as fh:
        fh.write(f"cube-set d={d} dirs={','.join(map(str, range(1, d + 1)))}\n")
        np.savetxt(fh, values, fmt="%d", delimiter=",")


WRITERS = {"fsys": write_system, "pset": write_pset, "cubes": write_cube_set}


def run(tree: str, workdir: str, name: str, infile: str) -> dict:
    """One `zdcubes verify <infile>` in workdir, importing tree/src."""
    report = os.path.join(workdir, f"{name}.json")
    stats = os.path.join(workdir, f"{name}.stats.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    if os.path.exists(stats):  # left by the other tree's run of this rung
        os.remove(stats)
    t0 = time.perf_counter()
    with open(report, "wb") as out:
        try:
            child = subprocess.run(
                [sys.executable, "-c", CHILD, infile, stats],
                cwd=workdir, env=env, stdout=out, check=False, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"timeout": TIMEOUT_S}
    wall = time.perf_counter() - t0
    if child.returncode != 0 or not os.path.exists(stats):
        return {"failed": child.returncode, "wall_s": round(wall, 3)}
    with open(stats) as fh:
        result = json.load(fh)
    with open(report, "rb") as fh:
        result["report_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    result["wall_s"] = round(wall, 3)
    result["peak_rss_mb"] = round(result["peak_rss_mb"], 1)
    result["battery_s"] = {k: round(v, 3) for k, v in result["battery_s"].items()}
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", help="parent tree, then change tree")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir", help="where inputs and reports go")
    args = ap.parse_args()
    if len(args.trees) > 2:
        ap.error("give one or two trees")
    labels = ["parent", "change"] if len(args.trees) == 2 else ["change"]
    workdir = args.workdir or tempfile.mkdtemp(prefix="ladder-")
    records = []
    for i, (name, (suffix, params)) in enumerate(RUNGS.items()):
        infile = f"{name}.{suffix}"
        WRITERS[suffix](os.path.join(workdir, infile), *params)
        order = list(zip(labels, args.trees))
        order = order[::-1] if i % 2 else order
        runs = {}
        for label, tree in order:
            runs[label] = run(tree, workdir, name, infile)
            print(name, label, json.dumps(runs[label]), flush=True)
        records.append({"name": name, "params": params, "input": infile,
                        "command": f"zdcubes verify {infile}",
                        "order": [label for label, _ in order], "runs": runs})
    record = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": np.__version__, "timeout_s": TIMEOUT_S,
              "rungs": records}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
