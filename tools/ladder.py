"""Scale ladder: `zdcubes verify` on large synthetic rotations, a large
periodic set and a large raw cube set, and `zdcubes joining` at the size
cap of its residue box, each run in a fresh interpreter, recording wall
time, peak RSS, seconds per battery and the SHA-256 of the report.

    python3 tools/ladder.py --out BENCH.json [--workdir DIR]
        [--rung NAME ...] TREE [TREE]

A TREE is a source checkout holding src/zdcubes.  --rung (repeatable)
runs only the named rungs, in ladder order; by default every rung runs.
Every rung runs twice on each tree.  Given two trees (the parent first,
then the change), a rung runs them in both orders, parent then change
and change then parent, since on a shared machine the second of two
back-to-back processes can read slower; every run is recorded.  A tree's
two runs of a rung must give the same report hash: the tool lists the
rungs where they do not and exits 1.  Each rung writes its inputs into
the work directory and runs there as the recorded command, so the
report's input fields hold the bare file names: a report hash is
comparable only together with that command line.  A run longer than
TIMEOUT_S is killed and recorded as a timeout; a child that dies before
writing its stats is recorded with its return code.

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
# name: (subcommand, input suffix, arguments of the suffix's writer after
# the path); the "join" writer takes a stem and writes one input per
# coordinate of the joining
RUNGS = {
    "z48_d2": ("verify", "fsys", (48, (1, 5))),
    "rot32_d3": ("verify", "fsys", (32, (1, 3, 5))),
    "z12_d4": ("verify", "fsys", (12, (1, 5, 7, 11))),
    "z16_d4": ("verify", "fsys", (16, (1, 5, 7, 11))),
    "z6_d5": ("verify", "fsys", (6, (1, 5, 7, 11, 13))),
    "z100_d2": ("verify", "fsys", (100, (1, 7))),
    "z160_d2": ("verify", "fsys", (160, (1, 7))),
    "z200_d2": ("verify", "fsys", (200, (1, 7))),
    "z48_d3": ("verify", "fsys", (48, (1, 5, 7))),
    "pset900k_k2": ("verify", "pset", ((100, 90), (1000, 1800), 4500)),
    "cubes400k_d3": ("verify", "cubes", (3, 400_000, 13)),
    "join1m_d3": ("joining", "join", ((100, 100, 100), 10)),
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
    cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as fh:
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


def write_join_inputs(stem: str, moduli: tuple[int, ...], q: int
                      ) -> list[str]:
    """The inputs of a d-joining with output moduli moduli, d = len(moduli):
    input j (from 1), written to stem_j.pset, holds the vectors of the box
    of the moduli other than the j-th whose coordinates sum to 0 mod q.
    Returns the paths written, in order."""
    paths = []
    for j in range(len(moduli)):
        sub = moduli[:j] + moduli[j + 1:]
        box = np.indices(sub).reshape(len(sub), -1).T
        paths.append(f"{stem}_{j + 1}.pset")
        with open(paths[-1], "w") as fh:
            fh.write(f"# coordinates summing to 0 mod {q}\n"
                     f"periodic-set k={len(sub)} moduli={','.join(map(str, sub))}\n")
            np.savetxt(fh, box[box.sum(axis=1) % q == 0], fmt="%d",
                       delimiter=",")
    return paths


WRITERS = {"fsys": write_system, "pset": write_pset, "cubes": write_cube_set}


def write_inputs(workdir: str, name: str, suffix: str, params: tuple
                 ) -> list[str]:
    """Write a rung's inputs into workdir; their bare file names."""
    stem = os.path.join(workdir, name)
    if suffix == "join":
        return [os.path.basename(p) for p in write_join_inputs(stem, *params)]
    WRITERS[suffix](f"{stem}.{suffix}", *params)
    return [f"{name}.{suffix}"]


def run(tree: str, workdir: str, name: str, args: list[str]) -> dict:
    """One `zdcubes <args>` in workdir, importing tree/src."""
    report = os.path.join(workdir, f"{name}.json")
    stats = os.path.join(workdir, f"{name}.stats.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    if os.path.exists(stats):  # left by the other tree's run of this rung
        os.remove(stats)
    t0 = time.perf_counter()
    with open(report, "wb") as out:
        try:
            child = subprocess.run(
                [sys.executable, "-c", CHILD, stats, *args],
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
    ap.add_argument("--rung", action="append", choices=list(RUNGS),
                    help="run only this rung (repeatable; default: all)")
    args = ap.parse_args()
    if len(args.trees) > 2:
        ap.error("give one or two trees")
    labels = ["parent", "change"] if len(args.trees) == 2 else ["change"]
    workdir = args.workdir or tempfile.mkdtemp(prefix="ladder-")
    pairs = list(zip(labels, args.trees))
    orders = [pairs, pairs[::-1]]
    records, unstable = [], []
    for name, (command, suffix, params) in RUNGS.items():
        if args.rung and name not in args.rung:
            continue
        argv = [command, *write_inputs(workdir, name, suffix, params)]
        runs = {label: [] for label in labels}
        for order in orders:
            for label, tree in order:
                runs[label].append(run(tree, workdir, name, argv))
                print(name, label, json.dumps(runs[label][-1]), flush=True)
        unstable += [f"{name} {label}" for label in labels
                     if len({r.get("report_sha256") for r in runs[label]}) > 1]
        records.append({"name": name, "params": params, "inputs": argv[1:],
                        "command": "zdcubes " + " ".join(argv),
                        "orders": [[label for label, _ in order]
                                   for order in orders],
                        "runs": runs})
    record = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": np.__version__, "timeout_s": TIMEOUT_S,
              "rungs": records}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if unstable:
        print("report hash differs between a tree's runs:", ", ".join(unstable),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
