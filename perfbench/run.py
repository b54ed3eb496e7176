"""End-to-end and per-layer benchmark of `zdcubes verify` and the analysis
commands, on the pure-Python path.

    python3 perfbench/run.py --workload verify_d2 --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports zdcubes from ./src.  One run:

1. starts a fresh interpreter several times up to `import zdcubes.cli` done
   and reports the median as `setup_s`;
2. starts worker.py in a fresh interpreter for the workload's closed loop
   (one client, threads=1), which gates every report;
3. starts worker.py again at threads=min(2, nproc) on pass 0, after
   regenerating its inputs from the same seed, and requires every report to
   hash the same as in step 2 (untimed);
4. prints what it ran and why, then as its last line one JSON object with
   `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
   with `--trace 0`, the per-layer metrics of one extra traced pass with
   `--trace 1`.

The end-to-end times are corrected for the speed of the machine: each pass
and each group of interpreter starts is scaled by the reference loop times
measured around it (reference.py), to a machine that runs that loop in
`reference.NOMINAL_S`.  The measured times are printed as well.  Per-layer
times are as measured.

It exits 1 if any report is wrong and 2 if it cannot run at all (for
instance outside a checkout of the repository).  Spans of the traced pass
are written to .perfbench/spans-<workload>.npz.  `--smoke` runs the
fixtures only, at tiny sizes, to check the harness itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench"
SETUP_STARTS = 2  # at each of: before, between and after the two workers
# Every workload sends 13 requests a pass.  At least 8 passes give 104
# latencies, so the tail is always the 90th percentile.
MIN_PASSES = 8
DEADLINE_S = 170
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

SURGERY = ("glue", "insert", "duplicate", "project", "digit_permute_point",
           "reflect_point")
GROUPS = {
    "cube_engine.surgery": tuple(f"cube_engine.{f}" for f in SURGERY),
    "cli.parse": ("cli.detect_kind", "finite_system.parse_finite_system",
                  "affine.parse_affine", "return_times.PeriodicSet.from_text",
                  "cube_engine.CubeSet.from_text"),
}
# inclusive time of these spans never overlaps within one list
FACE_AND_SURGERY = ("cube_engine.FaceGroupElement.apply",
                    "battery.surgery_battery")
CUBE_SETS = ("cube_engine.enumerate_Q", "cube_engine.enumerate_K",
             "cube_engine.ucpp_check", "kernels.template_scan")
UNITS = {"calls": "count", "self_s": "s", "rows": "count", "bytes_out": "B",
         "unique_rows": "count", "unique_ratio": "1", "distinct_ratio": "1",
         "hits": "count", "points": "count"}


def _layers() -> list[str]:
    spec = [
        ("cube_engine.FaceGroupElement.apply", "calls self_s"),
        ("finite_system.perm_pow", "calls self_s"),
        ("finite_system.perm_order", "calls self_s"),
        ("battery.surgery_battery", "self_s"),
        ("cube_engine.surgery", "calls self_s"),
        ("kernels.enumerate_blocks", "calls self_s rows bytes_out"),
        ("cube_engine.enumerate_Q",
         "calls self_s rows unique_rows unique_ratio distinct_ratio"),
        ("cube_engine.enumerate_K", "calls self_s"),
        ("cube_engine.CubeSet.init", "calls self_s"),
        ("cube_engine.ucpp_check", "calls self_s"),
        ("kernels.template_scan", "calls self_s rows hits"),
        ("proximal.compute_R_j", "calls self_s"),
        ("proximal.compute_R", "calls"),
        ("proximal.sections", "self_s"),
        ("battery.five_way_battery", "self_s"),
        ("structure.decompose", "calls self_s"),
        ("structure.face_system", "calls self_s"),
        ("structure.factor_isomorphism_check", "self_s"),
        ("structure.relative_independence_check", "self_s"),
        ("structure.maximal_trivial_H_factor", "self_s"),
        ("proximal.maximal_ucpp_factor", "self_s"),
        ("proximal.pushforward_check", "self_s"),
        ("finite_system.is_minimal", "self_s"),
        ("finite_system.quotient", "self_s"),
        ("battery.cube_battery", "self_s"),
        ("battery.proximal_battery", "self_s"),
        ("battery.structure_battery", "self_s"),
        ("battery.return_battery", "self_s"),
        ("return_times.return_set", "calls self_s"),
        ("return_times.product_system_realization", "self_s"),
        ("affine.formula_equivalence_test", "self_s"),
        ("affine.discretize", "self_s points"),
        ("affine.word_affine", "calls"),
        ("return_times.d_joining", "self_s"),
        ("return_times.PeriodicSet.canonical", "self_s"),
        ("battery.affine_battery", "self_s"),
        ("battery.pset_battery", "self_s"),
        ("cli.parse", "self_s"),
        ("cli.report_json", "self_s"),
    ]
    return [f"{name}.{stat}" for name, stats in spec for stat in stats.split()]


PER_LAYER = _layers() + ["cli.report_bytes", "trace.overhead_s"]


def layer_metrics(traced: dict, untraced_wall: float) -> dict:
    calls, self_s, counts = traced["calls"], traced["self_s"], traced["counts"]

    def members(name):
        return GROUPS.get(name, (name,))

    out = {}
    for metric in PER_LAYER:
        name, stat = metric.rsplit(".", 1)
        if metric == "cli.report_bytes":
            value, unit = counts.get(metric, 0), "B"
        elif metric == "trace.overhead_s":
            value, unit = traced["wall_s"] - untraced_wall, "s"
        elif stat == "calls":
            value, unit = sum(calls.get(m, 0) for m in members(name)), "count"
        elif stat == "self_s":
            value, unit = sum(self_s.get(m, 0.0) for m in members(name)), "s"
        elif stat == "unique_ratio":
            rows = counts.get(f"{name}.rows", 0)
            value = counts.get(f"{name}.unique_rows", 0) / rows if rows else 0.0
            unit = "1"
        elif stat == "distinct_ratio":
            n = calls.get(name, 0)
            value = counts.get(f"{name}.distinct_keys", 0) / n if n else 0.0
            unit = "1"
        else:
            value, unit = counts.get(metric, 0), UNITS[stat]
        out[metric] = {"value": value, "unit": unit}
    return out


def layer_split(traced: dict) -> str:
    """Shares of the traced pass: the face-group and surgery path, the
    cube-set path, and how many spans the cube engine and kernels closed."""
    inc = traced["inclusive_s"]
    face = sum(inc.get(n, 0.0) for n in FACE_AND_SURGERY)
    cubes = sum(inc.get(n, 0.0) for n in CUBE_SETS)
    engine = sum(n for name, n in traced["calls"].items()
                 if name.startswith(("cube_engine.", "kernels.")))
    wall = traced["wall_s"]
    return (f"face group + surgery {face / wall:.0%}, enumeration + ucpp + "
            f"template scan {cubes / wall:.0%} of the traced pass; "
            f"{engine} cube_engine/kernels spans")


def tail(latencies: list[float], guaranteed: int) -> tuple[str, float]:
    """The highest ladder percentile with at least ten samples beyond it at
    the sample count every run reaches, so runs report the same percentile."""
    for p in LADDER:
        if guaranteed * (100.0 - p) / 100.0 >= 10:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return f"p{p:g}", cuts[int(round(p * 10)) - 1]
    return "max", max(latencies)


def run_worker(args, extra: list[str], workdir: str, out: str,
               deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir,
           "--out", out, *extra]
    if args.smoke:
        cmd.append("--smoke")
    # a timeout kills the worker and waits for it before raising
    subprocess.run(cmd, check=True, timeout=max(1.0, deadline - perf_counter()))
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(starts: int, deadline: float) -> list[tuple[float, float]]:
    """(measured, corrected) seconds of `starts` interpreter starts."""
    if not starts:
        return []
    env = dict(os.environ, PYTHONPATH="src")
    times = []
    before = reference.seconds()
    for _ in range(starts):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import zdcubes.cli"], env=env,
                       check=True, timeout=max(1.0, deadline - perf_counter()))
        times.append(perf_counter() - t0)
    around = [before, reference.seconds()]
    return [(t, reference.corrected(t, around)) for t in times]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="fixtures only, one pass: checks the harness")
    args = ap.parse_args()

    missing = [p for p in (os.path.join("src", "zdcubes", "cli.py"),
                           workloads.FIXTURES, workloads.ORACLE)
               if not os.path.exists(p)]
    if missing:
        print(f"run from the repository root; missing {missing}",
              file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    min_passes = 1 if args.smoke else MIN_PASSES
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    # set-up time is an end-to-end metric, so a traced run skips measuring it
    starts = 0 if args.trace else 1 if args.smoke else SETUP_STARTS
    try:
        # interpreter starts are spread over the run so one slow stretch of
        # the machine does not set the median
        setup = setup_seconds(starts, deadline)
        main_run = run_worker(
            args, ["--trace", str(args.trace), "--threads", "1",
                   "--min-passes", str(min_passes),
                   "--spans", os.path.join(OUT_DIR, f"spans-{args.workload}.npz")],
            workdir, os.path.join(workdir, "main.json"), deadline)
        setup += setup_seconds(starts, deadline)
        identity = run_worker(
            args, ["--threads", str(threads), "--identity"],
            workdir, os.path.join(workdir, "identity.json"), deadline)
        setup += setup_seconds(starts, deadline)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = main_run["passes"]
    timed = passes + ([main_run["traced"]] if main_run["traced"] else [])
    attempted = sum(len(p["latencies"]) for p in timed)
    failures = [f for p in timed for f in p["failures"]]
    failures += identity["passes"][0]["failures"]
    first = passes[0]
    mismatched = [name for name, a, b in zip(first["names"],
                                             first["hashes"],
                                             identity["passes"][0]["hashes"])
                  if a != b]
    correct = not failures and not mismatched and not identity["input_errors"]

    latencies = [reference.corrected(x, p["ref_s"])
                 for p in passes for x in p["latencies"]]
    per_pass = len(first["latencies"])
    label, tail_value = tail(latencies, per_pass * min_passes)
    wall = statistics.median(p["wall_s"] for p in passes)
    refs = [r for p in passes for r in p["ref_s"]]
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{workloads.WHY[args.workload]}")
    print(f"backend {main_run['backend']}, nproc {nproc}, "
          f"python {main_run['python']}, numpy {main_run['numpy']}")
    print(f"closed loop, one client, threads=1: {len(passes)} passes of "
          f"{per_pass} requests; latency_tail_s is {label} of "
          f"{len(latencies)} samples")
    print(f"fail_ratio {len(failures) / attempted:g} (1): "
          f"{len(failures)} of {attempted} requests failed")
    print(f"byte identity, threads=1 vs threads={threads} on a rerun with the "
          f"same seed: {per_pass - len(mismatched)} of {per_pass} reports equal"
          + (f"; inputs differ: {identity['input_errors']}"
             if identity["input_errors"] else ""))
    for f in failures:
        print(f"FAILED {f['request']}: {'; '.join(f['problems'])}")
    for name in mismatched:
        print(f"NOT BYTE-IDENTICAL {name}")

    if args.trace:
        metrics = layer_metrics(main_run["traced"], wall)
        print(f"traced pass: {main_run['traced']['spans']} spans in "
              f"{OUT_DIR}/spans-{args.workload}.npz; "
              + layer_split(main_run["traced"]))
    else:
        print(f"measured: wall_s {wall:.6g} s, latency_p50_s "
              f"{statistics.median(x for p in passes for x in p['latencies']):.6g}"
              f" s, setup_s {statistics.median(m for m, _ in setup):.6g} s; "
              f"reference loop {min(refs):.4g}-{max(refs):.4g} s "
              f"(median {statistics.median(refs):.4g} s, nominal "
              f"{reference.NOMINAL_S} s)")
        metrics = {
            "wall_s": {"value": statistics.median(
                reference.corrected(p["wall_s"], p["ref_s"]) for p in passes),
                "unit": "s"},
            "latency_p50_s": {"value": statistics.median(latencies),
                              "unit": "s"},
            "latency_tail_s": {"value": tail_value, "unit": "s"},
            "setup_s": {"value": statistics.median(c for _, c in setup),
                        "unit": "s"},
            "peak_rss_mb": {"value": main_run["peak_rss_kb"] / 1024,
                            "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
