"""One workload run in a fresh interpreter: closed loop, one client.

Each request calls the function the click wrapper calls (`cli.cmd_verify`,
`cli.cmd_analyze`, `cli.cmd_joining`), maps InputError and HypothesisError
to exit codes 3 and 2 as `cli._run` does, and serialises the report as
`cli._emit` does.  A request is sent only after the previous one returned,
and before each one, untimed, the garbage of the previous one is collected,
as a fresh CLI process would start without it.  One untimed warm-up pass
runs first.  Then passes over the request list repeat while another pass of
the mean length fits in `--seconds`, and at least `--min-passes` run; the
reference loop of reference.py is timed before the first pass and after
each one, so each pass carries the loop times around it (`ref_s`).  With
`--trace 1` one more pass runs with the span wrappers installed.  The
result goes to `--out` as JSON.

Usage (from the repository root; run.py starts it):
    python3 perfbench/worker.py --workload verify_d2 --seed 1 --seconds 30 \\
        --min-passes 8 --workdir .perfbench/work --out result.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import workloads  # noqa: E402


def invoke(cli, req: workloads.Request, threads: int) -> tuple[dict, int]:
    from zdcubes.errors import HypothesisError, InputError
    try:
        if req.command == "verify":
            return cli.cmd_verify(req.paths[0], threads=threads)
        if req.command == "joining":
            return cli.cmd_joining(req.paths)
        return cli.cmd_analyze(req.paths[0], req.command,
                               {"threads": threads, **req.flags})
    except InputError as exc:
        return {"error": str(exc), "status": "input-error"}, 3
    except HypothesisError as exc:
        return {"error": str(exc), "status": "hypotheses-unmet"}, 2


def serialise(cli, report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True,
                       default=cli._json_default) + "\n").encode()


def write_inputs(builder: workloads.Builder, compare: bool) -> list[str]:
    """Write the pass's files, or with `compare` check that the files
    already on disk hold exactly the bytes this seed generates."""
    wrong = []
    for path, text in builder.files.items():
        if compare:
            with open(path, encoding="utf-8") as fh:
                if fh.read() != text:
                    wrong.append(path)
            continue
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return wrong


def run_pass(cli, builder: workloads.Builder, threads: int, rec=None) -> dict:
    """Send every request of the pass once; gate the reports afterwards so
    the checks stay out of the timed region."""
    results = []
    start = perf_counter()
    for i, req in enumerate(builder.requests):
        gc.collect()
        if rec is not None:
            rec.begin_request(i)
            frame = rec.enter("request")
        t0 = perf_counter()
        try:
            report, code = invoke(cli, req, threads)
            ser = rec.enter("cli.report_json") if rec is not None else None
            try:
                data = serialise(cli, report)
            finally:
                if ser is not None:
                    rec.exit(ser)
            error = None
        except Exception:  # a crash fails this request, the loop goes on
            report, code, data = {}, None, b""
            error = traceback.format_exc(limit=3)
        latency = perf_counter() - t0
        if rec is not None:
            rec.exit(frame)
            rec.end_request()
            rec.counts["cli.report_bytes"] += len(data)
        results.append((req, report, code, data, latency, error))
    wall = perf_counter() - start
    failures, hashes, latencies = [], [], []
    for req, report, code, data, latency, error in results:
        wrong = [error] if error else workloads.problems(req, report, code)
        if wrong:
            failures.append({"request": req.name, "problems": wrong})
        hashes.append(hashlib.sha256(data).hexdigest())
        latencies.append(latency)
    return {"wall_s": wall, "latencies": latencies, "hashes": hashes,
            "names": [r.name for r in builder.requests], "failures": failures}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--identity", action="store_true",
                    help="run pass 0 only, on the inputs already written, "
                         "after checking they are the bytes this seed gives")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="where the traced pass writes its spans")
    args = ap.parse_args()

    import numpy
    from zdcubes import cli, kernels
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"zdcubes imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    passes, input_errors = [], []
    if not args.identity:
        # warm-up: lazy imports and first-call set-up finish before timing
        builder = workloads.build(args.workload, args.seed, 0, args.workdir,
                                  args.smoke)
        write_inputs(builder, compare=False)
        run_pass(cli, builder, args.threads)
    begin = perf_counter()
    ref = None if args.identity else reference.seconds()
    index = 0
    while index < 1 if args.identity else (
            index < args.min_passes
            or (perf_counter() - begin) * (index + 1) / index <= args.seconds):
        builder = workloads.build(args.workload, args.seed, index,
                                  args.workdir, args.smoke)
        input_errors += write_inputs(builder, compare=args.identity)
        passes.append(run_pass(cli, builder, args.threads))
        if ref is not None:
            passes[-1]["ref_s"] = [ref, reference.seconds()]
            ref = passes[-1]["ref_s"][1]
        index += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced = None
    if args.trace:
        import tracing
        builder = workloads.build(args.workload, args.seed, index,
                                  args.workdir, args.smoke)
        write_inputs(builder, compare=False)
        rec = tracing.Recorder()
        uninstall = tracing.install(rec)
        try:
            traced = run_pass(cli, builder, args.threads, rec)
        finally:
            uninstall()
        rec.write(args.spans)
        traced.update(self_s=dict(rec.self_s), calls=dict(rec.calls),
                      inclusive_s=dict(rec.inclusive_s),
                      counts=dict(rec.counts), spans=len(rec))

    result = {
        "passes": passes, "traced": traced, "input_errors": input_errors,
        "peak_rss_kb": peak_rss_kb, "backend": kernels.backend_name(),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
