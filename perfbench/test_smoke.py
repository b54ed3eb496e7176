"""Fast checks of the benchmark harness itself (the fixtures only).

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKLOADS = ("verify_d2", "analyze_d3", "affine_periodic")


def _bench(cwd: str, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out = _bench(ROOT, workload, trace, "--smoke")
        assert out.returncode == 0, out.stdout + out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == _declared(kind)
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float)) and metric["unit"]
        if trace and workload == "affine_periodic":
            touched = [name for name, m in result["metrics"].items()
                       if name.startswith(("cube_engine.", "kernels."))
                       and m["value"]]
            assert touched == []


def test_refuses_to_run_outside_a_checkout():
    bare = os.path.join(ROOT, ".perfbench", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = _bench(bare, "verify_d2", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout == ""


def test_inputs_repeat_per_seed_and_differ_per_pass(monkeypatch):
    monkeypatch.chdir(ROOT)
    a = workloads.build("verify_d2", 5, 0, "w")
    b = workloads.build("verify_d2", 5, 0, "w")
    c = workloads.build("verify_d2", 5, 1, "w")
    assert a.files == b.files
    assert [len(t) for t in a.files.values()] == \
        [len(t) for t in c.files.values()]
    assert list(a.files.values()) != list(c.files.values())


def test_closed_form_matches_the_oracle(monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(workloads.ORACLE, encoding="utf-8") as fh:
        oracle = json.load(fh)["fixtures"]
    for name in workloads.FSYS_FIXTURES:
        with open(os.path.join("fixtures", name + ".fsys"),
                  encoding="utf-8") as fh:
            perms = workloads.parse_fsys_perms(fh.read())
        assert workloads.census_sizes(perms) == \
            (oracle[name]["Q_size"], oracle[name]["K0_size"])


def test_gate_flags_wrong_reports():
    req = workloads.Request("verify:x", "verify", ("x",),
                            expect={"Q_size": 108})
    good = {"status": "pass", "checks": [
        {"check": "census", "status": "pass", "detail": {"Q_size": 108}}]}
    assert workloads.problems(req, good, 0) == []
    assert workloads.problems(req, good, 1)
    bad_size = {"status": "pass", "checks": [
        {"check": "census", "status": "pass", "detail": {"Q_size": 107}}]}
    assert workloads.problems(req, bad_size, 0)
    failed = {"status": "pass", "checks": [
        {"check": "census", "status": "pass", "detail": {"Q_size": 108}},
        {"check": "ucpp", "status": "fail", "detail": {}}]}
    assert workloads.problems(req, failed, 0)
