"""Report bytes of the fixture commands against frozen hashes.

Each report is serialised as `zdcubes` prints it (sorted keys, indent 2)
followed by its exit code, from the repository root so that the input paths
in it read `fixtures/<name>`.  tests/data/reports.json holds the SHA-256 of
each; regenerate it only for a deliberate change of output:

    PYTHONPATH=src python tests/test_report_bytes.py > tests/data/reports.json
"""

import hashlib
import json
import os
import pathlib

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
    pair = ("fixtures/parityB1.pset", "fixtures/parityB2.pset")
    calls["joining " + " ".join(pair)] = lambda: cli.cmd_joining(pair)
    return {key: hashlib.sha256(_bytes(call)).hexdigest()
            for key, call in calls.items()}


def test_reports_match_frozen_hashes(monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads(FROZEN.read_text())
    got = report_hashes()
    assert sorted(got) == sorted(want)
    assert [k for k in got if got[k] != want[k]] == []


if __name__ == "__main__":
    os.chdir(ROOT)
    print(json.dumps(report_hashes(), indent=1, sort_keys=True))
