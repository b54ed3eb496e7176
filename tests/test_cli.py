import inspect
import json
import sys
from time import perf_counter

import click
import pytest
from click.testing import CliRunner

from conftest import ALL_FSYS
from zdcubes import cli
from zdcubes.cli import cmd_analyze, cmd_verify, detect_kind, main
from zdcubes.errors import InputError
from zdcubes.return_times import JOIN_CAP

runner = CliRunner()


def _invoke(args):
    res = runner.invoke(main, args)
    try:
        payload = json.loads(res.output)
    except json.JSONDecodeError:
        payload = None
    return res.exit_code, payload, res.output


def _path(fixture_dir, name):
    return str(fixture_dir / name)


# ---------------------------------------------------------------------------
# kind sniffing


def test_detect_kind():
    assert detect_kind("finite-system\npoints = 1\n") == "finite-system"
    assert detect_kind("# comment\nperiodic-set k=1 moduli=2\n") == "periodic-set"
    assert detect_kind("cube-set d=1 dirs=1\n") == "cube-set"
    with pytest.raises(InputError):
        detect_kind("mystery-format\n")
    with pytest.raises(InputError):
        detect_kind("   \n# only comments\n")


# ---------------------------------------------------------------------------
# validate


def test_validate_fixture(fixture_dir):
    code, rep, _ = _invoke(["validate", _path(fixture_dir, "rot6.fsys")])
    assert code == 0
    assert rep["valid"] and rep["minimal"]
    assert rep["orders"] == [6, 3]


def test_validate_affine(fixture_dir):
    code, rep, _ = _invoke(["validate", _path(fixture_dir, "example83.affine")])
    assert code == 0
    assert rep["valid"]
    assert rep["kind"] == "affine-system"


def test_validate_all_artifact_kinds(fixture_dir, tmp_path, systems):
    # one file of each serialized kind must validate cleanly
    from zdcubes.cube_engine import enumerate_Q
    from zdcubes.finite_system import PairRelation

    cs = enumerate_Q(systems["rot6"], (1, 2))
    cube_file = tmp_path / "q.cubes"
    cube_file.write_text(cs.to_text())
    rel_file = tmp_path / "diag.rel"
    rel_file.write_text(PairRelation.diagonal(4).to_text())
    for p in (_path(fixture_dir, "rot6.fsys"),
              _path(fixture_dir, "example83.affine"),
              _path(fixture_dir, "parityB1.pset"),
              str(cube_file), str(rel_file)):
        code, rep, _ = _invoke(["validate", p])
        assert code == 0, p
        assert rep["valid"], p


def test_validate_non_commuting_exits_1(tmp_path):
    bad = tmp_path / "bad.fsys"
    bad.write_text("finite-system\npoints = 3\nd = 2\n"
                   "T1 = [1, 2, 0]\nT2 = [1, 0, 2]\n")
    code, rep, _ = _invoke(["validate", str(bad)])
    assert code == 1
    assert not rep["valid"]
    assert rep["witness"] is not None


def test_validate_missing_file_exits_3(tmp_path):
    code, rep, _ = _invoke(["validate", str(tmp_path / "nope.fsys")])
    assert code == 3
    assert rep["status"] == "input-error"


def test_validate_malformed_exits_3(tmp_path):
    bad = tmp_path / "bad.fsys"
    bad.write_text("finite-system\npoints = 2\nd = 1\nT1 = [1, zap]\n")
    code, rep, _ = _invoke(["validate", str(bad)])
    assert code == 3
    assert rep["status"] == "input-error"


@pytest.mark.parametrize("text,line", [
    ("pair-relation n=-3\n", 1),
    ("# three points\npair-relation n=3\n0,1\n\n5,1\n", 5),
    ("pair-relation nn=3\n", 1),
    ("# n twice\npair-relation n=3 n=3\n0,1\n", 2),
    ("pair-relation n=3 junk\n0,1\n", 1),
    # keys x*n + y past int64
    ("pair-relation n=3037000500\n3037000499,3037000499\n", 1),
])
def test_validate_malformed_pair_relation_exits_3(tmp_path, text, line):
    bad = tmp_path / "bad.rel"
    bad.write_text(text)
    code, rep, _ = _invoke(["validate", str(bad)])
    assert code == 3
    assert rep["status"] == "input-error"
    assert rep["error"].startswith(f"{bad}:{line}: ")


def test_verify_refuses_a_pair_relation_whose_keys_pass_int64(tmp_path):
    rel = tmp_path / "big.rel"
    rel.write_text("pair-relation n=3037000500\n3037000499,3037000499\n")
    code, rep, _ = _invoke(["verify", str(rel)])
    assert code == 3
    assert rep["error"].startswith(f"{rel}:1: n = 3037000500 exceeds")
    rel.write_text("pair-relation n=3037000499\n3037000498,3037000498\n")
    code, rep, _ = _invoke(["verify", str(rel)])
    assert code == 0 and rep["status"] == "pass"


@pytest.mark.parametrize("text,message", [
    ("# bad modulus\nperiodic-set k=2 moduli=0,3\n0,0\n",
     "modulus 0 must be positive"),
    ("# too few moduli\nperiodic-set k=2 moduli=3\n0,0\n",
     "expected 2 moduli, got 1"),
    ("# int64 rows\nperiodic-set k=1 moduli=4611686018427387904\n0\n",
     "modulus 4611686018427387904 must be below 2^62"),
    ("# k twice\nperiodic-set k=1 k=2 moduli=2,2\n0\n",
     "malformed periodic-set header"),
    ("# unknown field\nperiodic-set k=1 moduli=2 m=3\n0\n",
     "malformed periodic-set header"),
])
def test_validate_periodic_set_header_errors_name_the_line(tmp_path, text,
                                                           message):
    bad = tmp_path / "bad1.pset"
    bad.write_text(text)
    code, rep, _ = _invoke(["validate", str(bad)])
    assert code == 3
    assert rep["status"] == "input-error"
    assert rep["error"] == f"{bad}:2: {message}"


@pytest.mark.parametrize("text,line", [
    ("finite-system\npoints = abc\nd = 1\nT1 = [0]\n", 2),
    ("finite-system\npoints = 1\nd = zz\nT1 = [0]\n", 3),
    ("affine-system\nr = x\nd = 1\nA1 = [[1]]\nalpha1 = [0]\n", 2),
    ("affine-system\nr = 1\nd = x\nA1 = [[1]]\nalpha1 = [0]\n", 3),
])
def test_verify_malformed_header_number_exits_3(tmp_path, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code, rep, _ = _invoke(["verify", str(bad)])
    assert code == 3
    assert rep["status"] == "input-error"
    assert rep["error"].startswith(f"{bad}:{line}: ")


_F = "finite-system\npoints = 2\nd = 1\n"
_A = "affine-system\nr = 1\nd = 1\n"
_A_ROWS = "A1 = [[1]]\nalpha1 = [0]\n"


# every refusal of the `key = value` reader and of what each format's
# parser checks after it; line None: the message names the file only
@pytest.mark.parametrize("kind,text,line,message", [
    ("fsys", "# c\nfinite-system x\npoints = 2\nd = 1\nT1 = [1, 0]\n", 2,
     "expected 'finite-system' header"),
    ("fsys", _F + "T1 [1, 0]\n", 4, "expected 'key = value', got 'T1 [1, 0]'"),
    ("fsys", "finite-system\npoints = two\nd = 1\nT1 = [1, 0]\n", 2,
     "'points' must be an integer, got 'two'"),
    ("fsys", _F + "S1 = [1, 0]\n", 4, "unknown directive 'S1'"),
    ("fsys", _F + "T1 = [1, 0]\n\n# again\nT1 = [1, 0]\n", 7,
     "duplicate row T1"),
    ("fsys", "finite-system\nd = 1\nT1 = [1, 0]\n", None,
     "missing 'points = N'"),
    ("fsys", "finite-system\npoints = 2\nT1 = [1, 0]\n", None,
     "missing 'd = D'"),
    ("fsys", "finite-system\npoints = 2\nd = 2\nT1 = [1, 0]\n", None,
     "expected rows T1..T2, got [1]"),
    ("fsys", _F + "T1 = [0, 0]\n", 4, "T1 is not a permutation of 0..1"),
    ("fsys", _F + "T1 = [1, x]\n", 4, "non-integer entry in '[1, x]'"),
    ("fsys", _F + "T1 = 1, 0\n", 4, "expected a [..] list, got '1, 0'"),
    ("fsys", "finite-system\npoints = 2\nd = 0\n", 3,
     "d must be in 1..10, got 0"),
    ("fsys", "finite-system\npoints = 1\nd = 11\n"
     + "".join(f"T{i} = [0]\n" for i in range(1, 12)), 3,
     "d must be in 1..10, got 11"),
    ("fsys", "finite-system\npoints = 0\nd = 1\nT1 = []\n", 2,
     "need at least one point, got 0"),
    ("affine", "# c\naffine-system x\nr = 1\nd = 1\n" + _A_ROWS, 2,
     "expected 'affine-system' header"),
    ("affine", _A + "A1 [[1]]\nalpha1 = [0]\n", 4,
     "expected 'key = value', got 'A1 [[1]]'"),
    ("affine", "affine-system\nr = one\nd = 1\n" + _A_ROWS, 2,
     "'r' must be an integer, got 'one'"),
    ("affine", _A + "B1 = [[1]]\nalpha1 = [0]\n", 4, "unknown directive 'B1'"),
    ("affine", "affine-system\nd = 1\n" + _A_ROWS, None,
     "missing 'r = ..' or 'd = ..'"),
    ("affine", _A + "A1 = [[1]]\n", None, "expected A1..A1 and alpha1..alpha1"),
    ("affine", _A + "A1 = [1]\nalpha1 = [0]\n", 4,
     "expected [[..],[..]] matrix, got '[1]'"),
    ("affine", _A + "A1 = [[x]]\nalpha1 = [0]\n", 4,
     "non-integer matrix entry in 'x'"),
    ("affine", _A + "A1 = [[1]]\nalpha1 = 0\n", 5,
     "expected [..] vector, got '0'"),
    ("affine", _A + "A1 = [[1]]\nalpha1 = [1/0]\n", 5, "bad rational '1/0'"),
], ids=["fsys-header", "fsys-key-value", "fsys-scalar", "fsys-unknown",
        "fsys-repeated-T", "fsys-no-points", "fsys-no-d", "fsys-rows",
        "fsys-permutation", "fsys-entry", "fsys-list", "fsys-d-0", "fsys-d-11",
        "fsys-points-0", "affine-header",
        "affine-key-value", "affine-scalar", "affine-unknown",
        "affine-missing", "affine-rows", "affine-matrix", "affine-entry",
        "affine-vector", "affine-rational"])
def test_system_file_refusals_name_the_file_and_line(tmp_path, kind, text,
                                                     line, message):
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(text, encoding="utf-8")
    code, rep, _ = _invoke(["validate", str(bad)])
    assert code == 3
    where = str(bad) if line is None else f"{bad}:{line}"
    assert rep == {"error": f"{where}: {message}", "status": "input-error"}


@pytest.mark.parametrize("kind,text,line,message", [
    ("affine", _A + _A_ROWS + "alpha1 = [1/2]\n", 6, "duplicate row alpha1"),
    ("affine", "affine-system\nr = 1\nd = 2\nA1 = [[1]]\nA2 = [[1]]\n"
     "A2 = [[1]]\nalpha1 = [0]\nalpha2 = [0]\n", 6, "duplicate row A2"),
    ("affine", _A + "r = 1\n" + _A_ROWS, 4, "duplicate row r"),
    ("fsys", _F + "d = 1\nT1 = [1, 0]\n", 4, "duplicate row d"),
    # superscript digits are not an index
    ("fsys", _F + "T\u00b2 = [1, 0]\n", 4, "unknown directive 'T\u00b2'"),
    ("affine", _A + "A\u00b9 = [[1]]\nalpha1 = [0]\n", 4,
     "unknown directive 'A\u00b9'"),
], ids=["repeated-alpha1", "repeated-A2", "repeated-r", "repeated-d",
        "superscript-T", "superscript-A"])
def test_repeated_keys_and_non_ascii_indices_exit_3(tmp_path, kind, text,
                                                    line, message):
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(text, encoding="utf-8")
    for command in ("validate", "verify"):
        code, rep, _ = _invoke([command, str(bad)])
        assert code == 3
        assert rep == {"error": f"{bad}:{line}: {message}",
                       "status": "input-error"}


# ---------------------------------------------------------------------------
# analysis subcommands


def test_cubes_census(fixture_dir, oracle):
    code, rep, _ = _invoke(["cubes", _path(fixture_dir, "rot6.fsys"),
                            "--basepoint", "0"])
    assert code == 0
    want = oracle["fixtures"]["rot6"]
    assert rep["Q_size"] == want["Q_size"]
    assert rep["Q_sha256"] == want["Q_sha256"]
    assert rep["K_size"] == want["K0_size"]
    assert rep["K_sha256"] == want["K0_sha256"]


def test_cubes_dump_round_trips(fixture_dir, tmp_path, oracle):
    code, rep, _ = _invoke(["cubes", _path(fixture_dir, "rot6.fsys"),
                            "--basepoint", "0", "--dump"])
    assert code == 0
    assert rep["Q_text"] == oracle["rot6_Q_text"]
    from zdcubes.cube_engine import CubeSet

    q = CubeSet.from_text(rep["Q_text"])
    k = CubeSet.from_text(rep["K_text"])
    assert len(q) == rep["Q_size"]
    assert len(k) == rep["K_size"]
    assert k.based


def test_ucpp_on_system_and_cube_file(fixture_dir, tmp_path, systems):
    code, rep, _ = _invoke(["ucpp", _path(fixture_dir, "rot6.fsys")])
    assert code == 0 and rep["ucpp"]
    # the same verdict from a dumped cube-set file
    from zdcubes.cube_engine import enumerate_Q

    f = tmp_path / "q.cubes"
    f.write_text(enumerate_Q(systems["rot6"], (1, 2)).to_text())
    code, rep, _ = _invoke(["ucpp", str(f)])
    assert code == 0 and rep["ucpp"]


def test_ucpp_failure_carries_witness(tmp_path):
    f = tmp_path / "bad.cubes"
    f.write_text("cube-set d=2 dirs=1,2\n0,0,0,0\n0,0,0,1\n")
    code, rep, _ = _invoke(["ucpp", str(f)])
    assert code == 1
    assert not rep["ucpp"]
    assert rep["witness"]["vertex"] == 3
    assert rep["witness"]["pair"] == [[0, 0, 0, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize("row", ["0,0,0,2147483648", "-2147483649,0,0,0"])
def test_cube_file_coordinate_outside_int32_exits_3(tmp_path, row):
    f = tmp_path / "big.cubes"
    f.write_text(f"cube-set d=2 dirs=1,2\n0,0,0,0\n{row}\n")
    for command in ("ucpp", "verify", "validate"):
        code, rep, _ = _invoke([command, str(f)])
        assert code == 3
        assert rep["status"] == "input-error"
        assert rep["error"].startswith(f"{f}:3: ")


def test_rpp_pass(fixture_dir):
    code, rep, _ = _invoke(["rpp", _path(fixture_dir, "rot6.fsys")])
    assert code == 0
    assert rep["is_diagonal"]
    assert rep["five_way_agreement"]
    assert rep["equivalence"]


def test_rpp_nonminimal_exits_2(fixture_dir):
    code, rep, _ = _invoke(["rpp", _path(fixture_dir, "nonmin_z4z2.fsys")])
    assert code == 2
    assert rep["status"] == "hypotheses-unmet"


def test_quotient_rpp(fixture_dir):
    code, rep, _ = _invoke(["quotient", _path(fixture_dir, "rot6.fsys")])
    assert code == 0
    assert rep["classes"] == 6  # diagonal relation, trivial quotient
    assert rep["factor_map_ok"]


def test_quotient_qh(fixture_dir, oracle):
    code, rep, _ = _invoke(["quotient", _path(fixture_dir, "rot6.fsys"),
                            "--relation", "qh", "--gens", "2"])
    assert code == 0
    assert rep["classes"] == len(oracle["rot6_quotient_by_QT2_classes"])
    assert rep["mapping"] == [0, 1, 0, 1, 0, 1]


def test_quotient_qh_needs_gens(fixture_dir):
    code, rep, _ = _invoke(["quotient", _path(fixture_dir, "rot6.fsys"),
                            "--relation", "qh"])
    assert code == 3
    assert rep["status"] == "input-error"


def test_quotient_malformed_gens_exits_3(fixture_dir):
    code, rep, _ = _invoke(["quotient", _path(fixture_dir, "rot6.fsys"),
                            "--relation", "qh", "--gens", "a"])
    assert code == 3
    assert rep["status"] == "input-error"
    assert "--gens" in rep["error"]


def test_structure_report(fixture_dir, oracle):
    code, rep, _ = _invoke(["structure", _path(fixture_dir, "rot6.fsys")])
    assert code == 0
    want = oracle["rot6_decomposition"]
    assert rep["K_size"] == want["Y"]
    assert sorted(rep["side_sizes"]) == sorted([want["Y_1"], want["Y_2"]])
    assert rep["injective"]
    assert rep["relative_independence"] == "pass"


def test_structure_nonminimal_exits_2(fixture_dir):
    code, rep, _ = _invoke(["structure",
                            _path(fixture_dir, "nonmin_z4z2.fsys")])
    assert code == 2
    assert rep["status"] == "hypotheses-unmet"


def test_affine_check(fixture_dir):
    code, rep, _ = _invoke(["affine-check",
                            _path(fixture_dir, "example83.affine")])
    assert code == 0
    assert rep["conditions_ok"]
    # jordan3 is valid but fails the matrix conditions: still exit 0
    code, rep, _ = _invoke(["affine-check",
                            _path(fixture_dir, "jordan3.affine")])
    assert code == 0
    assert rep["valid"]
    assert not rep["conditions_ok"]


def test_formula_test_pass_and_witness(fixture_dir):
    code, rep, _ = _invoke(["formula-test",
                            _path(fixture_dir, "example83.affine")])
    assert code == 0
    assert rep["result"] == "pass"
    code, rep, _ = _invoke(["formula-test",
                            _path(fixture_dir, "jordan3.affine")])
    assert code == 1
    assert rep["result"] == "witness"
    assert rep["witness"]["iterated"] != rep["witness"]["closed_form"]


@pytest.mark.parametrize("args, option", [
    (["--q", "0"], "q"), (["--q", "-5"], "q"), (["--range", "-1"], "range")])
def test_formula_test_invalid_arguments_exit_3(fixture_dir, args, option):
    code, rep, _ = _invoke(["formula-test",
                            _path(fixture_dir, "example83.affine"), *args])
    assert code == 3
    assert rep["status"] == "input-error"
    assert rep["error"].startswith(option + " ")


# a valid r=3 system with translations in (1/100)Z^3: its lattice has
# 1,000,000 points and the orbit of 0 has 20,000
R3_Q100 = ("affine-system\nr = 3\nd = 2\n"
           "A1 = [[1,1,0],[0,1,1],[0,0,1]]\nalpha1 = [0,0,1/100]\n"
           "A2 = [[1,0,0],[0,1,0],[0,0,1]]\nalpha2 = [1/100,0,0]\n")


def test_formula_test_and_verify_have_no_lattice_cap(tmp_path):
    path = tmp_path / "r3_q100.affine"
    path.write_text(R3_Q100)
    code, rep, out = _invoke(["formula-test", str(path)])
    assert code == 0, out
    assert (rep["result"], rep["q"], rep["x_count"]) == ("pass", 100, 1_000_000)
    code, rep, out = _invoke(["verify", str(path)])
    assert code == 0, out
    assert rep["counts"] == {"pass": 6, "fail": 0, "skipped": 0}
    item = next(c for c in rep["checks"] if c["check"] == "closed_form_agreement")
    assert item["detail"]["x_count"] == 1_000_000


def test_discretize_q_zero_exits_3(fixture_dir):
    code, rep, _ = _invoke(["discretize", _path(fixture_dir, "example83.affine"),
                            "--q", "0"])
    assert code == 3
    assert rep == {"error": "q = 0 is not a positive multiple of the "
                   "translation denominator 5", "status": "input-error"}


def test_discretize_writes_valid_system(fixture_dir, tmp_path):
    out = tmp_path / "disc.fsys"
    code, rep, _ = _invoke(["discretize",
                            _path(fixture_dir, "example83.affine"),
                            "-o", str(out)])
    assert code == 0
    assert rep["points"] == 25
    code2, rep2, _ = _invoke(["validate", str(out)])
    assert code2 == 0 and rep2["valid"]


def test_return_times_oracle(fixture_dir, oracle):
    code, rep, _ = _invoke(["return-times", _path(fixture_dir, "rot6.fsys"),
                            "--point", "0"])
    assert code == 0
    want = oracle["rot6_return_set_x0_U0"]
    assert rep["moduli"] == want["moduli"]
    assert rep["residues"] == want["residues"]


def test_return_times_with_target(fixture_dir):
    code, rep, _ = _invoke(["return-times", _path(fixture_dir, "rot6.fsys"),
                            "--point", "0", "--target", "0,1"])
    assert code == 0
    assert [1, 0] in rep["residues"]


def test_return_times_malformed_target_exits_3(fixture_dir):
    code, rep, _ = _invoke(["return-times", _path(fixture_dir, "rot6.fsys"),
                            "--target", "x"])
    assert code == 3
    assert rep["status"] == "input-error"
    assert "--target" in rep["error"]


def test_joining_command(tmp_path):
    a = tmp_path / "a.pset"
    a.write_text("periodic-set k=1 moduli=3\n0\n1\n")
    b = tmp_path / "b.pset"
    b.write_text("periodic-set k=1 moduli=2\n1\n")
    code, rep, _ = _invoke(["joining", str(a), str(b)])
    assert code == 0
    assert rep["d"] == 2
    # first coordinate constrained by the second input, and vice versa
    from zdcubes.return_times import PeriodicSet, d_joining

    b1 = PeriodicSet.from_text(a.read_text())
    b2 = PeriodicSet.from_text(b.read_text())
    assert rep["set_text"] == d_joining([b1, b2]).to_text()


def test_joining_of_64_inputs(tmp_path):
    # 64 inputs of k = 63 with every modulus 1: the joining is the full set
    paths = []
    for i in range(64):
        paths.append(tmp_path / f"b{i}.pset")
        paths[-1].write_text(f"periodic-set k=63 moduli={','.join(['1'] * 63)}\n"
                             f"{','.join(['0'] * 63)}\n")
    code, rep, _ = _invoke(["joining", *map(str, paths)])
    assert code == 0, rep
    assert (rep["d"], rep["moduli"], rep["residues"]) == (64, [1] * 64,
                                                          [[0] * 64])


def test_joining_parity_files_is_empty(fixture_dir, tmp_path, oracle):
    b3 = tmp_path / "b3.pset"
    b3.write_text("periodic-set k=2 moduli=2,2\n0,0\n1,1\n")
    code, rep, _ = _invoke(["joining", _path(fixture_dir, "parityB1.pset"),
                            _path(fixture_dir, "parityB2.pset"), str(b3)])
    assert code == 0
    assert rep["d"] == 3
    assert rep["empty"] == oracle["parity3_joining_empty"]


def test_joining_rejects_wrong_kind(fixture_dir):
    code, rep, _ = _invoke(["joining", _path(fixture_dir, "rot6.fsys"),
                            _path(fixture_dir, "parityB1.pset")])
    assert code == 3


# ---------------------------------------------------------------------------
# one function per command


ANALYSES = [
    ("cubes", "rot6.fsys", ["--basepoint", "0", "--dump"],
     {"basepoint": 0, "dump": True}),
    ("ucpp", "rot8_d3.fsys", [], {}),
    ("rpp", "nonmin_z4z2.fsys", [], {}),
    ("quotient", "rot6.fsys", ["--relation", "qh", "--gens", "2"],
     {"relation": "qh", "gens": (2,)}),
    ("structure", "rot6.fsys", ["--basepoint", "3"], {"basepoint": 3}),
    ("affine-check", "jordan3.affine", [], {}),
    ("formula-test", "jordan3.affine", ["--range", "2"], {"range": 2}),
    ("discretize", "example83.affine", ["--mode", "full"], {"mode": "full"}),
    ("return-times", "rot6.fsys", ["--point", "2", "--target", "0,1"],
     {"point": 2, "target": (0, 1)}),
]


@pytest.mark.parametrize("command,name,args,flags", ANALYSES,
                         ids=[a[0] for a in ANALYSES])
def test_click_command_prints_the_cmd_analyze_report(fixture_dir, command,
                                                     name, args, flags):
    path = _path(fixture_dir, name)
    res = runner.invoke(main, [command, path, *args])
    report, code = cmd_analyze(path, command, {"threads": 1, **flags})
    assert res.exit_code == code
    assert res.output == json.dumps(report, indent=2, sort_keys=True,
                                    default=cli._json_default) + "\n"


def test_cmd_analyze_runs_exactly_the_analysis_commands(fixture_dir):
    assert {a[0] for a in ANALYSES} == \
        set(main.commands) - {"validate", "joining", "verify"}
    with pytest.raises(InputError, match="unknown subcommand 'verify'"):
        cmd_analyze(_path(fixture_dir, "rot6.fsys"), "verify", {})


def test_click_option_defaults_are_the_command_function_defaults():
    for name, command in main.commands.items():
        fn = getattr(cli, "cmd_" + name.replace("-", "_"))
        path, *keywords = inspect.signature(fn).parameters.values()
        options = {p.name: p.default for p in command.params
                   if isinstance(p, click.Option) and p.expose_value
                   and p.name not in ("human", "timings")}
        # cmd_verify's threads is never exposed, as --threads has no effect
        assert options == {k.name: k.default for k in keywords
                           if k.name != "threads"}, name
        assert [p.name for p in command.params
                if isinstance(p, click.Argument)] == [path.name], name


@pytest.mark.parametrize("args,message", [
    (["cubes", "parityB1.pset"],
     "expected a finite-system file, found periodic-set"),
    (["ucpp", "parityB1.pset"],
     "expected a finite-system file, found periodic-set"),
    (["affine-check", "rot6.fsys"],
     "expected an affine-system file, found finite-system"),
    (["joining", "parityB1.pset", "rot6.fsys"],
     "expected a periodic-set file, found finite-system"),
])
def test_a_file_of_the_wrong_kind_exits_3(fixture_dir, args, message):
    command, *names = args
    paths = [_path(fixture_dir, n) for n in names]
    code, rep, _ = _invoke([command, *paths])
    assert code == 3
    assert rep == {"error": f"{paths[-1]}: {message}",
                   "status": "input-error"}


# ---------------------------------------------------------------------------
# verify


def test_verify_system(fixture_dir):
    code, rep, _ = _invoke(["verify", _path(fixture_dir, "rot6.fsys")])
    assert code == 0
    assert rep["counts"]["fail"] == 0
    names = [c["check"] for c in rep["checks"]]
    for expected in ("roundtrip", "census", "ucpp", "glue_closure",
                     "five_way_agreement", "joining_containment",
                     "product_realization"):
        assert expected in names, expected


def test_verify_skips_hypothesis_gated_checks_on_nonminimal(fixture_dir):
    code, rep, _ = _invoke(["verify", _path(fixture_dir, "nonmin_z4z2.fsys")])
    assert code == 0
    assert rep["counts"]["fail"] == 0
    assert rep["counts"]["skipped"] > 0
    by_name = {c["check"]: c for c in rep["checks"]}
    assert by_name["five_way_agreement"]["status"] == "skipped"


def test_verify_affine_and_pset(fixture_dir):
    for name in ("example83.affine", "jordan3.affine", "parityB1.pset"):
        code, rep, _ = _invoke(["verify", _path(fixture_dir, name)])
        assert code == 0, name
        assert rep["counts"]["fail"] == 0, name


def test_verify_pset_with_a_large_modulus(tmp_path):
    path = tmp_path / "large.pset"
    path.write_text("periodic-set k=1 moduli=3000000\n7\n1000007\n2000007\n")
    code, rep, _ = _invoke(["verify", str(path)])
    assert code == 0
    item = next(c for c in rep["checks"] if c["check"] == "sum_image_consistency")
    assert (item["status"], item["detail"]["image_modulus"]) == ("pass", 1_000_000)


def test_verify_pset_with_a_large_prime_modulus(tmp_path):
    path = tmp_path / "prime.pset"
    path.write_text("periodic-set k=1 moduli=2305843009213693951\n0\n")
    start = perf_counter()
    code, rep, _ = _invoke(["verify", str(path)])
    assert perf_counter() - start < 1.0
    assert code == 0
    canon = next(c for c in rep["checks"] if c["check"] == "canonical_equivalent")
    assert canon["detail"]["canonical_moduli"] == [2305843009213693951]


def test_verify_pset_above_the_join_cap(tmp_path):
    # the roundtrip compares the set with itself and the canonical set,
    # lifted to the set's moduli, with the set: no lift exceeds the input
    n = JOIN_CAP + 1
    path = tmp_path / "full.pset"
    path.write_text(f"periodic-set k=1 moduli={n}\n"
                    + "".join(f"{r}\n" for r in range(n)))
    code, rep, _ = _invoke(["verify", str(path)])
    assert code == 0, rep
    assert rep["counts"] == {"pass": 3, "fail": 0, "skipped": 0}
    canon = next(c for c in rep["checks"] if c["check"] == "canonical_equivalent")
    assert canon["detail"]["canonical_moduli"] == [1]


@pytest.mark.parametrize("kind,text,line,message", [
    ("pset", "periodic-set k=2 moduli=4,6\n0,0\n\n# c\n1,x\n", 5,
     "non-integer residue in '1,x'"),
    ("pset", "periodic-set k=2 moduli=4,6\n0,0\n1,2,3\n", 3,
     "residue arity 3 != k = 2"),
    ("cubes", "cube-set d=1 dirs=1\n0,1\n0,1,2\n", 3, "row width 3 != 2"),
    ("cubes", "cube-set d=2 d=1 dirs=1\n0,1\n", 1, "malformed cube-set header"),
    ("cubes", "# c\ncube-set d=1 dirs=1 junk\n0,1\n", 2,
     "malformed cube-set header"),
    ("cubes", "cube-set d=2 dirs=1\n0,1\n", 1, "header says d=2 but lists 1 dirs"),
    ("rel", "pair-relation nn=3\n0,1\n", 1, "malformed pair-relation header"),
    ("rel", "pair-relation n=3\n0,1\n1,x\n", 3, "non-integer pair '1,x'"),
])
def test_malformed_rows_exit_3_with_file_and_line(tmp_path, kind, text, line,
                                                   message):
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(text)
    for command in ("validate", "verify"):
        code, rep, _ = _invoke([command, str(bad)])
        assert code == 3
        assert rep["error"] == f"{bad}:{line}: {message}"


@pytest.mark.parametrize("name", ["rot12", "rot8_d3", "nonmin_z4z2"])
def test_verify_enumerates_each_cube_set_once(fixture_dir, monkeypatch, name):
    from zdcubes import cube_engine

    real = cube_engine._enumerate_rows
    calls = {}
    alive = []  # keeps every system alive so no id is reused within the run

    def counting(sys, dirs, bases):
        alive.append(sys)
        if list(dirs) == sorted(dirs):
            key = (id(sys), dirs, tuple(bases.tolist()))
            calls[key] = calls.get(key, 0) + 1
        return real(sys, dirs, bases)

    monkeypatch.setattr(cube_engine, "_enumerate_rows", counting)
    _, code = cmd_verify(_path(fixture_dir, f"{name}.fsys"))
    assert code == 0
    assert calls and max(calls.values()) == 1, \
        {k[1:]: v for k, v in calls.items() if v > 1}


@pytest.mark.parametrize("name,count", [("rot6", 6), ("rot8_d3", 14)])
def test_verify_shares_the_reordered_cube_sets(fixture_dir, monkeypatch, name,
                                               count):
    # the digit-permutation check and the reordered relations read the sets
    # over (j, the other directions in increasing order) once between them:
    # (2, 1) at d=2, (2, 1, 3) and (3, 1, 2) at d=3
    from zdcubes import cube_engine

    real = cube_engine._enumerate_rows
    calls = []

    def counting(sys, dirs, bases):
        calls.append(tuple(dirs))
        return real(sys, dirs, bases)

    monkeypatch.setattr(cube_engine, "_enumerate_rows", counting)
    _, code = cmd_verify(_path(fixture_dir, f"{name}.fsys"))
    assert code == 0
    assert len(calls) == count, calls
    reordered = [dirs for dirs in calls if list(dirs) != sorted(dirs)]
    assert len(reordered) == len(set(reordered))


@pytest.mark.parametrize("name,labels,quotients", [("rot6", 5, 5),
                                                   ("rot8_d3", 8, 7)])
def test_verify_builds_each_subgroup_quotient_once(fixture_dir, monkeypatch,
                                                   name, labels, quotients):
    # the orbits of each (system, subgroup) are kept on the system: one per
    # direction j of the system (T_j orbits, read again by the universality
    # check and as the first step of the iterated quotient), the T_2 orbits
    # of the T_1 quotient, and one per j of the face system Y; the joint
    # (1, 2) orbits at d = 2 are the system's own.  A quotient is kept by
    # its labels, so subgroups with the same orbits share one: on both
    # rotations some T_j has a single orbit, as the joint subgroup does
    from zdcubes import structure

    calls = {"labels": 0, "quotients": 0}

    def counting(key, real):
        def run(*args):
            calls[key] += 1
            return real(*args)
        return run

    monkeypatch.setattr(structure, "orbit_labels",
                        counting("labels", structure.orbit_labels))
    monkeypatch.setattr(structure, "_label_quotient",
                        counting("quotients", structure._label_quotient))
    _, code = cmd_verify(_path(fixture_dir, f"{name}.fsys"))
    assert code == 0
    assert calls == {"labels": labels, "quotients": quotients}


@pytest.mark.parametrize("broken", [(), (2,), (2, 3)])
def test_verify_leaves_no_held_cube_set(fixture_dir, monkeypatch, broken):
    # the reordered relations are read off the sets the digit permutations
    # build, so no set over a direction order that is not increasing stays
    # on the memo, whichever direction fails first
    from zdcubes import battery
    from zdcubes.cube_engine import CubeSet
    from zdcubes.finite_system import PairRelation, load_finite_system

    real = battery.compute_R_j_reordered

    def reordered(sys, j):
        rel = real(sys, j)
        if j not in broken:
            return rel
        return PairRelation(rel.n_points, rel.pairs | {(0, sys.n_points - 1)}, sys)

    monkeypatch.setattr(battery, "compute_R_j_reordered", reordered)
    sys_ = load_finite_system(_path(fixture_dir, "rot8_d3.fsys"))
    items = {i["check"]: i for i in battery.system_battery(sys_)}
    assert items["relation_order_independence"]["witness"] == \
        (broken[0] if broken else None)
    held = [value.dirs for value in sys_._memo.values()
            if isinstance(value, CubeSet)
            and list(value.dirs) != sorted(value.dirs)]
    assert held == []


@pytest.mark.parametrize("name", ALL_FSYS)
def test_verify_builds_each_return_set_once(fixture_dir, monkeypatch, name):
    from zdcubes import return_times
    from zdcubes.cube_engine import RowIndex

    real_set, real_index = return_times._return_set, RowIndex.__init__
    calls = {}
    alive = []  # keeps every system alive so no id is reused within the run
    pset_indexes = []

    def counting(system, x, U):
        alive.append(system)
        key = (id(system), x, U)
        calls[key] = calls.get(key, 0) + 1
        return real_set(system, x, U)

    def indexing(self, rows, n):
        caller = sys._getframe(1).f_locals.get("self")
        if isinstance(caller, return_times.PeriodicSet):
            pset_indexes.append(len(rows))
        real_index(self, rows, n)

    monkeypatch.setattr(RowIndex, "__init__", indexing)
    monkeypatch.setattr(return_times, "_return_set", counting)
    _, code = cmd_verify(_path(fixture_dir, f"{name}.fsys"))
    assert code == 0
    assert calls and max(calls.values()) == 1, \
        {k[1:]: v for k, v in calls.items() if v > 1}
    assert pset_indexes == []


def test_verify_skips_an_over_budget_zero_vector_return(tmp_path):
    # T1 = T2 rotate cycles of lengths 2, 3, 5, 7, 11 and 13: 41 points, but
    # a box of 30030^2 generator-order vectors, beyond the return-set cap
    perm = []
    for length in (2, 3, 5, 7, 11, 13):
        perm += [len(perm) + (i + 1) % length for i in range(length)]
    path = tmp_path / "cycles.fsys"
    path.write_text("finite-system\npoints = 41\nd = 2\n"
                    f"T1 = {perm}\nT2 = {perm}\n")
    code, rep, out = _invoke(["verify", str(path)])
    assert code == 0, out
    assert rep["counts"]["fail"] == 0
    item = next(i for i in rep["checks"] if i["check"] == "zero_vector_return")
    assert item["status"] == "skipped"
    assert item["detail"] == {
        "reason": "budget: order box exceeds the size cap"}


def test_verify_skips_an_over_budget_product_realization(fixture_dir,
                                                         monkeypatch):
    from zdcubes import cube_engine

    # rot6 enumerates at most 108 rows itself; its derived product system
    # needs 324
    path = _path(fixture_dir, "rot6.fsys")
    want, _ = cmd_verify(path)
    monkeypatch.setattr(cube_engine, "MAX_ENUM_ROWS", 200)
    got, code = cmd_verify(path)
    assert code == 0
    item = got["checks"][-1]
    assert item["check"] == "product_realization"
    assert item["status"] == "skipped"
    assert item["detail"]["reason"].startswith(
        "budget: enumeration would produce 324 rows")
    assert got["checks"][:-1] == want["checks"][:-1]


def test_product_realization_keeps_its_own_row_cap(fixture_dir, monkeypatch):
    from zdcubes import cube_engine, return_times

    # rot6's product system needs 324 rows: a product cap of 323 skips it
    # with the reason an enumeration cap of 323 gives, and neither cap
    # changes the other checks
    path = _path(fixture_dir, "rot6.fsys")
    want, _ = cmd_verify(path)
    assert want["checks"][-1]["status"] == "pass"
    reasons = []
    for module, name in ((return_times, "PRODUCT_ROWS_CAP"),
                         (cube_engine, "MAX_ENUM_ROWS")):
        with monkeypatch.context() as mp:
            mp.setattr(module, name, 324)
            assert cmd_verify(path) == (want, 0)
            mp.setattr(module, name, 323)
            got, code = cmd_verify(path)
        assert code == 0 and got["checks"][:-1] == want["checks"][:-1]
        reasons.append(got["checks"][-1]["detail"]["reason"])
    assert reasons == ["budget: enumeration would produce 324 rows (limit 323); "
                       "restrict the directions or the system size"] * 2


def test_verify_thread_count_never_changes_bytes(fixture_dir):
    for name in ("rot6.fsys", "rot8_d3.fsys", "example83.affine"):
        outs = []
        for t in ("1", "8"):
            res = runner.invoke(main, ["verify", _path(fixture_dir, name),
                                       "--threads", t])
            assert res.exit_code == 0
            outs.append(res.output)
        assert outs[0] == outs[1], name


# ---------------------------------------------------------------------------
# output contract


def test_json_is_sorted_and_deterministic(fixture_dir):
    res1 = runner.invoke(main, ["cubes", _path(fixture_dir, "rot6.fsys")])
    res2 = runner.invoke(main, ["cubes", _path(fixture_dir, "rot6.fsys")])
    assert res1.output == res2.output
    rep = json.loads(res1.output)
    assert list(rep) == sorted(rep)


def test_timings_only_under_flag(fixture_dir):
    code, rep, _ = _invoke(["ucpp", _path(fixture_dir, "rot6.fsys")])
    assert "timings" not in rep
    code, rep, _ = _invoke(["ucpp", _path(fixture_dir, "rot6.fsys"),
                            "--timings"])
    assert "timings" in rep
    assert rep["timings"]["seconds"] >= 0
    # thread count is never echoed into the report
    code, rep, _ = _invoke(["ucpp", _path(fixture_dir, "rot6.fsys"),
                            "--threads", "4"])
    assert "threads" not in json.dumps(rep)


def test_human_output(fixture_dir):
    res = runner.invoke(main, ["verify", _path(fixture_dir, "rot6.fsys"),
                               "--human"])
    assert res.exit_code == 0
    assert "PASS" in res.output
    assert "census" in res.output
    with pytest.raises(json.JSONDecodeError):
        json.loads(res.output)
