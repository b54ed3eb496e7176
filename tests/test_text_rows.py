"""The int-row text codec of periodic sets and cube sets against the
one-line-at-a-time loops in scalar_return_times and scalar_batteries.

Every input, malformed or not, must give what the loop gives: the same
error message, path and line, or the same rows.  The reader hands a body to
numpy's C text reader and reads it line by line only where that reader
must refuse it; a spy on the line path checks that it runs there and
nowhere else.  The writer must give the bytes of joining each row's
decimals with commas.
"""

import hashlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_batteries as cube_ref
import scalar_return_times as pset_ref
from zdcubes import _text, cube_engine
from zdcubes._text import _content_lines, _first_content_line
from zdcubes.cube_engine import CubeSet
from zdcubes.errors import InputError
from zdcubes.return_times import MODULUS_LIMIT, PeriodicSet

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)

BIG = 10**25  # beyond int64
INT64 = np.iinfo(np.int64)
# the line breaks of str.splitlines that numpy's C text reader does not break on
OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _outcome(parse, text):
    try:
        return parse(text, path="in.txt")
    except InputError as exc:
        return ("error", str(exc), exc.path, exc.line)


def _same_pset(text):
    got = _outcome(PeriodicSet.from_text, text)
    want = _outcome(pset_ref.pset_from_text, text)
    if isinstance(want, tuple):
        assert got == want
        return want
    assert (got.k, got.moduli) == (want.k, want.moduli)
    assert got.rows.dtype == np.int64
    assert np.array_equal(got.rows, want.rows)
    return got


def _same_cubes(text):
    got = _outcome(CubeSet.from_text, text)
    want = _outcome(cube_ref.cube_set_from_text, text)
    if isinstance(want, tuple):
        assert got == want
        return want
    assert (got.dirs, got.based, got.width) == (want.dirs, want.based, want.width)
    assert np.array_equal(got.rows, want.rows)
    return got


# ---------------------------------------------------------------------------
# the reader: malformed inputs


PSET = "periodic-set k=2 moduli=4,6\n"


@pytest.mark.parametrize("body,line,message", [
    ("1,x\n", 2, "non-integer residue in '1,x'"),
    ("1,,2\n", 2, "non-integer residue in '1,,2'"),
    ("1,2,\n", 2, "non-integer residue in '1,2,'"),
    ("1.5,2\n", 2, "non-integer residue in '1.5,2'"),
    ("1,2,3\n", 2, "residue arity 3 != k = 2"),
    ("7\n", 2, "residue arity 1 != k = 2"),
    ("0,0\n1,1\n-3,9\n2,x\n5,5\n", 5, "non-integer residue in '2,x'"),
    ("0,0\n1,1\n1,2,3\nx\n", 4, "residue arity 3 != k = 2"),
    ("0,0\n1,2,3,x\n", 3, "non-integer residue in '1,2,3,x'"),
    (f"{BIG},0\n1\n", 3, "residue arity 1 != k = 2"),
    (f"{BIG},0\n1,y\n", 3, "non-integer residue in '1,y'"),
    ("# comment\n\n  0,1  # trailing\n\n1,1,1 # three\n", 6, "residue arity 3 != k = 2"),
    ("0,1\r\n\r\n# c\r\n 2 ,z\r\n", 5, "non-integer residue in '2 ,z'"),
    ("3,\x0c4\n", 2, "non-integer residue in '3,'"),
    ("1,2\n3,\x0b4\n", 3, "non-integer residue in '3,'"),
    ("1,2\n5\x856,7\n", 3, "residue arity 1 != k = 2"),
    ("1,2\u20283,4,5\n", 3, "residue arity 3 != k = 2"),
    ("1,2\r3\n", 3, "residue arity 1 != k = 2"),
    ("1,2\n \t \n3,4\n--1,2\n", 5, "non-integer residue in '--1,2'"),
    ("1-,2\n", 2, "non-integer residue in '1-,2'"),
    ('"1",2\n', 2, "non-integer residue in '\"1\",2'"),
    ("1\x1f,2\n", 2, "non-integer residue in '1\\x1f,2'"),
    ("1\x00,2\n", 2, "non-integer residue in '1\\x00,2'"),
])
def test_pset_reader_reports_the_first_bad_line(body, line, message):
    err = _same_pset(PSET + body)
    assert err == ("error", f"in.txt:{line}: {message}", "in.txt", line)


def test_pset_reader_reports_a_bad_line_before_a_bad_header_value():
    # the line is read before the constructor checks the moduli
    err = _same_pset("periodic-set k=2 moduli=0,6\n1,x\n")
    assert err[3] == 2
    err = _same_pset("periodic-set k=2 moduli=0,6\n1,1\n")
    assert err == ("error", "in.txt:1: modulus 0 must be positive", "in.txt", 1)
    err = _same_pset("periodic-set k=0 moduli=1\n0\n")
    assert err[1:] == ("in.txt:2: residue arity 1 != k = 0", "in.txt", 2)


CUBES = "cube-set d=2 dirs=1,2\n"


@pytest.mark.parametrize("body,line,message", [
    ("0,1,x,3\n", 2, "non-integer coordinate in '0,1,x,3'"),
    ("0,,1,2\n", 2, "non-integer coordinate in '0,,1,2'"),
    ("0,1\n", 2, "row width 2 matches neither 2^2 nor 2^2-1"),
    ("0,1,2,3,4\n", 2, "row width 5 matches neither 2^2 nor 2^2-1"),
    ("0,1,2,3\n0,1,2\n", 3, "row width 3 != 4"),
    ("0,1,2\n0,1,2\n0,1,2,3\n", 4, "row width 4 != 3"),
    ("0,1,2,2147483648\n", 2,
     "coordinate outside the int32 range in '0,1,2,2147483648'"),
    ("0,1,2,-2147483649\n", 2,
     "coordinate outside the int32 range in '0,1,2,-2147483649'"),
    (f"0,1,2,{BIG}\n", 2, f"coordinate outside the int32 range in '0,1,2,{BIG}'"),
    ("0,1,2,3\n0,1,2,2147483648\n0,1,2\n", 3,
     "coordinate outside the int32 range in '0,1,2,2147483648'"),
    ("0,1,2,3\n0,1,2\n0,1,2,2147483648\n", 3, "row width 3 != 4"),
    ("0,1,2,3\n0,1,x\n", 3, "non-integer coordinate in '0,1,x'"),
    ("# c\n\n0,1,2,3 # ok\n\n 4,5 , 6,7\n\n0,1,2\n", 8, "row width 3 != 4"),
    ("0,1,2,3\r\n# c\r\n\r\n0,1,2,q\r\n", 5, "non-integer coordinate in '0,1,2,q'"),
    ("0,1,2,\x0c3\n", 2, "non-integer coordinate in '0,1,2,'"),
    ("0,1,2,3\n\t\n0,1\x1d2,3\n", 4, "row width 2 != 4"),
    ("0,1,2,３\n0,1,2,x\n", 3, "non-integer coordinate in '0,1,2,x'"),
])
def test_cube_reader_reports_the_first_bad_line(body, line, message):
    err = _same_cubes(CUBES + body)
    assert err == ("error", f"in.txt:{line}: {message}", "in.txt", line)


# ---------------------------------------------------------------------------
# the reader: accepted inputs


@pytest.mark.parametrize("body", [
    "",
    "# only a comment\n\n",
    "0,0\n1,1\n",
    "-1,-1\n-5,7\n3,-13\n",
    " 1 , 2 \n\t3,4\t\n",
    "1,2 # a comment\r\n\r\n3,4\r\n",
    f"{BIG},{-BIG}\n{BIG + 1},{-BIG - 1}\n1,1\n",
    "9223372036854775807,-9223372036854775808\n9223372036854775808,0\n",
    "9223372036854775807,-9223372036854775808\n",
    "+3,1_000\n",
    "1,2\x0c3,4\n",
    "1,2\x1c3,4\x1d5,6\x1e7,8\x859,10\u202811,12\u202913,14\x0b15,16\n",
    "1,2\r3,4\r",
    "1,2 # c\r3,4\n",
    "1,2\n \t \n\t\n3,4\n",
    "1,2\n  # comment after blanks\n3,4\n",
    "\xa01,2\xa0\n3\u3000,\u20034\n",
    "１,２\n٣,-٤\n",
    "1\t,\t2\n\t3 , 4\t\n",
    "0,1 # résumé\n",
])
def test_pset_reader_accepts_what_the_loop_accepts(body):
    ps = _same_pset(PSET + body)
    assert ps.moduli == (4, 6)
    want = pset_ref.PSet(2, (4, 6), frozenset(
        tuple(int(t) for t in line.split("#")[0].split(","))
        for line in body.splitlines() if line.split("#")[0].strip()))
    assert pset_ref.PSet.of(ps) == want


@pytest.mark.parametrize("text", [
    CUBES,
    CUBES + "0,1,2,3\n3,2,1,0\n0,1,2,3\n",
    CUBES + "1,2,3\n-4,5,6\n",
    CUBES + "2147483647,-2147483648,0\n",
    "cube-set d=1 dirs=2\n5\n-1\n5\n",
    "# set\ncube-set d=3 dirs=1,2,3\r\n0,1,2,3,4,5,6,7\r\n",
    CUBES + "0,1,2,3\x0c4,5,6,7\n\t\n8,9,10,11\n",
    CUBES + "0,1,2,１\n0,1_0,2,3\n",
    "cube-set d=1 dirs=1\n\xa05,6\n",
])
def test_cube_reader_accepts_what_the_loop_accepts(text):
    cs = _same_cubes(text)
    assert cs.rows.dtype == np.int32


TOKENS = ["0", "1", "2", "7", "-3", "-40", " 5", "6 ", "+8", "1_1", "", "x",
          "1.5", "2147483647", "2147483648", "-2147483649",
          "9223372036854775807", "-9223372036854775809", str(BIG),
          "\t9", "9\t", "\xa03", "3\xa0", "１", "２３", "٣", "--1", "1-", '"1"',
          "\x1f4", "4\r", "\r4", *(c + "4" for c in OTHER_BREAKS),
          *("4" + c for c in OTHER_BREAKS)]
VALID = st.integers(-50, 50).map(str)
SEPARATORS = ["\n", "\r\n", "\r", *OTHER_BREAKS]


def _lines(width: int):
    fixed = st.lists(VALID, min_size=width, max_size=width)
    free = st.lists(st.one_of(VALID, st.sampled_from(TOKENS)), min_size=1, max_size=5)
    row = st.one_of(fixed, fixed, fixed, free).map(",".join)
    noise = st.sampled_from(["", "   ", "# comment", "\t", " \t ", "  # indented"])
    comment = st.sampled_from(["", "", " # note"])
    line = st.one_of(st.tuples(row, comment).map("".join), noise)
    newline = st.sampled_from(["\n"] * len(SEPARATORS) + SEPARATORS)
    return st.lists(st.tuples(line, newline), max_size=8).map(
        lambda parts: "".join(line + end for line, end in parts))


PLAIN_INT = re.compile("[ \t]*[+-]?[0-9]+[ \t]*")


def _must_refuse(body, width_ok, bounds=INT64):
    """Whether the C reader must leave body to the line path: body holds a
    character other than tab, line breaks and printable ASCII, or a
    carriage return outside a CR LF pair, or the line loop rejects it or
    reads a token that is no plain decimal within bounds (as 1_1 or a value
    beyond int64)."""
    if re.search("[^\t\n\r -~]|\r(?!\n)", body):
        return True
    rows = [line.split("#", 1)[0] for line in body.splitlines()]
    rows = [line.split(",") for line in rows if line.strip()]
    if rows and not (width_ok(len(rows[0])) and len({len(r) for r in rows}) == 1):
        return True
    tokens = [t for row in rows for t in row]
    return not all(PLAIN_INT.fullmatch(t) and bounds.min <= int(t) <= bounds.max
                   for t in tokens)


def _may_refuse(body):
    """Whether body holds what the C reader refuses although the line loop
    reads it: a line of blanks, or blanks before a comment."""
    lines = [line.split("#", 1)[0] for line in body.splitlines()]
    return any(line and not line.strip() for line in lines)


def _falls_back(parse, text):
    """parse(text) with a spy on the line path: whether it ran."""
    with mock.patch.object(_text, "_read_lines",
                           wraps=_text._read_lines) as spy:
        _outcome(parse, text)
    return spy.called


def _check_fallback(parse, header, body, width_ok, bounds=INT64):
    ran = _falls_back(parse, header + body)
    if _must_refuse(body, width_ok, bounds):
        assert ran
    elif not _may_refuse(body):
        assert not ran


@SETTINGS
@given(st.data())
def test_pset_reader_matches_the_loop_on_random_lines(data):
    k = data.draw(st.integers(1, 3))
    moduli = data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    header = f"periodic-set k={k} moduli={','.join(map(str, moduli))}\n"
    body = data.draw(_lines(k))
    _same_pset(header + body)
    _check_fallback(PeriodicSet.from_text, header, body, lambda w: w == k)


@SETTINGS
@given(st.data())
def test_cube_reader_matches_the_loop_on_random_lines(data):
    k = data.draw(st.integers(1, 2))
    width = data.draw(st.sampled_from([1 << k, (1 << k) - 1]))
    header = f"cube-set d={k} dirs={','.join(map(str, range(1, k + 1)))}\n"
    body = data.draw(_lines(width))
    _same_cubes(header + body)
    _check_fallback(CubeSet.from_text, header, body,
                    lambda w: w in (1 << k, (1 << k) - 1), cube_engine.INT32)


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from(["", " ", "\t", "# c", " # c", "x",
                                           "periodic-set k=1", "#", "a#b"]),
                          st.sampled_from(SEPARATORS)), max_size=6))
def test_first_content_line_matches_content_lines(parts):
    text = "".join(line + end for line, end in parts)
    first = _first_content_line(text)
    want = _content_lines(text)
    if first is None:
        assert want == []
    else:
        lineno, line, rest = first
        assert [(lineno, line)] + _content_lines(rest, lineno + 1) == want


# ---------------------------------------------------------------------------
# the fallback to the line path


def _workload_pset(periods, moduli, count):
    """A periodic set as the benchmark writes one: a comment line, the
    header and clean sorted rows."""
    box = np.indices(periods).reshape(len(periods), -1).T[:count]
    shifts = np.indices([m // p for p, m in zip(periods, moduli)])
    shifts = shifts.reshape(len(periods), -1).T * np.array(periods)
    rows = sorted(map(tuple, (box[:, None] + shifts[None]).reshape(-1, len(periods))
                      .tolist()))
    return (f"# true periods {periods} lifted to {moduli}\n"
            f"periodic-set k={len(moduli)} moduli={','.join(map(str, moduli))}\n"
            + "".join(",".join(map(str, r)) + "\n" for r in rows))


@pytest.mark.parametrize("text", [
    _workload_pset((12, 10), (96, 100), 60),
    _workload_pset((9, 14), (108, 98), 63),
    _workload_pset((4, 6, 5), (8, 12, 20), 30),
    "periodic-set k=2 moduli=4,6\r\n# c\r\n\r\n1,2 # c\r\n+3, -4\r\n",
    "periodic-set k=2 moduli=4,6\n9223372036854775807,-9223372036854775808\n",
    "periodic-set k=2 moduli=4,6\n",
    "periodic-set k=2 moduli=4,6\n# only a comment\n",
    "periodic-set k=2 moduli=4,6\n1\t,\t2\n",
], ids=["workload-0", "workload-2", "k3", "crlf-comments", "int64-ends", "empty",
        "comment", "tabs"])
def test_clean_psets_never_take_the_line_path(text):
    assert not _falls_back(PeriodicSet.from_text, text)
    _same_pset(text)


def test_clean_cube_sets_never_take_the_line_path(systems):
    from zdcubes.cube_engine import enumerate_K, enumerate_Q
    sys_ = systems["rot8_d3"]
    for cubes in (enumerate_Q(sys_, (1, 2, 3)), enumerate_K(sys_, (1, 2), 0)):
        text = "# dumped\n" + cubes.to_text()
        assert not _falls_back(CubeSet.from_text, text)
        assert np.array_equal(CubeSet.from_text(text).rows, cubes.rows)


def test_verify_reads_a_workload_pset_without_the_line_path(tmp_path):
    from zdcubes.cli import cmd_verify
    path = tmp_path / "pset0.pset"
    path.write_text(_workload_pset((12, 10), (96, 100), 60))
    with mock.patch.object(_text, "_read_lines",
                           wraps=_text._read_lines) as spy:
        report, code = cmd_verify(str(path))
    assert code == 0 and report["counts"]["fail"] == 0
    assert not spy.called


@pytest.mark.parametrize("body", [
    "1,2\n3,\x0c4\n",  # a line break of str.splitlines only
    "1,2\n\xa03,4\n",  # non-ASCII whitespace
    "1,2\n１,2\n",  # a non-ASCII digit
    "1,2\n1_1,2\n",  # int() reads it, the C reader does not
    f"1,2\n{BIG},2\n",  # beyond int64
    "1,2\n3\n",  # width
    "1,2,3\n4,5,6\n",  # width, on every line
    "1,2\n3,x\n",  # no integer at all
    "1,2 # c\r3,4\n",  # a lone carriage return, which a comment runs past
])
def test_the_line_path_runs_where_the_c_reader_must_refuse(body):
    assert _falls_back(PeriodicSet.from_text, PSET + body)
    _same_pset(PSET + body)


# ---------------------------------------------------------------------------
# the writer


def _moduli(k: int):
    modulus = st.one_of(st.integers(1, 40), st.integers(1 << 32, MODULUS_LIMIT - 1))
    return st.lists(modulus, min_size=k, max_size=k)


@st.composite
def periodic_sets(draw):
    k = draw(st.integers(1, 3))
    moduli = draw(_moduli(k))
    value = st.integers(-(1 << 70), 1 << 70)
    residues = draw(st.lists(st.lists(value, min_size=k, max_size=k), max_size=30))
    return PeriodicSet(k, moduli, residues)


@SETTINGS
@given(periodic_sets())
def test_pset_writer_matches_joined_rows(ps):
    text = ps.to_text()
    assert text == pset_ref.pset_to_text(ps)
    again = PeriodicSet.from_text(text)
    assert again.moduli == ps.moduli and np.array_equal(again.rows, ps.rows)


@pytest.mark.parametrize("ps", [
    PeriodicSet.empty(2),
    PeriodicSet(2, (5, 7)),
    PeriodicSet(1, (10,), [(3,), (-1,), (12,)]),
    PeriodicSet(1, (1,), [(0,)]),
    # two values spanning more than their cells: the sparse digit table
    PeriodicSet(1, (1 << 40,), [(0,), (-1,)]),
    PeriodicSet(2, (MODULUS_LIMIT - 1, 1 << 33), [(-1, 1), (5, -(1 << 32))]),
], ids=["empty", "empty-moduli", "k1", "full", "sparse-k1", "sparse-k2"])
def test_pset_writer_edge_cases(ps):
    assert ps.to_text() == pset_ref.pset_to_text(ps)


def test_pset_writer_across_chunks(monkeypatch):
    monkeypatch.setattr(_text, "TEXT_CHUNK", 7)
    rows = [(i, 3 * i, -i) for i in range(40)]
    for moduli in ((50, 150, 60), (50, 1 << 40, 60)):
        ps = PeriodicSet(3, moduli, rows)
        assert ps.to_text() == pset_ref.pset_to_text(ps)


@pytest.mark.parametrize("rows", [
    [(-3, 0, 3, -1), (2, -2, 1, 0), (-3, -3, -3, -3)],  # dense table, negative
    [(5, 6, 7, 8), (6, 6, 6, 6)],  # dense table from 5 up
    [(-(1 << 31), 0, 7, (1 << 31) - 1)],  # sparse table
])
@pytest.mark.parametrize("chunk", [_text.TEXT_CHUNK, 7])
def test_cube_writer_matches_joined_rows(monkeypatch, rows, chunk):
    monkeypatch.setattr(_text, "TEXT_CHUNK", chunk)
    cs = CubeSet((1, 2), rows)
    text = cube_ref.to_text(cs)
    assert cs.to_text() == text
    assert cs.text_sha256() == hashlib.sha256(text.encode()).hexdigest()


def test_readers_across_chunks():
    # numpy's C reader takes a file in chunks of 50,000 lines; a bad line
    # past the first chunk is still named by the line path
    body = "".join(f"{i},{-i}\n" for i in range(60_000))
    rows = _text._read_int_rows(body, 1, "residue", lambda w, first: None, None)
    assert isinstance(rows, np.ndarray)
    assert rows.tolist() == [[i, -i] for i in range(60_000)]
    for text in ("".join(f"{i},{i + 1}\n" for i in range(5)), body):
        assert not _falls_back(PeriodicSet.from_text, PSET + text)
        _same_pset(PSET + text)
        assert _falls_back(PeriodicSet.from_text, PSET + text + "1,x\n")
        _same_pset(PSET + text + "1,x\n")
    text = "".join(f"{i},1,2,3\n" for i in range(5))
    _same_cubes(CUBES + text)
    _same_cubes(CUBES + text + "0,1,2,2147483648\n")
