"""The line-oriented text codecs of the library's file formats: content
lines (blank lines and '#' comments are skipped), the `key = value` lines
of the system formats, the `<kind> name=value ...` header of the row
formats and the int-row reader and writer.

The row reader hands the text after the header line to numpy's C text
reader in one pass; the line-at-a-time loop of str.splitlines and int()
reads it only where that reader refuses it or could read it otherwise, and
names the first bad line.  The writer formats each distinct value once
into a table of 2-, 4- or 8-byte cells and reads the cells of the rows off
it with one flat gather of unsigned integers.
"""

from __future__ import annotations

import io
import re
import warnings
from functools import lru_cache, partial
from typing import Any, Callable

import numpy as np

from .errors import InputError

TEXT_CHUNK = 1 << 22  # bytes of cell buffer per chunk of the text form
CACHED_RANGE = 1 << 16  # widest value range whose text cells are kept
# tab, line feed, carriage return and printable ASCII
_PLAIN = bytes([9, 10, 13, *range(32, 127)])


def _content_lines(text: str, start: int = 1) -> list[tuple[int, str]]:
    """(lineno, stripped) for lines that are not blank or comments, the
    first line of text numbered start."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] if "#" in line else line for line in lines]
    return [(lineno, line) for lineno, line in enumerate(map(str.strip, lines), start)
            if line]


# the line boundaries of str.splitlines
_LINE_BREAK = re.compile(r"\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


def _first_content_line(text: str) -> tuple[int, str, str] | None:
    """The first entry of _content_lines(text) followed by the text after
    that line, or None when there is no such line.  Lines are split off one
    at a time, so the rest of the text is never split."""
    start = lineno = 0
    for lineno, brk in enumerate(_LINE_BREAK.finditer(text), 1):
        line = text[start:brk.start()].split("#", 1)[0].strip()
        if line:
            return lineno, line, text[brk.end():]
        start = brk.end()
    line = text[start:].split("#", 1)[0].strip()
    return (lineno + 1, line, "") if line else None



def _parse_int_list(text: str, lineno: int, path: str | None) -> list[int]:
    inner = text.strip()
    if not (inner.startswith("[") and inner.endswith("]")):
        raise InputError(f"expected a [..] list, got {text!r}", path=path, line=lineno)
    inner = inner[1:-1].strip()
    if not inner:
        return []
    try:
        return [int(tok) for tok in inner.split(",")]
    except ValueError:
        raise InputError(f"non-integer entry in {text!r}", path=path, line=lineno)


# an indexed key: a name and an index in ASCII digits, as T1 or alpha2
_INDEXED_KEY = re.compile(r"([A-Za-z]+?)([0-9]+)")


def _read_keys(text: str, path: str | None, header: str,
               scalars: dict[str, str], indexed: dict[str, Callable]
               ) -> tuple[dict[str, tuple[int, int]],
                          dict[str, dict[int, tuple[int, Any]]]]:
    """The `key = value` lines of a system file below its header line.

    A key is an integer scalar, named in scalars with the message that
    refuses its absence, or a name in indexed followed by an index, whose
    value that name's parser (value, line, path) reads.  Returns the (line,
    value) of each scalar by name and, per indexed name, of each index.
    A wrong header, a line that is not `key = value`, an unknown key and a
    repeated key are input errors at their line."""
    body = _content_lines(text)
    if not body or body[0][1] != header:
        raise InputError(f"expected '{header}' header", path=path,
                         line=body[0][0] if body else 1)
    values: dict[str, tuple[int, int]] = {}
    rows: dict[str, dict[int, tuple[int, Any]]] = {name: {} for name in indexed}
    for lineno, line in body[1:]:
        if "=" not in line:
            raise InputError(f"expected 'key = value', got {line!r}", path=path, line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in scalars:
            if key in values:
                raise InputError(f"duplicate row {key}", path=path, line=lineno)
            try:
                values[key] = (lineno, int(value))
            except ValueError:
                raise InputError(f"'{key}' must be an integer, got {value!r}",
                                 path=path, line=lineno)
        elif (match := _INDEXED_KEY.fullmatch(key)) and match[1] in indexed:
            name, i = match[1], int(match[2])
            if i in rows[name]:
                raise InputError(f"duplicate row {name}{i}", path=path, line=lineno)
            rows[name][i] = (lineno, indexed[name](value, lineno, path))
        else:
            raise InputError(f"unknown directive {key!r}", path=path, line=lineno)
    for key, missing in scalars.items():
        if key not in values:
            raise InputError(missing, path=path)
    return values, rows


def _read_header(text: str, usage: str, path: str | None
                 ) -> tuple[int, dict[str, Any], str]:
    """(line, fields, body) of the header line `<kind> name=<value> ...` that
    usage spells: its line number, its values by name (a list of integers
    where usage has <...>, else one integer) and the text after it.  A
    first content line that does not start with the kind lacks the header;
    a first token other than the kind, a token without '=', an unknown,
    repeated or missing name and a value int() refuses are a malformed
    header at its line."""
    kind, *spec = usage.split()
    lists = {name: value == "<...>"
             for name, _, value in (s.partition("=") for s in spec)}
    first = _first_content_line(text)
    if first is None or not first[1].startswith(kind):
        raise InputError(f"expected '{usage}' header", path=path,
                         line=first[0] if first else 1)
    line, header, body = first
    head, *tokens = header.split()
    fields = dict(tok.split("=", 1) for tok in tokens if "=" in tok)
    try:
        # a token without '=' or a repeated name leaves fewer fields
        if (head != kind or len(fields) != len(tokens)
                or fields.keys() != lists.keys()):
            raise ValueError
        return line, {name: tuple(int(t) for t in value.split(","))
                      if lists[name] else int(value)
                      for name, value in fields.items()}, body
    except ValueError:
        raise InputError(f"malformed {kind} header", path=path, line=line)


def _read_int_rows(body: str, header_line: int, noun: str, width_error,
                   path: str | None, bounds: np.iinfo | None = None
                   ) -> np.ndarray | list[tuple[int, ...]]:
    """The rows of comma-separated integers in body, the text after the
    header on line header_line, as an int64 array of shape (lines, width),
    or as a list of int tuples: an empty one when there are no content
    lines, and the rows themselves when int() reads a value that numpy's C
    text reader does not, such as one beyond int64 (for the caller to
    reduce exactly).

    width_error(width, first) is the message for a line of width values
    when the first line holds first values, or None when the line is fine.
    Values must lie within bounds when given.

    The body is parsed by _c_rows in one pass.  Where that gives None, or
    rows of a width or range the caller refuses, _read_lines reads it again
    one line at a time and raises at the first bad line."""
    rows = _c_rows(body)
    if rows is not None and not len(rows):
        return []
    if (rows is not None and width_error(rows.shape[1], rows.shape[1]) is None
            and (bounds is None
                 or bounds.min <= rows.min() and rows.max() <= bounds.max)):
        return rows
    return _read_lines(_content_lines(body, header_line + 1), noun, width_error,
                       path, bounds)


def _c_rows(body: str) -> np.ndarray | None:
    """The rows of body read by numpy's C text reader, or None when it
    refuses them or body holds what the reader could split or strip
    otherwise than str.splitlines and int() do: a character that is neither
    printable ASCII nor a tab or line break, or a carriage return outside
    a CR LF pair (a comment runs on past it).  Where it reads rows, it
    reads the values int() reads."""
    if (not body.isascii() or body.encode("ascii").translate(None, _PLAIN)
            or body.count("\r") != body.count("\r\n")):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a body without rows
        # older numpy reads "1.5" as an int with a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(io.StringIO(body), dtype=np.int64, comments="#",
                              delimiter=",", ndmin=2)
        except (ValueError, OverflowError, DeprecationWarning):
            return None


def _read_lines(body: list[tuple[int, str]], noun: str, width_error,
                path: str | None, bounds: np.iinfo | None
                ) -> list[tuple[int, ...]]:
    """The content lines body (as _content_lines gives them) parsed by int()
    one at a time; the first bad line raises with its message and number."""
    rows = []
    for lineno, line in body:
        try:
            row = tuple(int(t) for t in line.split(","))
        except ValueError:
            raise InputError(f"non-integer {noun} in {line!r}", path=path, line=lineno)
        message = width_error(len(row), len(rows[0]) if rows else len(row))
        if message is not None:
            raise InputError(message, path=path, line=lineno)
        if bounds is not None and not bounds.min <= min(row) <= max(row) <= bounds.max:
            raise InputError(f"{noun} outside the {bounds.dtype} range in {line!r}",
                             path=path, line=lineno)
        rows.append(row)
    return rows


def _rows_text(header: str, rows: np.ndarray) -> str:
    return b"".join(_text_chunks(header, rows)).decode("ascii")


def _text_chunks(header: str, rows: np.ndarray):
    """The ASCII bytes of a header line followed by the rows of an int
    array as comma-separated decimals, one line each, TEXT_CHUNK buffer
    bytes at a time.

    Each distinct value is formatted once, into a cell of 2, 4 or 8 bytes
    (or wider for long values) holding its digits followed by a ',' (or,
    for the last column, a newline) and padded with NUL bytes; a chunk of
    rows gathers its cells from the table as unsigned integers of the cell
    width and drops the padding with bytes.translate, which is exact
    because no digit, sign or separator is NUL, and is skipped when no
    cell is padded.  The table spans the value range, or only the values
    that occur, by a sort and an adjacent compare, when the range exceeds
    the cell count (as with large moduli)."""
    yield f"{header}\n".encode()
    if not len(rows):
        return
    lo, hi = int(rows.min()), int(rows.max())
    if hi - lo < rows.size:
        table, padded = (_range_cells(lo, hi) if hi - lo < CACHED_RANGE
                         else _cells(np.arange(lo, hi + 1)))

        def codes(c):
            return c - lo if lo else c
    else:
        values = np.sort(rows, axis=None)
        values = values[np.append(True, values[1:] != values[:-1])]
        table, padded = _cells(values)
        codes = partial(np.searchsorted, values)
    width = rows.shape[1]
    # the last column reads the newline cells, in the second half
    last = (np.arange(width) == width - 1) * (len(table) // 2)
    step = max(1, TEXT_CHUNK // (width * table.itemsize))
    for start in range(0, len(rows), step):
        data = table[codes(rows[start:start + step]) + last].tobytes()
        yield data.translate(None, b"\0") if padded else data


def _cells(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """(table, padded) for the sorted values: table is the read-only 2V
    cells of _text_chunks, V of them for the values followed by a ',' and
    V followed by a newline, and padded tells whether any cell ends in NUL
    bytes."""
    cell = max(len(str(values[0])), len(str(values[-1]))) + 1
    cell = next((c for c in (2, 4, 8) if c >= cell), cell)
    digits = values.astype(f"S{cell}").view(np.uint8).reshape(-1, cell)
    size = (digits != 0).sum(axis=1) + 1  # digits and separator
    table = np.repeat(digits[None], 2, axis=0)
    table[0, np.arange(len(values)), size - 1] = ord(",")
    table[1, np.arange(len(values)), size - 1] = ord("\n")
    table = table.view(f"u{cell}" if cell <= 8 else f"V{cell}").ravel()
    table.flags.writeable = False
    return table, bool((size < cell).any())


@lru_cache(maxsize=4)
def _range_cells(lo: int, hi: int) -> tuple[np.ndarray, bool]:
    """_cells of lo..hi, built once per range: a system's cube sets share
    the range of its point ids."""
    return _cells(np.arange(lo, hi + 1))
