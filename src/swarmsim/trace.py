"""Trace files: one CSV row per (tick, robot) with a JSON metadata header.

The header line carries the fully resolved scenario so a trace is
self-describing: metrics and replay need nothing but the file. Floats are
written with repr (shortest round-trip), which makes files byte-stable for
identical runs and lossless to parse.

SCHEMA is the one list of trace columns: the in-memory Trace, the
simulator's typed columns (Simulation.columns), the writer and the reader
are all driven from it.

Files are written and parsed in blocks of rows of at most BLOCK_CELLS
cells, so besides the typed columns themselves (O(rows)) the writer and the
reader hold one block of text at a time. The writer formats each distinct
value of a block once: one table for all the float columns, keyed on each
float's bits (so a cmd_* cell equal to its pattern_* cell reuses its text,
while -0.0 and 0.0 stay apart), one for each int column and one for the
opinion. Equal bits always print equal text, so the bytes are those of
formatting every cell on its own.
"""

from __future__ import annotations

import json
import math
from itertools import islice
from pathlib import Path

import numpy as np

HEADER_PREFIX = "# swarmsim-trace v1 "

# (name, dtype). Float cells are written as repr(float), int cells as
# str(int), and the opinion as str(int), or empty for NaN.
SCHEMA = (
    ("tick", int),
    ("robot", int),
    ("clock", float),
    ("x", float),
    ("y", float),
    ("theta", float),
    ("pattern_linear", float),
    ("pattern_angular", float),
    ("cmd_linear", float),
    ("cmd_angular", float),
    ("suppressed", int),
    # NaN (written empty) for behaviors without an opinion, else an integer
    ("opinion", float),
)
COLUMN_NAMES = tuple(name for name, _ in SCHEMA)
_OPINION = COLUMN_NAMES.index("opinion")
_FLOATS = [i for i, (_, dtype) in enumerate(SCHEMA) if dtype is float and i != _OPINION]
_INTS = [i for i, (_, dtype) in enumerate(SCHEMA) if dtype is int]
_ROW_DTYPE = np.dtype(list(SCHEMA))

# Cells a writer or the reader turns into Python values or lines at a time.
BLOCK_CELLS = 1 << 14


def block_rows(width: int) -> int:
    """Rows per block for rows of `width` cells: at most BLOCK_CELLS cells."""
    return max(1, BLOCK_CELLS // width)


class Trace:
    """The header metadata plus one array attribute per schema column."""

    def __init__(self, meta: dict, **columns: np.ndarray):
        if columns.keys() != set(COLUMN_NAMES):
            raise TypeError(f"trace columns must be exactly {COLUMN_NAMES}, got {tuple(columns)}")
        lengths = {name: len(columns[name]) for name in COLUMN_NAMES}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"trace columns differ in length: {lengths}")
        self.meta = meta
        for name in COLUMN_NAMES:
            setattr(self, name, columns[name])


def trace_from_columns(meta: dict, columns) -> Trace:
    """Trace from any object with one sequence attribute per column. A cell of
    an int column that is not an int64 integer raises, naming column and row."""
    arrays = {}
    for i, (name, dtype) in enumerate(SCHEMA):
        values = getattr(columns, name)
        if dtype is float and not isinstance(values, np.ndarray):
            # float() of each cell, the value np.asarray's cast gives, without
            # that array; int columns keep np.asarray, whose cell check
            # rejects 1.5 where np.fromiter would cut it to 1.
            values = np.fromiter(values, float, len(values))
        values = np.asarray(values)
        if dtype is int and values.dtype.kind not in "bi":
            _integer_cells(i, values, 0, _int_text, "an int64")  # raises on a non-integer cell
        arrays[name] = np.asarray(values, dtype=dtype)
    return Trace(meta, **arrays)


def write_trace(trace: Trace, path: str | Path) -> Path:
    """Write the header line, the column names and one row per trace row.

    A cell of an int column that is not an int64 integer, or an opinion that
    is neither NaN nor an integer, raises a ValueError naming its column and
    row, and no file is left behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [getattr(trace, name) for name in COLUMN_NAMES]
    step = block_rows(len(SCHEMA))
    try:
        with path.open("w") as fh:
            fh.write(HEADER_PREFIX + json.dumps(trace.meta, sort_keys=True, separators=(",", ":")))
            fh.write("\n" + ",".join(COLUMN_NAMES) + "\n")
            for start in range(0, len(trace.tick), step):
                block = [column[start : start + step] for column in columns]
                cells = [None] * len(SCHEMA)
                floats = np.array([block[i] for i in _FLOATS], dtype=float)
                for i, texts in zip(_FLOATS, text_cells(floats.view(np.int64), float_texts)):
                    cells[i] = texts
                for i in _INTS:
                    cells[i] = _integer_cells(i, np.asarray(block[i]), start, _int_text, "an int64")
                opinions = np.asarray(block[_OPINION], dtype=float)
                cells[_OPINION] = _integer_cells(
                    _OPINION, opinions, start, _opinion_text, "NaN or an integer"
                )
                write_rows(fh, cells)
    except ValueError:
        path.unlink(missing_ok=True)
        raise
    return path


def text_cells(keys: np.ndarray, texts) -> list:
    """The text of each cell of `keys`, as nested lists of its shape.

    texts(distinct) gives the text of each of the sorted distinct keys, so
    each distinct key is formatted once however often it repeats.
    """
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array(texts(distinct), dtype=object)[inverse.reshape(keys.shape)].tolist()


def float_texts(bits: np.ndarray, end: str = "") -> list[str]:
    """repr of the floats whose int64 bit patterns are `bits`, each + end.

    Keyed on bits, -0.0 and 0.0 (and NaN payloads) are distinct keys; equal
    bits always print equal text.
    """
    texts = list(map(repr, bits.view(np.float64).tolist()))
    return [text + end for text in texts] if end else texts


def write_rows(fh, cells: list[list[str]]) -> None:
    """Write rows whose cells are given column by column; the last column's
    texts end the row."""
    fh.write("".join(map(",".join, zip(*cells))))


def _int_text(value) -> str | None:
    """str of an int64 integer, else None."""
    if float(value).is_integer() and -(2**63) <= value < 2**63:
        return str(int(value))
    return None


def _opinion_text(value: float) -> str | None:
    """The opinion cell of a NaN or an integer, ending the row; else None."""
    if math.isnan(value):
        return "\n"
    return str(int(value)) + "\n" if value.is_integer() else None


def _integer_cells(column: int, values: np.ndarray, first_row: int, text, what: str) -> list[str]:
    """text(v) of each cell of one column's block; a value without one (not
    `what`) raises a ValueError naming the column and its first row."""
    distinct, inverse = np.unique(values, return_inverse=True)
    distinct = distinct.tolist()
    table = [text(v) for v in distinct]
    if None in table:
        k = table.index(None)
        row = first_row + int(np.argmax(inverse == k))
        raise ValueError(
            f"trace column {COLUMN_NAMES[column]!r}, row {row}: {distinct[k]!r} is not {what}"
        )
    return np.array(table, dtype=object)[inverse].tolist()


def read_trace(path: str | Path) -> Trace:
    """Parse a trace file, a block of lines at a time, with _parse_rows. A row
    of the wrong width, or one _parse_rows rejects, raises a ValueError
    naming the file and the line; blank lines are skipped but counted."""
    path = Path(path)
    pieces = [[np.empty(0, dtype)] for _, dtype in SCHEMA]
    with path.open() as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(HEADER_PREFIX):
            raise ValueError(f"{path} is not a trace file")
        meta = json.loads(header[len(HEADER_PREFIX):])
        names = fh.readline().rstrip("\n").split(",")
        if tuple(names) != COLUMN_NAMES:
            raise ValueError(f"unexpected trace columns: {names}")
        lineno = 3
        step = block_rows(len(SCHEMA))
        while lines := list(islice(fh, step)):
            try:
                parsed = _parse_rows(lines)
            except ValueError:
                _raise_for_first_bad_line(path, lines, lineno)
                raise  # no line fails alone: the block's own error
            # copies, so that the block's row array is freed
            for piece, name in zip(pieces, COLUMN_NAMES):
                piece.append(parsed[name].copy())
            lineno += len(lines)
    arrays = {}
    for name, piece in zip(COLUMN_NAMES, pieces):
        arrays[name] = np.concatenate(piece)
        piece.clear()  # free each column's blocks once it is one array
    return Trace(meta, **arrays)


def _parse_rows(lines: list[str]) -> np.ndarray:
    """The non-blank lines as _ROW_DTYPE rows, an empty opinion cell as NaN;
    a cell its column does not parse, or a fractional opinion, raises."""
    # An empty opinion cell ends its line in "," (or ",\n"): read it as "nan".
    rows = [
        line[:-1] + "nan\n" if line.endswith(",\n")
        else line + "nan" if line.endswith(",")
        else line
        for line in lines
        if line != "\n"
    ]
    if not rows:  # np.loadtxt warns on no input
        return np.empty(0, _ROW_DTYPE)
    parsed = np.loadtxt(rows, dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1)
    op = parsed["opinion"]
    bad = op[~(np.isnan(op) | np.isfinite(op) & (np.trunc(op) == op))]
    if bad.size:
        raise ValueError(f"opinion {float(bad[0])} is not NaN or an integer")
    return parsed


def _raise_for_first_bad_line(path: Path, lines: list[str], lineno: int) -> None:
    """Raise the error of the first line of the wrong width or that fails alone."""
    for lineno, line in enumerate(lines, start=lineno):
        fields = len(line.rstrip("\n").split(","))
        try:
            if line != "\n" and fields != len(SCHEMA):
                raise ValueError(f"{fields} fields, expected {len(SCHEMA)}")
            _parse_rows([line])
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
