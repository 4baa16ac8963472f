"""Trace files: one CSV row per (tick, robot) with a JSON metadata header.

The header line carries the fully resolved scenario so a trace is
self-describing: metrics and replay need nothing but the file. Floats are
written with repr (shortest round-trip), which makes files byte-stable for
identical runs and lossless to parse.

SCHEMA is the one list of trace columns: the in-memory Trace, the
simulator's recorder, the writer and the reader are all driven from it.

Files are written and parsed in blocks of rows of at most BLOCK_CELLS
cells, so besides the typed columns themselves (O(rows)) the writer and the
reader hold one block of Python values or text lines at a time.
"""

from __future__ import annotations

import json
import math
from itertools import islice
from pathlib import Path
from typing import NoReturn

import numpy as np

HEADER_PREFIX = "# swarmsim-trace v1 "

# (name, dtype, % conversion). Each column is cast to its dtype and turned
# into Python values, so "%r" is repr(float) and "%d" is str(int).
SCHEMA = (
    ("tick", int, "%d"),
    ("robot", int, "%d"),
    ("clock", float, "%r"),
    ("x", float, "%r"),
    ("y", float, "%r"),
    ("theta", float, "%r"),
    ("pattern_linear", float, "%r"),
    ("pattern_angular", float, "%r"),
    ("cmd_linear", float, "%r"),
    ("cmd_angular", float, "%r"),
    ("suppressed", int, "%d"),
    # NaN (written empty) for behaviors without an opinion, else an integer
    ("opinion", float, "%s"),
)
COLUMN_NAMES = tuple(name for name, _, _ in SCHEMA)
_ROW_FORMAT = ",".join(conversion for _, _, conversion in SCHEMA) + "\n"
_OPINION = COLUMN_NAMES.index("opinion")
_ROW_DTYPE = np.dtype([(name, dtype) for name, dtype, _ in SCHEMA])

# Cells a writer or the reader turns into Python values or lines at a time.
BLOCK_CELLS = 1 << 16


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


class TraceRecorder:
    """Trace columns built tick by tick: one list attribute per schema column."""

    def __init__(self):
        for name in COLUMN_NAMES:
            setattr(self, name, [])

    def extend(self, **rows) -> None:
        """Append rows given as one equal-length sequence per column."""
        for name in COLUMN_NAMES:
            getattr(self, name).extend(rows[name])


def trace_from_columns(meta: dict, columns) -> Trace:
    """Trace from any object with one sequence attribute per column."""
    return Trace(
        meta,
        **{name: np.asarray(getattr(columns, name), dtype=dtype) for name, dtype, _ in SCHEMA},
    )


def write_trace(trace: Trace, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [getattr(trace, name) for name in COLUMN_NAMES]
    step = block_rows(len(SCHEMA))
    with path.open("w") as fh:
        fh.write(HEADER_PREFIX + json.dumps(trace.meta, sort_keys=True, separators=(",", ":")))
        fh.write("\n" + ",".join(COLUMN_NAMES) + "\n")
        for start in range(0, len(trace.tick), step):
            # tolist() gives Python scalars: "%r" of a numpy float prints np.float64(...)
            block = [
                np.asarray(column[start : start + step], dtype=dtype).tolist()
                for column, (_, dtype, _) in zip(columns, SCHEMA)
            ]
            block[_OPINION] = ["" if math.isnan(v) else int(v) for v in block[_OPINION]]
            fh.writelines(_ROW_FORMAT % row for row in zip(*block))
    return path


def read_trace(path: str | Path) -> Trace:
    """Parse a trace file block by block; an empty opinion cell reads as NaN.

    A row with the wrong number of fields or a cell its column's dtype does
    not parse raises a ValueError naming the file and the line, where blank
    lines (skipped) count as lines.
    """
    path = Path(path)
    pieces = [[np.empty(0, dtype)] for _, dtype, _ in SCHEMA]
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
            rows = [line for line in lines if line != "\n"]
            if rows:
                try:
                    parsed = np.loadtxt(
                        rows,
                        dtype=_ROW_DTYPE,
                        delimiter=",",
                        comments=None,
                        converters={_OPINION: _parse_opinion},
                        ndmin=1,
                    )
                except ValueError as exc:
                    _raise_for_first_bad_line(path, lines, lineno, exc)
                # copies, so that the block's row array is freed
                for piece, name in zip(pieces, COLUMN_NAMES):
                    piece.append(parsed[name].copy())
            lineno += len(lines)
    arrays = {}
    for name, piece in zip(COLUMN_NAMES, pieces):
        arrays[name] = np.concatenate(piece)
        piece.clear()  # free each column's blocks once it is one array
    return Trace(meta, **arrays)


def _parse_opinion(cell: str) -> float:
    return float(cell or "nan")


def _raise_for_first_bad_line(
    path: Path, lines: list[str], first_lineno: int, exc: ValueError
) -> NoReturn:
    """Raise the error of the first line of a block that np.loadtxt rejected,
    checking its width and parsing its cells one at a time."""
    width = len(SCHEMA)
    for lineno, line in enumerate(lines, start=first_lineno):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}, line {lineno}: {len(parts)} fields, expected {width}")
        parts[_OPINION] = parts[_OPINION] or "nan"
        try:
            for (_, dtype, _), part in zip(SCHEMA, parts):
                dtype(part)
        except ValueError as cell_exc:
            raise ValueError(f"{path}, line {lineno}: {cell_exc}") from None
    last = first_lineno + len(lines) - 1
    raise ValueError(f"{path}, lines {first_lineno}-{last}: {exc}") from None
