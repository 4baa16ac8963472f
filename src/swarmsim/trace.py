"""Trace files: one CSV row per (tick, robot) with a JSON metadata header.

The header line carries the fully resolved scenario so a trace is
self-describing: metrics and replay need nothing but the file. Floats are
written with repr (shortest round-trip), which makes files byte-stable for
identical runs and lossless to parse.

SCHEMA is the one list of trace columns: the in-memory Trace, the
simulator's recorder, the writer and the reader are all driven from it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

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
    # tolist() gives Python scalars: "%r" of a numpy float prints np.float64(...)
    columns = [np.asarray(getattr(trace, name), dtype=dtype).tolist() for name, dtype, _ in SCHEMA]
    columns[_OPINION] = ["" if math.isnan(v) else int(v) for v in columns[_OPINION]]
    with path.open("w") as fh:
        fh.write(HEADER_PREFIX + json.dumps(trace.meta, sort_keys=True, separators=(",", ":")))
        fh.write("\n" + ",".join(COLUMN_NAMES) + "\n")
        fh.writelines(_ROW_FORMAT % row for row in zip(*columns))
    return path


def read_trace(path: str | Path) -> Trace:
    path = Path(path)
    width = len(SCHEMA)
    columns = [[] for _ in SCHEMA]
    parsers = [(column.append, dtype) for column, (_, dtype, _) in zip(columns, SCHEMA)]
    with path.open() as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(HEADER_PREFIX):
            raise ValueError(f"{path} is not a trace file")
        meta = json.loads(header[len(HEADER_PREFIX):])
        names = fh.readline().rstrip("\n").split(",")
        if tuple(names) != COLUMN_NAMES:
            raise ValueError(f"unexpected trace columns: {names}")
        for lineno, line in enumerate(fh, start=3):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise ValueError(f"{path}, line {lineno}: {len(parts)} fields, expected {width}")
            parts[_OPINION] = parts[_OPINION] or "nan"
            try:
                for (append, parse), part in zip(parsers, parts):
                    append(parse(part))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
    arrays = {}
    for (name, dtype, _), values in zip(SCHEMA, columns):
        arrays[name] = np.array(values, dtype=dtype)
        values.clear()  # free each column's Python values once it is an array
    return Trace(meta, **arrays)
