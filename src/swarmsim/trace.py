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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

HEADER_PREFIX = "# swarmsim-trace v1 "


@dataclass(frozen=True)
class Column:
    """One trace column: array dtype, text format, and text parser."""

    name: str
    dtype: type
    format: Callable[[Any], str]
    parse: Callable[[str], Any]


def _fmt_int(value) -> str:
    return str(int(value))


def _fmt_float(value) -> str:
    return repr(float(value))


def _fmt_opinion(value) -> str:
    return "" if math.isnan(value) else str(int(value))


def _parse_opinion(text: str) -> float:
    return math.nan if text == "" else float(text)


def _int_column(name: str) -> Column:
    return Column(name, int, _fmt_int, int)


def _float_column(name: str) -> Column:
    return Column(name, float, _fmt_float, float)


SCHEMA = (
    _int_column("tick"),
    _int_column("robot"),
    _float_column("clock"),
    _float_column("x"),
    _float_column("y"),
    _float_column("theta"),
    _float_column("pattern_linear"),
    _float_column("pattern_angular"),
    _float_column("cmd_linear"),
    _float_column("cmd_angular"),
    _int_column("suppressed"),
    # empty for behaviors without an opinion
    Column("opinion", float, _fmt_opinion, _parse_opinion),
)
COLUMN_NAMES = tuple(column.name for column in SCHEMA)


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
        **{c.name: np.asarray(getattr(columns, c.name), dtype=c.dtype) for c in SCHEMA},
    )


def write_trace(trace: Trace, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    formats = [c.format for c in SCHEMA]
    with path.open("w") as fh:
        fh.write(HEADER_PREFIX + json.dumps(trace.meta, sort_keys=True, separators=(",", ":")))
        fh.write("\n" + ",".join(COLUMN_NAMES) + "\n")
        for row in zip(*(getattr(trace, name) for name in COLUMN_NAMES)):
            fh.write(",".join([fmt(value) for fmt, value in zip(formats, row)]) + "\n")
    return path


def read_trace(path: str | Path) -> Trace:
    path = Path(path)
    width = len(SCHEMA)
    raw: list[list[str]] = [[] for _ in SCHEMA]
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
                raise ValueError(
                    f"{path}, line {lineno}: {len(parts)} fields, expected {width}"
                )
            for cells, part in zip(raw, parts):
                cells.append(part)
    columns = {}
    for column, cells in zip(SCHEMA, raw):
        columns[column.name] = np.array([column.parse(v) for v in cells], dtype=column.dtype)
        cells.clear()  # free each column's text once it is parsed
    return Trace(meta, **columns)
