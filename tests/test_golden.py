"""The committed golden runs replay byte for byte.

scripts/make_goldens.py regenerates them; do that only for a change that is
meant to alter trace bytes.
"""

from pathlib import Path

import pytest

from swarmsim import compute_metrics, from_meta, read_trace, run, write_trace
from swarmsim.metrics import write_metrics_json, write_series_csv
from swarmsim.scenario import PATTERN_KINDS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = sorted(GOLDEN_DIR.glob("*/trace.csv"))


@pytest.mark.parametrize("path", GOLDEN, ids=[p.parent.name for p in GOLDEN])
def test_golden_run_replays_byte_identical(path, tmp_path):
    run(from_meta(read_trace(path).meta), out_dir=tmp_path)
    for name in ("trace.csv", "metrics.json", "series.csv"):
        assert (tmp_path / name).read_bytes() == (path.parent / name).read_bytes(), name


@pytest.mark.parametrize("path", GOLDEN, ids=[p.parent.name for p in GOLDEN])
def test_golden_trace_reads_back_to_the_committed_files(path, tmp_path):
    trace = read_trace(path)
    write_trace(trace, tmp_path / "trace.csv")
    report = compute_metrics(trace)
    write_metrics_json(report, tmp_path / "metrics.json")
    write_series_csv(report, tmp_path / "series.csv")
    for name in ("trace.csv", "metrics.json", "series.csv"):
        assert (tmp_path / name).read_bytes() == (path.parent / name).read_bytes(), name


def test_every_pattern_kind_has_a_golden():
    covered = {read_trace(path).meta["scenario"]["pattern"] for path in GOLDEN}
    assert set(PATTERN_KINDS) - covered == set()
