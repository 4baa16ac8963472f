"""The committed golden runs replay byte for byte."""

from pathlib import Path

import pytest

from swarmsim import from_meta, read_trace, run

RUNS = Path(__file__).resolve().parent.parent / "runs"
GOLDEN = sorted(RUNS.glob("*/*/trace.csv"))


@pytest.mark.parametrize("path", GOLDEN, ids=[p.parent.name for p in GOLDEN])
def test_golden_run_replays_byte_identical(path, tmp_path):
    run(from_meta(read_trace(path).meta), out_dir=tmp_path)
    for name in ("trace.csv", "metrics.json", "series.csv"):
        assert (tmp_path / name).read_bytes() == (path.parent / name).read_bytes(), name
