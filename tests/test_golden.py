"""The committed golden runs replay byte for byte.

scripts/make_goldens.py regenerates them; do that only for a change that is
meant to alter trace bytes.
"""

import json
import sys
from pathlib import Path

import pytest

from swarmsim import build_simulation, compute_metrics, from_meta, read_trace, run, write_trace
from swarmsim.metrics import write_metrics_json, write_series_csv
from swarmsim.scenario import PATTERN_KINDS
from swarmsim.trace import trace_from_columns

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = sorted(GOLDEN_DIR.glob("*/trace.csv"))
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
from make_goldens import MANIFEST, PAPER_RUNS, paper_run  # noqa: E402

MANIFEST_SEED = 1  # the one seed per preset Tier-1 replays


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


@pytest.mark.parametrize("path", GOLDEN, ids=[p.parent.name for p in GOLDEN])
def test_golden_run_with_instance_wrapped_ticks_is_byte_identical(path, tmp_path):
    """A profiler may replace behavior.tick on each built behavior with a
    pass-through, as the benchmark's tracer does; that changes no byte."""
    config = from_meta(read_trace(path).meta)
    sim = build_simulation(config)
    calls = []

    def passthrough(tick):
        def wrapped(*args, **kwargs):
            calls.append(None)
            return tick(*args, **kwargs)

        return wrapped

    for node in sim.nodes:
        node.behavior.tick = passthrough(node.behavior.tick)
    sim.run(config.tick_count())
    write_trace(trace_from_columns(sim.meta, sim.columns), tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == path.read_bytes()
    assert len(calls) == config.tick_count() * len(sim.nodes)


@pytest.mark.parametrize("preset", PAPER_RUNS)
def test_paper_run_matches_the_manifest(preset):
    """One full-length seed of each preset; CI regenerates the whole manifest."""
    entries = json.loads((ROOT / MANIFEST).read_text())[preset]
    assert [entry["seed"] for entry in entries] == list(PAPER_RUNS[preset])
    assert paper_run(preset, MANIFEST_SEED) == {
        key: value for key, value in entries[MANIFEST_SEED].items() if key != "seed"
    }


def test_every_pattern_kind_has_a_golden():
    covered = {read_trace(path).meta["scenario"]["pattern"] for path in GOLDEN}
    assert set(PATTERN_KINDS) - covered == set()
