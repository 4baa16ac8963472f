"""Memory bounds of post-processing, measured with tracemalloc.

Trace write, trace read and metrics work in fixed-size blocks, so their
peaks stay O(rows) plus one block. Before the blocks, the whole-trace forms
peaked at 9.3 MB (write), 9.4 MB (read) on a 30,000-row trace and at 186 MB
(metrics) on a 200-robot, 300-tick trace: each ceiling below is under that
peak.
"""

import tracemalloc

import numpy as np

from swarmsim import compute_metrics, read_trace, write_trace
from swarmsim.sim import rect_walls
from swarmsim.trace import SCHEMA, Trace

MB = 1e6


def synthetic_trace(robots: int, ticks: int) -> Trace:
    """Robots at random points of an 18 m square, tick by tick."""
    rng = np.random.default_rng(0)
    rows = robots * ticks
    columns = {name: rng.normal(size=rows) for name, _, _ in SCHEMA}
    columns.update(
        tick=np.repeat(np.arange(1, ticks + 1), robots),
        robot=np.tile(np.arange(robots), ticks),
        clock=np.repeat(np.arange(1, ticks + 1) * 0.1, robots),
        x=rng.uniform(-8.5, 8.5, rows),
        y=rng.uniform(-8.5, 8.5, rows),
        suppressed=rng.integers(0, 2, rows),
        opinion=rng.integers(0, 2, rows).astype(float),
    )
    scenario = {
        "robot_ids": list(range(robots)),
        "radii": [0.15] * robots,
        "walls": rect_walls(18.0, 18.0).tolist(),
        "dt": 0.1,
        "pattern_params": {},
    }
    return Trace({"scenario": scenario}, **columns)


def traced_peak(fn, *args):
    """(result, peak bytes allocated above the start) of one call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compute_metrics_peak_stays_below_32_mb_at_200_robots():
    trace = synthetic_trace(200, 300)
    report, peak = traced_peak(compute_metrics, trace)
    assert report.tick_count == 300
    assert peak < 32 * MB, f"compute_metrics peaked at {peak / MB:.1f} MB"


def test_trace_write_and_read_peaks_stay_below_the_whole_trace_forms(tmp_path):
    trace = synthetic_trace(100, 300)
    path = tmp_path / "trace.csv"
    _, write_peak = traced_peak(write_trace, trace, path)
    back, read_peak = traced_peak(read_trace, path)
    assert len(back.tick) == 30_000
    assert write_peak < 9.3 * MB, f"write_trace peaked at {write_peak / MB:.1f} MB"
    assert read_peak < 9.4 * MB, f"read_trace peaked at {read_peak / MB:.1f} MB"
