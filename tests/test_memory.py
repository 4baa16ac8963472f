"""Memory bounds of simulation and post-processing, measured with tracemalloc.

A run records its trace into typed columns, 8 bytes a cell, which
trace_from_columns takes without a copy. Recorded as Python lists, the
columns of a 49-robot, 300-tick run held 3.7 MB; the ceiling below is
under that.

Trace write, trace read and metrics work in fixed-size blocks, so their
peaks stay O(rows) plus one block. Before the blocks, the whole-trace forms
peaked at 9.3 MB (write), 9.4 MB (read) on a 30,000-row trace and at 186 MB
(metrics) on a 200-robot, 300-tick trace: each ceiling below is under that
peak. The writer's formatting tables of distinct values are held one block
at a time too: its ceiling, and the reader's, are the peaks of the per-row
writer and reader they replaced (3.34 MB and 5.05 MB).

Metrics at every R, and the sense from 64 robots on (core.GRID_MIN_ROBOTS),
take their neighbour pairs from a cell grid, not from (R, R) arrays, so
their memory grows with the robots, not with their square. With the dense
pairs, a block of one tick of 2,500 robots peaked at 150 MB in metrics, and
one step of a 2,500-robot grid at 208 MB; with the grid they peak at 3.1 MB and 34 MB.
Where the 2,500 robots bunch (a pile and a few stragglers, or one robot
1,000 km off) the metrics' cells shrink to what the pile needs, and the
metrics peak at 4.3 MB, against the dense pass's 150 MB.

A few robots pay for the grid's index arrays instead: on a 600-tick,
7-robot experiment1-waffle trace (one block) the metrics peaked at 2.13 MB
while near_pairs gave each pair from both ends, 9 neighbour slots a row,
against 0.78 MB with the dense pass. Each pair once, from a half shell of 5
slots a row, they peak at 1.33 MB; the ceiling below is under 2.13 MB.
"""

import math
import tracemalloc

import numpy as np
import pytest

from swarmsim import build_simulation, compute_metrics, load_scenario, read_trace, write_trace
from swarmsim.sim import rect_walls
from swarmsim.trace import COLUMN_NAMES, SCHEMA, Trace, trace_from_columns

MB = 1e6


def synthetic_trace(robots: int, ticks: int) -> Trace:
    """Robots at random points of an 18 m square, tick by tick."""
    rng = np.random.default_rng(0)
    rows = robots * ticks
    columns = {name: rng.normal(size=rows) for name, _ in SCHEMA}
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


def test_compute_metrics_peak_stays_below_16_mb_at_2500_robots():
    trace = synthetic_trace(2500, 10)
    report, peak = traced_peak(compute_metrics, trace)
    assert report.tick_count == 10
    assert peak < 16 * MB, f"compute_metrics peaked at {peak / MB:.1f} MB"


def test_compute_metrics_peak_stays_below_1_6_mb_at_7_robots():
    config = load_scenario("experiment1-waffle", seed=0, duration=60.0)
    sim = build_simulation(config)
    sim.run(config.tick_count())
    trace = trace_from_columns(sim.meta, sim.columns)
    report, peak = traced_peak(compute_metrics, trace)
    assert report.tick_count == 600
    assert peak < 1.6 * MB, f"compute_metrics peaked at {peak / MB:.2f} MB"


def _bunched(layout: str) -> np.ndarray:
    """2,500 (x, y) positions that a bounding box alone would bin coarsely."""
    rng = np.random.default_rng(1)
    if layout == "pile and stragglers":
        # a hex pile of 2,490 bodies 0.3 m apart, 10 robots over a 1 km square
        k = np.arange(2490)
        pile = np.stack([(k % 50) * 0.3 + 0.15 * ((k // 50) % 2), (k // 50) * 0.26], axis=1)
        return np.vstack([pile, rng.uniform(-500.0, 500.0, (10, 2))])
    points = rng.uniform(-30.0, 30.0, (2500, 2))
    points[-1] = -1e6  # one robot 1,000 km below and left of the rest
    return points


@pytest.mark.parametrize("layout", ["pile and stragglers", "far outlier"])
def test_compute_metrics_peak_stays_below_16_mb_at_2500_bunched_robots(layout):
    trace = synthetic_trace(2500, 10)
    trace.x[:], trace.y[:] = np.tile(_bunched(layout), (10, 1)).T
    report, peak = traced_peak(compute_metrics, trace)
    assert report.tick_count == 10
    assert peak < 16 * MB, f"compute_metrics peaked at {peak / MB:.1f} MB"


def test_trace_write_and_read_peaks_stay_below_the_whole_trace_forms(tmp_path):
    trace = synthetic_trace(100, 300)
    path = tmp_path / "trace.csv"
    _, write_peak = traced_peak(write_trace, trace, path)
    back, read_peak = traced_peak(read_trace, path)
    assert len(back.tick) == 30_000
    assert write_peak < 3.4 * MB, f"write_trace peaked at {write_peak / MB:.2f} MB"
    assert read_peak < 5.1 * MB, f"read_trace peaked at {read_peak / MB:.2f} MB"


def crowd_scenario(side: int = 7, spacing: float = 1.3) -> dict:
    """side x side robots on a grid, voting for 3 s, then dispersing."""
    offset = (side - 1) / 2.0
    poses = [
        [(i - offset) * spacing, (j - offset) * spacing, math.tau * (7 * (i + j * side) % 16) / 16]
        for i in range(side)
        for j in range(side)
    ]
    return {
        "name": "crowd",
        "platform": "turtlebot3_waffle_pi",
        "robots": {"poses": poses},
        "pattern": {
            "kind": "discussed_dispersion",
            "params": {"decision_duration": 3.0, "mapping": {0: 1.0, 1: 1.5, 2: 2.0}},
        },
        "duration": 30.0,
    }


def test_simulated_run_holds_its_trace_as_typed_columns():
    config = load_scenario(crowd_scenario())
    sim = build_simulation(config)
    tracemalloc.start()
    try:
        sim.run(config.tick_count())
        columns = sim.columns
        trace = trace_from_columns(sim.meta, columns)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.tick) == 49 * 300
    assert held < 2.0 * MB, f"a run and its trace held {held / MB:.2f} MB"
    assert all(getattr(trace, name) is getattr(columns, name) for name in COLUMN_NAMES)


def test_one_step_of_2500_robots_stays_below_48_mb():
    """Attraction on a 50 x 50 grid 1.3 m apart: each robot senses the
    bodies within 2 m, about 10 of them, not all 2,499."""
    raw = crowd_scenario(side=50)
    raw.update(arena={"width": 70.0, "height": 70.0}, pattern={"kind": "attraction"})
    sim = build_simulation(load_scenario(raw))
    _, peak = traced_peak(sim.run, 1)
    assert peak < 48 * MB, f"one step peaked at {peak / MB:.1f} MB"
