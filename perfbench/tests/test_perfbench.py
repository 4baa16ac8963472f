"""Tests for the benchmark's own input generators and tracer.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from swarmsim.scenario import load_scenario, run as run_scenario, to_meta, validate_scenario  # noqa: E402
from swarmsim.trace import COLUMN_NAMES, read_trace, trace_from_columns, write_trace  # noqa: E402
from tracer import STEP_LAYERS, Tracer, missing_layers  # noqa: E402

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_crowd_scenario_is_a_function_of_its_seed():
    assert inputs.crowd_scenario(5) == inputs.crowd_scenario(5)
    assert inputs.crowd_scenario(5) != inputs.crowd_scenario(6)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seeds)
def test_crowd_poses_validate_and_start_outside_protection(seed):
    config = load_scenario(inputs.crowd_scenario(seed))
    validate_scenario(config)
    spec = config.spec
    assert len(config.poses) == inputs.CROWD_SIDE**2
    xy = np.array([[p.x, p.y] for p in config.poses])
    gaps = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
    np.fill_diagonal(gaps, np.inf)
    # range reading to the nearest body surface starts above the threshold
    assert gaps.min() - spec.body_radius > spec.protection_threshold


def test_synthetic_trace_is_a_function_of_its_seed():
    first = load_scenario(inputs.postprocess_scenario(3))
    second = load_scenario(inputs.postprocess_scenario(3))
    assert to_meta(first) == to_meta(second)
    a = inputs.synthetic_columns(first, COLUMN_NAMES, 3)
    b = inputs.synthetic_columns(second, COLUMN_NAMES, 3)
    c = inputs.synthetic_columns(first, COLUMN_NAMES, 4)
    for name in COLUMN_NAMES:
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
    assert a.x != c.x


def test_synthetic_trace_round_trips_byte_identically(tmp_path):
    config = load_scenario(inputs.postprocess_scenario(1))
    columns = inputs.synthetic_columns(config, COLUMN_NAMES, 1)
    assert len(columns.tick) == inputs.POST_SIDE**2 * inputs.POST_TICKS
    trace = trace_from_columns(to_meta(config), columns)
    write_trace(trace, tmp_path / "a.csv")
    write_trace(read_trace(tmp_path / "a.csv"), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_tracing_accounts_for_step_time_and_leaves_outputs_unchanged(tmp_path):
    config = load_scenario(inputs.AGGREGATION_PRESET, seed=0, duration=1.0)
    run_scenario(config, tmp_path / "plain")
    tracer = Tracer()
    with tracer:
        run_scenario(config, tmp_path / "traced")
    for name in ("trace.csv", "metrics.json", "series.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()

    times = tracer.layer_times()
    robot_ticks = config.tick_count() * len(config.poses)
    assert times["sim.step"]["calls"] == config.tick_count()
    assert times["sim.raycast"]["calls"] == robot_ticks
    assert times["patterns.tick"]["calls"] == robot_ticks
    assert times["core.nearest_obstacle"]["calls"] == 2 * robot_ticks
    assert tracer.counts["sim.integrate.pose_evals"] == 2 * tracer.counts["sim.integrate.calls"]
    inside = sum(times[name]["self_s"] for name in STEP_LAYERS if name in times)
    assert math.isclose(inside + times["sim.step"]["self_s"], times["sim.step"]["total_s"], rel_tol=1e-9)


def test_tracer_restores_the_program_after_use():
    import swarmsim.bus as bus
    import swarmsim.sim as sim

    before = (sim.raycast_scan, sim.Simulation.__dict__["step"], bus.MessageBus.__dict__["publish"])
    with Tracer():
        assert sim.raycast_scan is not before[0]
    assert (sim.raycast_scan, sim.Simulation.__dict__["step"], bus.MessageBus.__dict__["publish"]) == before


def test_a_vanished_hook_marks_its_layer_missing(monkeypatch):
    import swarmsim.sim as sim

    assert missing_layers() == set()
    monkeypatch.delattr(sim, "raycast_scan")
    tracer = Tracer()
    assert tracer.missing == {"sim.raycast"}
    with tracer:
        pass
    missing = [name for name, _, layers in run.PER_LAYER if set(layers) & tracer.missing]
    assert missing == ["sim.raycast.busy_s", "sim.raycast.calls", "sim.raycast.us_per_call"]


def test_scale_turns_raw_time_into_reference_host_time():
    speed = hostspeed.HostSpeed()
    speed.samples = [9.0, 2 * hostspeed.REFERENCE_PROBE_S, 2 * hostspeed.REFERENCE_PROBE_S]
    # probes before ``first`` belong to an earlier cycle and do not count
    assert speed.scale(1) == pytest.approx(0.5)
    speed.burst()
    assert len(speed.samples) == 3 + hostspeed.BURST
    assert speed.spent == pytest.approx(sum(speed.samples[3:]))


def test_operation_time_leaves_out_the_probes(tmp_path, monkeypatch):
    monkeypatch.setattr(hostspeed, "PROBE_EVERY_S", 0.0)
    workload = run.SimWorkload("aggregation", 0)
    workload.config = load_scenario(inputs.AGGREGATION_PRESET, seed=0, duration=1.0)
    speed = hostspeed.HostSpeed()
    samples: list[float] = []
    elapsed, stepped, _ = workload.operation(tmp_path, samples, speed)
    assert len(samples) == workload.config.tick_count()
    assert len(speed.samples) == workload.config.tick_count()
    assert stepped <= elapsed


def test_benchmark_json_names_the_metrics_run_py_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _, _ in run.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [unit for _, unit, _ in run.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_expected_outputs_are_recorded_for_every_workload(workload):
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    assert set(expected[workload]) == {"trace.csv", "metrics.json", "series.csv"}
