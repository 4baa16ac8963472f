"""The batched decision pass against the per-scan layers, bit for bit.

A simulator tick checks protection with one masked min over its (R, B)
ranges block and computes every potential field of the tick in one array
job (``nearest_distances``, ``potential_fields``, ``sim.field_pass``). Each
row must give exactly what ``nearest_obstacle``, ``triggered``,
``potential_field`` and ``vector_to_drive`` give on that row's scan alone.
Floats are compared by ``float.hex``, so the sign of a zero counts.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import potential_field_reference
from swarmsim.core import (
    ATTRACTIVE,
    REPULSIVE,
    DriveCommand,
    DriveLimits,
    FieldRequest,
    ScanSnapshot,
    nearest_distances,
    nearest_obstacle,
    potential_field,
    potential_fields,
    vector_to_drive,
)
from swarmsim.platforms import PLATFORMS
from swarmsim.protection import ProtectionState, avoidance_command, triggered
from swarmsim.sim import field_pass

RANGE_MIN, RANGE_MAX = 0.12, 3.5
LIMITS = DriveLimits(max_linear=0.26, max_angular=1.82)

# Valid, below-floor, inf and beyond-range readings, plus a few exact values
# (the window's ends, the 0.5 m threshold) that give ties within a row.
readings = st.one_of(
    st.floats(min_value=0.125, max_value=3.4),
    st.floats(min_value=0.0, max_value=0.119),
    st.just(math.inf),
    st.floats(min_value=3.6, max_value=10.0),
    st.sampled_from([RANGE_MIN, RANGE_MAX, 0.5, 1.0]),
)
# Per-row effect ranges; those <= RANGE_MIN take the degenerate span <= 0 branch.
effect_ranges = st.one_of(
    st.floats(min_value=0.05, max_value=4.0),
    st.sampled_from([RANGE_MIN, 0.1, 0.5, RANGE_MAX]),
)


@st.composite
def blocks(draw, max_rows=8):
    """An (R, B) ranges block; some rows hold no valid reading at all."""
    beams = draw(st.integers(1, 48))
    rows = draw(st.integers(1, max_rows))
    block = []
    for _ in range(rows):
        if draw(st.booleans()) and draw(st.booleans()):
            block.append([draw(st.sampled_from([math.inf, 0.05, 7.0]))] * beams)
        else:
            block.append(draw(st.lists(readings, min_size=beams, max_size=beams)))
    return np.array(block, dtype=float)


def row_scan(block: np.ndarray, k: int) -> ScanSnapshot:
    beams = block.shape[1]
    return ScanSnapshot(block[k].copy(), 0.0, math.tau / beams, RANGE_MIN, RANGE_MAX)


def hexes(*values) -> list[str]:
    return [float(v).hex() for v in values]


def command_hexes(cmd: DriveCommand | None):
    return None if cmd is None else hexes(cmd.linear, cmd.angular)


@given(blocks(), st.data())
def test_potential_fields_rows_match_per_scan_fields(block, data):
    rows = block.shape[0]
    ranges = data.draw(st.lists(effect_ranges, min_size=rows, max_size=rows))
    polarity = st.sampled_from([ATTRACTIVE, REPULSIVE])
    polarities = data.draw(st.lists(polarity, min_size=rows, max_size=rows))
    scans = [row_scan(block, k) for k in range(rows)]
    forces = potential_fields(block, RANGE_MIN, RANGE_MAX, scans[0].trig(), ranges, polarities)
    assert len(forces) == rows
    for scan, effect_range, polarity, force in zip(scans, ranges, polarities, forces):
        got = hexes(force.x, force.y)
        one = potential_field(scan, effect_range, polarity)
        plain = potential_field_reference(scan, effect_range, polarity)
        assert got == hexes(one.x, one.y) == hexes(plain.x, plain.y)


@given(blocks(), st.floats(min_value=0.05, max_value=4.0))
def test_masked_min_matches_nearest_obstacle_and_triggered(block, threshold):
    state = ProtectionState(threshold=threshold, limits=LIMITS)
    nearest = nearest_distances(block, RANGE_MIN, RANGE_MAX)
    assert nearest.shape == (block.shape[0],)
    for k, distance in enumerate(nearest.tolist()):
        per_scan = nearest_obstacle(row_scan(block, k))
        assert hexes(distance) == hexes(math.inf if per_scan is None else per_scan[0])
        assert triggered(state, distance) is (per_scan is not None and per_scan[0] < threshold)


@st.composite
def outputs(draw, rows):
    """What each robot's behavior returned: nothing, a command or a field request."""
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["none", "command", ATTRACTIVE, REPULSIVE]))
        if kind == "none":
            out.append(None)
        elif kind == "command":
            out.append(DriveCommand(draw(st.floats(-0.26, 0.26)), draw(st.floats(-1.82, 1.82))))
        else:
            out.append(FieldRequest(draw(effect_ranges), kind, LIMITS))
    return out


@given(blocks(), st.data())
def test_field_pass_matches_the_per_scan_arbiter_inputs(block, data):
    rows, beams = block.shape
    waffle = PLATFORMS["turtlebot3_waffle_pi"]
    spec = dataclasses.replace(waffle, beam_count=beams, range_min=RANGE_MIN, range_max=RANGE_MAX)
    commands = data.draw(outputs(rows))
    thresholds = data.draw(st.lists(st.floats(0.05, 4.0), min_size=rows, max_size=rows))
    states = [ProtectionState(threshold=t, limits=LIMITS) for t in thresholds]
    nearest = nearest_distances(block, RANGE_MIN, RANGE_MAX).tolist()
    resolved, avoidance = field_pass(block, nearest, spec, commands, states)
    for k, (cmd, state) in enumerate(zip(commands, states)):
        scan = row_scan(block, k)
        if isinstance(cmd, FieldRequest):
            cmd = vector_to_drive(potential_field(scan, cmd.effect_range, cmd.polarity), cmd.limits)
        assert command_hexes(resolved[k]) == command_hexes(cmd)
        nearest = nearest_obstacle(scan)
        fired = nearest is not None and nearest[0] < state.threshold
        want = avoidance_command(state, scan) if fired else None
        assert command_hexes(avoidance[k]) == command_hexes(want)


@pytest.mark.parametrize("beams", [7, 360, 361, 720])
def test_potential_fields_match_per_scan_fields_on_full_sweeps(beams):
    """Long rows too: a row considers up to every beam, past numpy's pairwise
    summation blocks, and starts at any offset of the flattened cells."""
    rng = np.random.default_rng(beams)
    block = rng.uniform(0.0, 1.3 * RANGE_MAX, (40, beams))
    block[rng.random(block.shape) < rng.random((40, 1))] = np.inf
    ranges = rng.choice([0.1, RANGE_MIN, 0.5, 2.0, RANGE_MAX, 5.0], 40).tolist()
    polarities = rng.choice([ATTRACTIVE, REPULSIVE], 40).tolist()
    scans = [row_scan(block, k) for k in range(40)]
    forces = potential_fields(block, RANGE_MIN, RANGE_MAX, scans[0].trig(), ranges, polarities)
    for scan, effect_range, polarity, force in zip(scans, ranges, polarities, forces):
        plain = potential_field_reference(scan, effect_range, polarity)
        assert hexes(force.x, force.y) == hexes(plain.x, plain.y)
