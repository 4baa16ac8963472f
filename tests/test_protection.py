"""Hardware protection arbiter: suppression, pass-through, fail-safe."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmsim.core import (
    REPULSIVE,
    DriveCommand,
    DriveLimits,
    nearest_distances,
    potential_field,
    vector_to_drive,
)
from swarmsim.protection import (
    ProtectionState,
    arbitrate,
    avoidance_command,
    note_command,
    triggered,
)

from conftest import make_scan, scans

LIMITS = DriveLimits(max_linear=0.26, max_angular=1.82)


def state(threshold=0.5, staleness=0.5):
    return ProtectionState(threshold=threshold, limits=LIMITS, staleness_limit=staleness)


def nearest(scan) -> float:
    return float(nearest_distances(scan.ranges[None, :], scan.range_min, scan.range_max)[0])


def protect(st_, scan, now) -> DriveCommand:
    """The arbiter on one scan: check, avoidance command if it fired, arbitrate."""
    fired = triggered(st_, nearest(scan))
    return arbitrate(st_, now, avoidance_command(st_, scan) if fired else None)


def test_triggered_below_threshold():
    assert triggered(state(), nearest(make_scan({0: 0.4})))


def test_not_triggered_at_exact_threshold():
    assert not triggered(state(), nearest(make_scan({0: 0.5})))


def test_not_triggered_by_invalid_readings():
    assert not triggered(state(), nearest(make_scan({0: 0.05})))
    assert not triggered(state(), nearest(make_scan()))


def test_avoidance_is_repulsive_field_at_threshold():
    scan = make_scan({0: 0.4})
    expected = vector_to_drive(potential_field(scan, 0.5, REPULSIVE), LIMITS)
    assert avoidance_command(state(), scan) == expected


def test_suppression_replaces_fresh_pattern_command():
    st_ = state()
    note_command(st_, DriveCommand(0.2, 0.0), stamp=1.0)
    scan = make_scan({0: 0.4})
    cmd = protect(st_, scan, now=1.0)
    assert cmd == avoidance_command(st_, scan)
    assert cmd != DriveCommand(0.2, 0.0)


def test_clear_scan_passes_fresh_command_through():
    st_ = state()
    note_command(st_, DriveCommand(0.5, 0.1), stamp=1.0)
    assert protect(st_, make_scan({0: 2.0}), now=1.2) == DriveCommand(0.5, 0.1)


def test_stale_command_stops():
    st_ = state(staleness=0.5)
    note_command(st_, DriveCommand(0.2, 0.0), stamp=0.0)
    assert protect(st_, make_scan(), now=0.5) == DriveCommand(0.2, 0.0)
    assert protect(st_, make_scan(), now=0.6) == DriveCommand(0.0, 0.0)


def test_no_command_ever_received_stops():
    assert protect(state(), make_scan(), now=0.0) == DriveCommand(0.0, 0.0)


def test_jackal_numbers_pass_through():
    st_ = ProtectionState(threshold=1.2, limits=DriveLimits(2.0, 4.0))
    note_command(st_, DriveCommand(0.5, 0.1), stamp=10.0)
    scan = make_scan({0: 2.0}, range_min=0.8, range_max=5.0)
    assert protect(st_, scan, now=10.0) == DriveCommand(0.5, 0.1)


def test_avoidance_triggers_even_with_fresh_command():
    st_ = state()
    note_command(st_, DriveCommand(0.26, 0.0), stamp=2.0)
    scan = make_scan({180: 0.3})
    assert protect(st_, scan, now=2.0) == avoidance_command(st_, scan)


def test_threshold_below_sensor_floor_rejected():
    with pytest.raises(ValueError):
        ProtectionState(threshold=-0.1, limits=LIMITS)


def test_nonpositive_staleness_limit_rejected():
    # The loader rejects it by type first; a direct construction reaches this check.
    with pytest.raises(ValueError, match="^staleness limit must be positive$"):
        ProtectionState(threshold=0.5, limits=LIMITS, staleness_limit=0.0)


@given(scans(), st.floats(min_value=0.0, max_value=2.0))
def test_arbitration_is_total_and_branch_exact(scan, age):
    """Exactly one of the three outcomes, chosen by the documented rules."""
    st_ = state()
    note_command(st_, DriveCommand(0.11, 0.3), stamp=5.0)
    now = 5.0 + age
    cmd = protect(st_, scan, now)
    valid = [r for r in scan.ranges if scan.range_min <= r <= scan.range_max]
    if valid and min(valid) < st_.threshold:
        assert cmd == avoidance_command(st_, scan)
    elif age <= st_.staleness_limit:
        assert cmd == DriveCommand(0.11, 0.3)
    else:
        assert cmd == DriveCommand(0.0, 0.0)
