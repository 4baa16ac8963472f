"""Movement patterns: attraction, dispersion, drive, random walk, flocking."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmsim.core import DriveCommand, DriveLimits, FieldRequest
from swarmsim.patterns import Attraction, Dispersion, Drive, Flocking, RandomWalk
from swarmsim.patterns.movement import DRIVE_MODE, TURN_MODE

from conftest import make_scan, scans

LIMITS = DriveLimits(max_linear=0.26, max_angular=1.82)


def command(pattern, scan=None) -> DriveCommand:
    """What one tick of pattern drives on scan, a field request resolved on it."""
    out = pattern.tick(scan, 0.0, 0.1, []).command
    return out.command(scan) if isinstance(out, FieldRequest) else out


# -- attraction / dispersion ---------------------------------------------------


def test_attraction_empty_scan_waits():
    pattern = Attraction(attraction_range=2.0, limits=LIMITS)
    assert command(pattern, make_scan()) == DriveCommand(0.0, 0.0)


def test_attraction_drives_at_obstacle_ahead():
    pattern = Attraction(attraction_range=2.0, limits=LIMITS)
    cmd = command(pattern, make_scan({0: 1.0}))
    assert cmd.linear > 0
    assert cmd.angular == pytest.approx(0.0, abs=1e-12)


def test_dispersion_obstacle_ahead_turns_away_saturated():
    pattern = Dispersion(dispersion_range=1.0, limits=LIMITS)
    cmd = command(pattern, make_scan({0: 0.5}))
    assert cmd.linear == 0.0
    assert abs(cmd.angular) == pytest.approx(LIMITS.max_angular)


def test_dispersion_symmetric_sides_cancel():
    pattern = Dispersion(dispersion_range=2.0, limits=LIMITS)
    cmd = command(pattern, make_scan({90: 1.0, 270: 1.0}))
    assert cmd.angular == pytest.approx(0.0, abs=1e-9)


def test_dispersion_equilibrium_is_rest():
    pattern = Dispersion(dispersion_range=1.0, limits=LIMITS)
    assert command(pattern, make_scan({0: 1.5})) == DriveCommand(0.0, 0.0)


@given(scans())
def test_attraction_dispersion_steer_in_opposite_directions(scan):
    """Negating the field turns the robot the other way around.

    The magnitudes differ in general (the heading error shifts by pi, it
    does not flip sign), so only the rotation direction is antisymmetric.
    """
    att = command(Attraction(2.0, LIMITS), scan)
    dis = command(Dispersion(2.0, LIMITS), scan)
    if att.angular != 0.0 and dis.angular != 0.0:
        assert (att.angular > 0) == (dis.angular < 0)


# -- drive ---------------------------------------------------------------------


def test_drive_constant_command():
    pattern = Drive(linear=0.15, limits=LIMITS)
    assert command(pattern) == DriveCommand(0.15, 0.0)


def test_drive_rejects_nonpositive_speed():
    with pytest.raises(ValueError):
        Drive(linear=0.0, limits=LIMITS)


def test_drive_clamped_by_limits():
    pattern = Drive(linear=5.0, limits=LIMITS)
    assert command(pattern) == DriveCommand(0.26, 0.0)


# -- random walk -----------------------------------------------------------------


WALK_PARAMS = dict(
    linear=0.2,
    angular=1.0,
    drive_duration=(0.5, 2.0),
    turn_angle=(0.5, math.pi),
    limits=LIMITS,
)


def walk(mode: str, remaining: float, seed: int, turn_left: bool = True, **params) -> RandomWalk:
    """A walk in the given mode with remaining seconds left, drawing from
    default_rng(seed) from here on."""
    pattern = RandomWalk(**(WALK_PARAMS | params), rng=np.random.default_rng(seed))
    pattern.rng = np.random.default_rng(seed)
    pattern.mode, pattern.remaining, pattern.turn_left = mode, remaining, turn_left
    return pattern


def test_walk_countdown_keeps_driving():
    pattern = walk(DRIVE_MODE, 1.0, seed=0)
    cmd = command(pattern)
    assert pattern.mode == DRIVE_MODE
    assert pattern.remaining == pytest.approx(0.9)
    assert cmd == DriveCommand(0.2, 0.0)


def test_walk_expiry_enters_turn_with_sampled_fields():
    pattern = walk(DRIVE_MODE, 0.05, seed=0)
    cmd = command(pattern)
    assert pattern.mode == TURN_MODE
    assert 0.5 / 1.0 <= pattern.remaining <= math.pi / 1.0
    assert cmd.linear == 0.0
    assert abs(cmd.angular) == pytest.approx(1.0)


def test_walk_turn_expiry_samples_drive_duration():
    pattern = walk(TURN_MODE, 0.0, seed=1, turn_left=False)
    cmd = command(pattern)
    assert pattern.mode == DRIVE_MODE
    assert 0.5 <= pattern.remaining <= 2.0
    assert cmd == DriveCommand(0.2, 0.0)


def test_walk_command_matches_post_toggle_mode():
    cmd = command(walk(DRIVE_MODE, 0.01, seed=2))
    assert cmd.linear == 0.0 and cmd.angular != 0.0


def test_walk_deterministic_under_fixed_seed():
    def trajectory(seed):
        pattern = RandomWalk(**WALK_PARAMS, rng=np.random.default_rng(seed))
        out = []
        for _ in range(200):
            cmd = command(pattern)
            out.append((pattern.mode, round(pattern.remaining, 12), cmd.linear, cmd.angular))
        return out

    assert trajectory(7) == trajectory(7)
    assert trajectory(7) != trajectory(8)


def test_walk_rejects_a_non_boolean_curved_turns():
    # The loader rejects it by type first; a direct construction reaches this check.
    with pytest.raises(ValueError, match="^curved_turns: 'false' is not a boolean$"):
        RandomWalk(**WALK_PARAMS, rng=np.random.default_rng(0), curved_turns="false")


def test_walk_curved_turns_keep_linear():
    pattern = walk(
        TURN_MODE,
        0.5,
        seed=0,
        drive_duration=(1.0, 1.0),
        turn_angle=(1.0, 1.0),
        curved_turns=True,
    )
    assert command(pattern) == DriveCommand(0.2, 1.0)


# -- flocking --------------------------------------------------------------------


FLOCK = Flocking(
    r_near=0.5,
    r_far=1.2,
    linear=0.2,
    linear_turning=0.1,
    angular=1.0,
    limits=LIMITS,
)


def test_flocking_isolated_flies_straight():
    assert command(FLOCK, make_scan()) == DriveCommand(0.2, 0.0)


def test_flocking_near_neighbor_left_turns_right():
    cmd = command(FLOCK, make_scan({90: 0.3}))
    assert cmd == DriveCommand(0.1, -1.0)


def test_flocking_near_neighbor_right_turns_left():
    cmd = command(FLOCK, make_scan({270: 0.3}))
    assert cmd == DriveCommand(0.1, 1.0)


def test_flocking_cohesion_zone_left_turns_left():
    cmd = command(FLOCK, make_scan({90: 0.9}))
    assert cmd == DriveCommand(0.1, 1.0)


def test_flocking_cohesion_both_sides_goes_straight():
    cmd = command(FLOCK, make_scan({90: 0.9, 270: 0.8}))
    assert cmd == DriveCommand(0.2, 0.0)


def test_flocking_front_sector_not_cohesive():
    # reading dead ahead is in the front sector, not left/right
    cmd = command(FLOCK, make_scan({0: 0.9}))
    assert cmd == DriveCommand(0.2, 0.0)


def test_flocking_sector_partition_enforced():
    with pytest.raises(ValueError):
        Flocking(
            r_near=0.5,
            r_far=1.2,
            linear=0.2,
            linear_turning=0.1,
            angular=1.0,
            limits=LIMITS,
            front_half_width=math.pi,
        )


@given(scans())
def test_flocking_exactly_one_rule_fires(scan):
    cmd = command(FLOCK, scan)
    turning = (LIMITS.clamp(FLOCK.linear_turning, FLOCK.angular),
               LIMITS.clamp(FLOCK.linear_turning, -FLOCK.angular))
    straight = LIMITS.clamp(FLOCK.linear, 0.0)
    assert cmd in turning or cmd == straight


@given(scans())
def test_movement_commands_always_within_limits(scan):
    for cmd in (
        command(Attraction(2.0, LIMITS), scan),
        command(Dispersion(1.0, LIMITS), scan),
        command(FLOCK, scan),
    ):
        assert 0.0 <= cmd.linear <= LIMITS.max_linear + 1e-12
        assert abs(cmd.angular) <= LIMITS.max_angular + 1e-12
