"""Movement primitives: attraction, dispersion, drive, random walk, flocking.

Each primitive is a pure step function over a scan (plus explicit state and
RNG where needed). Attraction and dispersion are field requests
(``attraction_field``, ``dispersion_field``), which the simulator resolves
for every robot of a tick in one pass; ``attraction_step`` and
``dispersion_step`` resolve them on one scan. MovementPattern adapts the
stateless ones to the scheduler; RandomWalkPattern also carries the walk
state and its RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import (
    ATTRACTIVE,
    REPULSIVE,
    DriveCommand,
    DriveLimits,
    FieldRequest,
    ScanSnapshot,
    nearest_obstacle,
    potential_field,  # noqa: F401  (hooked by the benchmark's tracer)
    wrap_angle,
)
from .base import Pattern, TickResult


@dataclass(frozen=True)
class AttractionConfig:
    attraction_range: float
    limits: DriveLimits

    def __post_init__(self):
        if self.attraction_range <= 0:
            raise ValueError("attraction_range must be positive")


def attraction_field(cfg: AttractionConfig) -> FieldRequest:
    """Steer toward whatever is visible within the attraction range.

    An empty field yields a zero command: the robot waits until something
    enters range.
    """
    return FieldRequest(cfg.attraction_range, ATTRACTIVE, cfg.limits)


def attraction_step(scan: ScanSnapshot, cfg: AttractionConfig) -> DriveCommand:
    return attraction_field(cfg).command(scan)


@dataclass(frozen=True)
class DispersionConfig:
    dispersion_range: float
    limits: DriveLimits

    def __post_init__(self):
        if self.dispersion_range <= 0:
            raise ValueError("dispersion_range must be positive")


def dispersion_field(cfg: DispersionConfig) -> FieldRequest:
    """Steer away from everything within the dispersion range.

    Local equilibrium (nothing in range) yields a zero command.
    """
    return FieldRequest(cfg.dispersion_range, REPULSIVE, cfg.limits)


def dispersion_step(scan: ScanSnapshot, cfg: DispersionConfig) -> DriveCommand:
    return dispersion_field(cfg).command(scan)


@dataclass(frozen=True)
class DriveConfig:
    linear: float
    limits: DriveLimits

    def __post_init__(self):
        if self.linear <= 0:
            raise ValueError("linear speed must be positive")


def drive_step(cfg: DriveConfig) -> DriveCommand:
    return cfg.limits.clamp(cfg.linear, 0.0)


DRIVE_MODE = "drive"
TURN_MODE = "turn"


@dataclass(frozen=True)
class RandomWalkConfig:
    linear: float
    angular: float
    drive_duration: tuple[float, float]
    turn_angle: tuple[float, float]
    limits: DriveLimits
    curved_turns: bool = False

    def __post_init__(self):
        if self.linear <= 0 or self.angular <= 0:
            raise ValueError("walk speeds must be positive")
        lo, hi = self.drive_duration
        if not (0 < lo <= hi):
            raise ValueError("bad drive_duration bounds")
        lo, hi = self.turn_angle
        if not (0 < lo <= hi):
            raise ValueError("bad turn_angle bounds")


@dataclass(frozen=True)
class WalkState:
    mode: str
    remaining: float
    turn_left: bool = True


def init_walk_state(rng: np.random.Generator, cfg: RandomWalkConfig) -> WalkState:
    return WalkState(DRIVE_MODE, float(rng.uniform(*cfg.drive_duration)))


def random_walk_step(
    state: WalkState, dt: float, rng: np.random.Generator, cfg: RandomWalkConfig
) -> tuple[WalkState, DriveCommand]:
    """Alternate straight drives and in-place turns with sampled durations.

    On expiry the mode toggles and fresh fields are sampled: a new drive
    duration, or a new turn angle plus direction (turn time = angle / rate).
    The command reflects the post-toggle mode.
    """
    mode, remaining, turn_left = state.mode, state.remaining - dt, state.turn_left
    if remaining <= 0:
        if mode == DRIVE_MODE:
            mode = TURN_MODE
            angle = float(rng.uniform(*cfg.turn_angle))
            turn_left = bool(rng.integers(2))
            remaining = angle / cfg.angular
        else:
            mode = DRIVE_MODE
            remaining = float(rng.uniform(*cfg.drive_duration))
    if mode == DRIVE_MODE:
        cmd = cfg.limits.clamp(cfg.linear, 0.0)
    else:
        linear = cfg.linear if cfg.curved_turns else 0.0
        cmd = cfg.limits.clamp(linear, cfg.angular if turn_left else -cfg.angular)
    return WalkState(mode, remaining, turn_left), cmd


@dataclass(frozen=True)
class FlockingConfig:
    r_near: float
    r_far: float
    linear: float
    linear_turning: float
    angular: float
    limits: DriveLimits
    front_half_width: float = math.pi / 4
    left_half_width: float = math.pi / 4
    back_half_width: float = math.pi / 4
    right_half_width: float = math.pi / 4

    def __post_init__(self):
        if not (0 < self.r_near < self.r_far):
            raise ValueError("need 0 < r_near < r_far")
        if self.linear <= 0 or self.angular <= 0 or self.linear_turning < 0:
            raise ValueError("flocking speeds must be positive")
        total = (
            self.front_half_width
            + self.left_half_width
            + self.back_half_width
            + self.right_half_width
        )
        if abs(total - math.pi) > 1e-9:
            raise ValueError("sector half-widths must partition the full circle")


def _sector_minima(scan: ScanSnapshot, cfg: FlockingConfig) -> tuple[float, float]:
    """Nearest valid reading in the left and right sectors (inf when empty)."""
    phi = scan.trig().wrapped
    valid = scan.valid_mask()
    left = valid & (phi > cfg.front_half_width) & (
        phi <= cfg.front_half_width + 2 * cfg.left_half_width
    )
    right = valid & (phi < -cfg.front_half_width) & (
        phi >= -(cfg.front_half_width + 2 * cfg.right_half_width)
    )
    left_min = float(scan.ranges[left].min()) if left.any() else math.inf
    right_min = float(scan.ranges[right].min()) if right.any() else math.inf
    return left_min, right_min


def flocking_step(scan: ScanSnapshot, cfg: FlockingConfig) -> DriveCommand:
    """Three-rule sector scheme.

    1. Anything valid closer than r_near: turn away from it.
    2. Else, a side sector with its nearest reading inside [r_near, r_far]
       on exactly one side: turn toward that side.
    3. Else drive straight.
    """
    nearest = nearest_obstacle(scan)
    if nearest is not None and nearest[0] < cfg.r_near:
        bearing = wrap_angle(nearest[1])
        angular = -cfg.angular if bearing >= 0 else cfg.angular
        return cfg.limits.clamp(cfg.linear_turning, angular)
    left_min, right_min = _sector_minima(scan, cfg)
    left_in = cfg.r_near <= left_min <= cfg.r_far
    right_in = cfg.r_near <= right_min <= cfg.r_far
    if left_in != right_in:
        angular = cfg.angular if left_in else -cfg.angular
        return cfg.limits.clamp(cfg.linear_turning, angular)
    return cfg.limits.clamp(cfg.linear, 0.0)


class MovementPattern(Pattern):
    """Scheduler adapter for a stateless movement primitive: every tick maps
    the scan to one drive command or field request, e.g.
    ``partial(flocking_step, cfg=cfg)``."""

    def __init__(self, command: Callable[[ScanSnapshot], DriveCommand | FieldRequest]):
        self.command = command

    def tick(self, scan, now, dt, inbox) -> TickResult:
        return TickResult(self.command(scan))


class RandomWalkPattern(Pattern):
    def __init__(self, cfg: RandomWalkConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self.state = init_walk_state(rng, cfg)

    def tick(self, scan, now, dt, inbox) -> TickResult:
        self.state, cmd = random_walk_step(self.state, dt, self.rng, self.cfg)
        return TickResult(cmd)
