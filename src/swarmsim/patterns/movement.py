"""Movement primitives: attraction, dispersion, drive, random walk, flocking.

Each primitive is one dataclass: its fields are the primitive's parameters
(plus the drive limits, and the random walk's RNG), and its tick is the
behavior. Attraction and dispersion return a field request, which the
simulator resolves for every robot of a tick in one pass;
``FieldRequest.command(scan)`` resolves one on a single scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import (
    ATTRACTIVE,
    REPULSIVE,
    DriveLimits,
    FieldRequest,
    ScanSnapshot,
    nearest_obstacle,
    potential_field,  # noqa: F401  (hooked by the benchmark's tracer)
    wrap_angle,
)
from .base import Pattern, TickResult


@dataclass
class Attraction(Pattern):
    """Steer toward whatever is visible within the attraction range.

    An empty field yields a zero command: the robot waits until something
    enters range.
    """

    attraction_range: float
    limits: DriveLimits

    def __post_init__(self):
        if self.attraction_range <= 0:
            raise ValueError("attraction_range must be positive")

    def tick(self, scan, now, dt, inbox) -> TickResult:
        return TickResult(FieldRequest(self.attraction_range, ATTRACTIVE, self.limits))


@dataclass
class Dispersion(Pattern):
    """Steer away from everything within the dispersion range.

    Local equilibrium (nothing in range) yields a zero command.
    """

    dispersion_range: float
    limits: DriveLimits

    def __post_init__(self):
        if self.dispersion_range <= 0:
            raise ValueError("dispersion_range must be positive")

    def tick(self, scan, now, dt, inbox) -> TickResult:
        return TickResult(FieldRequest(self.dispersion_range, REPULSIVE, self.limits))


@dataclass
class Drive(Pattern):
    linear: float
    limits: DriveLimits

    def __post_init__(self):
        if self.linear <= 0:
            raise ValueError("linear speed must be positive")

    def tick(self, scan, now, dt, inbox) -> TickResult:
        return TickResult(self.limits.clamp(self.linear, 0.0))


DRIVE_MODE = "drive"
TURN_MODE = "turn"


@dataclass
class RandomWalk(Pattern):
    """Alternate straight drives and in-place turns with sampled durations.

    The first drive duration is drawn from rng at construction. On expiry
    the mode toggles and fresh fields are sampled: a new drive duration, or
    a new turn angle plus direction (turn time = angle / rate). The command
    reflects the post-toggle mode.
    """

    linear: float
    angular: float
    drive_duration: tuple[float, float]
    turn_angle: tuple[float, float]
    limits: DriveLimits
    rng: np.random.Generator
    curved_turns: bool = False
    mode: str = field(default=DRIVE_MODE, init=False)
    remaining: float = field(init=False)
    turn_left: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.linear <= 0 or self.angular <= 0:
            raise ValueError("walk speeds must be positive")
        lo, hi = self.drive_duration
        if not (0 < lo <= hi):
            raise ValueError("bad drive_duration bounds")
        lo, hi = self.turn_angle
        if not (0 < lo <= hi):
            raise ValueError("bad turn_angle bounds")
        # YAML reads "false" (quoted) as a string, which a truth test takes for True.
        if not isinstance(self.curved_turns, bool):
            raise ValueError(f"curved_turns: {self.curved_turns!r} is not a boolean")
        self.remaining = float(self.rng.uniform(*self.drive_duration))

    def tick(self, scan, now, dt, inbox) -> TickResult:
        self.remaining -= dt
        if self.remaining <= 0:
            if self.mode == DRIVE_MODE:
                self.mode = TURN_MODE
                angle = float(self.rng.uniform(*self.turn_angle))
                self.turn_left = bool(self.rng.integers(2))
                self.remaining = angle / self.angular
            else:
                self.mode = DRIVE_MODE
                self.remaining = float(self.rng.uniform(*self.drive_duration))
        if self.mode == DRIVE_MODE:
            return TickResult(self.limits.clamp(self.linear, 0.0))
        linear = self.linear if self.curved_turns else 0.0
        angular = self.angular if self.turn_left else -self.angular
        return TickResult(self.limits.clamp(linear, angular))


@dataclass
class Flocking(Pattern):
    """Three-rule sector scheme.

    1. Anything valid closer than r_near: turn away from it.
    2. Else, a side sector with its nearest reading inside [r_near, r_far]
       on exactly one side: turn toward that side.
    3. Else drive straight.
    """

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

    def _sector_minima(self, scan: ScanSnapshot) -> tuple[float, float]:
        """Nearest valid reading in the left and right sectors (inf when empty)."""
        phi = scan.trig().wrapped
        valid = scan.valid_mask()
        front = self.front_half_width
        left = valid & (phi > front) & (phi <= front + 2 * self.left_half_width)
        right = valid & (phi < -front) & (phi >= -(front + 2 * self.right_half_width))
        left_min = float(scan.ranges[left].min()) if left.any() else math.inf
        right_min = float(scan.ranges[right].min()) if right.any() else math.inf
        return left_min, right_min

    def tick(self, scan, now, dt, inbox) -> TickResult:
        nearest = nearest_obstacle(scan)
        if nearest is not None and nearest[0] < self.r_near:
            bearing = wrap_angle(nearest[1])
            angular = -self.angular if bearing >= 0 else self.angular
            return TickResult(self.limits.clamp(self.linear_turning, angular))
        left_min, right_min = self._sector_minima(scan)
        left_in = self.r_near <= left_min <= self.r_far
        right_in = self.r_near <= right_min <= self.r_far
        if left_in != right_in:
            angular = self.angular if left_in else -self.angular
            return TickResult(self.limits.clamp(self.linear_turning, angular))
        return TickResult(self.limits.clamp(self.linear, 0.0))
