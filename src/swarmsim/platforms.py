"""Robot platform presets.

Sensor windows and protection thresholds follow the real platforms; speed
envelopes come from the manufacturer datasheets. Bodies are approximated as
circles. A scenario may override the pattern defaults, but no spec field:
replay checks a trace's recorded spec against the preset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DriveLimits


@dataclass(frozen=True)
class PlatformSpec:
    name: str
    range_min: float
    range_max: float
    beam_count: int
    body_radius: float
    max_linear: float
    max_angular: float
    protection_threshold: float
    turn_gain: float = 1.0

    def __post_init__(self):
        if not (0 < self.range_min < self.range_max):
            raise ValueError("need 0 < range_min < range_max")
        if self.beam_count < 1 or self.body_radius <= 0:
            raise ValueError("bad body geometry")
        if self.max_linear <= 0 or self.max_angular <= 0 or self.turn_gain <= 0:
            raise ValueError("speed limits must be positive")
        if self.protection_threshold <= 0:
            raise ValueError("protection threshold must be positive")

    def limits(self) -> DriveLimits:
        return DriveLimits(self.max_linear, self.max_angular, self.turn_gain)


PLATFORMS: dict[str, PlatformSpec] = {
    "turtlebot3_burger": PlatformSpec(
        name="turtlebot3_burger",
        range_min=0.12,
        range_max=3.5,
        beam_count=360,
        body_radius=0.15,
        max_linear=0.22,
        max_angular=2.84,
        protection_threshold=0.5,
    ),
    "turtlebot3_waffle_pi": PlatformSpec(
        name="turtlebot3_waffle_pi",
        range_min=0.12,
        range_max=3.5,
        beam_count=360,
        body_radius=0.15,
        max_linear=0.26,
        max_angular=1.82,
        protection_threshold=0.5,
    ),
    # 3D lidar collapsed to a planar ring.
    "jackal": PlatformSpec(
        name="jackal",
        range_min=0.8,
        range_max=5.0,
        beam_count=360,
        body_radius=0.30,
        max_linear=2.0,
        max_angular=4.0,
        protection_threshold=1.2,
    ),
}

# Default behavior parameters per platform; scenario files may override any
# of these. Ranges scale with the platform's sensing and size; the two
# TurtleBot3 variants share one table.
_TURTLEBOT3_DEFAULTS: dict[str, dict] = {
    "attraction": {"attraction_range": 2.0},
    "dispersion": {"dispersion_range": 1.0},
    "drive": {"linear": 0.15},
    "random_walk": {"linear": 0.15, "angular": 1.5},
    "flocking": {
        "r_near": 0.5,
        "r_far": 1.2,
        "linear": 0.15,
        "linear_turning": 0.08,
        "angular": 1.2,
    },
}

PATTERN_DEFAULTS: dict[str, dict[str, dict]] = {
    "turtlebot3_burger": _TURTLEBOT3_DEFAULTS,
    "turtlebot3_waffle_pi": _TURTLEBOT3_DEFAULTS,
    "jackal": {
        "attraction": {"attraction_range": 3.0},
        "dispersion": {"dispersion_range": 2.0},
        "drive": {"linear": 1.0},
        "random_walk": {"linear": 1.0, "angular": 2.0},
        "flocking": {
            "r_near": 1.3,
            "r_far": 2.5,
            "linear": 1.0,
            "linear_turning": 0.5,
            "angular": 2.0,
        },
    },
}
