"""Hardware-protection layer.

Runs once per incoming scan, independently of whatever behavior is active.
If anything valid is closer than the threshold it overrides the behavior
with a repulsive avoidance command; otherwise it passes the latest fresh
behavior command through, falling back to a full stop when that command is
stale or missing. The simulator runs the check and the avoidance fields of
a whole tick as one pass (``sim.field_pass``); ``nearest_obstacle`` and
``avoidance_command`` are their forms for one scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    REPULSIVE,
    STOP,
    DriveCommand,
    DriveLimits,
    FieldRequest,
    ScanSnapshot,
    nearest_obstacle,  # noqa: F401  (hooked by the benchmark's tracer)
    potential_field,  # noqa: F401  (hooked by the benchmark's tracer)
)

DEFAULT_STALENESS_LIMIT = 0.5


@dataclass
class ProtectionState:
    threshold: float
    limits: DriveLimits
    staleness_limit: float = DEFAULT_STALENESS_LIMIT
    last_pattern_cmd: DriveCommand | None = None
    last_cmd_stamp: float = -math.inf

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.staleness_limit <= 0:
            raise ValueError("staleness limit must be positive")


def note_command(state: ProtectionState, cmd: DriveCommand, stamp: float) -> None:
    """Record the behavior's latest command (replaces, never queues)."""
    state.last_pattern_cmd = cmd
    state.last_cmd_stamp = stamp


def triggered(state: ProtectionState, nearest: float) -> bool:
    """Whether the closest valid reading, nearest (inf if none), is inside
    the threshold."""
    return nearest < state.threshold


def avoidance_field(state: ProtectionState) -> FieldRequest:
    """Steer away from everything inside the threshold."""
    return FieldRequest(state.threshold, REPULSIVE, state.limits)


def avoidance_command(state: ProtectionState, scan: ScanSnapshot) -> DriveCommand:
    return avoidance_field(state).command(scan)


def arbitrate(state: ProtectionState, now: float, avoidance: DriveCommand | None) -> DriveCommand:
    """Pick the actuator command.

    avoidance is the avoidance command when the protection check fired on
    this tick's scan, else None. Priority: avoidance, else the fresh
    behavior command, else stop.
    """
    if avoidance is not None:
        return avoidance
    if state.last_pattern_cmd is not None and now - state.last_cmd_stamp <= state.staleness_limit:
        return state.last_pattern_cmd
    return STOP
