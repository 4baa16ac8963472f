"""Hardware-protection layer.

Runs once per incoming scan, independently of whatever behavior is active.
If anything valid is closer than the threshold it overrides the behavior
with a repulsive avoidance command; otherwise it passes the latest fresh
behavior command through, falling back to a full stop when that command is
stale or missing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    REPULSIVE,
    STOP,
    DriveCommand,
    DriveLimits,
    ScanSnapshot,
    nearest_obstacle,
    potential_field,
    vector_to_drive,
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


def triggered(state: ProtectionState, scan: ScanSnapshot) -> bool:
    nearest = nearest_obstacle(scan)
    return nearest is not None and nearest[0] < state.threshold


def avoidance_command(state: ProtectionState, scan: ScanSnapshot) -> DriveCommand:
    force = potential_field(scan, state.threshold, REPULSIVE)
    return vector_to_drive(force, state.limits)


def arbitrate(
    state: ProtectionState, scan: ScanSnapshot, now: float, suppressed: bool | None = None
) -> DriveCommand:
    """Pick the actuator command for this scan.

    Priority: avoidance when something valid is inside the threshold, else the
    fresh behavior command, else stop. suppressed is ``triggered(state,
    scan)`` when the caller has already computed it.
    """
    if suppressed is None:
        suppressed = triggered(state, scan)
    if suppressed:
        return avoidance_command(state, scan)
    if state.last_pattern_cmd is not None and now - state.last_cmd_stamp <= state.staleness_limit:
        return state.last_pattern_cmd
    return STOP
