"""Behavior protocol.

A pattern is ticked once per control period with the freshest scan and any
drained global messages. Movement patterns return a drive command every
tick; voting patterns return only messages. Combined behaviors (see
combined.py) sequence their parts inside one tick themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..core import DriveCommand, ScanSnapshot

# (payload, stamp) pairs drained from the global opinion topic this tick.
Inbox = Sequence[tuple[Any, float]]


@dataclass
class TickResult:
    command: DriveCommand | None = None
    messages: list[Any] = field(default_factory=list)


class Pattern:
    """Base behavior. Subclasses implement tick()."""

    def tick(self, scan: ScanSnapshot, now: float, dt: float, inbox: Inbox) -> TickResult:
        raise NotImplementedError

    @property
    def opinion(self) -> int | None:
        """Current opinion for voting-capable behaviors, else None."""
        return None
