"""Combined behavior: disperse at a collectively agreed distance.

First the swarm sits still and votes by majority on a distance index until
the clock reaches decision_duration; from then on every robot disperses
using the distance its current opinion maps to, while voting keeps running
on the same window schedule. The simulator's clock never runs backward, so
which of the two to do is read from it, and an opinion change retargets the
dispersion range in the same tick.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import REPULSIVE, STOP, DriveLimits, FieldRequest
from .base import TickResult
from .voting import Majority


@dataclass
class DiscussedDispersion(Majority):
    mapping: dict[int, float]
    limits: DriveLimits
    decision_duration: float

    def __post_init__(self):
        super().__post_init__()
        if self.decision_duration <= 0:
            raise ValueError("decision_duration must be positive")
        if not self.mapping:
            raise ValueError("opinion mapping must not be empty")
        if any(v <= 0 for v in self.mapping.values()):
            raise ValueError("mapped distances must be positive")

    @property
    def read_range(self) -> float:
        return max(self.mapping.values())

    def tick(self, scan, now, dt, inbox) -> TickResult:
        # Voting first so a window closing this tick retargets the range
        # before the movement command is computed.
        messages = super().tick(scan, now, dt, inbox).messages
        if now < self.decision_duration:
            return TickResult(STOP, messages)
        request = FieldRequest(self.mapping[self.own_opinion], REPULSIVE, self.limits)
        return TickResult(request, messages)
