"""Combined behavior: disperse at a collectively agreed distance.

Two phases. First the swarm sits still and votes on a distance index for a
fixed decision period; afterwards every robot disperses using the distance
its current opinion maps to, while voting keeps running on the same window
schedule. Opinion changes retarget the dispersion range in the same tick.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core import STOP, DriveCommand, FieldRequest
from .base import Pattern, TickResult
from .movement import DispersionConfig, dispersion_field
from .voting import VotingPattern, VotingState

DISCUSS_ONLY = "discuss_only"
DISPERSE_AND_DISCUSS = "disperse_and_discuss"

DEFAULT_DECISION_DURATION = 20.0


@dataclass
class DiscussedDispersionState:
    voting: VotingState
    dispersion: DispersionConfig
    mapping: dict[int, float]
    decision_duration: float = DEFAULT_DECISION_DURATION
    phase: str = DISCUSS_ONLY

    def __post_init__(self):
        if self.decision_duration <= 0:
            raise ValueError("decision_duration must be positive")
        if not self.mapping:
            raise ValueError("opinion mapping must not be empty")
        if any(v <= 0 for v in self.mapping.values()):
            raise ValueError("mapped distances must be positive")


def discussed_dispersion_step(
    state: DiscussedDispersionState, now: float
) -> DriveCommand | FieldRequest:
    """One control period at time now: hold position while discussing, then
    disperse at the distance mapped from the current opinion."""
    if state.phase == DISCUSS_ONLY and now >= state.decision_duration:
        state.phase = DISPERSE_AND_DISCUSS
    if state.phase == DISCUSS_ONLY:
        return STOP
    target = state.mapping[state.voting.own_opinion]
    if state.dispersion.dispersion_range != target:
        state.dispersion = replace(state.dispersion, dispersion_range=target)
    return dispersion_field(state.dispersion)


class DiscussedDispersionPattern(Pattern):
    def __init__(self, state: DiscussedDispersionState):
        self.state = state
        self._voting = VotingPattern(state.voting)

    @property
    def opinion(self) -> int | None:
        return self.state.voting.own_opinion

    def tick(self, scan, now, dt, inbox) -> TickResult:
        # Voting first so a window closing this tick retargets the range
        # before the movement command is computed.
        vote_result = self._voting.tick(scan, now, dt, inbox)
        return TickResult(discussed_dispersion_step(self.state, now), vote_result.messages)
