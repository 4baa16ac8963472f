"""Opinion dynamics over tumbling time windows.

Every robot buffers the opinions heard during the current window. When the
clock crosses the window boundary it applies its decision rule (majority or
voter), adopts the result, publishes it, and starts the next window with an
empty buffer. Window k covers [k*L, (k+1)*L).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..bus import Envelope
from .base import Pattern, TickResult

MAJORITY = "majority"
VOTER = "voter"


@dataclass
class VotingState:
    robot_id: int
    own_opinion: int
    window_length: float
    rule: str = MAJORITY
    window_index: int = 0
    buffer: list[Envelope] = field(default_factory=list)
    rng: np.random.Generator | None = None

    def __post_init__(self):
        if self.window_length <= 0:
            raise ValueError("window_length must be positive")
        if self.rule not in (MAJORITY, VOTER):
            raise ValueError(f"unknown voting rule: {self.rule!r}")
        if self.rule == VOTER and self.rng is None:
            raise ValueError("voter rule needs an rng")

    @property
    def window_start(self) -> float:
        return self.window_index * self.window_length

    @property
    def window_end(self) -> float:
        return (self.window_index + 1) * self.window_length


def ingest(state: VotingState, vote: Envelope) -> VotingState:
    """Buffer one heard vote. Its stamp must fall in the current window."""
    return _ingest(state, vote, state.window_start, state.window_end)


def _ingest(state: VotingState, vote: Envelope, start: float, end: float) -> VotingState:
    """ingest, given the current window's bounds."""
    if not (start <= vote.stamp < end):
        raise ValueError(f"stamp {vote.stamp} outside window [{start}, {end})")
    state.buffer.append(vote)
    return state


def _majority_opinion(state: VotingState) -> int:
    # Latest message per sender wins; the robot's own slot is always its
    # current opinion, so the result is insensitive to hearing oneself.
    votes: dict[int, int] = {}
    for vote in state.buffer:
        votes[vote.sender] = vote.payload
    votes[state.robot_id] = state.own_opinion
    counts = Counter(votes.values())
    top = max(counts.values())
    tied = sorted(op for op, n in counts.items() if n == top)
    if state.own_opinion in tied:
        return state.own_opinion
    return tied[0]


def _voter_opinion(state: VotingState) -> int:
    last: dict[int, int] = {}
    for vote in state.buffer:
        if vote.sender != state.robot_id:
            last[vote.sender] = vote.payload
    if not last:
        return state.own_opinion
    senders = sorted(last)
    pick = senders[int(state.rng.integers(len(senders)))]
    return last[pick]


def close_window(state: VotingState) -> tuple[VotingState, int]:
    """Apply the rule, adopt the result, advance the window, clear the buffer.

    Returns the state and the new opinion, to publish.
    """
    if state.rule == MAJORITY:
        new_opinion = _majority_opinion(state)
    else:
        new_opinion = _voter_opinion(state)
    state.own_opinion = new_opinion
    state.window_index += 1
    state.buffer.clear()
    return state, new_opinion


class VotingPattern(Pattern):
    """Scheduler adapter: routes heard opinions into windows by stamp and
    closes windows as the clock crosses their boundaries. Publishes the
    initial opinion on the first tick so window zero sees every robot."""

    def __init__(self, state: VotingState):
        self.state = state
        self._announced = False

    @property
    def opinion(self) -> int | None:
        return self.state.own_opinion

    def tick(self, scan, now, dt, inbox) -> TickResult:
        state = self.state
        out: list[int] = []
        if not self._announced:
            out.append(state.own_opinion)
            self._announced = True
        # The window's bounds change only when it closes.
        start, end = state.window_start, state.window_end
        for vote in inbox:
            while vote.stamp >= end:
                _, opinion = close_window(state)
                out.append(opinion)
                start, end = state.window_start, state.window_end
            _ingest(state, vote, start, end)
        while now >= end:
            _, opinion = close_window(state)
            out.append(opinion)
            end = state.window_end
        return TickResult(None, out)
