"""Opinion dynamics over tumbling time windows.

Every robot keeps the latest opinion heard from each sender during the
current window. When the clock crosses the window boundary it applies its
decision rule (Majority or Voter, the subclass), adopts the result,
publishes it, and starts the next window with nothing heard. Window k
covers [k*L, (k+1)*L).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .base import Pattern, TickResult


@dataclass
class Voting(Pattern):
    """Routes heard opinions into windows by stamp and closes windows as the
    clock crosses their boundaries. Publishes the initial opinion on the
    first tick so window zero sees every robot."""

    robot_id: int
    own_opinion: int
    window_length: float
    window_index: int = field(default=0, init=False)
    # sender -> latest opinion heard from it in the current window
    heard: dict[int, int] = field(default_factory=dict, init=False)
    announced: bool = field(default=False, init=False)
    read_range = 0.0  # never reads its scan
    reads_scan = False

    def __post_init__(self):
        if self.window_length <= 0:
            raise ValueError("window_length must be positive")

    @property
    def opinion(self) -> int | None:
        return self.own_opinion

    @property
    def window_start(self) -> float:
        return self.window_index * self.window_length

    @property
    def window_end(self) -> float:
        return (self.window_index + 1) * self.window_length

    def decide(self) -> int:
        """The opinion to adopt when the current window closes."""
        raise NotImplementedError

    def close_window(self) -> int:
        """Apply the rule, adopt the result, advance the window, forget what
        was heard. Returns the new opinion, to publish."""
        self.own_opinion = self.decide()
        self.window_index += 1
        self.heard.clear()
        return self.own_opinion

    def tick(self, scan, now, dt, inbox) -> TickResult:
        out: list[int] = []
        if not self.announced:
            out.append(self.own_opinion)
            self.announced = True
        # The window's bounds change only when it closes.
        start, end = self.window_start, self.window_end
        for vote in inbox:
            while vote.stamp >= end:
                out.append(self.close_window())
                start, end = self.window_start, self.window_end
            if not (start <= vote.stamp < end):
                raise ValueError(f"stamp {vote.stamp} outside window [{start}, {end})")
            self.heard[vote.sender] = vote.payload
        while now >= end:
            out.append(self.close_window())
            end = self.window_end
        return TickResult(None, out)


@dataclass
class Majority(Voting):
    def decide(self) -> int:
        # The robot's own slot is always its current opinion, so the result
        # is insensitive to hearing oneself.
        counts = Counter({**self.heard, self.robot_id: self.own_opinion}.values())
        top = max(counts.values())
        tied = sorted(op for op, n in counts.items() if n == top)
        if self.own_opinion in tied:
            return self.own_opinion
        return tied[0]


@dataclass
class Voter(Voting):
    """Adopt the opinion of one sender heard this window, drawn uniformly."""

    rng: np.random.Generator

    def decide(self) -> int:
        senders = sorted(s for s in self.heard if s != self.robot_id)
        if not senders:
            return self.own_opinion
        return self.heard[senders[int(self.rng.integers(len(senders)))]]
