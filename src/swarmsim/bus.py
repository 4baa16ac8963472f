"""In-process vote bus: one mailbox per robot.

Only the swarm-wide votes (topic VOTE_TOPIC) travel on it; sensor and
command data pass between a robot's layers as direct calls. Publishing
appends the envelope to every mailbox but the sender's, so a vote published
during a tick is drainable before the next tick completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

VOTE_TOPIC = "vote"


@dataclass(frozen=True, slots=True)
class Envelope:
    topic: str
    payload: Any
    sender: int
    stamp: float


class Subscription:
    """One robot's mailbox. Drain pops FIFO."""

    __slots__ = ("_queue",)

    def __init__(self):
        self._queue: list[Envelope] = []

    def drain(self) -> list[Envelope]:
        out, self._queue = self._queue, []
        return out


class MessageBus:
    """Reliable in-order fan-out to a fixed set of mailboxes, one per robot."""

    def __init__(self, robots: int):
        self.mailboxes = [Subscription() for _ in range(robots)]
        self._last_stamp: dict[int, float] = {}

    def publish(self, envelope: Envelope) -> int:
        """Deliver to every mailbox but the sender's; returns how many.

        Envelope stamps must be nondecreasing per sender.
        """
        last = self._last_stamp.get(envelope.sender)
        if last is not None and envelope.stamp < last:
            raise ValueError(
                f"sender {envelope.sender} published stamp {envelope.stamp} after {last}"
            )
        self._last_stamp[envelope.sender] = envelope.stamp
        others = self.mailboxes[: envelope.sender] + self.mailboxes[envelope.sender + 1 :]
        for box in others:
            box._queue.append(envelope)
        return len(others)
