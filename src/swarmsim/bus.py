"""In-process pub/sub bus.

The simulator routes only the swarm-global opinion exchange (VOTE_TOPIC)
through it; sensor and command data pass between a robot's layers as direct
calls. Delivery is synchronous: publishing appends the envelope to every
queue subscribed at that moment, so anything published during a simulation
tick is drainable before the next tick completes. There is no replay for
late subscribers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class TopicName:
    """Bus address."""

    name: str


VOTE_TOPIC = TopicName("vote")


@dataclass(frozen=True, slots=True)
class Envelope:
    topic: TopicName
    payload: Any
    sender: int
    stamp: float


class Subscription:
    """Reader handle for one (subscriber, topic) pair. Drain pops FIFO."""

    __slots__ = ("topic", "subscriber", "_queue")

    def __init__(self, topic: TopicName, subscriber: int):
        self.topic = topic
        self.subscriber = subscriber
        self._queue: deque[Envelope] = deque()

    def drain(self) -> list[Envelope]:
        out = list(self._queue)
        self._queue.clear()
        return out


@dataclass
class MessageBus:
    """Reliable in-order fan-out to the subscriptions present at publish time."""

    _subs: dict[TopicName, list[Subscription]] = field(default_factory=dict)
    _by_key: dict[tuple[TopicName, int], Subscription] = field(default_factory=dict)
    _last_stamp: dict[int, float] = field(default_factory=dict)

    def subscribe(self, topic: TopicName, subscriber: int) -> Subscription:
        """Idempotent: the same (subscriber, topic) pair gets the same handle."""
        key = (topic, subscriber)
        sub = self._by_key.get(key)
        if sub is None:
            sub = Subscription(topic, subscriber)
            self._by_key[key] = sub
            self._subs.setdefault(topic, []).append(sub)
        return sub

    def publish(self, envelope: Envelope) -> int:
        """Deliver to all current subscribers; returns the fan-out count.

        Envelope stamps must be nondecreasing per sender.
        """
        last = self._last_stamp.get(envelope.sender)
        if last is not None and envelope.stamp < last:
            raise ValueError(
                f"sender {envelope.sender} published stamp {envelope.stamp} after {last}"
            )
        self._last_stamp[envelope.sender] = envelope.stamp
        subs = self._subs.get(envelope.topic, ())
        for sub in subs:
            sub._queue.append(envelope)
        return len(subs)
