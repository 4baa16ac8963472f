"""Vote bus: fan-out to fixed mailboxes, ordering, stamp discipline."""

from __future__ import annotations

import pytest

from swarmsim.bus import Envelope, MessageBus, VOTE_TOPIC


def env(payload, sender=0, stamp=0.0):
    return Envelope(topic=VOTE_TOPIC, payload=payload, sender=sender, stamp=stamp)


def test_publish_without_subscribers_delivers_nowhere():
    bus = MessageBus(0)
    assert bus.publish(env("hello")) == 0
    assert MessageBus(1).publish(env("hello", sender=0)) == 0


def test_fan_out_skips_sender():
    bus = MessageBus(7)
    count = bus.publish(env("opinion", sender=3))
    assert count == 6
    for robot, box in enumerate(bus.mailboxes):
        payloads = [e.payload for e in box.drain()]
        assert payloads == ([] if robot == 3 else ["opinion"])


def test_fifo_per_sender():
    bus = MessageBus(2)
    box = bus.mailboxes[1]
    bus.publish(env("a", sender=0, stamp=0.0))
    bus.publish(env("b", sender=0, stamp=0.1))
    assert [e.payload for e in box.drain()] == ["a", "b"]
    assert box.drain() == []


def test_independent_copies_per_subscriber():
    bus = MessageBus(3)
    a, b, _ = bus.mailboxes
    bus.publish(env("m", sender=2))
    assert len(a.drain()) == 1
    assert len(b.drain()) == 1
    assert a.drain() == [] and b.drain() == []


def test_stamp_regression_rejected():
    bus = MessageBus(2)
    bus.publish(env("a", sender=0, stamp=1.0))
    with pytest.raises(ValueError):
        bus.publish(env("b", sender=0, stamp=0.5))


def test_stamp_monotonicity_is_per_sender():
    bus = MessageBus(2)
    bus.publish(env("a", sender=0, stamp=5.0))
    bus.publish(env("b", sender=1, stamp=0.0))
    bus.publish(env("c", sender=0, stamp=5.0))


def test_no_loss_no_duplication_across_many_publishes():
    bus = MessageBus(10)
    box = bus.mailboxes[9]
    for k in range(100):
        bus.publish(env(k, sender=0, stamp=k * 0.1))
    got = [e.payload for e in box.drain()]
    assert got == list(range(100))
