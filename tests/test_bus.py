"""Message bus: fan-out, ordering, topic isolation, stamp discipline."""

from __future__ import annotations

import pytest

from swarmsim.bus import (
    Envelope,
    MessageBus,
    TopicName,
    VOTE_TOPIC,
)


def env(topic, payload, sender=0, stamp=0.0):
    return Envelope(topic=topic, payload=payload, sender=sender, stamp=stamp)


def test_publish_without_subscribers_delivers_nowhere():
    bus = MessageBus()
    assert bus.publish(env(VOTE_TOPIC, "hello")) == 0


def test_fan_out_includes_sender():
    bus = MessageBus()
    subs = {rid: bus.subscribe(VOTE_TOPIC, rid) for rid in range(1, 8)}
    count = bus.publish(env(VOTE_TOPIC, "opinion", sender=3))
    assert count == 7
    for sub in subs.values():
        payloads = [e.payload for e in sub.drain()]
        assert payloads == ["opinion"]


def test_fifo_per_sender():
    bus = MessageBus()
    sub = bus.subscribe(VOTE_TOPIC, 1)
    bus.publish(env(VOTE_TOPIC, "a", sender=0, stamp=0.0))
    bus.publish(env(VOTE_TOPIC, "b", sender=0, stamp=0.1))
    assert [e.payload for e in sub.drain()] == ["a", "b"]
    assert sub.drain() == []


def test_subscribe_after_publish_sees_nothing():
    bus = MessageBus()
    bus.publish(env(VOTE_TOPIC, "lost"))
    sub = bus.subscribe(VOTE_TOPIC, 1)
    assert sub.drain() == []


def test_duplicate_subscription_is_idempotent():
    bus = MessageBus()
    first = bus.subscribe(VOTE_TOPIC, 1)
    second = bus.subscribe(VOTE_TOPIC, 1)
    assert first is second
    assert bus.publish(env(VOTE_TOPIC, "x")) == 1
    assert len(first.drain()) == 1


def test_topics_are_isolated():
    bus = MessageBus()
    votes = bus.subscribe(VOTE_TOPIC, 1)
    other = bus.subscribe(TopicName("other"), 1)
    bus.publish(env(TopicName("other"), "x", sender=1))
    assert votes.drain() == []
    assert [e.payload for e in other.drain()] == ["x"]


def test_independent_copies_per_subscriber():
    bus = MessageBus()
    a = bus.subscribe(VOTE_TOPIC, 1)
    b = bus.subscribe(VOTE_TOPIC, 2)
    bus.publish(env(VOTE_TOPIC, "m"))
    assert len(a.drain()) == 1
    assert len(b.drain()) == 1
    assert a.drain() == [] and b.drain() == []


def test_stamp_regression_rejected():
    bus = MessageBus()
    bus.subscribe(VOTE_TOPIC, 1)
    bus.publish(env(VOTE_TOPIC, "a", sender=0, stamp=1.0))
    with pytest.raises(ValueError):
        bus.publish(env(VOTE_TOPIC, "b", sender=0, stamp=0.5))


def test_stamp_monotonicity_is_per_sender():
    bus = MessageBus()
    bus.subscribe(VOTE_TOPIC, 1)
    bus.publish(env(VOTE_TOPIC, "a", sender=0, stamp=5.0))
    bus.publish(env(VOTE_TOPIC, "b", sender=1, stamp=0.0))
    bus.publish(env(VOTE_TOPIC, "c", sender=0, stamp=5.0))


def test_no_loss_no_duplication_across_many_publishes():
    bus = MessageBus()
    sub = bus.subscribe(VOTE_TOPIC, 9)
    for k in range(100):
        bus.publish(env(VOTE_TOPIC, k, sender=0, stamp=k * 0.1))
    got = [e.payload for e in sub.drain()]
    assert got == list(range(100))
