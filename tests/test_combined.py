"""Discussed dispersion: phases, retargeting, and vote-then-move ticks."""

from __future__ import annotations

import pytest
from hypothesis import given

from swarmsim.bus import Envelope, VOTE_TOPIC
from swarmsim.core import STOP, DriveLimits
from swarmsim.patterns import DiscussedDispersion, Dispersion

from conftest import make_scan, scans

LIMITS = DriveLimits(max_linear=0.26, max_angular=1.82)
MAPPING = {0: 0.6, 1: 1.0, 2: 1.4}


def combined_state(own=1, decision_duration=20.0, mapping=MAPPING):
    return DiscussedDispersion(
        robot_id=0,
        own_opinion=own,
        window_length=1.0,
        mapping=dict(mapping),
        limits=LIMITS,
        decision_duration=decision_duration,
    )


def dispersion_request(distance: float):
    """What the dispersion primitive asks for at that distance."""
    return Dispersion(distance, LIMITS).tick(None, 0.0, 0.1, []).command


def test_mapping_must_be_nonempty():
    with pytest.raises(ValueError):
        combined_state(own=0, mapping={})


def test_mapped_distances_must_be_positive():
    # The loader's protection-threshold check rejects these first.
    with pytest.raises(ValueError, match="^mapped distances must be positive$"):
        combined_state(own=0, mapping={0: 0.0, 1: 1.0})


@given(scans())
def test_discussion_phase_is_standstill_for_any_scan(scan):
    pattern = combined_state()
    assert pattern.tick(scan, 5.0, 0.1, []).command == STOP
    assert pattern.tick(scan, 19.9, 0.1, []).command == STOP


def test_phase_transition_at_decision_duration():
    pattern = combined_state()
    assert pattern.tick(make_scan(), 19.9, 0.1, []).command == STOP
    assert pattern.tick(make_scan(), 20.0, 0.1, []).command == dispersion_request(MAPPING[1])


def test_phase_two_runs_dispersion_at_mapped_range():
    pattern = combined_state(own=1)
    cmd = pattern.tick(make_scan(), 25.0, 0.1, []).command
    assert cmd == dispersion_request(1.0)


def test_opinion_change_retargets_range_same_tick():
    pattern = combined_state(own=1)
    assert pattern.tick(make_scan(), 25.0, 0.1, []).command.effect_range == MAPPING[1]
    pattern.own_opinion = 2
    cmd = pattern.tick(make_scan(), 25.1, 0.1, []).command
    assert cmd.effect_range == MAPPING[2]
    assert cmd == dispersion_request(MAPPING[2])


def test_pattern_votes_then_moves_in_one_tick():
    pattern = combined_state(own=0)
    # drive the clock past the decision phase with empty inboxes
    now = 0.0
    while now < 21.0:
        pattern.tick(make_scan(), now, 0.1, [])
        now = round(now + 0.1, 10)
    # a window closes this tick and flips the opinion to the heard majority
    inbox = [Envelope(VOTE_TOPIC, 2, sender, now - 0.05) for sender in (1, 2, 3)]
    result = pattern.tick(make_scan({0: 1.2}), now + 1.0, 0.1, inbox)
    assert pattern.opinion == 2
    assert result.command.effect_range == MAPPING[2]
    assert result.command == dispersion_request(MAPPING[2])
