"""Discussed dispersion: phases, retargeting, and vote-then-move ticks."""

from __future__ import annotations

import pytest
from hypothesis import given

from swarmsim.bus import Envelope, VOTE_TOPIC
from swarmsim.core import STOP, DriveLimits
from swarmsim.patterns import (
    DISCUSS_ONLY,
    DISPERSE_AND_DISCUSS,
    DiscussedDispersionPattern,
    DiscussedDispersionState,
    DispersionConfig,
    VotingState,
    discussed_dispersion_step,
    dispersion_field,
)

from conftest import make_scan, scans

LIMITS = DriveLimits(max_linear=0.26, max_angular=1.82)
MAPPING = {0: 0.6, 1: 1.0, 2: 1.4}


def combined_state(own=1, decision_duration=20.0):
    return DiscussedDispersionState(
        voting=VotingState(robot_id=0, own_opinion=own, window_length=1.0),
        dispersion=DispersionConfig(dispersion_range=MAPPING[own], limits=LIMITS),
        mapping=dict(MAPPING),
        decision_duration=decision_duration,
    )


def test_mapping_must_be_nonempty():
    with pytest.raises(ValueError):
        DiscussedDispersionState(
            voting=VotingState(robot_id=0, own_opinion=0, window_length=1.0),
            dispersion=DispersionConfig(dispersion_range=1.0, limits=LIMITS),
            mapping={},
        )


@given(scans())
def test_discussion_phase_is_standstill_for_any_scan(scan):
    pattern = DiscussedDispersionPattern(combined_state())
    assert pattern.tick(scan, 5.0, 0.1, []).command == STOP
    assert pattern.state.phase == DISCUSS_ONLY


def test_phase_transition_at_decision_duration():
    state = combined_state()
    discussed_dispersion_step(state, 19.9)
    assert state.phase == DISCUSS_ONLY
    discussed_dispersion_step(state, 20.0)
    assert state.phase == DISPERSE_AND_DISCUSS


def test_phase_two_runs_dispersion_at_mapped_range():
    state = combined_state(own=1)
    cmd = discussed_dispersion_step(state, 25.0)
    assert state.phase == DISPERSE_AND_DISCUSS
    assert cmd == dispersion_field(DispersionConfig(1.0, LIMITS))


def test_opinion_change_retargets_range_same_tick():
    state = combined_state(own=1)
    state.voting.own_opinion = 2
    cmd = discussed_dispersion_step(state, 25.0)
    assert state.dispersion.dispersion_range == MAPPING[2]
    assert cmd == dispersion_field(DispersionConfig(MAPPING[2], LIMITS))


def test_pattern_votes_then_moves_in_one_tick():
    pattern = DiscussedDispersionPattern(combined_state(own=0))
    # drive the clock past the decision phase with empty inboxes
    now = 0.0
    while now < 21.0:
        pattern.tick(make_scan(), now, 0.1, [])
        now = round(now + 0.1, 10)
    # a window closes this tick and flips the opinion to the heard majority
    inbox = [Envelope(VOTE_TOPIC, 2, sender, now - 0.05) for sender in (1, 2, 3)]
    result = pattern.tick(make_scan({0: 1.2}), now + 1.0, 0.1, inbox)
    assert pattern.opinion == 2
    assert pattern.state.dispersion.dispersion_range == MAPPING[2]
    assert result.command == dispersion_field(DispersionConfig(MAPPING[2], LIMITS))
