"""Opinion dynamics: window bookkeeping, majority rule, voter model."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmsim.bus import Envelope, VOTE_TOPIC
from swarmsim.patterns import Majority, Voter


def vote(sender: int, opinion: int, stamp: float) -> Envelope:
    return Envelope(VOTE_TOPIC, opinion, sender, stamp)


def majority_state(own=0, robot_id=0, window=1.0):
    return Majority(robot_id=robot_id, own_opinion=own, window_length=window)


def voter_state(own=0, robot_id=0, seed=0):
    rng = np.random.default_rng(seed)
    return Voter(robot_id=robot_id, own_opinion=own, window_length=1.0, rng=rng)


def ingest(state, *votes):
    """Deliver votes in one tick at the start of the current window."""
    state.tick(None, state.window_start, 0.1, list(votes))


def brute_force_majority(own: int, votes: dict[int, int], self_id: int) -> int:
    """Counting oracle: tally last vote per sender with self forced to own."""
    tally = dict(votes)
    tally[self_id] = own
    counts: dict[int, int] = {}
    for op in tally.values():
        counts[op] = counts.get(op, 0) + 1
    best = max(counts.values())
    tied = sorted(op for op, n in counts.items() if n == best)
    return own if own in tied else tied[0]


# -- ingest ---------------------------------------------------------------------


def test_ingest_appends():
    state = majority_state()
    ingest(state, vote(1, 2, 0.5))
    assert state.heard == {1: 2}


def test_ingest_duplicate_sender_keeps_the_latest():
    state = majority_state()
    ingest(state, vote(1, 2, 0.1))
    ingest(state, vote(1, 3, 0.2))
    assert state.heard == {1: 3}


def test_ingest_own_message_accepted():
    state = majority_state(robot_id=0)
    ingest(state, vote(0, 0, 0.0))
    assert state.heard == {0: 0}


def test_ingest_stamp_at_window_end_rejected():
    # A stamp at the window's end is never heard in that window: the window
    # closes first, with nothing heard, and the vote lands in the next one.
    state = majority_state(own=0, window=1.0)
    result = state.tick(None, 0.5, 0.1, [vote(1, 2, 1.0), vote(2, 2, 1.0)])
    assert result.messages == [0, 0]
    assert state.window_index == 1
    assert state.heard == {1: 2, 2: 2}


def test_ingest_stamp_before_window_rejected():
    state = majority_state()
    state.window_index = 2
    with pytest.raises(ValueError):
        ingest(state, vote(1, 2, 0.5))


# -- majority rule ----------------------------------------------------------------


def test_majority_worked_example():
    # seven distinct senders including self; opinion 1 appears four times
    state = majority_state(own=0, robot_id=0)
    for sender, op in [(1, 1), (2, 1), (3, 2), (4, 1), (5, 0), (6, 1)]:
        ingest(state, vote(sender, op, 0.1))
    ingest(state, vote(0, 0, 0.1))
    opinion = state.close_window()
    assert state.own_opinion == 1
    assert opinion == 1


def test_majority_empty_buffer_keeps_own():
    state = majority_state(own=5)
    opinion = state.close_window()
    assert state.own_opinion == 5
    assert opinion == 5


def test_majority_tie_keeps_own_when_among_maxima():
    state = majority_state(own=2, robot_id=0)
    ingest(state, vote(1, 1, 0.0))
    state.close_window()
    assert state.own_opinion == 2


def test_majority_tie_without_own_picks_smallest():
    state = majority_state(own=9, robot_id=0)
    for sender, op in [(1, 3), (2, 3), (3, 1), (4, 1)]:
        ingest(state, vote(sender, op, 0.0))
    state.close_window()
    assert state.own_opinion == 1


def test_majority_latest_message_per_sender_wins():
    state = majority_state(own=0, robot_id=0)
    for op in (1, 1, 1):
        ingest(state, vote(1, op, 0.0))
    ingest(state, vote(1, 2, 0.5))
    ingest(state, vote(2, 2, 0.5))
    ingest(state, vote(3, 2, 0.5))
    state.close_window()
    # sender 1 counts once, with its latest opinion 2
    assert state.own_opinion == 2


def test_majority_own_slot_overrides_stale_self_message():
    state = majority_state(own=4, robot_id=0)
    ingest(state, vote(0, 1, 0.0))  # stale echo of an old self opinion
    state.close_window()
    assert state.own_opinion == 4


def test_close_window_advances_and_clears():
    state = majority_state()
    ingest(state, vote(1, 1, 0.3))
    state.close_window()
    assert state.window_index == 1
    assert state.heard == {}
    assert state.window_start == pytest.approx(1.0)
    assert state.window_end == pytest.approx(2.0)


opinion_windows = st.lists(
    st.tuples(st.integers(1, 9), st.integers(0, 4)), min_size=0, max_size=20
)


@given(st.integers(0, 4), opinion_windows)
def test_majority_matches_counting_oracle(own, messages):
    state = majority_state(own=own, robot_id=0)
    last: dict[int, int] = {}
    for sender, op in messages:
        ingest(state, vote(sender, op, 0.0))
        last[sender] = op
    state.close_window()
    assert state.own_opinion == brute_force_majority(own, last, 0)


@given(st.integers(0, 4), opinion_windows)
def test_close_window_result_came_from_buffer_or_own(own, messages):
    state = majority_state(own=own, robot_id=0)
    for sender, op in messages:
        ingest(state, vote(sender, op, 0.0))
    state.close_window()
    assert state.own_opinion in {op for _, op in messages} | {own}


# -- voter model ------------------------------------------------------------------


def test_voter_single_sender_is_only_choice():
    state = voter_state(own=0)
    ingest(state, vote(1, 2, 0.0))
    state.close_window()
    assert state.own_opinion == 2


def test_voter_excludes_self():
    state = voter_state(own=0, robot_id=0)
    ingest(state, vote(0, 7, 0.0))
    ingest(state, vote(1, 3, 0.0))
    state.close_window()
    assert state.own_opinion == 3


def test_voter_empty_buffer_keeps_own():
    state = voter_state(own=4)
    state.close_window()
    assert state.own_opinion == 4


def test_voter_uniform_over_distinct_senders():
    picks = Counter()
    for seed in range(400):
        state = voter_state(own=0, seed=seed)
        ingest(state, vote(1, 1, 0.0))
        ingest(state, vote(2, 2, 0.0))
        state.close_window()
        picks[state.own_opinion] += 1
    assert picks[1] + picks[2] == 400
    assert 120 <= picks[1] <= 280


# -- window partition property ------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=40))
def test_every_stamp_lands_in_exactly_one_window(stamps):
    """Tumbling windows partition the timeline."""
    window = 1.0
    for stamp in sorted(stamps):
        k = int(stamp // window)
        state = majority_state()
        state.window_index = k
        assert state.window_start <= stamp < state.window_end
        for other in (k - 1, k + 1):
            if other < 0:
                continue
            neighbor = majority_state()
            neighbor.window_index = other
            assert not (neighbor.window_start <= stamp < neighbor.window_end)


def test_pattern_announces_initial_opinion_once():
    pattern = majority_state(own=3, robot_id=0)
    first = pattern.tick(None, 0.0, 0.1, [])
    assert first.command is None
    assert first.messages == [3]
    second = pattern.tick(None, 0.1, 0.1, [])
    assert second.messages == []


def test_pattern_closes_window_on_clock_crossing():
    pattern = majority_state(own=0, robot_id=0)
    pattern.tick(None, 0.0, 0.1, [vote(1, 1, 0.0), vote(2, 1, 0.0)])
    result = pattern.tick(None, 1.0, 0.1, [])
    assert pattern.own_opinion == 1
    assert 1 in result.messages


def test_pattern_routes_messages_to_windows_by_stamp():
    pattern = majority_state(own=0, robot_id=0)
    # both messages arrive in one tick but belong to different windows
    inbox = [vote(1, 1, 0.9), vote(2, 2, 1.0)]
    pattern.tick(None, 0.9, 0.1, inbox)
    # the stamp-1.0 message must not have influenced window zero
    assert pattern.heard == {2: 2}


def test_pattern_rejects_a_vote_from_a_closed_window():
    pattern = majority_state(own=0, robot_id=0)
    pattern.tick(None, 2.5, 0.1, [])
    with pytest.raises(ValueError, match=r"stamp 0.5 outside window \[2.0, 3.0\)"):
        pattern.tick(None, 2.6, 0.1, [vote(1, 1, 0.5)])


def test_pattern_rejects_a_late_vote_after_closing_a_window_in_the_same_tick():
    # The stamp-1.0 vote closes window zero, so the bounds move to [1.0, 2.0)
    # before the stamp-0.5 vote is checked.
    pattern = majority_state(own=0, robot_id=0)
    with pytest.raises(ValueError, match=r"stamp 0.5 outside window \[1.0, 2.0\)"):
        pattern.tick(None, 0.9, 0.1, [vote(1, 1, 1.0), vote(2, 1, 0.5)])
