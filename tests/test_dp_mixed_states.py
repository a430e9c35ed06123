"""Exact memo state counts for types whose states include ids of need 0.

A free direction moves to the same heights, a bridge at 0 steps up two
ways, and a meander's height returns nowhere, so these types reach ids
whose returning heights sum to 0 at every depth.  Each such id counts
the empty completion without storing it, so the guard charges only the
counts the recursion stores.
"""

import pytest

from touchard import (
    GuardExceeded,
    ResourceLimits,
    canonicalize_type,
    count_dp,
    general_count,
    general_sequence,
    sequence_dp,
)

# Memo states stored by count_dp(type, n).
COUNT_STATES = [
    ("ae", 50, 675),
    ("ace", 30, 2_825),
    ("cccc", 20, 1_786),
    ("bbc", 25, 2_059),
    ("abde", 18, 384),
]

# States sequence_dp(type, n_max) charges over all lengths 0..n_max: those
# count_dp(type, n_max) stores.
SEQUENCE_STATES = [("bbc", 25, 2_059), ("ce", 40, 820)]


@pytest.mark.parametrize("letters, n, states", COUNT_STATES)
def test_count_guard_trips_at_the_exact_state_count(letters, n, states):
    wt = canonicalize_type(letters)
    assert count_dp(wt, n, ResourceLimits(max_dp_states=states)) == general_count(wt, n)
    with pytest.raises(GuardExceeded, match=f"more than {states - 1} memo states"):
        count_dp(wt, n, ResourceLimits(max_dp_states=states - 1))


@pytest.mark.parametrize("letters, n_max, states", SEQUENCE_STATES)
def test_sequence_guard_trips_at_the_exact_state_count(letters, n_max, states):
    wt = canonicalize_type(letters)
    got = sequence_dp(wt, n_max, ResourceLimits(max_dp_states=states))
    assert got == general_sequence(wt, n_max)
    with pytest.raises(GuardExceeded, match=f"more than {states - 1} memo states"):
        sequence_dp(wt, n_max, ResourceLimits(max_dp_states=states - 1))
