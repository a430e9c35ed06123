"""sequence_dp's state guard trips at the exact count of states its one sweep charges.

The sweep keeps two layers of counts live, not a memo shared across
lengths, and charges each layer as it expands it: the states count_dp
charges at the last length.
"""

import pytest

from touchard import GuardExceeded, ResourceLimits, canonicalize_type, sequence_dp

# States sequence_dp charges over its sweep to n_max, the same states
# count_dp charges at n_max alone.
SEQUENCE_STATES = [("aaaa", 30, 1_332), ("aaa", 60, 9_215)]


@pytest.mark.parametrize("letters, n_max, states", SEQUENCE_STATES)
def test_sequence_guard_trips_at_the_exact_state_count(letters, n_max, states):
    wt = canonicalize_type(letters)
    full = sequence_dp(wt, n_max)
    assert sequence_dp(wt, n_max, ResourceLimits(max_dp_states=states)) == full
    with pytest.raises(GuardExceeded, match=f"more than {states - 1} memo states"):
        sequence_dp(wt, n_max, ResourceLimits(max_dp_states=states - 1))
