"""Length 0 reads the origin's seed: the empty walk, stored outside the DP guard."""

import pytest

from conftest import all_type_strings
from touchard import ResourceLimits, canonicalize_type, count_dp, sequence_dp

# A guard of one memo state: length 0 stores none, so it never trips.
ONE_STATE = ResourceLimits(max_dp_states=1)


@pytest.mark.parametrize("letters", all_type_strings(4))
def test_length_zero_counts_the_empty_walk_under_a_one_state_guard(letters):
    walk_type = canonicalize_type(letters)
    assert count_dp(walk_type, 0, ONE_STATE) == 1
    assert sequence_dp(walk_type, 0, ONE_STATE) == [1]
