"""Dead DP states: returning heights must fit in the steps left, with parity
when every step moves one returning height."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_type_strings
from touchard import (
    GuardExceeded,
    ResourceLimits,
    canonicalize_type,
    count_dp,
    enumerate_walks,
    general_count,
    general_sequence,
    sequence_dp,
)

# Types with two or more excursion or bridge dimensions, where the sum of the
# returning heights prunes more than any single height does.
MULTI_RETURN_TYPES = [
    letters
    for letters in all_type_strings(4)
    if sum(letter in "ab" for letter in letters) >= 2
]

# No free direction and no meander: every step moves one returning height.
PARITY_LOCKED_TYPES = [
    letters for letters in all_type_strings(4) if set(letters) <= set("ab")
]


# Memo states without the dead-state rule: aaaa to 30
# stored 5 325, aaa to 60 stored 31 840 and bbbb at 30 stored 2 845.
@pytest.mark.parametrize(
    "letters, n_max, budget",
    [("aaaa", 30, 1_400), ("aaa", 60, 10_000)],
)
def test_sequence_fits_a_budget_the_unpruned_dp_exceeds(letters, n_max, budget):
    wt = canonicalize_type(letters)
    got = sequence_dp(wt, n_max, ResourceLimits(max_dp_states=budget))
    assert got == general_sequence(wt, n_max)


def test_aaaa_sequence_still_trips_a_smaller_budget():
    with pytest.raises(GuardExceeded, match="memo states"):
        sequence_dp(canonicalize_type("aaaa"), 30, ResourceLimits(max_dp_states=1_000))


def test_bbbb_count_fits_a_budget_the_unpruned_dp_exceeds():
    wt = canonicalize_type("bbbb")
    assert count_dp(wt, 30, ResourceLimits(max_dp_states=1_400)) == general_count(wt, 30)


@settings(max_examples=40, deadline=None)
@given(letters=st.sampled_from(MULTI_RETURN_TYPES), n=st.integers(0, 7))
def test_pruned_dp_matches_unpruned_enumeration(letters, n):
    wt = canonicalize_type(letters)
    assert count_dp(wt, n) == len(enumerate_walks(wt, n))


@pytest.mark.parametrize("letters", PARITY_LOCKED_TYPES)
def test_parity_locked_odd_terms_are_zero(letters):
    wt = canonicalize_type(letters)
    seq = sequence_dp(wt, 11)
    assert seq[1::2] == [0] * (len(seq) // 2)
    assert all(seq[0::2])


def test_parity_locked_odd_n_stores_no_state():
    limits = ResourceLimits(max_dp_states=0)
    assert count_dp(canonicalize_type("aabb"), 301, limits) == 0
    with pytest.raises(GuardExceeded):
        count_dp(canonicalize_type("aabc"), 301, limits)
