"""The DP's integer state keys at their edges.

_state_table keys each canonical heights vector by one digit per
constrained dimension in radix (largest length) + 2, and finds a child
by adding or subtracting one power of the radix.  A meander that steps
north every time reaches the requested length itself, the largest digit
a key holds; a bridge at 0 steps up two ways; a run of equal kinds is
raised at its last position and lowered at its first.
"""

import pytest

from touchard import (
    GuardExceeded,
    ResourceLimits,
    canonicalize_type,
    count_dp,
    enumerate_walks,
    general_count,
    golden_table3,
    sequence_dp,
    step_alphabet,
)

N_MAX = 12
# Brute force checks the lengths whose candidate strings fit this budget.
BRUTE_CANDIDATES = 2**20


def brute_lengths(wt) -> list:
    base = len(step_alphabet(wt))
    return [n for n in range(1, N_MAX + 1) if base**n <= BRUTE_CANDIDATES]


@pytest.mark.parametrize("letters", ["c", "cc", "ccc", "cccc", "bbbb", "abbc", "bccd"])
def test_counts_match_enumeration_and_formula(letters):
    # count_dp sizes its radix by n alone and sequence_dp by N_MAX; on
    # the meanders the all-north walk takes a height to n itself.
    wt = canonicalize_type(letters)
    sequence = sequence_dp(wt, N_MAX)
    assert [count_dp(wt, n) for n in range(N_MAX + 1)] == sequence
    assert sequence == [general_count(wt, n) for n in range(N_MAX + 1)]
    lengths = brute_lengths(wt)
    assert lengths
    for n in lengths:
        assert sequence[n] == len(enumerate_walks(wt, n)), n


def stored_states(wt, n_max: int) -> int:
    """The states sequence_dp(wt, n_max) charges: its guard's trip point."""

    def admitted(limit: int) -> bool:
        try:
            sequence_dp(wt, n_max, ResourceLimits(max_dp_states=limit))
        except GuardExceeded:
            return False
        return True

    low, high = 0, 1
    while not admitted(high):
        low, high = high + 1, 2 * high
    while low < high:
        middle = (low + high) // 2
        if admitted(middle):
            high = middle
        else:
            low = middle + 1
    return low


# The states charged by verify_table3's 25 DP calls, one per golden row
# over its printed terms: those count_dp stores at each row's last term
# (the tuple-keyed memo shared by every length stored 4 179).
TABLE3_STATES = 3_286


def test_table3_stores_the_tuple_memo_states():
    total = sum(
        stored_states(record.walk_type, len(record.terms) - 1) for record in golden_table3()
    )
    assert total == TABLE3_STATES
