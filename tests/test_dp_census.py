"""sequence_dp's state guard against a census of heights vectors.

A sweep to N charges, for each length j < N, the canonical heights
vectors reached in j steps whose need fits the N - j steps left.  The
census here counts those vectors by enumeration, without the oracle:
once from the conditions that define them, once by stepping heights
from the origin.  sequence_dp must be admitted at exactly that many
states and refused, with its full text, one below.
"""

import pytest

from touchard import GuardExceeded, ResourceLimits, canonicalize_type, sequence_dp

CENSUS = [
    ("ae", 9, 29),
    ("ae", 50, 675),
    ("ae", 101, 2_651),
    ("aa", 10, 33),
    ("aa", 40, 945),
    ("aa", 80, 6_390),
]


def census_by_conditions(letters: str, n: int) -> int:
    """Heights vectors of layers 0..n-1 counted from their defining conditions."""
    if letters == "ae":
        # One excursion height h <= j; the free step lets h take either parity.
        return sum(1 for j in range(n) for h in range(j + 1) if h <= min(j, n - j))
    assert letters == "aa"
    # Two interchangeable excursion heights, sorted; no free step, so the
    # height sum has the parity of j.
    return sum(
        1
        for j in range(n)
        for h1 in range(j + 1)
        for h2 in range(h1, j + 1)
        if h1 + h2 <= min(j, n - j) and (h1 + h2 - j) % 2 == 0
    )


def census_by_steps(letters: str, n: int) -> int:
    """Heights vectors of layers 0..n-1 found by stepping from the origin.

    Every letter is an excursion height (up, or down while positive) or a
    free direction (heights unchanged).  A vector is kept in layer j only
    if its height sum fits the n - j steps left.
    """
    excursions = letters.count("a")
    free = "e" in letters
    layer = {(0,) * excursions}
    total = 0
    for j in range(n):
        total += len(layer)
        nxt = set(layer) if free else set()
        for heights in layer:
            for i, h in enumerate(heights):
                for step in (1, -1) if h else (1,):
                    nxt.add(tuple(sorted(heights[:i] + (h + step,) + heights[i + 1 :])))
        layer = {heights for heights in nxt if sum(heights) <= n - j - 1}
    return total


@pytest.mark.parametrize("letters, n, states", CENSUS)
def test_census_counts_the_heights_vectors(letters, n, states):
    assert census_by_conditions(letters, n) == states
    assert census_by_steps(letters, n) == states


@pytest.mark.parametrize("letters, n, states", CENSUS)
def test_sequence_dp_is_admitted_at_exactly_the_census(letters, n, states):
    wt = canonicalize_type(letters)
    full = sequence_dp(wt, n)
    assert sequence_dp(wt, n, ResourceLimits(max_dp_states=states)) == full
    with pytest.raises(GuardExceeded) as refused:
        sequence_dp(wt, n, ResourceLimits(max_dp_states=states - 1))
    assert str(refused.value) == f"DP for type {letters} needs more than {states - 1} memo states"
