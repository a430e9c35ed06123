"""Whole formula sequences at depth, against math.comb and powers.

Every other sequence check stops at n = 40, or 120 for three types.
These roll the meander's, e^{2x}'s and e^{3x}'s term tables from their
two-step ratios (closedforms._Unit) hundreds of steps deep: ce is a
meander and e^{2x}, the paper's north-side count; ae an excursion and
e^{2x}, Touchard's identity; de three free directions, one unit.
"""

from math import comb

import pytest

from touchard import canonicalize_type, general_sequence


@pytest.mark.parametrize(
    "letters, n_max, expected",
    [
        ("ce", 600, lambda n: comb(2 * n + 1, n)),
        ("ae", 600, lambda n: comb(2 * n + 2, n + 1) // (n + 2)),
        ("de", 2000, lambda n: 3**n),
    ],
    ids=["ce", "ae", "de"],
)
def test_formula_sequence_at_depth(letters, n_max, expected):
    got = general_sequence(canonicalize_type(letters), n_max)
    assert got == [expected(n) for n in range(n_max + 1)]
