"""The rolled sum's folded step ratios, against the convolution engine and math.comb.

general_count sums a two-factor or grouped type one parity class of k at
a time, and rolls each term from the one before by a step planned once
per type: both factors' constants folded into one fraction and every
linear factor a range.  Each two-factor type is checked here against
general_sequence at every n up to 80, so at both parities of n, and the
nine hypergeometric pairs against their product forms at n = 2999 and
3000.  tests/test_pair_groups.py checks every grouped type against
general_sequence at every n up to 80 as well.
"""

from math import comb

import pytest

from conftest import all_type_strings
from touchard import canonicalize_type, general_count, general_sequence


def _catalan(i):
    return comb(2 * i, i) // (i + 1)


def _factor_count(walk_type):
    return len(walk_type.constrained_kinds) + (walk_type.free_direction_count > 0)


TWO_FACTOR = [letters for letters in all_type_strings(4) if _factor_count(canonicalize_type(letters)) == 2]

# Count at length m of each two-factor type whose counts are hypergeometric.
PRODUCT_FORMS = {
    "aa": lambda m: 0 if m % 2 else _catalan(m // 2) * _catalan(m // 2 + 1),
    "ab": lambda m: 0 if m % 2 else _catalan(m // 2) * comb(m + 1, m // 2),
    "ac": lambda m: _catalan((m + 1) // 2) * comb(m // 2 * 2 + 1, m // 2),
    "bb": lambda m: 0 if m % 2 else comb(m, m // 2) ** 2,
    "bc": lambda m: comb(m, m // 2) ** 2,
    "cc": lambda m: comb(m, m // 2) * comb(m + 1, (m + 1) // 2),
    "ae": lambda m: _catalan(m + 1),
    "be": lambda m: comb(2 * m, m),
    "ce": lambda m: comb(2 * m + 1, m),
}


def test_two_factor_types_are_33():
    assert len(TWO_FACTOR) == 33
    assert {"aa", "cc", "ae", "ce", "cd", "aeee", "cdde"} <= set(TWO_FACTOR)


@pytest.mark.parametrize("letters", TWO_FACTOR)
def test_rolled_count_matches_the_convolution_to_80(letters):
    wt = canonicalize_type(letters)
    assert [general_count(wt, n) for n in range(81)] == general_sequence(wt, 80)


@pytest.mark.parametrize("n", [2999, 3000])
@pytest.mark.parametrize("letters", sorted(PRODUCT_FORMS))
def test_hypergeometric_pair_matches_its_product_form(letters, n):
    assert general_count(canonicalize_type(letters), n) == PRODUCT_FORMS[letters](n)
