"""Types of three or more factors counted as two hypergeometric groups in one rolled sum.

A group is a two-factor type whose count is hypergeometric in each parity
class of its length: the six constrained pairs, and ae, be and ce, a
constrained kind with a pool of r = 2 free directions.  Rolled by its
ratio, each group must give the master summation of its own type, and
every grouped count must agree with the convolution engine and the DP.
"""

from math import comb

import pytest

from conftest import all_type_strings
from touchard import canonicalize_type, general_count, general_sequence, sequence_dp
from touchard import closedforms

GROUP_LETTERS = ["aa", "ab", "ac", "bb", "bc", "cc", "ae", "be", "ce"]

# ac and bc were found by elimination alone, so they are checked further.
GROUP_TOPS = {letters: 1200 if letters in ("ac", "bc") else 400 for letters in GROUP_LETTERS}


def _factor_count(walk_type):
    return len(walk_type.constrained_kinds) + (walk_type.free_direction_count > 0)


def _convolved(walk_type):
    """Three constrained kinds and one d: e^{x} makes no group with a kind."""
    return len(walk_type.constrained_kinds) == 3 and walk_type.free_direction_count == 1


_DEEP = [canonicalize_type(letters) for letters in all_type_strings(4)]
GROUPED = [str(wt) for wt in _DEEP if _factor_count(wt) >= 3 and not _convolved(wt)]
CONVOLVED = [str(wt) for wt in _DEEP if _factor_count(wt) >= 3 and _convolved(wt)]
# Types whose groups all return to zero: every odd count is 0.
RETURNING = [letters for letters in GROUPED if set(letters) <= set("ab")]


def _rolled_counts(group, top):
    """count(0..top) of a group: each parity class rolled by its ratio from its first count."""
    counts = [group.count(0), group.count(1)]
    for m in range(top - 1):
        ratio = group.odd if m % 2 else group.even
        if ratio is None:
            counts.append(0)
            continue
        num, den = ratio
        # count(m + 2) = count(m) (m + 1)(m + 2) g_(m + 2) / g_m, an exact division.
        quotient, remainder = divmod(counts[m] * (m + 1) * (m + 2) * num(m), den(m))
        assert remainder == 0, (group, m)
        counts.append(quotient)
    return counts


def test_the_groups_are_the_nine_hypergeometric_pairs():
    assert sorted(closedforms._GROUPS) == sorted(GROUP_LETTERS)
    even_only = [letters for letters, group in sorted(closedforms._GROUPS.items()) if group.odd is None]
    assert even_only == ["aa", "ab", "bb"]


@pytest.mark.parametrize("letters, top", sorted(GROUP_TOPS.items()))
def test_each_group_rolls_to_the_count_of_its_type(letters, top):
    group = closedforms._GROUPS[letters]
    wt = canonicalize_type(letters)
    expected = [general_count(wt, m) for m in range(top + 1)]
    assert _rolled_counts(group, top) == expected
    # Every class is seeded by the product form, so it must hold at every length.
    assert [group.count(m) for m in range(top + 1)] == expected


def test_grouped_types_are_65_of_the_75_with_three_or_more_factors():
    assert len(GROUPED) == 65
    assert CONVOLVED == [
        "aaad", "aabd", "aacd", "abbd", "abcd", "accd", "bbbd", "bbcd", "bccd", "cccd",
    ]
    assert {"ccc", "cccc", "acd", "ace", "abce", "bbcc"} <= set(GROUPED)


@pytest.mark.parametrize("letters", GROUPED)
def test_grouped_count_matches_convolution_and_dp(letters):
    wt = canonicalize_type(letters)
    counts = [general_count(wt, n) for n in range(81)]
    assert counts == general_sequence(wt, 80)
    assert counts[:11] == sequence_dp(wt, 10)


@pytest.mark.parametrize("letters", GROUPED)
def test_lengths_zero_and_one(letters):
    # Length 0 is the empty walk; length 1 is one step of a kind that may
    # end away from 0: a meander's up step or a free direction.
    wt = canonicalize_type(letters)
    one_step = letters.count("c") + 2 * letters.count("e") + letters.count("d")
    assert (general_count(wt, 0), general_count(wt, 1)) == (1, one_step)


@pytest.mark.parametrize("letters", RETURNING)
def test_odd_lengths_of_returning_groups_are_zero(letters):
    wt = canonicalize_type(letters)
    assert [general_count(wt, n) for n in (1, 3, 99, 1001)] == [0, 0, 0, 0]
    assert general_count(wt, 1000) > 0


def _quarter_plane(k):
    return comb(k, k // 2) * comb(k + 1, (k + 1) // 2)


def test_cccc_at_its_guard_is_the_square_of_the_quarter_plane():
    n = 1124
    expected = sum(comb(n, k) * _quarter_plane(k) * _quarter_plane(n - k) for k in range(n + 1))
    assert general_count(canonicalize_type("cccc"), n) == expected
