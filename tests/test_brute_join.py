"""The brute-force route joins prefixes and suffixes: the same walks, in the same order.

_brute_joins scans the first n // 2 steps and the last n - n // 2 steps
separately and joins them by their end heights, and _valid_walks builds
the joined walks.  These tests hold the walks to a one-pass filter over
every candidate string, at odd and even split points and at n = 0 and 1,
and hold their counts to the other two routes.  count --method brute sums
the joined suffix lists instead of building walks, so its counts are held
to the DP up to the guard's largest lengths.
"""

import itertools

import pytest

from touchard import (
    DyckPath,
    Walk,
    canonicalize_type,
    count_dp,
    enumerate_dyck,
    enumerate_walks,
    general_count,
    step_alphabet,
)
from touchard.cli import main

from conftest import all_type_strings

ALL_TYPES = all_type_strings(4)


def filtered_candidates(walk_type, n):
    """Every candidate step string in token order, kept when it walks validly."""
    kinds = walk_type.dims
    directions = [direction for _, direction in sorted(step_alphabet(walk_type))]
    kept = []
    for combo in itertools.product(directions, repeat=n):
        heights = [0] * len(kinds)
        for dim, sign in combo:
            heights[dim] += sign
            if heights[dim] < 0 and kinds[dim].stays_nonnegative:
                break
        else:
            if not any(h for h, kind in zip(heights, kinds) if kind.returns_to_zero):
                kept.append(Walk(combo))
    return kept


def largest_n(walk_type, budget):
    """The largest n <= 30 with base**n <= budget, base the type's alphabet size.

    Type d alone has base 1, where every n is within budget, so it stops at 30.
    """
    base = len(step_alphabet(walk_type))
    n = 0
    while n < 30 and base ** (n + 1) <= budget:
        n += 1
    return n


@pytest.mark.parametrize("letters", ALL_TYPES)
def test_join_is_the_one_pass_filter(letters):
    walk_type = canonicalize_type(letters)
    for n in range(largest_n(walk_type, 4096) + 1):
        walks = enumerate_walks(walk_type, n)
        assert walks == filtered_candidates(walk_type, n), n
        assert all(type(walk) is Walk for walk in walks)


def test_enumerate_dyck_matches_the_filter_to_length_12():
    a = canonicalize_type("a")
    for length in range(0, 13, 2):
        expected = [
            DyckPath("".join("N" if sign > 0 else "S" for _, sign in walk.steps))
            for walk in filtered_candidates(a, length)
        ]
        assert enumerate_dyck(length) == expected


@pytest.mark.parametrize("letters", ALL_TYPES)
def test_brute_count_agrees_with_dp_and_formula(letters):
    walk_type = canonicalize_type(letters)
    n = largest_n(walk_type, 2**16)
    brute = len(enumerate_walks(walk_type, n))
    assert brute == count_dp(walk_type, n) == general_count(walk_type, n)


@pytest.mark.parametrize(
    "letters, n",
    [("ee", 11), ("ae", 11), ("bbbb", 6), ("bbbb", 7), ("cccc", 7), ("d", 9), ("a", 0)],
)
def test_brute_count_sums_the_joins_to_the_dp_count(capsys, letters, n):
    assert main(["count", "--type", letters, "--n", str(n), "--method", "brute"]) == 0
    assert capsys.readouterr().out == f"{count_dp(canonicalize_type(letters), n)}\n"
