"""Counts the formula guard admits because it charges the unit plan that runs.

A grouped count is charged as its rolled sum and a three-unit count as
one convolution in full and one at n alone, so each n below lies past
the trip point of a charge by factors (a table per dimension and a
convolution per factor after the first).
"""

from math import comb

from touchard import canonicalize_type, catalan, general_count, general_sequence


def _sum_of_products(n, left, right):
    return sum(comb(n, k) * left(k) * right(n - k) for k in range(n + 1))


def _quarter_plane(k):
    return comb(k, k // 2) * comb(k + 1, (k + 1) // 2)


def test_cccc_count_is_the_square_of_the_quarter_plane_counts():
    cccc = general_count(canonicalize_type("cccc"), 2000)
    assert cccc == _sum_of_products(2000, _quarter_plane, _quarter_plane)


def test_abce_count_pairs_touchards_identity_with_two_meanders():
    abce = general_count(canonicalize_type("abce"), 3001)
    assert abce == _sum_of_products(3001, lambda k: catalan(k + 1), lambda k: comb(k, k // 2) ** 2)


def test_three_unit_count_is_the_last_term_of_its_sequence():
    aaad = canonicalize_type("aaad")
    assert general_count(aaad, 1125) == general_sequence(aaad, 1125)[-1]
