"""The master summation squares each repeated kind: pairs k < m - k once, doubled, plus the centre."""

import hashlib
from math import comb

import pytest

from touchard import aa_closed, canonicalize_type, general_count, general_sequence

from conftest import all_type_strings

# Digests of the counts as the convolution computed them before squares were
# taken by halves.
COUNT_DIGEST = "e7bda361d1ad7de834e1890750d7a3a33f86c8a0495c2973b8a2fe8899fe28cb"
SEQUENCE_DIGEST = "0846ce49a063b4c2bcaa24d53a8e72f70cc80ea7d736b8ffcf99ee698c2c34a2"


def test_counts_of_all_125_types_to_40_are_unchanged():
    digest = hashlib.sha256()
    for letters in all_type_strings(4):
        wt = canonicalize_type(letters)
        for n in range(41):
            digest.update(f"{letters} {n} {general_count(wt, n)}\n".encode())
    assert digest.hexdigest() == COUNT_DIGEST


def test_sequences_of_all_125_types_to_40_are_unchanged():
    digest = hashlib.sha256()
    for letters in all_type_strings(4):
        digest.update(f"{letters} {general_sequence(canonicalize_type(letters), 40)}\n".encode())
    assert digest.hexdigest() == SEQUENCE_DIGEST


def _product(first, second, n):
    """sum_k binomial(n, k) first(k) second(n - k): the count of two types side by side."""
    return sum(comb(n, k) * first(k) * second(n - k) for k in range(n + 1))


def _square(two_dim, n):
    return _product(two_dim, two_dim, n)


def _quarter_plane(k):
    return comb(k, k // 2) * comb(k + 1, (k + 1) // 2)


def _bridge_pair(k):
    return 0 if k % 2 else comb(k, k // 2) ** 2


def _excursion_pair(k):
    return 0 if k % 2 else aa_closed(k)


@pytest.mark.parametrize(
    "letters, two_dim",
    [("cccc", _quarter_plane), ("bbbb", _bridge_pair), ("aaaa", _excursion_pair)],
)
def test_four_of_one_kind_at_400(letters, two_dim):
    assert general_count(canonicalize_type(letters), 400) == _square(two_dim, 400)


def _meander(k):
    return comb(k, k // 2)


@pytest.mark.parametrize(
    "letters, two_dim",
    [("ccc", _quarter_plane), ("aac", _excursion_pair)],
)
def test_a_square_and_a_meander_at_150(letters, two_dim):
    assert general_count(canonicalize_type(letters), 150) == _product(two_dim, _meander, 150)


@pytest.mark.parametrize("letters", ["ccc", "aac", "aabb", "aae", "bbcc"])
def test_squares_by_count_and_by_sequence_agree(letters):
    wt = canonicalize_type(letters)
    assert [general_count(wt, n) for n in range(151)] == general_sequence(wt, 150)


def test_square_of_squares_at_odd_and_even_lengths():
    cccc = canonicalize_type("cccc")
    assert general_sequence(cccc, 61) == [_square(_quarter_plane, n) for n in range(62)]
