"""Three factors with free directions, whose last convolution is one dot with e^{r x} at n."""

from math import comb

import pytest

from touchard import (
    aa_closed,
    ab_closed,
    ace3d_count,
    canonicalize_type,
    general_count,
    general_sequence,
)
from touchard import closedforms


def _excursion_pair(k):
    return 0 if k % 2 else aa_closed(k)


def _excursion_bridge(k):
    return 0 if k % 2 else ab_closed(k)


def _bridge_pair(k):
    return 0 if k % 2 else comb(k, k // 2) ** 2


def _quarter_plane(k):
    return comb(k, k // 2) * comb(k + 1, (k + 1) // 2)


@pytest.mark.parametrize(
    "letters, two_dim",
    [
        ("aae", _excursion_pair),
        ("abe", _excursion_bridge),
        ("bbe", _bridge_pair),
        ("cce", _quarter_plane),
    ],
)
def test_two_dimensions_and_a_free_one_at_300(letters, two_dim):
    # The free dimension's two directions make the factor 2^(n - k).
    n = 300
    expected = sum(comb(n, k) * two_dim(k) * 2 ** (n - k) for k in range(n + 1))
    assert general_count(canonicalize_type(letters), n) == expected


def test_ace_at_80_matches_its_double_sum():
    assert general_count(canonicalize_type("ace"), 80) == ace3d_count(80)


def test_one_factor_sequences_run_no_convolution(monkeypatch):
    def no_pass(*args):
        raise AssertionError("a Pascal pass for a single factor")

    monkeypatch.setattr(closedforms, "_convolve", no_pass)
    assert general_sequence(canonicalize_type("c"), 50) == [comb(k, k // 2) for k in range(51)]
    assert general_sequence(canonicalize_type("e"), 50) == [2**k for k in range(51)]
