"""general_sequence against a plain EGF convolution written here with math.comb.

The reference uses no group and no ratio.  It starts from e^{r x}, r^k
for the r free directions, and convolves in each constrained dimension's
terms one at a time, (a * b)_m = sum_k comb(m, k) a_k b_(m-k).
"""

from math import comb

import pytest

from conftest import all_type_strings
from touchard import DimKind, canonicalize_type, general_sequence


def _terms(kind, n):
    """Walks of k = 0..n steps in one dimension of a constrained kind."""
    if kind is DimKind.EXCURSION:
        return [0 if k % 2 else comb(k, k // 2) // (k // 2 + 1) for k in range(n + 1)]
    if kind is DimKind.BRIDGE:
        return [0 if k % 2 else comb(k, k // 2) for k in range(n + 1)]
    return [comb(k, k // 2) for k in range(n + 1)]


def _reference(walk_type, n):
    r = walk_type.free_direction_count
    product = [r**k for k in range(n + 1)]
    for kind in walk_type.constrained_kinds:
        terms = _terms(kind, n)
        product = [
            sum(comb(m, k) * terms[k] * product[m - k] for k in range(m + 1)) for m in range(n + 1)
        ]
    return product


@pytest.mark.parametrize("letters", all_type_strings(4))
def test_sequence_matches_the_reference_to_40(letters):
    wt = canonicalize_type(letters)
    assert general_sequence(wt, 40) == _reference(wt, 40)


# cccc squares one group; aabe puts the even-only group ab before ae; aacd
# convolves three units.
@pytest.mark.parametrize("letters", ["cccc", "aabe", "aacd"])
def test_sequence_matches_the_reference_to_120(letters):
    wt = canonicalize_type(letters)
    assert general_sequence(wt, 120) == _reference(wt, 120)
