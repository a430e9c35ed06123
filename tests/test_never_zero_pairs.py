"""Deep counts of the pairs whose terms are never 0, at both parities of n.

A meander beside e^{r x} rolls both parity classes of k.  Its count
interleaves a meander's walks of k steps with r^(n - k) free ones, so it
is sum_k binomial(n, k) binomial(k, floor(k / 2)) r^(n - k), with r the
type's free directions.  tests/test_rolled_summation.py checks cc and ce
deep; these are the other eight such types.
"""

from math import comb

import pytest

from touchard import canonicalize_type, general_count


def _meander_beside_free(n, r):
    return sum(comb(n, k) * comb(k, k // 2) * r ** (n - k) for k in range(n + 1))


@pytest.mark.parametrize("n", [1000, 1001])
@pytest.mark.parametrize("letters", ["cd", "cdd", "cde", "cee", "cddd", "cdde", "cdee", "ceee"])
def test_meander_beside_free_directions(letters, n):
    wt = canonicalize_type(letters)
    assert general_count(wt, n) == _meander_beside_free(n, wt.free_direction_count)
