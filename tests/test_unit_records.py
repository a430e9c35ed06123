"""Each unit record's ratio data rolls to its own count.

A unit of the master summation (closedforms._Unit) carries its count at m
and its ratios u_(m + 2) / u_m of u_m = count(m) / m!, for even and for
odd m, and nothing else.  Here the three constrained kinds and e^{r x}
for r = 1..6; tests/test_pair_groups.py checks the nine groups the same
way.
"""

from math import comb

import pytest

from touchard import closedforms

TOP = 200

UNITS = {
    "a": (closedforms._KINDS["a"], lambda m: 0 if m % 2 else comb(m, m // 2) // (m // 2 + 1)),
    "b": (closedforms._KINDS["b"], lambda m: 0 if m % 2 else comb(m, m // 2)),
    "c": (closedforms._KINDS["c"], lambda m: comb(m, m // 2)),
    **{f"e{r}": (closedforms._free(r), lambda m, r=r: r**m) for r in range(1, 7)},
}


def _rolled(unit, top):
    """count(0..top) of a unit, each term rolled by its two-step ratio from the term two before it."""
    counts = [unit.count(0), unit.count(1)]
    for m in range(top - 1):
        ratio = (unit.even, unit.odd)[m % 2]
        if ratio is None:
            counts.append(0)
            continue
        num, den = ratio
        # count(m + 2) = count(m) (m + 1)(m + 2) u_(m + 2) / u_m, an exact division.
        quotient, remainder = divmod(counts[m] * (m + 1) * (m + 2) * num(m), den(m))
        assert remainder == 0, (unit, m)
        counts.append(quotient)
    return counts


def test_the_kinds_and_which_units_keep_one_step_ratios():
    assert sorted(closedforms._KINDS) == ["a", "b", "c"]
    assert [letter for letter, (unit, _) in UNITS.items() if unit.returns_to_zero] == ["a", "b"]
    assert closedforms._Unit._fields == ("count", "even", "odd")
    assert closedforms._free(3) is closedforms._free(3)


@pytest.mark.parametrize("letter", sorted(UNITS))
def test_each_unit_counts_its_walks(letter):
    unit, expected = UNITS[letter]
    assert [unit.count(m) for m in range(TOP + 1)] == [expected(m) for m in range(TOP + 1)]


@pytest.mark.parametrize("letter", sorted(UNITS))
def test_two_step_ratios_roll_to_the_count(letter):
    unit, _ = UNITS[letter]
    assert _rolled(unit, TOP) == [unit.count(m) for m in range(TOP + 1)]
