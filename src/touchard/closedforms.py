"""Summation formulas and closed forms for walk counts.

The master summation distributes n steps among the constrained
dimensions and the pool of r unrestricted directions.  Each dimension
contributes an exponential generating function (EGF) whose k-th term
counts its walks of k steps:

    excursion   catalan(k/2) for even k, 0 for odd k
    bridge      binomial(k, k/2) for even k, 0 for odd k
    meander     binomial(k, floor(k/2))
    r free      r^k, the EGF e^{r x}

and a walk of the type interleaves one walk per factor, so

    count(type, n) = n! [x^n] e^{r x} * prod over constrained dims F_kind(x).

Every factor is hypergeometric: its EGF coefficient e_m = term m / m!
is e_(m-2) times a ratio of small integers, one per parity class of m.
Each ratio is data, kept in the factor's unit record (_Unit): a
constant times linear factors c m + o over a constant times linear
factors, and over one parity class each factor runs through a range.
An excursion's is 4 / ((m + 2)(m + 4)) and a bridge's 4 / (m + 2)^2,
both for even m alone; a meander's 4 / (m + 2)^2 for even m and
4 / ((m + 1)(m + 3)) for odd m; and e^{r x}'s r^2 / ((m + 1)(m + 2))
for both.  Every route below rolls terms by these ratios.

A type with one or two factors needs no term table.  One factor's count
is its term n, from exactmath.  Two factors a and b make the single sum

    count(type, n) = sum_k binomial(n, k) a_k b_(n-k) = n! sum_k e_k f_(n-k),

whose terms are hypergeometric in k as well (Petkovsek, Wilf and
Zeilberger, A = B, 1996).  general_count sums each parity class of k
whose terms are not all 0, from its first term (b_n at k = 0), rolling
term k + 2 from term k: a's ratio at k times b's inverted at n - k - 2.
Two factors whose terms are never 0 (a meander and a meander or e^{r x})
make both classes, which together roll all n + 1 terms.  _pair plans the
steps once per type (_plan): the constants fold into one fraction
reduced by gcd, and each side's linear factors become ranges, so a term
costs one multiplication by a small integer, one exact division by a
small integer and one addition.  These are the 50 types with at most
one constrained dimension or with two constrained dimensions and no
free one, among them both sums of the paper: ae (Touchard's identity)
and ce.

Nine of those two-factor types have counts that are themselves
hypergeometric in each parity class of n: the six constrained pairs aa,
ab, ac, bb, bc and cc, and ae, be and ce, a constrained kind with a pool
of r = 2 free directions.  Each is a group (_GROUPS): its count at m is a
product form from exactmath, and its EGF coefficient g_m = count / m! is
g_(m-2) times a quotient of small integers, one per parity class.

_plan splits each type once into units, and both entry points compute
with them.  A unit is one record (_Unit), whether it stands for a kind
(_KINDS), for e^{r x} (_free) or for a group (_GROUPS): its count at m
and its two-step ratios.  So every route below takes a unit without
asking what it stands for.
One or two factors are their own units.  Three or four make two units,
at least one a group: (pair) single, as ccc = (cc) c; (pair) e^{r x}, as
acd = (ac) e^{x}; (pair) (pair), as cccc = (cc) (cc); and (x e^{2x})
(pair), as abce = (ae) (bc).  e^{x} and one kind make no group, so the
ten types of three constrained kinds and one d (aaad to cccd) have three
units: a group, a kind and e^{x}, as aacd = (aa) c e^{x}.  The
two-factor types keep their sum over two kinds, so the closed forms that
catalog.verify sets beside them stay independent of the groups' product
forms.

general_count takes one unit's term n and sums two units in one rolled
pass of about n + 1 terms, so only those ten types and general_sequence
convolve term tables, (a * b)_m = sum_k binomial(m, k) a_k b_(m-k).
_factors rolls one table per distinct unit, each parity class by the
unit's ratio as _kind_plan plans it once, and chains the units left to
right, even-only ones first.  Two equal units share one table, and their
product is a square whose terms k and m - k are equal: it sums the pairs
with k < m - k, doubles them and adds the centre term, half the index
pairs of a product of two tables.  _convolve fills every convolution in
one pass over m, against one Pascal row per m.  general_sequence runs
the whole chain and returns every count 0..n: ccc is (cc) c, one
convolution; cccc is one square of the cc table; aabe is (ab) (ae), ab
first since its odd terms are 0.  general_count for the ten three-unit
types convolves the first two units in full and evaluates their product
with e^{x} at index n alone, against Pascal row n.  So u units take
u - 1 convolutions of (n+1)(n+2)/2 index pairs each, half that for a
square, and a three-unit count one of them and n + 1 pairs, where a sum
over step allocations visits C(n + d, d) allocations for d constrained
dimensions.

Every term of length k has O(k) bits, so a rolled sum takes O(n^2) bit
operations, the tables O(h n^2) bits, and an index pair multiplies
O(n)-bit numbers.  _work estimates the work of the unit plan each
function runs, and it rises with n, so whether n is admitted depends
only on the type, MAX_FORMULA_WORK and one threshold: the largest n
whose work fits.  _plan finds both thresholds of a type once per
budget, by bisection (_largest), and keeps them beside its units.  Each
call compares n with its threshold, and past it raises GuardExceeded
before any work, with the estimate in the message (_check).

A one-unit count is one table, like its sequence, so both admit c up to
n = 92 680.  A two-unit count is its n // 2 + 1 rolled terms when a
unit's odd terms are 0 and n + 1 otherwise: ae and aa up to 46 339, ce
and cc up to 32 767, and the grouped types of three or four factors,
whose terms have more bits, up to 37 835 (aaaa) or 26 753 (cccc).  A
three-unit count is three tables plus Pascal row n, one convolution in
full and one at n alone, so aaad to cccd are admitted up to 1 364.  A
sequence is a table per distinct unit and a convolution in full per
unit after the first, a square charged as a full product: cccc up to
1 364, aaad up to 1 125.
"""

from functools import cache
from itertools import repeat
from math import gcd
from operator import add, mul
from typing import Callable, NamedTuple

# All five names stay module attributes because touchbench/tracer.py wraps
# them here by name.
from .exactmath import (
    binomial,
    catalan,
    central_binomial_any,
    central_binomial_even,
    multinomial,
)
from .oracle import GuardExceeded
from .walks import WalkType

# Budget of the master summation, in bit operations (see _work).  Stored
# term tables stay within this many bits (512 MiB).  At the largest n
# admitted, the slowest count (accd at n = 1 364) took 1.6 to 2.4 s and the
# slowest sequences (ccce and bcee at 1 364, cdd at 1 623) 2.0 to 3.1 s, at
# 16 MiB peak RSS: best of 3 on a 2-core Xeon guest whose speed drifts.
MAX_FORMULA_WORK = 2**32


def touchard_terms(n: int) -> list:
    """Addends (i, catalan(i) * 2^(n-2i) * binomial(n, 2i)) of Touchard's identity.

    The terms sum to catalan(n + 1); every i in 0..floor(n/2) contributes
    a nonzero addend.
    """
    if n < 0:
        raise ValueError(f"touchard_terms requires n >= 0, got {n}")
    return [
        (i, catalan(i) * 2 ** (n - 2 * i) * binomial(n, 2 * i))
        for i in range(n // 2 + 1)
    ]


class _Poly:
    """One side of a ratio: const times the linear factors c m + o, one (c, o) each."""

    def __init__(self, const: int, factors: tuple = ()) -> None:
        self.const, self.factors = const, factors

    def __call__(self, m: int) -> int:
        value = self.const
        for c, o in self.factors:
            value *= c * m + o
        return value


def _m(*offsets) -> tuple:
    """The factors m + o, one for each offset o."""
    return tuple((1, o) for o in offsets)


class _Unit(NamedTuple):
    """One unit of the master summation: a kind, e^{r x} or a group of two factors.

    count(m) is the unit's walks of m steps: a kind's term m or a group's
    product form, from exactmath, or r^m.  even and odd are ratios
    (num, den) of _Polys with u_(m + 2) / u_m = num(m) / den(m) for even
    and for odd m, where u_m = count(m) / m! is the unit's EGF
    coefficient.  odd is None when every odd term is 0.  So an excursion
    has even 4 / ((m + 2)(m + 4)) and a bridge 4 / (m + 2)^2, odd None; a
    meander even 4 / (m + 2)^2 and odd 4 / ((m + 1)(m + 3)); and e^{r x}
    r^2 / ((m + 1)(m + 2)) for both.
    """

    count: Callable
    even: tuple
    odd: tuple | None

    @property
    def returns_to_zero(self) -> bool:
        """Every odd count is 0, as for an excursion or a bridge."""
        return self.odd is None


# The constrained kinds, by letter, each with u_(m + 2) / u_m.  An excursion
# has u_(2i) = 1 / (i! (i + 1)!), so 4 / ((m + 2)(m + 4)), and a bridge
# 1 / (i! i!), so 4 / (m + 2)^2; their odd terms are 0, so they keep the
# ratio for even m alone.  A meander has u_m = 1 / (floor(m / 2)! ceil(m / 2)!),
# never 0: 4 / (m + 2)^2 for even m and 4 / ((m + 1)(m + 3)) for odd m.  Each
# count, like each group's below, calls exactmath through this module's names
# when it runs, not through references taken at import.
_KINDS = {
    "a": _Unit(lambda m: 0 if m % 2 else catalan(m // 2), (_Poly(4), _Poly(1, _m(2, 4))), None),
    "b": _Unit(
        lambda m: 0 if m % 2 else central_binomial_even(m // 2),
        (_Poly(4), _Poly(1, _m(2, 2))),
        None,
    ),
    "c": _Unit(
        lambda m: central_binomial_any(m),
        (_Poly(4), _Poly(1, _m(2, 2))),
        (_Poly(4), _Poly(1, _m(1, 3))),
    ),
}


@cache
def _free(r: int) -> _Unit:
    """e^{r x}, the pool of all r unrestricted directions: r^m walks of m steps.

    u_m = r^m / m!, so u_(m + 2) / u_m = r^2 / ((m + 1)(m + 2)) for both parities.
    """
    ratio = (_Poly(r * r), _Poly(1, _m(1, 2)))
    return _Unit(lambda m: r**m, ratio, ratio)


# The nine groups, by the letters of their two-factor types.  Each ratio is
# count(m + 2) / ((m + 1)(m + 2) count(m)) of the product form.  ae and ce
# are the paper's two sums, aa is Gouyou-Beauchamps (1986), ab is
# ab_closed (vandermonde_chain proves it), bb and be are classical, and cc
# is Guy, Krattenthaler and Sagan ("Lattice paths, reflections, and
# dimension-changing bijections", 1992).  ac and bc were found by
# elimination (Petkovsek, Wilf and Zeilberger, A = B, 1996), and
# tests/test_pair_groups.py checks both against the master summation to
# m = 1200.  ae, be and ce pair a kind with e^{2x}: they stand for a pool
# of r = 2 free directions only, and one ratio serves both parities.
_AE = (_Poly(4, ((2, 3), (2, 5))), _Poly(1, _m(1, 2, 3, 4)))
_BE = (_Poly(4, ((2, 1), (2, 3))), _Poly(1, _m(1, 1, 2, 2)))
_CE = (_Poly(4, ((2, 3), (2, 5))), _Poly(1, _m(1, 2, 2, 3)))
_GROUPS = {
    "aa": _Unit(
        lambda m: 0 if m % 2 else catalan(m // 2) * catalan(m // 2 + 1),
        (_Poly(16, _m(3)), _Poly(1, _m(2, 4, 6))),
        None,
    ),
    "ab": _Unit(
        lambda m: 0 if m % 2 else catalan(m // 2) * binomial(m + 1, m // 2),
        (_Poly(16, _m(3)), _Poly(1, _m(2, 4, 4))),
        None,
    ),
    "ac": _Unit(
        lambda m: catalan((m + 1) // 2) * binomial(m // 2 * 2 + 1, m // 2),
        (_Poly(16, _m(3)), _Poly(1, _m(2, 4, 4))),
        (_Poly(16, _m(2)), _Poly(1, _m(1, 3, 5))),
    ),
    "bb": _Unit(
        lambda m: 0 if m % 2 else central_binomial_even(m // 2) ** 2,
        (_Poly(16, _m(1)), _Poly(1, _m(2, 2, 2))),
        None,
    ),
    "bc": _Unit(
        lambda m: central_binomial_any(m) ** 2,
        (_Poly(16, _m(1)), _Poly(1, _m(2, 2, 2))),
        (_Poly(16, _m(2)), _Poly(1, _m(1, 3, 3))),
    ),
    "cc": _Unit(
        lambda m: central_binomial_any(m) * binomial(m + 1, (m + 1) // 2),
        (_Poly(16, _m(3)), _Poly(1, _m(2, 2, 4))),
        (_Poly(16, _m(2)), _Poly(1, _m(1, 3, 3))),
    ),
    "ae": _Unit(lambda m: catalan(m + 1), _AE, _AE),
    "be": _Unit(lambda m: central_binomial_even(m), _BE, _BE),
    "ce": _Unit(lambda m: binomial(2 * m + 1, m), _CE, _CE),
}

def _side(const: int, k_factors: tuple, j_factors: tuple, first: int, odd_n: int):
    """(const, lines): one side of a class's step, const times a h + b + c i per line (a, b, c).

    h is n // 2.  Step i of the class that starts at first takes k = first + 2i
    to k + 2, and j = n - k - 2 = 2h + odd_n - first - 2 - 2i.  So a factor
    c' k + o is the line (0, c' first + o, 2 c'), and c' j + o the line
    (2 c', c' (odd_n - first - 2) + o, -2 c').  Each line is divided by the
    gcd of its coefficients, which moves into const, so the factors stay
    small.
    """
    lines = []
    for a, b, c in [(0, c * first + o, 2 * c) for c, o in k_factors] + [
        (2 * c, c * (odd_n - first - 2) + o, -2 * c) for c, o in j_factors
    ]:
        g = gcd(a, b, c)
        const *= g
        lines.append((a // g, b // g, c // g))
    return const, tuple(lines)


def _reduced(p: tuple, q: tuple) -> tuple:
    """Sides p and q of one step, their constants divided by their gcd."""
    g = gcd(p[0], q[0])
    return (p[0] // g, p[1]), (q[0] // g, q[1])


def _products(side: tuple, h: int, count: int):
    """The side's values at h for steps 0..count - 1: const times the product of its lines.

    Each line becomes a range; const scales the first, and with no line
    every step is const.
    """
    const, lines = side
    if not lines:
        return repeat(const, count)
    (a, b, c), *rest = lines
    start, c = const * (a * h + b), const * c
    product = range(start, start + c * count, c)
    for a, b, c in rest:
        start = a * h + b
        product = map(mul, product, range(start, start + c * count, c))
    return product


def _roll(term: int, nums, dens):
    """term, then each next term: the one before times num, divided exactly by den."""
    yield term
    for num, den in zip(nums, dens):
        term = term * num // den
        yield term


@cache
def _kind_plan(unit: _Unit) -> tuple:
    """The classes (first, term first, num side, den side) that roll one unit's terms.

    Term m is the unit's count, m! u_m, so term m + 2 is term m times
    (m + 1)(m + 2) num(m) / den(m) of its two-step ratio, less the factors
    that num and den share.  Each class starts from its first term
    (_term); a unit whose odd terms are 0 has no odd class.
    """
    classes = []
    for first, ratio in enumerate((unit.even, unit.odd)):
        if ratio:
            num, den = ratio
            nums, dens = [*num.factors, *_m(1, 2)], list(den.factors)
            for factor in [*nums]:
                if factor in dens:
                    nums.remove(factor)
                    dens.remove(factor)
            p, q = _side(num.const, nums, (), first, 0), _side(den.const, dens, (), first, 0)
            classes.append((first, _term(unit, first), *_reduced(p, q)))
    return tuple(classes)


def _kind_terms(unit: _Unit, n: int) -> list:
    """Terms 0..n of one unit, each parity class rolled by its plan (_kind_plan)."""
    terms = [0] * (n + 1)
    for first, term, num, den in _kind_plan(unit):
        if first > n:
            break
        count = (n - first) // 2
        terms[first::2] = _roll(term, _products(num, 0, count), _products(den, 0, count))
    return terms


def _term(unit: _Unit, k: int) -> int:
    """Term k of one unit: its count at k, from exactmath."""
    return unit.count(k)


def _step(a_ratio: tuple, b_ratio: tuple, first: int, odd_n: int) -> tuple:
    """Sides (p, q) of a step from k to k + 2: a's ratio at k, b's inverted at n - k - 2."""
    (a_num, a_den), (b_num, b_den) = a_ratio, b_ratio
    p = _side(a_num.const * b_den.const, a_num.factors, b_den.factors, first, odd_n)
    q = _side(a_den.const * b_num.const, a_den.factors, b_num.factors, first, odd_n)
    return _reduced(p, q)


def _pair(a: _Unit, b: _Unit) -> tuple:
    """(a, b, classes): the plan of the rolled sum of a and b (_rolled_sum).

    classes holds, for even and for odd n, the classes (first, p, q): the
    terms k = first, first + 2, ... whose a_k and b_(n-k) are not all 0,
    and the step (p, q) from k to k + 2, a's ratio at k times b's
    inverted at j = n - k - 2, its constants folded into one fraction
    reduced by gcd.  When no term of a or b is 0 (a meander or e^{r x}
    each) both classes are planned, and together they roll all n + 1 terms.
    """
    classes = ([], [])
    for odd_n in (0, 1):
        for first in (0, 1):
            a_ratio = a.odd if first else a.even
            b_ratio = b.odd if (odd_n - first) % 2 else b.even
            if a_ratio and b_ratio:
                classes[odd_n].append((first, *_step(a_ratio, b_ratio, first, odd_n)))
    return a, b, classes


def _rolled_sum(pair: tuple, n: int) -> int:
    """sum_k binomial(n, k) a_k b_(n-k) of a pair (_pair), each term rolled from the one before.

    a and b are units.  Term k is n! e_k f_(n-k) for the EGF
    coefficients e of a and f of b, so the sum runs over each class of k
    that _pair planned, two steps at a time: one multiplication by p, one
    exact division by q, both small integers read off ranges, and one
    addition per term.  A class starts from its first term, from
    exactmath: b_n at k = 0 and n a_1 b_(n-1) at k = 1.
    """
    a, b, classes = pair
    h, total = n // 2, 0
    for first, p_side, q_side in classes[n % 2]:
        if first > n:
            break
        term = n * _term(a, 1) * _term(b, n - 1) if first else _term(b, n)
        total += term
        count = (n - first) // 2
        for p, q in zip(_products(p_side, h, count), _products(q_side, h, count)):
            term = term * p // q
            total += term
    return total


def _work(n: int, bits: int, tables: int, full: int, at_n: int, step: int) -> int:
    """Estimated bit operations of a charge (bits, tables, full, at_n, step) at n.

    With s step directions a term of length n has at most
    size = n * log2(s) bits, bits = log2(s) rounded up (_plan).  Each
    table of terms 0..n holds about (n + 1) * size / 2 bits and takes as
    many bit operations to roll.  A convolution takes (n+1)(n+2)/2 index
    pairs in full, for every length up to n, and n + 1 at n alone.  An
    index pair multiplies numbers of about size bits: size bit operations
    while interpreter overhead dominates, and size / 2048 times as many
    above 2048 bits, where the multiplications themselves take over.  A
    rolled sum has n // step + 1 terms, step 2 when a unit's odd terms
    are 0 and 1 otherwise, each one multiplication and one exact division
    by a small integer: 2 * size; step 0 rolls none.  Every part rises
    with n, so the work does too.
    """
    size = (n + 1) * bits
    pairs = full * (n + 1) * (n + 2) // 2 + at_n * (n + 1)
    rolled = n // step + 1 if step else 0
    return tables * (n + 1) * size // 2 + pairs * size * max(1, size // 2048) + 2 * rolled * size


def _largest(charge: tuple, budget: int) -> int:
    """The largest n whose work (_work) fits budget, or -1, by bisection: work rises with n."""
    admitted, refused = -1, 1
    while _work(refused, *charge) <= budget:
        admitted, refused = refused, 2 * refused
    while refused - admitted > 1:
        n = (admitted + refused) // 2
        if _work(n, *charge) <= budget:
            admitted = n
        else:
            refused = n
    return admitted


def _check(walk_type: WalkType, n: int, *charge) -> None:
    """Raise unless n >= 0 and the work of charge at n (_work) fits MAX_FORMULA_WORK.

    The entry points admit n by comparing it with the largest n their
    plan admits (_plan), and call this only to raise the refusal.
    """
    if n < 0:
        raise ValueError(f"the master summation requires n >= 0, got {n}")
    work = _work(n, *charge)
    if work > MAX_FORMULA_WORK:
        raise GuardExceeded(
            f"the master summation for type {walk_type} up to n = {n} needs about "
            f"2^{work.bit_length() - 1} bit operations, over the guard of "
            f"2^{MAX_FORMULA_WORK.bit_length() - 1}"
        )


def _factors(units: tuple, n: int) -> tuple:
    """(plan, product): convolutions (out, a, a_even, b, b_even) and the table they fill.

    Each distinct unit rolls one term table (_kind_terms), so two equal
    units share it and make a square.  The plan chains the units left to
    right, even-only ones first as _dot requires, and its last out is the
    product.  A single unit is its own product, with an empty plan.
    """
    tables = {unit: _kind_terms(unit, n) for unit in dict.fromkeys(units)}
    first, *rest = sorted(units, key=lambda unit: not unit.returns_to_zero)
    product, product_even, plan = tables[first], first.returns_to_zero, []
    for unit in rest:
        out = [0] * (n + 1)
        plan.append((out, product, product_even, tables[unit], unit.returns_to_zero))
        product, product_even = out, product_even and unit.returns_to_zero
    return plan, product


def _dot(row: list, a: list, a_even: bool, b: list, b_even: bool, m: int) -> int:
    """sum_k binomial(m, k) a_k b_(m-k), skipping the zero odd terms.

    Units come even-only first (_factors), so b_even implies a_even.  When
    a is b the sum is a square: its terms k and m - k are equal, so it sums
    the pairs with k < m - k once, doubles them, and adds the centre term.
    """
    if b_even and m % 2:
        return 0
    step = 2 if a_even else 1
    stop = (m + 1) // 2 if a is b else m + 1
    # map stops at the shortest operand, so b's reversed slice needs no end.
    total = sum(map(int.__mul__, map(int.__mul__, row[:stop:step], a[:stop:step]), b[m::-step]))
    if a is b:
        total = 2 * total + (0 if m % 2 else row[m // 2] * a[m // 2] ** 2)
    return total


def _convolve(convolutions: list, n: int) -> list:
    """Fill out[m] of every convolution for m = 0..n; return Pascal row n.

    A convolution at m reads indices up to m of its operands, each filled
    earlier in the list or in the pass, so one pass over m serves them
    all against one Pascal row per m.
    """
    row = [1]
    for m in range(n + 1):
        if m:
            row = [1, *map(add, row, row[1:]), 1]
        for out, a, a_even, b, b_even in convolutions:
            out[m] = _dot(row, a, a_even, b, b_even, m)
    return row


@cache
def _plan(walk_type: WalkType, budget: int) -> tuple:
    """(units, pair, count, sequence): what the entry points need of a type under budget.

    units are what both entry points compute with.  One or two factors,
    the constrained kinds (_KINDS) and e^{r x} (_free) when r > 0, are
    their own units.  Of three or four, the first two make a group
    (_GROUPS), and the rest is one kind, e^{r x} or a second group: (pair)
    single, (pair) e^{r x} or (pair) (pair).  Three constrained kinds and
    e^{2x} make (x e^{2x}) (pair).  e^{x} with one kind is not
    hypergeometric, so three constrained kinds and e^{x} make three units,
    (pair) single e^{x}.  pair is the rolled sum of two units (_pair), or
    None.

    count and sequence are (largest, charge) for general_count and
    general_sequence: the charge (_work) of the unit plan each runs, and
    the largest n whose work fits budget (_largest), or -1.  The charge
    starts with bits, of one step's choice among the type's directions.
    So an entry point admits n by one comparison, and catalog reads the
    longest admitted sequence here.  Each of the 125 types is planned on
    first use under each budget, which tests lower at run time.
    """
    r = walk_type.free_direction_count
    kinds = "".join(kind.value for kind in walk_type.constrained_kinds)
    units = [_KINDS[kind] for kind in kinds] + [_free(r)] * (r > 0)
    if len(units) == 4 and not r:
        units = [_GROUPS[kinds[:2]], _GROUPS[kinds[2:]]]
    elif len(units) == 4 and r == 2:
        units = [_GROUPS[kinds[0] + "e"], _GROUPS[kinds[1:]]]
    elif len(units) > 2:
        units[:2] = [_GROUPS[kinds[:2]]]
    bits = max(1, (walk_type.step_count - 1).bit_length())
    pair = _pair(*units) if len(units) == 2 else None
    if pair:
        # n // 2 + 1 rolled terms when a unit's odd terms are 0, n + 1 otherwise.
        a, b = units
        count = (bits, 0, 0, 0, 2 if a.returns_to_zero or b.returns_to_zero else 1)
    elif len(units) == 1:
        count = (bits, 1, 0, 0, 0)
    else:
        # Three tables and Pascal row n.
        count = (bits, 4, 1, 1, 0)
    # A table per distinct unit and a convolution in full per unit after the first.
    sequence = (bits, len(set(units)), len(units) - 1, 0, 0)
    return (
        tuple(units),
        pair,
        (_largest(count, budget), count),
        (_largest(sequence, budget), sequence),
    )


def general_count(walk_type: WalkType, n: int) -> int:
    """Evaluate the master summation for any type with up to 4 dimensions.

    Computes with the type's units (_plan): one unit gives its term n and
    two a rolled sum (_rolled_sum), without a term table.  Three units, a
    group, a kind and e^{x}, convolve the first two tables in full and
    evaluate the product with e^{x} at index n alone, against Pascal row
    n.  Raises GuardExceeded, before any work, when n is past the largest
    n the plan admits under MAX_FORMULA_WORK (_check).
    """
    units, pair, (largest, charge), _ = _plan(walk_type, MAX_FORMULA_WORK)
    if not 0 <= n <= largest:
        _check(walk_type, n, *charge)
    if pair:
        return _rolled_sum(pair, n)
    if len(units) == 1:
        return _term(*units, n)
    *plan, (_, a, a_even, b, b_even) = _factors(units, n)[0]
    return _dot(_convolve(plan, n), a, a_even, b, b_even, n)


def general_sequence(walk_type: WalkType, n_max: int) -> list:
    """Master-summation counts for every length 0..n_max.

    Rolls one term table per distinct unit of the type (_plan) and chains
    the units in one pass over the lengths (_factors, _convolve).  A
    single unit is its own table, with nothing to convolve.  Raises
    GuardExceeded like general_count.
    """
    units, _, _, (largest, charge) = _plan(walk_type, MAX_FORMULA_WORK)
    if not 0 <= n_max <= largest:
        _check(walk_type, n_max, *charge)
    plan, product = _factors(units, n_max)
    if plan:
        _convolve(plan, n_max)
    return product


def _require_even(n: int, what: str) -> None:
    if n < 0 or n % 2:
        raise ValueError(f"{what} is defined for even n >= 0, got {n}")


def ab_closed(n: int) -> int:
    """Excursion x bridge count for even n: catalan(n/2) * binomial(n+1, n/2).

    Equals the sum form sum_i catalan(n/2 - i) * binomial(n, 2i) * binomial(2i, i).
    Odd lengths admit no returning walk; callers treat them as 0.
    """
    _require_even(n, "ab_closed")
    return _GROUPS["ab"].count(n)


def aa_closed(n: int) -> int:
    """Excursion x excursion count for even n: catalan(n/2) * catalan(n/2 + 1).

    Equals the sum form sum_i catalan(i) * catalan(n/2 - i) * binomial(n, 2i).
    """
    _require_even(n, "aa_closed")
    return _GROUPS["aa"].count(n)


def quadrant_axis_sum(n: int) -> int:
    """sum_i catalan(i) * binomial(n - 2i, floor((n-2i)/2)) * binomial(n, 2i).

    This is the summation attached to the excursion x meander type; the
    oracle confirms it counts those walks exactly.  It is evaluated as the
    ac group's product form, catalan(ceil(n/2)) * binomial(2 floor(n/2) + 1,
    floor(n/2)), not as the sum the master summation computes.  The
    published claim that it also equals binomial(2n + 1, n) is wrong:
    that closed form counts the meander x free type instead (see
    halfplane_closed), and the two disagree from n = 1 on.  catalog.verify
    reports the discrepancy as a NOTE.
    """
    if n < 0:
        raise ValueError(f"quadrant_axis_sum requires n >= 0, got {n}")
    return _GROUPS["ac"].count(n)


def halfplane_closed(n: int) -> int:
    """binomial(2n + 1, n): count for the meander x free type."""
    if n < 0:
        raise ValueError(f"halfplane_closed requires n >= 0, got {n}")
    return _GROUPS["ce"].count(n)


def ace3d_count(n: int) -> int:
    """Double sum for the excursion x meander x free type in three dimensions.

    sum_{i,j} 2^(n-2i-j) * catalan(i) * binomial(j, floor(j/2))
              * multinomial(n; 2i, j, n-2i-j)
    """
    if n < 0:
        raise ValueError(f"ace3d_count requires n >= 0, got {n}")
    total = 0
    for i in range(n // 2 + 1):
        for j in range(n - 2 * i + 1):
            u = n - 2 * i - j
            total += (
                2**u
                * catalan(i)
                * central_binomial_any(j)
                * multinomial(n, [2 * i, j, u])
            )
    return total


def vandermonde_chain(n: int) -> list:
    """Six equivalent rewritings of the excursion x bridge sum, evaluated exactly.

    The chain starts from sum_i catalan(n/2 - i) * binomial(n, 2i) * binomial(2i, i)
    and ends at the closed product catalan(n/2) * binomial(n+1, n/2).  Some
    intermediate addends are not individually integral, so every expression is
    evaluated in exact rational arithmetic and integrality of the total is
    asserted before returning.
    """
    from fractions import Fraction  # loaded here so that importing the module stays cheap

    _require_even(n, "vandermonde_chain")
    h = n // 2
    rng = range(h + 1)
    expressions = [
        sum(
            Fraction(binomial(n - 2 * i, h - i) * binomial(n, 2 * i) * binomial(2 * i, i), h - i + 1)
            for i in rng
        ),
        sum(
            Fraction(binomial(n - 2 * i, h - i) * binomial(n, i) * binomial(n - i, i), h - i + 1)
            for i in rng
        ),
        sum(
            Fraction(binomial(n, i) * binomial(n - i, h - i) * binomial(h, i), h - i + 1)
            for i in rng
        ),
        sum(Fraction(binomial(n, h) * binomial(h, i) ** 2, h - i + 1) for i in rng),
        Fraction(binomial(n, h), h + 1)
        * sum(binomial(h, i) * binomial(h + 1, h - i) for i in rng),
        Fraction(binomial(n, h) * binomial(n + 1, h), h + 1),
    ]
    values = []
    for expr in expressions:
        frac = Fraction(expr)
        assert frac.denominator == 1, "each chain expression sums to an integer"
        values.append(int(frac))
    return values
