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

Every factor is hypergeometric: its EGF coefficient e_k = term k / k!
is the nonzero one before it (two indices back for an excursion or
bridge, one back otherwise) times a quotient of small integers.  _ratios
writes that quotient once per kind, and every route below rolls terms
by it.

A type with one or two factors needs no term table.  One factor's count
is its term n, from exactmath.  Two factors a and b make the single sum

    count(type, n) = sum_k binomial(n, k) a_k b_(n-k) = n! sum_k e_k f_(n-k),

whose terms are hypergeometric in k as well (Petkovsek, Wilf and
Zeilberger, A = B, 1996).  general_count starts from term 0, which is
b_n, and rolls each next term from the one before with one small-integer
multiplication and one exact division by a small integer, stepping by 2
over even k when a factor is an excursion or bridge.  These are the 50
types with at most one constrained dimension or with two constrained
dimensions and no free one, among them both sums of the paper: ae
(Touchard's identity) and ce.

Nine of those two-factor types have counts that are themselves
hypergeometric in each parity class of n: the six constrained pairs aa,
ab, ac, bb, bc and cc, and ae, be and ce, a constrained kind with a pool
of r = 2 free directions.  Each is a group (_GROUPS): its count at m is a
product form from exactmath, and its EGF coefficient g_m = count / m! is
g_(m-2) times a quotient of small integers, one per parity class.
_rolled_sum takes a group as it takes a kind, with a step of 2 over each
parity class whose terms are not all 0, each class seeded by its first
term.  So general_count splits a type of three or more factors into two
factors, at least one a group, and sums their product in one pass of
about n + 1 rolled terms: (pair) single, as ccc = (cc) c; (pair) e^{r x},
as acd = (ac) e^{x}; (pair) (pair), as cccc = (cc) (cc); and
(x e^{2x}) (pair), as abce = (ae) (bc).  That covers 65 of the 75 types
of three or more factors.  e^{x} and one kind make no group, so the ten
types of three constrained kinds and one d (aaad to cccd) still
convolve.  The two-factor types keep their sum over two kinds, so the
closed forms that catalog.verify sets beside them stay independent of
the groups' product forms.

general_sequence with two or more factors, and general_count for those
ten types, convolve term tables rolled by the kinds' ratios:
(a * b)_m = sum_k binomial(m, k) a_k b_(m-k).  The factors are the
dimensions in sorted order, then e^{r x} when r > 0, and _factors walks
them once, kind by kind: it rolls one table per distinct kind and plans
one list of convolutions.  Two dimensions of one kind share that table,
and their product is a square whose terms k and m - k are equal: it sums
the pairs with k < m - k, doubles them and adds the centre term, half
the index pairs of a product of two tables.  The list squares each
repeated kind first and then chains the squares and the remaining
factors left to right.  _convolve fills every convolution in one pass
over m, against one Pascal row per m.  general_sequence runs the whole
list and returns every count 0..n: ccc is C^2 and C^2 C in full; cccc is
C^2 and a square of C^2.  general_count runs all but the last
convolution and evaluates that one at index n alone, against Pascal row
n: aacd is A^2, A^2 C in full and one dot with e^{x} at n.  With s
distinct squares and u squares and single factors before the last, that
is about s (n+1)(n+2)/4 + (u - 1)(n+1)(n+2)/2 + (n + 1) index pairs,
where a sum over step allocations visits C(n + d, d) allocations for d
constrained dimensions.

Every term of length k has O(k) bits, so a rolled sum takes O(n^2) bit
operations, the tables O(h n^2) bits, and an index pair multiplies
O(n)-bit numbers.  Both functions estimate that work before starting and
raise GuardExceeded when it exceeds MAX_FORMULA_WORK.  _check charges
each engine once, in its own units.  A one-factor count is one table,
like its sequence, so both admit c up to n = 92 680.  A two-factor count
is its n // step + 1 rolled terms: ae and aa up to 46 339, ce and cc up
to 32 767.  A count of h >= 3 factors is a table per constrained
dimension plus Pascal row n, h - 2 convolutions in full and one at n
alone; a sequence of h factors is h tables and h - 1 convolutions in
full.  A square is charged as a full product: cccc is refused past
n = 1 124.  A grouped count is still charged as the tables and
convolutions it replaces, so it is overcharged: cccc at 1 124 takes
about 5 ms.
"""

from itertools import groupby, repeat
from operator import add, floordiv, mul
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
from .walks import DimKind, WalkType

# Budget of the master summation, in bit operations (see _check).  Stored
# term tables stay within this many bits (512 MiB), and on a 2-core Xeon
# guest the slowest admitted requests, at the largest n, took about 5 s.
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


def _shift(ks: range, c: int) -> range:
    """The range of k + c for k in ks."""
    return range(ks.start + c, ks.stop + c, ks.step)


class _Group(NamedTuple):
    """Two factors taken as one: a two-factor type whose counts are hypergeometric.

    count(m) is the type's count at length m, a product form from
    exactmath.  even and odd are pairs of functions (num, den) with
    g_(m + 2) / g_m = num(m) / den(m) for even and for odd m, where
    g_m = count(m) / m! is the group's EGF coefficient.  odd is None when
    every odd term is 0, and returns_to_zero then says so, as for a kind.
    """

    count: Callable
    even: tuple
    odd: tuple | None

    @property
    def returns_to_zero(self) -> bool:
        return self.odd is None


# The nine groups, by the letters of their two-factor types.  Each ratio is
# count(m + 2) / ((m + 1)(m + 2) count(m)) of the product form.  ae and ce
# are the paper's two sums, aa is Gouyou-Beauchamps (1986), ab is
# ab_closed (vandermonde_chain proves it), bb and be are classical, and cc
# is Guy, Krattenthaler and Sagan ("Lattice paths, reflections, and
# dimension-changing bijections", 1992).  ac and bc were found by
# elimination (Petkovsek, Wilf and Zeilberger, A = B, 1996), and
# tests/test_pair_groups.py checks both against the master summation to
# m = 1200.  ae, be and ce pair a kind with e^{2x}: they stand for a pool
# of r = 2 free directions only, and one ratio serves both parities.  Like
# _term, each count calls exactmath through this module's names when it
# runs, not through references taken at import.
_AE = (lambda m: 4 * (2 * m + 3) * (2 * m + 5), lambda m: (m + 1) * (m + 2) * (m + 3) * (m + 4))
_BE = (lambda m: 4 * (2 * m + 1) * (2 * m + 3), lambda m: ((m + 1) * (m + 2)) ** 2)
_CE = (lambda m: 4 * (2 * m + 3) * (2 * m + 5), lambda m: (m + 1) * (m + 2) ** 2 * (m + 3))
_GROUPS = {
    "aa": _Group(
        lambda m: 0 if m % 2 else catalan(m // 2) * catalan(m // 2 + 1),
        (lambda m: 16 * (m + 3), lambda m: (m + 2) * (m + 4) * (m + 6)),
        None,
    ),
    "ab": _Group(
        lambda m: 0 if m % 2 else catalan(m // 2) * binomial(m + 1, m // 2),
        (lambda m: 16 * (m + 3), lambda m: (m + 2) * (m + 4) ** 2),
        None,
    ),
    "ac": _Group(
        lambda m: catalan((m + 1) // 2) * binomial(m // 2 * 2 + 1, m // 2),
        (lambda m: 16 * (m + 3), lambda m: (m + 2) * (m + 4) ** 2),
        (lambda m: 16 * (m + 2), lambda m: (m + 1) * (m + 3) * (m + 5)),
    ),
    "bb": _Group(
        lambda m: 0 if m % 2 else central_binomial_even(m // 2) ** 2,
        (lambda m: 16 * (m + 1), lambda m: (m + 2) ** 3),
        None,
    ),
    "bc": _Group(
        lambda m: central_binomial_any(m) ** 2,
        (lambda m: 16 * (m + 1), lambda m: (m + 2) ** 3),
        (lambda m: 16 * (m + 2), lambda m: (m + 1) * (m + 3) ** 2),
    ),
    "cc": _Group(
        lambda m: central_binomial_any(m) * binomial(m + 1, (m + 1) // 2),
        (lambda m: 16 * (m + 3), lambda m: (m + 2) ** 2 * (m + 4)),
        (lambda m: 16 * (m + 2), lambda m: (m + 1) * (m + 3) ** 2),
    ),
    "ae": _Group(lambda m: catalan(m + 1), _AE, _AE),
    "be": _Group(lambda m: central_binomial_even(m), _BE, _BE),
    "ce": _Group(lambda m: binomial(2 * m + 1, m), _CE, _CE),
}


def _step(factor) -> int:
    """The step of a factor's ratios: 2 for a group, an excursion or a bridge, 1 otherwise."""
    return 2 if factor.returns_to_zero or isinstance(factor, _Group) else 1


def _ratios(factor, r: int, ks: range) -> tuple:
    """Iterables (nums, dens) with e_(k + step) / e_k = num / den for k in ks.

    e_k is the factor's EGF coefficient: term k / k! of a kind, or a
    group's count at k over k!.  The step (_step) is 2 for a group, whose
    ks are all of one parity, and for an excursion or bridge, whose odd
    terms are 0.  DimKind.FREE stands for the pool e^{r x} of all r
    unrestricted directions.
    """
    if factor is DimKind.EXCURSION:
        # e_(2i) = 1 / (i! (i + 1)!), so the ratio is 1 / ((i + 1)(i + 2)) with k = 2i.
        return repeat(4, len(ks)), map(mul, _shift(ks, 2), _shift(ks, 4))
    if factor is DimKind.BRIDGE:
        # e_(2i) = 1 / (i! i!), so the ratio is 1 / (i + 1)^2.
        return repeat(4, len(ks)), map(mul, _shift(ks, 2), _shift(ks, 2))
    if factor is DimKind.MEANDER:
        # e_k = 1 / (floor(k / 2)! ceil(k / 2)!), so the ratio is 1 / floor((k + 2) / 2).
        return repeat(1, len(ks)), map(floordiv, _shift(ks, 2), repeat(2))
    if isinstance(factor, _Group):
        num, den = factor.odd if ks.start % 2 else factor.even
        return map(num, ks), map(den, ks)
    # e_k = r^k / k!
    return repeat(r, len(ks)), _shift(ks, 1)


def _roll(term: int, nums, dens):
    """term, then each next term: the one before times num, divided exactly by den."""
    yield term
    for num, den in zip(nums, dens):
        term = term * num // den
        yield term


def _kind_terms(kind: DimKind, r: int, n: int) -> list:
    """Terms 0..n of one factor's EGF, rolled by _ratios times (k + step)! / k!."""
    step = 2 if kind.returns_to_zero else 1
    ks = range(0, n - step + 1, step)
    nums, dens = _ratios(kind, r, ks)
    for i in range(1, step + 1):
        nums = map(mul, nums, _shift(ks, i))
    # With a step of 2 only the even terms are rolled; the odd ones stay 0.
    terms = [0] * (n + 1)
    terms[::step] = _roll(1, nums, dens)
    return terms


def _term(factor, k: int, r: int) -> int:
    """Term k of one factor's EGF, or a group's count at k, from exactmath."""
    if factor is DimKind.EXCURSION:
        return 0 if k % 2 else catalan(k // 2)
    if factor is DimKind.BRIDGE:
        return 0 if k % 2 else central_binomial_even(k // 2)
    if factor is DimKind.MEANDER:
        return central_binomial_any(k)
    if isinstance(factor, _Group):
        return factor.count(k)
    return r**k


def _rolled_sum(a, b, r: int, n: int) -> int:
    """sum_k binomial(n, k) a_k b_(n-k), each nonzero term rolled from the one before.

    a and b are kinds or groups.  Term k is n! e_k f_(n-k) for the EGF
    coefficients e of a and f of b, so one step multiplies it by a's ratio
    at k and divides it by b's ratio at n - k - step: small integers, and
    no binomial to carry.  Kinds are sorted, e^{r x} comes last and a
    group comes first, so a steps by 2 whenever b does, and the sum steps
    by a's step.  With a step of 2 it runs over each parity class of k
    whose terms are not all 0: not odd k when a's odd terms are 0, nor odd
    n - k when b's are.  A class starts from its first term, from
    exactmath: b_n at k = 0 and n a_1 b_(n-1) at k = 1.
    """
    step, b_step = _step(a), _step(b)
    total = 0
    # Odd k has nonzero terms only when a is a group with odd terms.
    for first in (0,) if a.returns_to_zero or step == 1 or not n else (0, 1):
        if (n - first) % 2 and b.returns_to_zero:
            continue
        ks = range(first, n - step + 1, step)
        js = range(n - first - step, -1, -step)  # n - k - step, b's index after the step from k
        nums, dens = _ratios(a, r, ks)
        # f_j / f_(j + step) inverts b's ratio at j, and at j + 1 as well when
        # b steps by 1 and the sum by 2.
        for shift in range(0, step, b_step):
            b_nums, b_dens = _ratios(b, r, _shift(js, shift))
            nums, dens = map(mul, nums, b_dens), map(mul, dens, b_nums)
        term = n * _term(a, 1, r) * _term(b, n - 1, r) if first else _term(b, n, r)
        total += sum(_roll(term, nums, dens))
    return total


def _check(walk_type: WalkType, n: int, tables=0, full=0, at_n=0, rolled=0) -> None:
    """Raise unless n >= 0 and the estimated work fits MAX_FORMULA_WORK.

    With s step directions a term of length n has at most
    size = n * log2(s) bits.  Each table of terms 0..n holds about
    (n + 1) * size / 2 bits and takes as many bit operations to roll.  A
    convolution takes (n+1)(n+2)/2 index pairs in full, for every length
    up to n, and n + 1 at n alone.  An index pair multiplies numbers of
    about size bits: size bit operations while interpreter overhead
    dominates, and size / 2048 times as many above 2048 bits, where the
    multiplications themselves take over.  A rolled term takes one
    multiplication and one exact division by a small integer: 2 * size.
    """
    if n < 0:
        raise ValueError(f"the master summation requires n >= 0, got {n}")
    steps = sum(kind.direction_count for kind in walk_type.dims)
    size = (n + 1) * max(1, (steps - 1).bit_length())
    pairs = full * (n + 1) * (n + 2) // 2 + at_n * (n + 1)
    work = tables * (n + 1) * size // 2 + pairs * size * max(1, size // 2048) + 2 * rolled * size
    if work > MAX_FORMULA_WORK:
        raise GuardExceeded(
            f"the master summation for type {walk_type} up to n = {n} needs about "
            f"2^{work.bit_length() - 1} bit operations, over the guard of "
            f"2^{MAX_FORMULA_WORK.bit_length() - 1}"
        )


def _factor_kinds(walk_type: WalkType) -> tuple:
    """(kinds, r): the constrained kinds, then DimKind.FREE for e^{r x} when r > 0."""
    r = walk_type.free_direction_count
    return walk_type.constrained_kinds + (DimKind.FREE,) * (r > 0), r


def _factors(kinds: tuple, r: int, n: int) -> tuple:
    """(plan, product): convolutions (out, a, a_even, b, b_even) and the table they fill.

    Kinds are sorted with DimKind.FREE last, so the factors of one kind sit
    side by side and share one term table.  Each two of them make one
    square, listed first; a kind that occurs four times is two units of the
    same square.  The chain then multiplies the units left to right, and
    its last out is the product.  A single factor is its own product, with
    an empty plan.
    """
    plan, units = [], []
    for kind, group in groupby(kinds):
        count = len(list(group))
        table, even = _kind_terms(kind, r, n), kind.returns_to_zero
        if count > 1:
            square = [0] * (n + 1)
            plan.append((square, table, even, table, even))
            units += [(square, even)] * (count // 2)
        units += [(table, even)] * (count % 2)
    product, product_even = units[0]
    for table, even in units[1:]:
        out = [0] * (n + 1)
        plan.append((out, product, product_even, table, even))
        product, product_even = out, product_even and even
    return plan, product


def _dot(row: list, a: list, a_even: bool, b: list, b_even: bool, m: int) -> int:
    """sum_k binomial(m, k) a_k b_(m-k), skipping the zero odd terms.

    Factors come even-only first, so b_even implies a_even.  When a is b
    the sum is a square: its terms k and m - k are equal, so it sums the
    pairs with k < m - k once, doubles them, and adds the centre term.
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


def _groups(kinds: tuple, r: int):
    """Two factors for _rolled_sum whose product is that of kinds, or None.

    kinds are three or four factors, sorted with DimKind.FREE (letter e,
    whatever r is) last.  The first two make a group, and the rest is one
    kind, e^{r x} or a second group: (pair) single, (pair) e^{r x} or
    (pair) (pair).  Three constrained kinds and e^{2x} make (x e^{2x})
    (pair).  Three constrained kinds and e^{x} make no two groups, since
    e^{x} with one kind is not hypergeometric: those ten types return None.
    """
    letters = "".join(kind.value for kind in kinds)
    if len(letters) == 3:
        return _GROUPS[letters[:2]], kinds[2]
    if letters[3] != "e":
        return _GROUPS[letters[:2]], _GROUPS[letters[2:]]
    if r == 2:
        return _GROUPS[letters[0] + "e"], _GROUPS[letters[1:3]]
    return None


def general_count(walk_type: WalkType, n: int) -> int:
    """Evaluate the master summation for any type with up to 4 dimensions.

    One factor gives its term n and two factors a rolled sum (_rolled_sum),
    without a term table.  Three or more make two groups (_groups) when
    they can, and their product is again one rolled sum.  The ten types of
    three constrained kinds and one d run the convolution list of
    general_sequence but the last, and evaluate that one at index n alone,
    against Pascal row n.  Raises GuardExceeded, before any work, when the
    estimated work exceeds MAX_FORMULA_WORK; a grouped count is charged as
    the tables and convolutions it replaces.
    """
    factors, r = _factor_kinds(walk_type)
    if len(factors) == 1:
        _check(walk_type, n, tables=1)
        return _term(*factors, n, r)
    if len(factors) == 2:
        # The sum steps by 2 over k when a factor has zero odd terms; kinds
        # are sorted, so an excursion or bridge comes first.
        step = 2 if factors[0].returns_to_zero else 1
        _check(walk_type, n, rolled=n // step + 1)
        return _rolled_sum(*factors, r, n)
    # One table per dimension at most, plus Pascal row n: the convolution's
    # charge, kept for grouped counts too.
    _check(walk_type, n, len(walk_type.constrained_kinds) + 1, full=len(factors) - 2, at_n=1)
    groups = _groups(factors, r)
    if groups:
        return _rolled_sum(*groups, r, n)
    *plan, (_, a, a_even, b, b_even) = _factors(factors, r, n)[0]
    return _dot(_convolve(plan, n), a, a_even, b, b_even, n)


def general_sequence(walk_type: WalkType, n_max: int) -> list:
    """Master-summation counts for every length 0..n_max.

    Runs the convolution list that _factors plans in one pass over the
    lengths: each repeated kind squared first, then the chain over the rest
    and e^{r x}.  A single factor is its own term table, with no list to
    run.  Raises GuardExceeded like general_count.
    """
    kinds, r = _factor_kinds(walk_type)
    _check(walk_type, n_max, len(kinds), full=len(kinds) - 1)
    plan, product = _factors(kinds, r, n_max)
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
    return catalan(n // 2) * binomial(n + 1, n // 2)


def aa_closed(n: int) -> int:
    """Excursion x excursion count for even n: catalan(n/2) * catalan(n/2 + 1).

    Equals the sum form sum_i catalan(i) * catalan(n/2 - i) * binomial(n, 2i).
    """
    _require_even(n, "aa_closed")
    return catalan(n // 2) * catalan(n // 2 + 1)


def quadrant_axis_sum(n: int) -> int:
    """sum_i catalan(i) * binomial(n - 2i, floor((n-2i)/2)) * binomial(n, 2i).

    This is the summation attached to the excursion x meander type; the
    oracle confirms it counts those walks exactly.  The published claim
    that it also equals binomial(2n + 1, n) is wrong: that closed form
    counts the meander x free type instead (see halfplane_closed), and
    the two disagree from n = 1 on.  catalog.verify reports the
    discrepancy as a NOTE.
    """
    if n < 0:
        raise ValueError(f"quadrant_axis_sum requires n >= 0, got {n}")
    return sum(
        catalan(i) * central_binomial_any(n - 2 * i) * binomial(n, 2 * i)
        for i in range(n // 2 + 1)
    )


def halfplane_closed(n: int) -> int:
    """binomial(2n + 1, n): count for the meander x free type."""
    if n < 0:
        raise ValueError(f"halfplane_closed requires n >= 0, got {n}")
    return binomial(2 * n + 1, n)


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
