"""Independent counting oracles: brute-force enumeration and memoized DP.

These are the ground truth the closed forms are checked against, so the
two routes share no counting logic: enumeration filters every candidate
step string, while the DP recurses over (steps remaining, heights of the
constrained dimensions).  The DP memo keys on canonical heights: bridge
heights reflected to |h| and the heights of same-kind dimensions sorted,
so each orbit of interchangeable heights is one memo state.  The DP prunes
dead states by reachability alone: a state is dead when the returning
heights (excursions and bridges) sum to more than the steps left, and,
for a type with no free direction and no meander, when the steps left and
that sum differ in parity.  Dead states count 0 and are never memoized.
"""

import itertools
from typing import NamedTuple

from .walks import DimKind, Walk, WalkType, step_alphabet


class ResourceLimits(NamedTuple):
    """Guards against accidentally oversized searches.

    A DP memo state takes about 200 to 300 bytes (299 B of peak RSS per
    state for aa at n = 900), so the default DP guard is about 1.5 GiB.
    """

    max_brute_candidates: int = 10_000_000
    max_dp_states: int = 5_000_000


DEFAULT_LIMITS = ResourceLimits()


class GuardExceeded(RuntimeError):
    """A requested computation exceeds the configured resource guard."""


def check_brute_guard(base: int, n: int, limits: ResourceLimits | None, what: str) -> None:
    """Refuse a scan of base**n candidate strings of n letters each.

    The scan is refused when the candidate count or n itself exceeds
    limits.max_brute_candidates.  For base >= 2 the count exceeds the
    guard once 2**n does, so a long n is refused without taking the
    power, and the message shows the count in full only for n <= 64.
    """
    limit = (limits or DEFAULT_LIMITS).max_brute_candidates
    if n <= limit and (base == 1 or n < limit.bit_length()) and base**n <= limit:
        return
    shown = f" = {base**n}" if n <= 64 else ""
    raise GuardExceeded(
        f"{what} scans {base}^{n}{shown} candidate strings of {n} letters, "
        f"over the guard of {limit}"
    )


def enumerate_walks(walk_type: WalkType, n: int, limits: ResourceLimits | None = None) -> list:
    """All valid walks of the given length, in lexicographic token order.

    Scans every candidate step string, so the candidate count
    len(alphabet) ** n and n must stay within limits.max_brute_candidates.
    """
    if n < 0:
        raise ValueError(f"walk length must be >= 0, got {n}")
    alphabet = sorted(step_alphabet(walk_type))
    check_brute_guard(len(alphabet), n, limits, f"enumerating type {walk_type} at length {n}")
    kinds = walk_type.dims
    ndims = len(kinds)
    nonneg = tuple(kind.stays_nonnegative for kind in kinds)
    to_zero = tuple(kind.returns_to_zero for kind in kinds)
    directions = [direction for _, direction in alphabet]
    walks = []
    for combo in itertools.product(directions, repeat=n):
        heights = [0] * ndims
        ok = True
        for dim, sign in combo:
            h = heights[dim] + sign
            heights[dim] = h
            if h < 0 and nonneg[dim]:
                ok = False
                break
        if ok:
            for dim in range(ndims):
                if to_zero[dim] and heights[dim]:
                    ok = False
                    break
        if ok:
            walks.append(Walk(combo))
    return walks


def count_dp(walk_type: WalkType, n: int, limits: ResourceLimits | None = None) -> int:
    """Exact count of valid length-n walks via memoized recursion."""
    memo = {}
    return _completions(walk_type, n, memo, limits or DEFAULT_LIMITS)


def sequence_dp(walk_type: WalkType, n_max: int, limits: ResourceLimits | None = None) -> list:
    """Counts for every length 0..n_max, sharing one memo table.

    The memo is keyed on (steps remaining, heights), which is
    independent of the total length, so longer prefixes reuse shorter
    ones' completion counts.  Dead states are pruned as in _completions;
    for a parity-locked type (only excursions and bridges) every odd
    length counts 0 and adds no memo state.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    memo = {}
    limits = limits or DEFAULT_LIMITS
    return [_completions(walk_type, n, memo, limits) for n in range(n_max + 1)]


def _completions(walk_type: WalkType, n: int, memo: dict, limits: ResourceLimits) -> int:
    """Walk completions of length n starting from the origin.

    The memo keys on canonical heights, one state per orbit of the
    symmetries that preserve the count.  A bridge is symmetric under
    h -> -h, so its height is stored as |h|; then every constrained
    height is >= 0 and may step down iff it is > 0, and a bridge at 0
    steps up in two ways.  Dimensions of the same kind are
    interchangeable, so the heights within each run of equal kinds
    (contiguous, as WalkType sorts its dims) are kept in ascending
    order.  A block of m equal heights in a run expands one move each
    way, weighted by m: the up move raises the block's last height and
    the down move lowers its first, which keeps the run sorted.

    rec carries need, the sum of the returning heights (excursions and
    bridges, bridges as |h|); each move changes it by +1 or -1, or by 0 on
    a meander or a free direction.  A returning height h needs at least h
    steps to reach 0 and one step moves one dimension, so a state with
    need > k is dead: it counts 0 and is never memoized.  With no free
    direction and no meander every step moves need by one, so k - need
    keeps its parity from the root on (the parity lock), and an odd n
    counts 0 without visiting any state.
    """
    if n < 0:
        raise ValueError(f"walk length must be >= 0, got {n}")
    kinds = walk_type.constrained_kinds
    r = walk_type.free_direction_count
    span = len(kinds)
    returns = tuple(int(kind.returns_to_zero) for kind in kinds)
    # The parity lock: an odd n is dead.
    if n % 2 and not r and all(returns):
        return 0

    def rec(k: int, heights: tuple, need: int) -> int:
        if need > k:
            return 0
        if k == 0:
            return 1
        key = (k, heights)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = r * rec(k - 1, heights, need) if r else 0
        ci = 0
        while ci < span:
            h = heights[ci]
            kind = kinds[ci]
            ret = returns[ci]
            end = ci + 1
            while end < span and heights[end] == h and kinds[end] is kind:
                end += 1
            m = end - ci
            up = rec(k - 1, heights[: end - 1] + (h + 1,) + heights[end:], need + ret)
            total += (2 * m if h == 0 and kind is DimKind.BRIDGE else m) * up
            if h:
                total += m * rec(
                    k - 1, heights[:ci] + (h - 1,) + heights[ci + 1 :], need - ret
                )
            ci = end
        if len(memo) >= limits.max_dp_states:
            raise GuardExceeded(
                f"DP for type {walk_type} needs more than "
                f"{limits.max_dp_states} memo states"
            )
        memo[key] = total
        return total

    return rec(n, (0,) * span, 0)
