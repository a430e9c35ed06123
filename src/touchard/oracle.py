"""Independent counting oracles: brute-force enumeration and a DP over heights.

These are the ground truth the closed forms are checked against, so the
two routes share no counting logic: enumeration builds every valid step
string, while the DP counts walks by the heights of the constrained
dimensions.  One generator, _brute_joins, is the whole
brute-force route, guard and scan.  It scans the first and the second
half of a walk separately, each with one itertools.product pass, and
yields each valid prefix with the list of suffixes that complete it, so
its joins are the walks of the one-pass filter over all base**n
candidates, in the same order, without building the candidates that
fail.  What it keeps is lists of suffix step tuples, never counts.
_valid_walks joins them into walks, which enumerate_walks lists and
enumerate_dyck reads one at a time; count --method brute sums the
lengths of the suffix lists and builds no walk.
The DP's states are canonical heights: bridge heights reflected to |h|
and the heights of same-kind dimensions sorted, so each orbit of
interchangeable heights is one state.  _state_table interns each
canonical heights vector, keyed by an integer with one digit per
constrained dimension, to an integer id once, so a child's key is its
parent's plus or minus one power of the radix and its heights tuple is
built only when the key is new.  The origin is interned like every
other state.  Each id keeps its need (the sum of its returning heights,
excursions and bridges), and one pending record, its heights and key,
from the moment it is interned until its moves are built, once; each
move carries its child's need.  A state is dead when its need exceeds the
steps left, or, for a type with no free direction and no meander,
differs from them in parity; dead states count 0 and are never stored.
Both DP routes read one such table, local to one call, which holds
states and moves and no counts, and both add a child's count as it is
for a move of weight 1, so a unit move makes no long multiplication.
count_dp recurses over (steps remaining, id) through a memo of
completion counts that it owns, one dict per steps remaining, so it
stops at the interpreter's recursion limit; it expands every state in
full, since a later visit to a state can have more steps left.
sequence_dp sweeps forward over layers of walks counted by the id they
end at: a layer is a list with one slot per interned id, beside the list
of the ids it reaches.  Two layers are live at a time, no call recurses,
and the reached ids are exactly the states count_dp charges at the last
length.  The sweep expands each state with the steps left at its first
live layer and interns no child whose need exceeds them, so its table
holds exactly the ids it reaches.
"""

import collections
import functools
import itertools
import operator
from typing import NamedTuple

from .walks import DimKind, Walk, WalkType, step_alphabet


class ResourceLimits(NamedTuple):
    """Guards against accidentally oversized searches.

    max_dp_states bounds the DP's stored states, not the counts they
    hold.  A type with free directions keeps a state per length, and with
    s step directions a count gains up to b = bit_length(s - 1) bits a
    step, so those counts grow as n^2 in bits while the states grow as n.
    sequence_dp therefore also refuses a length n once the states it has
    charged times n * b exceed MAX_DP_BITS, a fixed budget of 2^33 bits
    (1 GiB) of counts.
    """

    max_brute_candidates: int = 10_000_000
    max_dp_states: int = 5_000_000


DEFAULT_LIMITS = ResourceLimits()
MAX_DP_BITS = 2**33


class GuardExceeded(RuntimeError):
    """A requested computation exceeds the configured resource guard."""


def enumerate_walks(walk_type: WalkType, n: int, limits: ResourceLimits | None = None) -> list:
    """All valid walks of the given length, in lexicographic token order.

    The guard charges every candidate step string, though the scan (see
    _brute_joins) builds only base**(n // 2) + base**(n - n // 2) half
    strings and the walks it keeps.  It refuses before any work when the
    candidate count base**n (base the alphabet size) or n itself exceeds
    limits.max_brute_candidates.  For base >= 2 the count exceeds the
    guard once 2**n does, so a long n is refused without taking the
    power, and the message shows the count in full only for n <= 64.
    """
    return list(_valid_walks(walk_type, n, limits))


def _valid_walks(walk_type: WalkType, n: int, limits: ResourceLimits | None):
    """Yield enumerate_walks' walks after its guard, one at a time.

    Each is a prefix from _brute_joins followed by one of its suffixes,
    so no walk is kept once the caller moves past it.
    """
    # Walk(steps) is a Python-level call; tuple.__new__ on the 1-tuples
    # that zip makes builds the same Walk in C.
    new_walk = functools.partial(tuple.__new__, Walk)
    for prefix, suffixes in _brute_joins(walk_type, n, limits):
        yield from map(new_walk, zip(map(prefix.__add__, suffixes)))


def _brute_joins(walk_type: WalkType, n: int, limits: ResourceLimits | None):
    """Yield (prefix, suffixes) for the walks of enumerate_walks, after its guard.

    A walk splits into a prefix of n // 2 steps and a suffix of the rest,
    and the token order of whole walks is the prefixes' order, each
    followed by its suffixes in theirs.  One pass over the suffixes
    indexes them, in order, by the heights they bring back to 0 on the
    returning dimensions (excursions and bridges), with their depth, the
    most a running height falls below its start, on the nonnegative ones
    (excursions and meanders).  One pass over the prefixes drops those
    that go below 0 on a nonnegative dimension; a kept prefix ending at
    heights h joins the suffixes indexed by h on the returning dimensions
    whose depths are at most h on the nonnegative ones.  That list of
    suffixes is built once per distinct h on the constrained dimensions
    and holds the index's own suffix tuples, so the scan builds
    base**(n // 2) + base**(n - n // 2) step strings and no walk.  Every
    kept prefix is yielded, with an empty list when no suffix joins it.
    """
    if n < 0:
        raise ValueError(f"walk length must be >= 0, got {n}")
    alphabet = sorted(step_alphabet(walk_type))
    base = len(alphabet)
    limit = (limits or DEFAULT_LIMITS).max_brute_candidates
    if n > limit or (base > 1 and n >= limit.bit_length()) or base**n > limit:
        shown = f" = {base**n}" if n <= 64 else ""
        raise GuardExceeded(
            f"enumerating type {walk_type} at length {n} scans {base}^{n}{shown} "
            f"candidate strings of {n} letters, over the guard of {limit}"
        )
    kinds = walk_type.dims
    ndims = len(kinds)
    nonneg = tuple(kind.stays_nonnegative for kind in kinds)
    to_zero = tuple(kind.returns_to_zero for kind in kinds)
    constrained = tuple(not kind.unrestricted for kind in kinds)
    directions = [direction for _, direction in alphabet]
    compress = itertools.compress

    by_start = {}
    for suffix in itertools.product(directions, repeat=n - n // 2):
        heights = [0] * ndims
        lows = [0] * ndims
        for dim, sign in suffix:
            h = heights[dim] + sign
            heights[dim] = h
            if h < lows[dim]:
                lows[dim] = h
        start = tuple([-h for h in compress(heights, to_zero)])
        depths = tuple([-low for low in compress(lows, nonneg)])
        by_start.setdefault(start, []).append((depths, suffix))

    joins = {}
    for prefix in itertools.product(directions, repeat=n // 2):
        heights = [0] * ndims
        for dim, sign in prefix:
            h = heights[dim] + sign
            heights[dim] = h
            if h < 0 and nonneg[dim]:
                break
        else:
            end = tuple(compress(heights, constrained))
            suffixes = joins.get(end)
            if suffixes is None:
                floor = tuple(compress(heights, nonneg))
                suffixes = joins[end] = [
                    suffix
                    for depths, suffix in by_start.get(tuple(compress(heights, to_zero)), ())
                    if all(map(operator.le, depths, floor))
                ]
            yield prefix, suffixes


def count_dp(walk_type: WalkType, n: int, limits: ResourceLimits | None = None) -> int:
    """Exact count of valid length-n walks via memoized recursion.

    The memo is local to this call (see _completions) and freed on return.
    Raises GuardExceeded past limits.max_dp_states or the interpreter's
    recursion limit (the recursion takes one frame per step).
    """
    if n < 0:
        raise ValueError(f"walk length must be >= 0, got {n}")
    return _completions(walk_type, n, limits or DEFAULT_LIMITS)


def _completions(walk_type: WalkType, n: int, limits: ResourceLimits) -> int:
    """count_dp's count: walk completions from the origin in n steps.

    The memo is one dict per steps remaining k, made when rec first
    needs it, never ahead: memo[k] maps an id to the completion count of
    (k steps remaining, that id).  rec binds its children's layer,
    memo[k - 1], once per call and looks each child up there before it
    calls itself, so a stored child costs no call; a child rec computes
    is stored there by its caller.  stored is the number of counts rec
    computes, the origin's among them, which the state guard bounds.
    With no step left a child of need 0 completes one walk, the empty
    one, so its count is 1, neither stored nor charged.  A child reached
    by a move of weight 1 adds its count as it is, with no long
    multiplication.  rec expands a state with no bound on the steps left:
    the first visit to a state need not be the one with the most steps
    left.  A parity-locked type counts 0 at odd n without building a
    state.

    rec calls itself once per step, so a length near the interpreter's
    recursion limit raises RecursionError, which is refused as
    GuardExceeded with the interpreter's text.  That frame count fixes
    the length count_dp refuses, so count_dp still calls this function
    and rec, one frame each, rather than counting in place.  rec refers
    to itself through its closure cell; the finally clause breaks that
    cycle, so the memo is freed by reference counting on return, also
    when the state guard or the recursion limit raises.
    """
    if n % 2 and _parity_locked(walk_type):
        return 0
    limit = limits.max_dp_states
    moves, _, expand = _state_table(walk_type, n + 2)
    memo = collections.defaultdict(dict)
    stored = 0

    def rec(k: int, hid: int) -> int:
        nonlocal stored
        steps = k - 1
        total = 0
        done = memo[steps]
        for weight, cid, child_need in moves[hid] or expand(hid):
            if child_need > steps:
                continue
            count = done.get(cid) if steps else 1
            if count is None:
                count = done[cid] = rec(steps, cid)
            total += count if weight == 1 else weight * count
        if stored >= limit:
            raise GuardExceeded(
                f"DP for type {walk_type} needs more than {limit} memo states"
            )
        stored += 1
        return total

    try:
        return rec(n, 0) if n else 1
    except RecursionError as exc:
        raise GuardExceeded(str(exc)) from None
    finally:
        rec = None


def sequence_dp(walk_type: WalkType, n_max: int, limits: ResourceLimits | None = None) -> list:
    """Counts for every length 0..n_max, from one forward sweep.

    Layer j is a list indexed by id: slot i holds the number of j-step
    walks from the origin that end in id i's orbit, 0 where none do.
    live lists, in id order, the ids reached in j steps, whose slots are
    nonzero, since a reached state counts at least one walk.  Every
    state of an orbit has the same moves into each other orbit, so a move
    of weight w from a state of layer j with c walks adds w * c to its
    child's slot in layer j + 1, and c itself when w is 1.  A child is
    kept only if its need fits the steps left after the move,
    n_max - j - 1, so no walk that a length <= n_max counts is pruned,
    and the live ids of the layers before n_max are exactly the states
    count_dp(walk_type, n_max) charges.  Length j counts the walks of
    layer j that end at need 0.  Each layer first expands its live ids
    that have no moves yet, with those steps left, so every kept child
    has an id before layer j + 1 is made, one slot per interned id.  A
    child whose need exceeds them is not interned: the steps left only
    shrink in later layers, so it could never count, and the table holds
    exactly the ids the sweep reaches.  Only two layers are live at a
    time, and no call recurses, so the recursion limit does not bound
    n_max.

    Each layer's live ids are charged to the state guard as it is
    expanded, so a completed sweep charges as many states as
    count_dp(walk_type, n_max).  The bits guard checks charged states *
    n * bits before each length n, bits being the most one step adds to
    a count.  A parity-locked type counts 0 at every odd length, so at
    odd n_max the sweep stops at n_max - 1, charging as count_dp does
    there, and appends 0.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    limit = (limits or DEFAULT_LIMITS).max_dp_states
    bits = (walk_type.step_count - 1).bit_length()
    last = n_max - 1 if n_max % 2 and _parity_locked(walk_type) else n_max
    moves, needs, expand = _state_table(walk_type, last + 2)
    layer, live = [1], [0]
    totals = []
    charged = 0
    for n in range(1, last + 1):
        if charged * n * bits > MAX_DP_BITS:
            raise GuardExceeded(
                f"DP for type {walk_type} at n = {n} needs more than "
                f"{MAX_DP_BITS} bits of counts"
            )
        charged += len(live)
        if charged > limit:
            raise GuardExceeded(
                f"DP for type {walk_type} needs more than {limit} memo states"
            )
        # A child's need may not exceed the steps left after its move.
        bound = last - n
        total = 0
        for hid in live:
            if moves[hid] is None:
                expand(hid, bound)
            if not needs[hid]:
                # count alone is not copied, as 0 + count would be.
                total = total + layer[hid] if total else layer[hid]
        totals.append(total)
        # Every child of a live id is interned now, so nxt has its slot.
        nxt = [0] * len(moves)
        for hid in live:
            count = layer[hid]
            # A move of weight 1 adds the count itself: no long multiplication.
            for weight, cid, child_need in moves[hid]:
                if child_need <= bound:
                    nxt[cid] += count if weight == 1 else weight * count
        layer = nxt
        live = list(itertools.compress(range(len(nxt)), nxt))
    # The last layer holds only states of need 0.
    totals.append(sum(layer))
    if last < n_max:
        totals.append(0)
    return totals


def _parity_locked(walk_type: WalkType) -> bool:
    """No free direction and no meander: every step moves need by one."""
    return not walk_type.free_direction_count and all(
        kind.returns_to_zero for kind in walk_type.constrained_kinds
    )


def _state_table(walk_type: WalkType, radix: int) -> tuple:
    """The DP's states and their moves, built on demand: (moves, needs, expand).

    States are canonical heights, one per orbit of the symmetries that
    preserve the count.  A bridge is symmetric under h -> -h, so its
    height is stored as |h|; then every constrained height is >= 0 and
    may step down iff it is > 0, and a bridge at 0 steps up in two ways.
    Dimensions of the same kind are interchangeable, so the heights
    within each run of equal kinds (contiguous, as WalkType sorts its
    dims) are kept in ascending order.  A block of m equal heights in a
    run expands one move each way, weighted by m: the up move raises the
    block's last height and the down move lowers its first, which keeps
    the run sorted.  The r free directions are one move of weight r to
    the same heights.

    ids interns each canonical heights vector to an integer id; id 0 is
    the origin, interned by the same intern call as every other state.
    Its key is an integer with one digit per constrained dimension in
    radix, which the caller sets to its largest length + 2 so that no
    height reaches it: a state expanded with k >= 1 steps left was
    reached in at most n - 1 steps, so its children's heights are at
    most n.  The up move of a block raises position p by one, so the
    child's key is the parent's plus radix**p; the down move lowers
    position c, so it is the parent's minus radix**c.  One addition and
    one probe of ids find a child, and its heights tuple is built only
    when its key is new.  needs[i] is id i's need, set when it is
    interned from its parent's need: the sum of its returning heights
    (excursions and bridges, bridges as |h|).  pending[i] is id i's
    record (heights, key); expand(i, steps) builds moves[i] from it and
    needs[i], once, as a tuple of (weight, child id, the child's need),
    and then releases it.  It leaves out, and does not intern, each child
    whose need exceeds steps.  steps defaults to radix, above every need,
    so by default every child is kept.

    A returning height h needs at least h steps to reach 0 and one step
    moves one dimension, so a state whose need exceeds the steps left is
    dead: it counts 0 and no route stores it.  With no free direction
    and no meander every step moves need by one (_parity_locked), so the
    steps left minus need keeps its parity from the origin on, and an
    odd length counts 0 without visiting any state.
    """
    kinds = walk_type.constrained_kinds
    r = walk_type.free_direction_count
    span = len(kinds)
    returns = tuple(int(kind.returns_to_zero) for kind in kinds)
    doubles = tuple(kind is DimKind.BRIDGE for kind in kinds)
    # continues[p]: position p + 1 is in the same run of equal kinds as p.
    continues = tuple(p + 1 < span and kinds[p + 1] is kinds[p] for p in range(span))
    place = tuple(radix**p for p in range(span))
    ids = {}
    pending = []
    moves = []
    needs = []

    def intern(key: int, heights: tuple, need: int) -> int:
        cid = ids[key] = len(moves)
        pending.append((heights, key))
        moves.append(None)
        needs.append(need)
        return cid

    def expand(hid: int, steps: int = radix) -> tuple:
        heights, key = pending[hid]
        need = needs[hid]
        built = [(r, hid, need)] if r and need <= steps else []
        ci = 0
        while ci < span:
            h = heights[ci]
            end = ci + 1
            while continues[end - 1] and heights[end] == h:
                end += 1
            m = end - ci
            child_need = need + returns[ci]
            if child_need <= steps:
                child = key + place[end - 1]
                cid = ids.get(child)
                if cid is None:
                    cid = intern(child, heights[: end - 1] + (h + 1,) + heights[end:], child_need)
                built.append((2 * m if h == 0 and doubles[ci] else m, cid, child_need))
            if h:
                child_need = need - returns[ci]
                if child_need <= steps:
                    child = key - place[ci]
                    cid = ids.get(child)
                    if cid is None:
                        cid = intern(child, heights[:ci] + (h - 1,) + heights[ci + 1 :], child_need)
                    built.append((m, cid, child_need))
            ci = end
        pending[hid] = None
        built = moves[hid] = tuple(built)
        return built

    intern(0, (0,) * span, 0)
    return moves, needs, expand
