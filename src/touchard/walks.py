"""Walk types, step alphabets, parsing and validation.

A walk lives on the integer lattice Z^k (k <= 4) and advances one unit
step at a time along a single axis.  Each dimension carries one of five
constraint kinds, written with the letters a..e:

    a   excursion: height stays >= 0 at every prefix and ends at 0
    b   bridge:    height ends at 0, may go negative in between
    c   meander:   height stays >= 0, free endpoint
    d   one-way:   only the positive direction exists, no constraint
    e   free:      both directions, no constraint

A free dimension behaves exactly like a pair of one-way directions, so
for counting purposes the two kinds pool into r = #d + 2 * #e
unrestricted directions.
"""

import enum
import functools
from typing import NamedTuple

MAX_DIMS = 4


class DimKind(enum.Enum):
    """One dimension's constraint kind, named by its letter.

    Each member carries four facts, set once from its letter when the
    enum is built: stays_nonnegative (a, c), returns_to_zero (a, b),
    unrestricted (d, e) and direction_count, the number of step
    directions (1 for d, 2 otherwise).

    Members hash by identity: each is a singleton, also after pickling,
    so object.__hash__ agrees with equality, and a WalkType's hash (the
    key of every per-type cache) makes no Python-level call, where
    Enum.__hash__ makes one per dimension.
    """

    __hash__ = object.__hash__

    EXCURSION = "a"
    BRIDGE = "b"
    MEANDER = "c"
    ONE_WAY = "d"
    FREE = "e"

    def __init__(self, letter: str) -> None:
        self.stays_nonnegative = letter in "ac"
        self.returns_to_zero = letter in "ab"
        self.unrestricted = letter in "de"
        self.direction_count = 1 if letter == "d" else 2


_BY_LETTER = {kind.value: kind for kind in DimKind}


class WalkType(NamedTuple("WalkType", [("dims", tuple)])):
    """An ordered bundle of per-dimension constraint kinds.

    Construction canonicalizes the dimension order by letter, so
    WalkType for "ea" compares equal to the one for "ae".
    """

    __slots__ = ()

    def __new__(cls, dims: tuple):
        dims = tuple(sorted(dims, key=lambda k: k.value))
        if not 1 <= len(dims) <= MAX_DIMS:
            raise ValueError(
                f"walk types need between 1 and {MAX_DIMS} dimensions, got {len(dims)}"
            )
        return super().__new__(cls, dims)

    @property
    def letters(self) -> str:
        return "".join(kind.value for kind in self.dims)

    @property
    def step_count(self) -> int:
        """The type's step directions: 1 per one-way dimension, 2 per other."""
        return sum(kind.direction_count for kind in self.dims)

    @property
    def free_direction_count(self) -> int:
        """r = #one-way dims + 2 * #free dims."""
        return sum(kind.direction_count for kind in self.dims if kind.unrestricted)

    @property
    def constrained_kinds(self) -> tuple:
        return tuple(kind for kind in self.dims if not kind.unrestricted)

    def __str__(self) -> str:
        return self.letters


def canonicalize_type(letters: str) -> WalkType:
    """Build a WalkType from a letter string such as "ae" or "ACE"."""
    cleaned = letters.strip().lower()
    if not cleaned:
        raise ValueError("empty walk type")
    kinds = []
    for ch in cleaned:
        kind = _BY_LETTER.get(ch)
        if kind is None:
            raise ValueError(f"unknown dimension letter {ch!r} (expected a..e)")
        kinds.append(kind)
    return WalkType(tuple(kinds))


class Direction(NamedTuple):
    dim: int
    sign: int


class Walk(NamedTuple):
    """A finite sequence of unit steps; empty walks are allowed."""

    steps: tuple

    @property
    def n(self) -> int:
        return len(self.steps)


# Letter pairs by dimension index, positive direction first.  One-way
# dimensions expose only the positive letter of their pair.
_DIM_TOKENS = (("N", "S"), ("E", "W"), ("U", "D"), ("+3", "-3"))


def step_alphabet(walk_type: WalkType) -> list:
    """Ordered (token, Direction) pairs for a type, dimension by dimension."""
    out = []
    for d, kind in enumerate(walk_type.dims):
        pos, neg = _DIM_TOKENS[d]
        out.append((pos, Direction(d, 1)))
        if kind is not DimKind.ONE_WAY:
            out.append((neg, Direction(d, -1)))
    return out


@functools.lru_cache(maxsize=128)  # one entry per walk type; there are 125
def _step_tokens(walk_type: WalkType) -> dict:
    """Direction -> token map of a type's step alphabet; callers must not mutate it."""
    return {direction: token for token, direction in step_alphabet(walk_type)}


class ParseError(ValueError):
    """Raised on unparseable walk text; carries the offending offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def parse_walk(text: str, walk_type: WalkType) -> Walk:
    """Parse step tokens into a Walk.

    Tokens are matched case-insensitively (ASCII letters only, so no
    other character folds into a token) and whitespace between tokens
    is ignored.  The first unrecognized token raises ParseError with its
    offset into the original text.
    """
    token_map = {token: direction for token, direction in step_alphabet(walk_type)}
    steps = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-":
            token = text[i : i + 2]
        else:
            token = ch.upper() if ch.isascii() else ch
        direction = token_map.get(token)
        if direction is None:
            raise ParseError(
                f"unrecognized step token {token!r} at offset {i} for type {walk_type}",
                i,
            )
        steps.append(direction)
        i += len(token)
    return Walk(tuple(steps))


def walk_text(walk: Walk, walk_type: WalkType) -> str:
    """Render a walk back to its token string."""
    tokens = _step_tokens(walk_type)
    return "".join([tokens[step] for step in walk.steps])


class Violation(NamedTuple):
    """First constraint failure of a walk: where, which axis, and why."""

    step_index: int
    dim: int
    reason: str


def prefix_heights(walk: Walk, ndims: int) -> list:
    """Running height vectors after each step (the start point excluded)."""
    heights = [0] * ndims
    out = []
    for dim, sign in walk.steps:
        heights[dim] += sign
        out.append(tuple(heights))
    return out


def validate(walk: Walk, walk_type: WalkType) -> Violation | None:
    """Check a walk against its type; None means valid.

    Returns the first violation in step order: for excursion and meander
    dimensions the first step whose completed height is negative, and
    otherwise (for excursion and bridge dimensions) a nonzero final
    height reported at step_index == n.
    """
    kinds = walk_type.dims
    heights = [0] * len(kinds)
    for index, (dim, sign) in enumerate(walk.steps):
        if not 0 <= dim < len(kinds) or sign not in (1, -1):
            raise ValueError(f"step {(dim, sign)} outside type {walk_type}")
        if sign < 0 and kinds[dim] is DimKind.ONE_WAY:
            raise ValueError(f"negative step in one-way dimension {dim}")
        heights[dim] += sign
        if heights[dim] < 0 and kinds[dim].stays_nonnegative:
            return Violation(index, dim, f"height below 0 in dimension {dim}")
    for dim, kind in enumerate(kinds):
        if kind.returns_to_zero and heights[dim] != 0:
            return Violation(walk.n, dim, f"nonzero final height in dimension {dim}")
    return None
