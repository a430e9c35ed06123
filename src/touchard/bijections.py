"""The bijection between Dyck paths and two-dimensional ae-walks.

A Dyck path of length 2n + 2 maps to an ae-walk of length n: drop the
forced first N and last S, then read the remaining 2n letters as n
disjoint pairs, left to right:

    NN -> N    SS -> S    NS -> E    SN -> W

The inverse expands each walk step back into its pair and restores the
outer N...S frame.  Relabelling the four walk steps as up, down and two
flat colours exhibits the same objects as two-coloured Motzkin paths.
A Dyck word is the N/S token string of a type-a walk, so enumerate_dyck
reads the brute-force route over type a, and parse_dyck reads Dyck text
as type-a walk text: the same tokenizer folds ASCII case and skips
whitespace.  These two and touchard_to_dyck, whose ae-walk is validated
first, build paths of words already checked, which DyckPath(word) would
scan again.
"""

import enum
from typing import NamedTuple

from .oracle import ResourceLimits, _valid_walks
from .walks import Direction, ParseError, Walk, canonicalize_type, parse_walk, validate, walk_text

TYPE_A = canonicalize_type("a")
TYPE_AE = canonicalize_type("ae")

_PAIR_TO_STEP = {
    "NN": Direction(0, 1),
    "SS": Direction(0, -1),
    "NS": Direction(1, 1),
    "SN": Direction(1, -1),
}
_STEP_TO_PAIR = {step: pair for pair, step in _PAIR_TO_STEP.items()}


def _scan(word: str) -> tuple:
    """Running heights of an N/S word and its first defect.

    The defect is None for a Dyck word, and otherwise (offset, reason)
    for the first letter other than N or S, the first step below height
    0, or an ending above height 0 (offset len(word)).  The heights stop
    before the defect.
    """
    heights = []
    height = 0
    for offset, letter in enumerate(word):
        if letter not in ("N", "S"):
            return heights, (offset, f"Dyck words use only N and S, got {letter!r}")
        height += 1 if letter == "N" else -1
        if height < 0:
            return heights, (offset, f"height drops below 0 at position {offset}")
        heights.append(height)
    if height:
        return heights, (len(word), f"word ends at height {height}, not 0")
    return heights, None


class DyckPath(NamedTuple("DyckPath", [("word", str)])):
    """A balanced N/S word whose running height never drops below 0."""

    __slots__ = ()

    def __new__(cls, word: str):
        _, defect = _scan(word)
        if defect is not None:
            raise ValueError(defect[1])
        return super().__new__(cls, word)

    @property
    def length(self) -> int:
        return len(self.word)

    def heights(self) -> list:
        return _scan(self.word)[0]


def parse_dyck(text: str) -> DyckPath:
    """Parse a Dyck word as type-a walk text, ignoring ASCII case and whitespace.

    Errors carry the offset of the offending character in the original
    text (or len(text) for an unbalanced ending).
    """
    try:
        word = walk_text(parse_walk(text, TYPE_A), TYPE_A)
    except ParseError as error:
        offset = error.offset
        message = f"unrecognized Dyck letter {text[offset]!r} at offset {offset}"
        raise ParseError(message, offset) from None
    heights, defect = _scan(word)
    if defect is None:
        return DyckPath._make((word,))
    if defect[0] == len(word):
        raise ParseError(f"path ends at height {heights[-1]}, not 0", len(text))
    offset = [i for i, ch in enumerate(text) if not ch.isspace()][defect[0]]
    raise ParseError(f"path drops below the baseline at offset {offset}", offset)


def dyck_to_touchard(path: DyckPath) -> Walk:
    """Map a nonempty Dyck path of length 2n + 2 to its ae-walk of length n."""
    if path.length == 0:
        raise ValueError("the empty Dyck path has no corresponding walk")
    inner = path.word[1:-1]
    steps = tuple(
        _PAIR_TO_STEP[inner[i : i + 2]] for i in range(0, len(inner), 2)
    )
    return Walk(steps)


def _require_ae_walk(walk: Walk) -> None:
    violation = validate(walk, TYPE_AE)
    if violation is not None:
        raise ValueError(
            f"not a valid ae-walk: {violation.reason} at step {violation.step_index}"
        )


def touchard_to_dyck(walk: Walk) -> DyckPath:
    """Map a valid ae-walk of length n to its Dyck path of length 2n + 2."""
    _require_ae_walk(walk)
    pairs = "".join(_STEP_TO_PAIR[step] for step in walk.steps)
    return DyckPath._make(("N" + pairs + "S",))


class MotzkinStep(enum.Enum):
    UP = "up"
    DOWN = "down"
    FLAT1 = "flat1"
    FLAT2 = "flat2"


_MOTZKIN_RELABEL = {
    Direction(0, 1): MotzkinStep.UP,
    Direction(0, -1): MotzkinStep.DOWN,
    Direction(1, 1): MotzkinStep.FLAT1,
    Direction(1, -1): MotzkinStep.FLAT2,
}


def to_two_colored_motzkin(walk: Walk) -> tuple:
    """Relabel a valid ae-walk as a two-coloured Motzkin path."""
    _require_ae_walk(walk)
    return tuple(_MOTZKIN_RELABEL[step] for step in walk.steps)


def enumerate_dyck(length: int, limits: ResourceLimits | None = None) -> list:
    """All Dyck paths of the given even length, in lexicographic order (N < S)."""
    if length < 0 or length % 2:
        raise ValueError(f"Dyck paths have even length >= 0, got {length}")
    walks = _valid_walks(TYPE_A, length, limits)
    return [DyckPath._make((walk_text(walk, TYPE_A),)) for walk in walks]
