"""The bijection between Dyck paths and two-dimensional ae-walks.

A Dyck path of length 2n + 2 maps to an ae-walk of length n: drop the
forced first N and last S, then read the remaining 2n letters as n
disjoint pairs, left to right:

    NN -> N    SS -> S    NS -> E    SN -> W

The inverse expands each walk step back into its pair and restores the
outer N...S frame.  Relabelling the four walk steps as up, down and two
flat colours exhibits the same objects as two-coloured Motzkin paths.
"""

import enum
import itertools
from dataclasses import dataclass

from .oracle import DEFAULT_LIMITS, GuardExceeded, ResourceLimits
from .walks import Direction, ParseError, Walk, canonicalize_type, validate

TYPE_AE = canonicalize_type("ae")

_PAIR_TO_STEP = {
    "NN": Direction(0, 1),
    "SS": Direction(0, -1),
    "NS": Direction(1, 1),
    "SN": Direction(1, -1),
}
_STEP_TO_PAIR = {step: pair for pair, step in _PAIR_TO_STEP.items()}


@dataclass(frozen=True)
class DyckPath:
    """A balanced N/S word whose running height never drops below 0."""

    word: str

    def __post_init__(self):
        height = 0
        for index, letter in enumerate(self.word):
            if letter == "N":
                height += 1
            elif letter == "S":
                height -= 1
            else:
                raise ValueError(f"Dyck words use only N and S, got {letter!r}")
            if height < 0:
                raise ValueError(f"height drops below 0 at position {index}")
        if height != 0:
            raise ValueError(f"word ends at height {height}, not 0")

    @property
    def length(self) -> int:
        return len(self.word)

    def heights(self) -> list:
        out = []
        h = 0
        for letter in self.word:
            h += 1 if letter == "N" else -1
            out.append(h)
        return out


def parse_dyck(text: str) -> DyckPath:
    """Parse a Dyck word, ignoring case and whitespace.

    Errors carry the offset of the offending character in the original
    text (or len(text) for an unbalanced ending).
    """
    letters = []
    positions = []
    for i, ch in enumerate(text):
        if ch.isspace():
            continue
        upper = ch.upper()
        if upper not in "NS":
            raise ParseError(f"unrecognized Dyck letter {ch!r} at offset {i}", i)
        letters.append(upper)
        positions.append(i)
    height = 0
    for idx, letter in enumerate(letters):
        height += 1 if letter == "N" else -1
        if height < 0:
            raise ParseError(
                f"path drops below the baseline at offset {positions[idx]}",
                positions[idx],
            )
    if height != 0:
        raise ParseError(f"path ends at height {height}, not 0", len(text))
    return DyckPath("".join(letters))


def dyck_to_touchard(path: DyckPath) -> Walk:
    """Map a nonempty Dyck path of length 2n + 2 to its ae-walk of length n."""
    if path.length == 0:
        raise ValueError("the empty Dyck path has no corresponding walk")
    inner = path.word[1:-1]
    steps = tuple(
        _PAIR_TO_STEP[inner[i : i + 2]] for i in range(0, len(inner), 2)
    )
    return Walk(steps)


def touchard_to_dyck(walk: Walk) -> DyckPath:
    """Map a valid ae-walk of length n to its Dyck path of length 2n + 2."""
    violation = validate(walk, TYPE_AE)
    if violation is not None:
        raise ValueError(
            f"not a valid ae-walk: {violation.reason} at step {violation.step_index}"
        )
    pairs = "".join(_STEP_TO_PAIR[step] for step in walk.steps)
    return DyckPath("N" + pairs + "S")


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
    violation = validate(walk, TYPE_AE)
    if violation is not None:
        raise ValueError(
            f"not a valid ae-walk: {violation.reason} at step {violation.step_index}"
        )
    return tuple(_MOTZKIN_RELABEL[step] for step in walk.steps)


def enumerate_dyck(length: int, limits: ResourceLimits | None = None) -> list:
    """All Dyck paths of the given even length, in lexicographic order (N < S)."""
    if length < 0 or length % 2:
        raise ValueError(f"Dyck paths have even length >= 0, got {length}")
    limits = limits or DEFAULT_LIMITS
    candidates = 2**length
    if candidates > limits.max_brute_candidates:
        raise GuardExceeded(
            f"enumerating Dyck paths of length {length} scans 2^{length} = "
            f"{candidates} candidate words, over the guard of "
            f"{limits.max_brute_candidates}"
        )
    paths = []
    for combo in itertools.product("NS", repeat=length):
        height = 0
        for letter in combo:
            height += 1 if letter == "N" else -1
            if height < 0:
                break
        else:
            if height == 0:
                paths.append(DyckPath("".join(combo)))
    return paths
