"""validate rejects steps that are not unit steps of the type, and so do its callers."""

import pytest

from touchard import (
    Direction,
    Walk,
    canonicalize_type,
    render_walk_ascii,
    to_two_colored_motzkin,
    touchard_to_dyck,
    validate,
)

AE = canonicalize_type("ae")
BAD_WALKS = [
    Walk((Direction(-1, 1),)),
    Walk((Direction(0, 2), Direction(0, -2))),
    Walk((Direction(0, 0),)),
]
CHECKERS = [
    lambda walk: validate(walk, AE),
    touchard_to_dyck,
    to_two_colored_motzkin,
    lambda walk: render_walk_ascii(walk, AE),
]


@pytest.mark.parametrize("walk", BAD_WALKS, ids=["dim -1", "sign 2", "sign 0"])
@pytest.mark.parametrize(
    "check", CHECKERS, ids=["validate", "dyck", "motzkin", "render"]
)
def test_a_step_outside_the_unit_steps_is_a_value_error(walk, check):
    with pytest.raises(ValueError, match="outside type ae"):
        check(walk)

