"""The Dyck pictures meet the grid guard at the same boundary.

A Dyck path of 2k steps frames (2k + 1) columns by (k + 1) rows, for
either format: k = 352 spans 248 865 grid points, under the guard of
250 000, and k = 353 spans 250 278.
"""

import pytest

from touchard import GuardExceeded, parse_dyck, render_dyck_ascii, render_dyck_svg
from touchard.render import MAX_RENDER_POINTS


@pytest.mark.parametrize("draw", [render_dyck_ascii, render_dyck_svg])
def test_the_largest_peak_under_the_guard_is_drawn(draw):
    assert 705 * 353 == 248_865 <= MAX_RENDER_POINTS
    picture = draw(parse_dyck("N" * 352 + "S" * 352))
    assert picture.endswith("\n")


def test_the_ascii_peak_fills_its_frame():
    lines = render_dyck_ascii(parse_dyck("N" * 352 + "S" * 352)).splitlines()
    assert len(lines) == 353
    assert lines[0] == " " * 351 + "/\\"
    assert lines[-1] == "-" * 704


@pytest.mark.parametrize("draw", [render_dyck_ascii, render_dyck_svg])
def test_one_step_higher_is_refused_with_one_message(draw):
    with pytest.raises(GuardExceeded) as refusal:
        draw(parse_dyck("N" * 353 + "S" * 353))
    assert str(refusal.value) == (
        "the picture spans 707 x 354 = 250278 grid points, over the guard of 250000"
    )
