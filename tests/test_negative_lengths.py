"""Negative lengths are refused with their exact text, in process.

The CLI's sequence and enumerate commands refuse a negative length by its
flag, with exit 1 and one stderr line, and each public helper that takes
a length raises ValueError naming itself.  render's Dyck SVG branch is
checked here too, through cli.main rather than a subprocess.
"""

import pytest

from touchard import (
    ace3d_count,
    canonicalize_type,
    enumerate_walks,
    halfplane_closed,
    multinomial,
    parse_dyck,
    quadrant_axis_sum,
    render_dyck_svg,
)
from touchard.cli import main


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sequence", "--type", "ae", "--max-n", "-1"], "--max-n"),
        (["enumerate", "--type", "ae", "--n", "-1"], "--n"),
    ],
)
def test_cli_refuses_a_negative_length_by_its_flag(capsys, argv, flag):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {flag} must be >= 0\n")


def test_enumerate_walks_refuses_a_negative_length():
    with pytest.raises(ValueError) as info:
        list(enumerate_walks(canonicalize_type("ae"), -1))
    assert str(info.value) == "walk length must be >= 0, got -1"


@pytest.mark.parametrize("closed_form", [quadrant_axis_sum, halfplane_closed, ace3d_count])
def test_closed_forms_refuse_a_negative_length(closed_form):
    with pytest.raises(ValueError) as info:
        closed_form(-1)
    assert str(info.value) == f"{closed_form.__name__} requires n >= 0, got -1"


def test_multinomial_refuses_a_negative_total():
    with pytest.raises(ValueError) as info:
        multinomial(-1, [])
    assert str(info.value) == "multinomial requires n >= 0, got n=-1"


def test_render_draws_a_dyck_path_as_svg(capsys):
    code = main(["render", "NNSS", "--dyck", "--format", "svg"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, render_dyck_svg(parse_dyck("NNSS")), "")
