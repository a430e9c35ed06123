"""Non-ASCII letters never fold into tokens, and oversized pictures are refused."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import touchard
from touchard import (
    GuardExceeded,
    ParseError,
    canonicalize_type,
    parse_dyck,
    parse_walk,
    render_dyck_ascii,
    render_dyck_svg,
    render_walk_ascii,
    render_walk_svg,
)
from touchard.cli import main
from touchard.render import MAX_RENDER_POINTS

SRC = str(Path(touchard.__file__).resolve().parents[1])
CC = canonicalize_type("cc")
LONG_S = "ſ"  # LATIN SMALL LETTER LONG S; str.upper() maps it to "S"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_walk_refuses_long_s():
    with pytest.raises(ParseError, match="unrecognized step token") as info:
        parse_walk("N" + LONG_S, canonicalize_type("ae"))
    assert info.value.offset == 1


def test_parse_dyck_refuses_long_s():
    with pytest.raises(ParseError, match="unrecognized Dyck letter") as info:
        parse_dyck("nn" + LONG_S * 2)
    assert info.value.offset == 2


def test_ascii_case_folding_is_kept():
    assert parse_walk("nsew", canonicalize_type("ae")) == parse_walk("NSEW", canonicalize_type("ae"))
    assert parse_dyck("nNsS").word == "NNSS"


@pytest.mark.parametrize(
    "argv",
    [("dyck", "decode", "nn" + LONG_S * 2), ("validate", "--type", "ae", "N" + LONG_S)],
)
def test_cli_refuses_long_s(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: unrecognized") and err.count("\n") == 1


def test_picture_at_the_guard_is_drawn():
    side = 499  # a 500 x 500 box of grid points
    assert (side + 1) ** 2 == MAX_RENDER_POINTS
    walk = parse_walk("E" * side + "N" * side, CC)
    assert render_walk_ascii(walk, CC).count("\n") == 2 * side + 1
    with pytest.raises(GuardExceeded, match="501 x 500"):
        render_walk_ascii(parse_walk("E" * (side + 1) + "N" * side, CC), CC)


@pytest.mark.parametrize("draw", [render_walk_ascii, render_walk_svg])
def test_huge_walk_picture_is_refused_at_once(draw):
    walk = parse_walk("E" * 10_000 + "N" * 10_000, CC)
    start = time.perf_counter()
    with pytest.raises(GuardExceeded, match="over the guard of"):
        draw(walk, CC)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("draw", [render_dyck_ascii, render_dyck_svg])
def test_huge_dyck_picture_is_refused_at_once(draw):
    path = parse_dyck("N" * 5_000 + "S" * 5_000)
    start = time.perf_counter()
    with pytest.raises(GuardExceeded, match="over the guard of"):
        draw(path)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("fmt", ["ascii", "svg"])
def test_cli_render_guard_is_one_error_line(fmt):
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "touchard", "render", "--type", "cc", "--format", fmt,
         "E" * 10_000 + "N" * 10_000],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert time.perf_counter() - start < 1.0
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "error: the picture spans 10001 x 10001 = 100020001 grid points, "
        f"over the guard of {MAX_RENDER_POINTS}\n"
    )
