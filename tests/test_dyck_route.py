"""Dyck paths as the token strings of type-a walks, each word scanned once."""

import pytest

from touchard import (
    DyckPath,
    GuardExceeded,
    ResourceLimits,
    canonicalize_type,
    enumerate_dyck,
    enumerate_walks,
    parse_dyck,
    walk_text,
)
from touchard import bijections
from touchard.cli import main

TYPE_A = canonicalize_type("a")


@pytest.mark.parametrize("length", range(0, 17, 2))
def test_enumerate_dyck_lists_type_a_walks_in_order(length):
    paths = enumerate_dyck(length)
    assert paths == [DyckPath(walk_text(w, TYPE_A)) for w in enumerate_walks(TYPE_A, length)]
    assert all(type(path) is DyckPath for path in paths)


def test_enumerate_dyck_guard_trips_past_two_to_the_length():
    assert len(enumerate_dyck(12, ResourceLimits(max_brute_candidates=4096))) == 132
    with pytest.raises(GuardExceeded, match=r"2\^12 = 4096 candidate"):
        enumerate_dyck(12, ResourceLimits(max_brute_candidates=4095))


def test_parse_dyck_folds_case_and_whitespace():
    assert parse_dyck(" nN sS ") == DyckPath("NNSS")


def test_each_word_is_scanned_at_most_once(monkeypatch):
    calls = []
    scan = bijections._scan

    def counted(word):
        calls.append(word)
        return scan(word)

    monkeypatch.setattr(bijections, "_scan", counted)
    parse_dyck("NNSS")
    assert calls == ["NNSS"]
    calls.clear()
    assert len(enumerate_dyck(8)) == 14
    assert calls == []


@pytest.mark.parametrize("text", ["", "  "])
def test_cli_decode_of_the_empty_path_is_one_error_line(capsys, text):
    code = main(["dyck", "decode", text])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: the empty Dyck path has no corresponding walk\n"
