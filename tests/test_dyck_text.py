"""Dyck text is read as type-a walk text: one tokenizer, the Dyck messages kept."""

import pytest

from touchard import DyckPath, ParseError, canonicalize_type, parse_dyck
from touchard import bijections


@pytest.mark.parametrize(
    "text, letter, offset",
    [
        ("+3", "+", 0),
        ("N+S", "+", 1),
        ("N+", "+", 1),
        ("N-3S", "-", 1),
        ("NN SS +", "+", 6),
        ("nnſſ", "ſ", 2),
        ("ßN", "ß", 0),
        ("NİS", "İ", 1),
    ],
)
def test_unrecognized_letter_names_one_character(text, letter, offset):
    with pytest.raises(ParseError) as info:
        parse_dyck(text)
    assert str(info.value) == f"unrecognized Dyck letter {letter!r} at offset {offset}"
    assert info.value.offset == offset


@pytest.mark.parametrize("text", ["NS\x85", " NS"])
def test_unicode_and_ascii_whitespace_are_skipped(text):
    assert parse_dyck(text) == DyckPath("NS")


def test_parse_dyck_tokenizes_once_as_type_a(monkeypatch):
    calls = []
    parse_walk = bijections.parse_walk

    def counted(text, walk_type):
        calls.append((text, walk_type))
        return parse_walk(text, walk_type)

    monkeypatch.setattr(bijections, "parse_walk", counted)
    assert parse_dyck(" nN sS ").word == "NNSS"
    assert calls == [(" nN sS ", canonicalize_type("a"))]
