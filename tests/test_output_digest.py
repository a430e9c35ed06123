"""Byte stability of the Dyck and render layers, pinned as one SHA-256.

The digest covers the ASCII and SVG pictures of every ae-walk with
n <= 6, of every Dyck word of length <= 14 and of all 2-D walks of a few
other types at n = 4; the order of enumerate_dyck for every even length
<= 14; and the messages and offsets of parse_dyck and DyckPath on
malformed words.  Any change to these outputs changes the digest.
"""

import hashlib

from touchard import (
    DyckPath,
    ParseError,
    TYPE_AE,
    canonicalize_type,
    enumerate_dyck,
    enumerate_walks,
    parse_dyck,
    render_dyck_ascii,
    render_dyck_svg,
    render_walk_ascii,
    render_walk_svg,
    walk_text,
)

DIGEST = "8445b022330a1b8d675b516650cd9fb399098c7d2c7605f4d66f854d7b477162"

DYCK_INPUTS = [
    "NQS", "NS S", "NSN",  # the cases of test_parse_dyck_offsets
    "", " ", "S", "N", "SN", "NSSN", "NNS", "nsS", " n NSs ", "N S N",
    "NN\tSS\n", "x", "N x", "SX", "NNSSS", "NNNSS  ", "ns ns", "NSNSSNNS",
]


def _outcomes():
    for n in range(7):
        for walk in enumerate_walks(TYPE_AE, n):
            yield render_walk_ascii(walk, TYPE_AE)
            yield render_walk_svg(walk, TYPE_AE)
    for letters in ("cc", "bb", "ab", "de", "dd", "a", "e"):
        walk_type = canonicalize_type(letters)
        for walk in enumerate_walks(walk_type, 4):
            yield walk_text(walk, walk_type)
            yield render_walk_ascii(walk, walk_type)
            yield render_walk_svg(walk, walk_type)
    for length in range(0, 15, 2):
        paths = enumerate_dyck(length)
        yield " ".join(path.word for path in paths)
        for path in paths:
            yield render_dyck_ascii(path)
            yield render_dyck_svg(path)
    for text in DYCK_INPUTS:
        try:
            yield f"parsed {parse_dyck(text).word!r}"
        except ParseError as exc:
            yield f"ParseError {exc} @ {exc.offset}"
        try:
            yield f"built {DyckPath(text).word!r}"
        except ValueError as exc:
            yield f"ValueError {exc}"


def test_dyck_and_render_outputs_are_byte_stable():
    digest = hashlib.sha256()
    for item in _outcomes():
        digest.update(item.encode())
        digest.update(b"\0")
    assert digest.hexdigest() == DIGEST
