"""DimKind hashes by identity, so hashing a WalkType makes no Python-level call."""

import pickle
import sys

import pytest

from touchard import DimKind, canonicalize_type


def _python_calls(function, *args) -> list:
    """Names of the Python-level functions entered while function(*args) runs."""
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return entered


def test_hashing_a_four_dimensional_type_makes_no_python_call():
    walk_type = canonicalize_type("abce")
    assert _python_calls(hash, walk_type) == []


@pytest.mark.parametrize("kind", list(DimKind))
def test_kinds_hash_by_identity_also_after_pickling(kind):
    assert hash(kind) == object.__hash__(kind)
    assert hash(pickle.loads(pickle.dumps(kind))) == hash(kind)
