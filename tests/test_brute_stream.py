"""The brute-force route: its order, its refusal texts, and a count that keeps no walks."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import touchard
from touchard import (
    GuardExceeded,
    ResourceLimits,
    Walk,
    canonicalize_type,
    enumerate_dyck,
    enumerate_walks,
    step_alphabet,
    validate,
)

from conftest import all_type_strings

SRC = str(Path(touchard.__file__).resolve().parents[1])
MAX_N_BY_DIMS = {1: 6, 2: 4, 3: 3, 4: 3}


def accepted_candidates(walk_type, n):
    """The token-sorted candidate strings that validate accepts, in order."""
    directions = [direction for _, direction in sorted(step_alphabet(walk_type))]
    candidates = (Walk(combo) for combo in itertools.product(directions, repeat=n))
    return [walk for walk in candidates if validate(walk, walk_type) is None]


@pytest.mark.parametrize("letters", all_type_strings(4))
def test_enumerate_walks_is_the_validate_filter_in_token_order(letters):
    walk_type = canonicalize_type(letters)
    for n in range(MAX_N_BY_DIMS[len(letters)] + 1):
        assert enumerate_walks(walk_type, n) == accepted_candidates(walk_type, n)


@pytest.mark.parametrize(
    "letters, n, limits, message",
    [
        ("ae", 12, None,
         "enumerating type ae at length 12 scans 4^12 = 16777216 candidate strings "
         "of 12 letters, over the guard of 10000000"),
        ("ee", 65, None,
         "enumerating type ee at length 65 scans 4^65 candidate strings "
         "of 65 letters, over the guard of 10000000"),
        ("d", 6, ResourceLimits(max_brute_candidates=5),
         "enumerating type d at length 6 scans 1^6 = 1 candidate strings "
         "of 6 letters, over the guard of 5"),
    ],
)
def test_enumerate_walks_refusal_text(letters, n, limits, message):
    with pytest.raises(GuardExceeded) as refusal:
        enumerate_walks(canonicalize_type(letters), n, limits)
    assert str(refusal.value) == message


def test_one_letter_guard_admits_n_up_to_the_guard():
    d = canonicalize_type("d")
    walks = enumerate_walks(d, 5, ResourceLimits(max_brute_candidates=5))
    assert walks == [Walk(tuple(step_alphabet(d)[0][1] for _ in range(5)))]


def test_enumerate_dyck_refusal_text():
    with pytest.raises(GuardExceeded) as refusal:
        enumerate_dyck(12, ResourceLimits(max_brute_candidates=4095))
    assert str(refusal.value) == (
        "enumerating type a at length 12 scans 2^12 = 4096 candidate strings "
        "of 12 letters, over the guard of 4095"
    )


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
def test_brute_count_keeps_no_walk_list():
    # A process's ru_maxrss starts from the peak of the process that
    # spawned it, so a count spawned by this test session would report at
    # least the session's own size.  A bare interpreter spawns the count
    # instead and reports the peak of its one child.
    script = (
        "import resource, subprocess, sys\n"
        "status = subprocess.call([sys.executable, '-m', 'touchard', 'count',\n"
        "                          '--type', 'dd', '--n', '18', '--method', 'brute'])\n"
        "sys.stderr.write(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
    )
    assert (result.returncode, result.stdout) == (0, "262144\n")
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    peak_mib = int(result.stderr) / (2**20 if sys.platform == "darwin" else 2**10)
    assert peak_mib < 40
