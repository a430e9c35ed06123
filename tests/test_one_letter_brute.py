"""The brute force on a one-letter alphabet, where the candidate guard admits n itself.

Base 1 has a single candidate at every length, so the guard lets n run up
to max_brute_candidates; the enumeration must not recurse once per step.
"""

import subprocess
import sys

from touchard import Direction, canonicalize_type, enumerate_walks


def test_one_way_walk_of_length_100000():
    walks = enumerate_walks(canonicalize_type("d"), 100_000)
    assert len(walks) == 1
    assert walks[0].steps == (Direction(0, 1),) * 100_000


def test_cli_counts_the_one_way_walk_of_length_100000():
    result = subprocess.run(
        [sys.executable, "-m", "touchard", "count", "--type", "d", "--n", "100000",
         "--method", "brute"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")
