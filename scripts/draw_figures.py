#!/usr/bin/env python3
"""Render the demonstration walk and its Dyck word to ASCII and SVG files.

Writes four files into the output directory: the 18-step walk and the
38-letter Dyck word it encodes, each as .txt and .svg.  The pair is the
worked example used throughout the tests.
"""

import argparse
import pathlib
import sys

from touchard import (
    TYPE_AE,
    parse_walk,
    render_dyck_ascii,
    render_dyck_svg,
    render_walk_ascii,
    render_walk_svg,
    touchard_to_dyck,
)

DEMO_WALK = "NEWWNNEESENNSSSSEE"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir",
        default="figures",
        help="directory for the rendered files (default: ./figures)",
    )
    parser.add_argument(
        "--walk",
        default=DEMO_WALK,
        help="ae-walk to draw instead of the demonstration walk",
    )
    args = parser.parse_args(argv)

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    walk = parse_walk(args.walk, TYPE_AE)
    dyck = touchard_to_dyck(walk)

    outputs = {
        "walk.txt": render_walk_ascii(walk, TYPE_AE),
        "walk.svg": render_walk_svg(walk, TYPE_AE),
        "dyck.txt": render_dyck_ascii(dyck),
        "dyck.svg": render_dyck_svg(dyck),
    }
    for name, content in outputs.items():
        path = out / name
        path.write_text(content, newline="\n")
        print(f"wrote {path}")
    print(f"walk:  {args.walk}")
    print(f"dyck:  {dyck.word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
