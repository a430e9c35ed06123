"""Command-line interface.

Subcommands: count, sequence, enumerate, validate, dyck, verify, render.
Exit codes: 0 on success, 1 on input errors (including guard refusals,
the DP's at the recursion limit among them, and exhausted memory), 2 when
verification finds a golden mismatch.
"""

import argparse
import os
import sys

# Start-up is most of a small request, so only oracle and walks load with
# this module.  closedforms (and exactmath with it) loads on the first
# --method formula request, bijections on the first dyck or render --dyck,
# and catalog, render and json inside the subcommands that use them.
# Every name bound below stays a module attribute that callers may wrap
# (touchbench/tracer.py does, step_alphabet included); the _cmd_ functions
# call whatever is bound there when they run.  The five deferred names are
# touchard._on_first_call stand-ins, which bind the loaded function in
# their place on the first call.
from . import _on_first_call
from .oracle import (
    DEFAULT_LIMITS,
    GuardExceeded,
    ResourceLimits,
    _brute_joins,
    count_dp,
    enumerate_walks,
    sequence_dp,
)
from .walks import (
    _step_tokens,
    canonicalize_type,
    parse_walk,
    step_alphabet,
    validate,
    walk_text,
)

general_count = _on_first_call("general_count", globals())
general_sequence = _on_first_call("general_sequence", globals())
dyck_to_touchard = _on_first_call("dyck_to_touchard", globals())
parse_dyck = _on_first_call("parse_dyck", globals())
touchard_to_dyck = _on_first_call("touchard_to_dyck", globals())

ENV_MAX_STATES = "WALKS_MAX_STATES"

# CPython 3.10 and 3.11 turn an int into decimal in time quadratic in its
# digits, so sequence and verify refuse, before printing anything, counts
# whose bits sum past this budget.  Type e is admitted to --max-n 11583,
# 67 million bits printed in 1.3 s end to end on a 2-core Xeon guest.
MAX_OUTPUT_BITS = 2**26


class CliError(Exception):
    """Bad command-line input; maps to exit code 1."""


def _charge_output(values) -> None:
    """Refuse counts whose bits sum past MAX_OUTPUT_BITS; None cells are free."""
    bits = sum(value.bit_length() for value in values if value is not None)
    if bits > MAX_OUTPUT_BITS:
        raise GuardExceeded(
            f"the counts to print span {bits} bits, over the output budget "
            f"of {MAX_OUTPUT_BITS} bits"
        )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _limits(args) -> ResourceLimits:
    max_brute = getattr(args, "max_brute", None)
    if max_brute is None:
        max_brute = DEFAULT_LIMITS.max_brute_candidates
    elif max_brute <= 0:
        raise CliError("--max-brute must be a positive integer")
    max_states = DEFAULT_LIMITS.max_dp_states
    raw = os.environ.get(ENV_MAX_STATES)
    if raw is not None:
        try:
            max_states = int(raw)
        except ValueError:
            max_states = 0
        if max_states <= 0:
            raise CliError(f"{ENV_MAX_STATES} must be a positive integer, got {raw!r}")
    return ResourceLimits(max_brute_candidates=max_brute, max_dp_states=max_states)


def _cmd_count(args) -> int:
    walk_type = canonicalize_type(args.type)
    if args.n < 0:
        raise CliError("--n must be >= 0")
    limits = _limits(args)
    if args.method == "formula":
        value = general_count(walk_type, args.n)
    elif args.method == "brute":
        value = sum(len(suffixes) for _, suffixes in _brute_joins(walk_type, args.n, limits))
    else:
        value = count_dp(walk_type, args.n, limits)
    print(value)
    return 0


def _cmd_sequence(args) -> int:
    walk_type = canonicalize_type(args.type)
    if args.max_n < 0:
        raise CliError("--max-n must be >= 0")
    limits = _limits(args)
    if args.method == "formula":
        values = general_sequence(walk_type, args.max_n)
    else:
        values = sequence_dp(walk_type, args.max_n, limits)
    _charge_output(values)
    if args.format == "json":
        import json
    for n, value in enumerate(values):
        if args.format == "bfile":
            print(f"{n} {value}")
        elif args.format == "json":
            print(
                json.dumps(
                    {"type": walk_type.letters, "n": n, "count": str(value)},
                    separators=(",", ":"),
                )
            )
        else:
            print(value)
    return 0


def _cmd_enumerate(args) -> int:
    walk_type = canonicalize_type(args.type)
    if args.n < 0:
        raise CliError("--n must be >= 0")
    for walk in enumerate_walks(walk_type, args.n, _limits(args)):
        print(walk_text(walk, walk_type))
    return 0


def _cmd_validate(args) -> int:
    walk_type = canonicalize_type(args.type)
    walk = parse_walk(args.walk, walk_type)
    violation = validate(walk, walk_type)
    if violation is None:
        print("valid")
        return 0
    print(f"invalid at step {violation.step_index}: {violation.reason}")
    inverse = _step_tokens(walk_type)
    tokens = [inverse[step] for step in walk.steps]
    # A nonzero-final-height violation has step_index == n, so no token
    # gets marked; the reason line already names the dimension.
    marked = [
        f"[{token}]" if index == violation.step_index else token
        for index, token in enumerate(tokens)
    ]
    print(" ".join(marked))
    return 1


def _cmd_dyck(args) -> int:
    from .bijections import TYPE_AE

    if args.mode == "encode":
        walk = parse_walk(args.text, TYPE_AE)
        print(touchard_to_dyck(walk).word)
    else:
        print(walk_text(dyck_to_touchard(parse_dyck(args.text)), TYPE_AE))
    return 0


def _cmd_verify(args) -> int:
    if args.n_max is not None and args.n_max < 0:
        raise CliError("--n-max must be >= 0")
    from . import catalog

    limits = _limits(args)
    if args.table3:
        if args.type:
            raise CliError("verify takes --table3 or --type, not both")
        report = catalog.verify_table3(args.n_max, limits)
    else:
        if not args.type:
            raise CliError("verify needs --table3 or --type")
        n_max = args.n_max if args.n_max is not None else 8
        report = catalog.verify(canonicalize_type(args.type), n_max, limits)
    _charge_output(
        value
        for row in report.rows
        for value in (row.oracle, row.formula, row.closed, row.golden)
    )
    print(report.text())
    return 0 if report.ok else 2


def _cmd_render(args) -> int:
    from . import render

    if args.dyck:
        if args.type:
            raise CliError("render takes --dyck or --type, not both")
        path = parse_dyck(args.text)
        output = (
            render.render_dyck_svg(path)
            if args.format == "svg"
            else render.render_dyck_ascii(path)
        )
    else:
        if not args.type:
            raise CliError("render needs --type or --dyck")
        walk_type = canonicalize_type(args.type)
        walk = parse_walk(args.text, walk_type)
        output = (
            render.render_walk_svg(walk, walk_type)
            if args.format == "svg"
            else render.render_walk_ascii(walk, walk_type)
        )
    if args.out:
        try:
            with open(args.out, "w", newline="\n") as handle:
                handle.write(output)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(output)
    return 0


def _add_count(sub) -> None:
    count = sub.add_parser("count", help="count valid walks of one length")
    count.add_argument("--type", required=True, help="walk type letters, e.g. ae")
    count.add_argument("--n", type=int, required=True, help="walk length")
    count.add_argument(
        "--method",
        choices=("dp", "formula", "brute"),
        default="dp",
        help="counting route (default: dp)",
    )
    count.add_argument("--max-brute", type=int, help="brute-force candidate guard")
    count.set_defaults(func=_cmd_count)


def _add_sequence(sub) -> None:
    sequence = sub.add_parser("sequence", help="counts for lengths 0..max-n")
    sequence.add_argument("--type", required=True)
    sequence.add_argument(
        "--max-n", "--n-max", dest="max_n", type=int, required=True
    )
    sequence.add_argument(
        "--format", choices=("plain", "bfile", "json"), default="plain"
    )
    sequence.add_argument(
        "--method",
        choices=("dp", "formula"),
        default="dp",
        help="counting route (default: dp)",
    )
    sequence.set_defaults(func=_cmd_sequence)


def _add_enumerate(sub) -> None:
    enumerate_cmd = sub.add_parser("enumerate", help="list valid walks of one length")
    enumerate_cmd.add_argument("--type", required=True)
    enumerate_cmd.add_argument("--n", type=int, required=True)
    enumerate_cmd.add_argument("--max-brute", type=int)
    enumerate_cmd.set_defaults(func=_cmd_enumerate)


def _add_validate(sub) -> None:
    validate_cmd = sub.add_parser("validate", help="check one walk against its type")
    validate_cmd.add_argument("--type", required=True)
    validate_cmd.add_argument("walk", help="walk text, e.g. NSEW")
    validate_cmd.set_defaults(func=_cmd_validate)


def _add_dyck(sub) -> None:
    dyck = sub.add_parser("dyck", help="convert between ae-walks and Dyck words")
    dyck.add_argument("mode", choices=("encode", "decode"))
    dyck.add_argument("text", help="walk text (encode) or Dyck word (decode)")
    dyck.set_defaults(func=_cmd_dyck)


def _add_verify(sub) -> None:
    verify = sub.add_parser("verify", help="cross-check counts against golden tables")
    verify.add_argument("--table3", action="store_true", help="check all golden rows")
    verify.add_argument("--type", help="check a single type instead")
    verify.add_argument("--n-max", "--max-n", dest="n_max", type=int)
    verify.set_defaults(func=_cmd_verify)


def _add_render(sub) -> None:
    render_cmd = sub.add_parser("render", help="draw a walk or Dyck path")
    render_cmd.add_argument("text", help="walk text or Dyck word")
    render_cmd.add_argument("--type", help="walk type (grid picture)")
    render_cmd.add_argument(
        "--dyck", action="store_true", help="treat the text as a Dyck word timeline"
    )
    render_cmd.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    render_cmd.add_argument("--out", help="write to a file instead of stdout")
    render_cmd.set_defaults(func=_cmd_render)


# The subcommands in the order that touchard --help lists them.
_SUBCOMMANDS = {
    "count": _add_count,
    "sequence": _add_sequence,
    "enumerate": _add_enumerate,
    "validate": _add_validate,
    "dyck": _add_dyck,
    "verify": _add_verify,
    "render": _add_render,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The touchard parser, with only command's subparser when command names one.

    A subcommand's help, usage and error texts do not depend on its
    siblings, so main builds just the subparser that its first argument
    names, and all seven when that argument is missing or names none
    (touchard, touchard -h, an unknown command).
    """
    parser = _Parser(prog="touchard", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = _SUBCOMMANDS.get(command)
    for add in (chosen,) if chosen else _SUBCOMMANDS.values():
        add(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    # Exact counts may pass the 4300-digit int-to-str limit; lift it for this call only.
    digits = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        # Flush here, so that a reader that closed early shows up below.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull, so that the
        # interpreter's final flush of what is left cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, GuardExceeded, ValueError, RecursionError, MemoryError) as exc:
        # ParseError is a ValueError; MemoryError usually carries no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
