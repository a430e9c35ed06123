"""Record pins.json: the expected fingerprint of every benchmark output.

    PYTHONPATH=src python3 touchbench/pin.py

Every count is pinned only after two independent routes gave the same
decimal string: the DP oracle, the master summation (the package's
general_count, or the same sum taken as a binomial convolution of the
per-dimension factors), or a named closed form.  CLI outputs are built
here from such counts and from the documented examples, and must equal
what the CLI prints; the renders, which have no second route, are pinned
as printed.  The script stops without writing if any two routes differ.
Running it again reproduces the file; it never reads data/table3.txt
into a pin except through verify reports whose cells two routes agreed on.
"""

import itertools
import json
import os
import subprocess
import sys

from workloads import (
    PROBE_CAPS,
    WORKLOADS,
    cli_fingerprint,
    count_fingerprint,
    probe_grid,
    report_fingerprint,
    request_id,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

from touchard import (  # noqa: E402
    aa_closed,
    canonicalize_type,
    catalan,
    count_dp,
    general_count,
    sequence_dp,
    verify,
    verify_table3,
)
from touchard.exactmath import binomial  # noqa: E402

ROUTES = {}


def agree(key: str, routes: dict, record: bool = True):
    """The common value of all routes, or stop."""
    values = list(routes.values())
    if any(value != values[0] for value in values[1:]):
        raise SystemExit(f"{key}: routes disagree: {sorted(routes)}")
    if record:
        ROUTES[key] = sorted(routes)
    return values[0]


def convolve(a: list, b: list) -> list:
    """Binomial convolution: c[n] = sum_k binomial(n, k) a[k] b[n - k]."""
    out = []
    for n in range(min(len(a), len(b))):
        total = 0
        coefficient = 1
        for k in range(n + 1):
            total += coefficient * a[k] * b[n - k]
            coefficient = coefficient * (n - k) // (k + 1)
        out.append(total)
    return out


def meander_1d(n_max: int) -> list:
    """binomial(j, floor(j/2)): one-dimensional meanders of length j."""
    return [binomial(j, j // 2) for j in range(n_max + 1)]


def quadrant_cc(n_max: int) -> list:
    """Closed form for type cc (OEIS A005566): walks in the quarter plane,
    binomial(n, floor(n/2)) * binomial(n + 1, floor((n + 1)/2))."""
    return [binomial(n, n // 2) * binomial(n + 1, (n + 1) // 2) for n in range(n_max + 1)]


def octant_excursions(n_max: int) -> list:
    """Type aaa by a forward sweep over height triples.

    Independent of both package routes.  The three dimensions are
    interchangeable, so heights are kept sorted; the number of walks to
    a point is the same for every permutation of it.
    """
    layer = {(0, 0, 0): 1}
    out = [1]
    for k in range(1, n_max + 1):
        room = n_max - k  # steps left to come back to the origin
        targets = set()
        for heights in layer:
            for i in range(3):
                for delta in (1, -1):
                    moved = list(heights)
                    moved[i] += delta
                    if moved[i] >= 0 and sum(moved) <= room:
                        targets.add(tuple(sorted(moved)))
        nxt = {}
        for target in targets:
            total = 0
            for i in range(3):
                for delta in (1, -1):
                    source = list(target)
                    source[i] -= delta
                    if source[i] >= 0:
                        total += layer.get(tuple(sorted(source)), 0)
            nxt[target] = total
        layer = nxt
        out.append(layer.get((0, 0, 0), 0))
    return out


def cli(args) -> tuple:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-m", "touchard", *args], capture_output=True, env=env, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def ae_walks(n: int) -> list:
    """ae-walks of length n in the CLI's order, by filtering every string."""
    walks = []
    for letters in itertools.product("ENSW", repeat=n):
        height = 0
        for letter in letters:
            height += {"N": 1, "S": -1}.get(letter, 0)
            if height < 0:
                break
        else:
            if height == 0:
                walks.append("".join(letters))
    return walks


def pin_count(fn: str, letters: str, n: int) -> str:
    t = canonicalize_type(letters)
    key = f"{fn} {letters} {n}"
    if fn == "count_dp" and letters == "aa":
        value = agree(key, {"dp": count_dp(t, n), "closed:aa_closed": aa_closed(n)})
    elif fn == "count_dp" and letters == "ae":
        # The DP route raises RecursionError at this n; pin from the others.
        value = agree(key, {"formula": general_count(t, n), "closed:catalan(n+1)": catalan(n + 1)})
    elif fn == "sequence_dp":
        value = agree(key, {
            "dp": sequence_dp(t, n),
            "formula": [general_count(t, k) for k in range(n + 1)],
        })
    elif fn == "general_count" and letters == "cccc":
        cc = quadrant_cc(n)
        value = agree(key, {
            "formula": general_count(t, n),
            "closed:cc*cc": convolve(cc, cc)[n],
        })
    elif fn == "general_count" and letters == "ccc":
        value = agree(key, {
            "formula": general_count(t, n),
            "closed:cc*c": convolve(quadrant_cc(n), meander_1d(n))[n],
        })
    elif fn == "general_count" and letters == "ae":
        value = agree(key, {"formula": general_count(t, n), "closed:catalan(n+1)": catalan(n + 1)})
    elif fn == "general_count_seq" and letters == "aa":
        value = agree(key, {
            "formula": [general_count(t, k) for k in range(n + 1)],
            "closed:aa_closed": [aa_closed(k) if k % 2 == 0 else 0 for k in range(n + 1)],
        })
    elif fn == "general_count_seq" and letters == "ae":
        value = agree(key, {
            "formula": [general_count(t, k) for k in range(n + 1)],
            "closed:catalan(n+1)": [catalan(k + 1) for k in range(n + 1)],
        })
    else:
        raise SystemExit(f"no two routes known for {key}")
    return count_fingerprint(value)


def pin_report(key: str, report, tallies: dict | None) -> str:
    for row in report.rows:
        values = {"dp": row.oracle, "formula": row.formula}
        if row.closed is not None:
            values["closed"] = row.closed
        agree(f"{key} {row.type_letters} n={row.n}", values, record=False)
    fingerprint = report_fingerprint(report.rows)
    if tallies is not None and not fingerprint.startswith(tallies_text(tallies)):
        raise SystemExit(f"{key}: tallies {fingerprint.split(' rows=')[0]}, expected {tallies}")
    ROUTES[key] = ["dp", "formula", "closed where named"]
    return fingerprint


def tallies_text(tallies: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in tallies.items())


def expected_cli(args: tuple) -> tuple:
    """(returncode, stdout, stderr kind) built without the CLI, or None."""
    command = args[0]
    if command == "count" and args[2] == "az":
        return 1, "", "error-line"
    if command == "count":
        n = int(args[4])
        value = agree(f"cli count ae {n}", {
            "formula": general_count(canonicalize_type("ae"), n),
            "closed:catalan(n+1)": catalan(n + 1),
        })
        return 0, f"{value}\n", "empty"
    if command == "sequence":
        n_max = int(args[4])
        values = agree(f"cli sequence ae {n_max}", {
            "dp": sequence_dp(canonicalize_type("ae"), n_max),
            "closed:catalan(n+1)": [catalan(k + 1) for k in range(n_max + 1)],
        })
        if args[6] == "bfile":
            return 0, "".join(f"{k} {v}\n" for k, v in enumerate(values)), "empty"
        return 0, "".join(
            json.dumps({"type": "ae", "n": k, "count": str(v)}, separators=(",", ":")) + "\n"
            for k, v in enumerate(values)
        ), "empty"
    if command == "enumerate":
        n = int(args[4])
        walks = ae_walks(n)
        agree(f"cli enumerate ae {n}", {"brute:bench": len(walks), "closed:catalan(n+1)": catalan(n + 1)})
        return 0, "".join(walk + "\n" for walk in walks), "empty"
    if command == "validate" and args[3] == "NEWS":
        return 0, "valid\n", "empty"
    if command == "validate":
        return 1, "invalid at step 1: height below 0 in dimension 0\nE [S] N W\n", "empty"
    if command == "dyck":
        pairs = {"N": "NN", "S": "SS", "E": "NS", "W": "SN"}
        if args[1] == "encode":
            return 0, "N" + "".join(pairs[step] for step in args[2]) + "S\n", "empty"
        inner = args[2][1:-1]
        steps = {pair: step for step, pair in pairs.items()}
        return 0, "".join(steps[inner[i:i + 2]] for i in range(0, len(inner), 2)) + "\n", "empty"
    if command == "render" and args == ("render", "NEWS", "--type", "ae"):
        return 0, "+<--+\nv\no===.\n", "empty"
    if command == "verify":
        report = verify(canonicalize_type("bdd"), 3)
        pin_report("cli verify bdd 3", report, None)
        return 0, (
            "verify: 1 type(s), 4 row(s) checked, 1 agree, 3 erratum, 0 mismatch, 0 skipped\n"
            "type n oracle formula closed golden status\n"
            "bdd 0 1 1 - 1 agree\n"
            "bdd 1 2 2 - 3 erratum\n"
            "bdd 2 6 6 - 11 erratum\n"
            "bdd 3 20 20 - 45 erratum\n"
            "NOTE bdd: printed golden digits are transposed with row bde; computed values "
            "match the partner row and the row's cited identifier A000984\n"
        ), "empty"
    return None


def pin_cli(args: tuple) -> str:
    returncode, stdout, stderr = cli(args)
    again = cli(args)
    if again[:2] != (returncode, stdout):
        raise SystemExit(f"cli {' '.join(args)}: output differs between two runs")
    expected = expected_cli(args)
    if expected is None:  # renders: a single route, pinned as printed
        if returncode != 0 or stderr:
            raise SystemExit(f"cli {' '.join(args)}: failed: {stderr!r}")
        return cli_fingerprint(returncode, stdout, stderr)
    exp_rc, exp_out, exp_err = expected
    fingerprint = cli_fingerprint(exp_rc, exp_out.encode(), b"error: x" if exp_err == "error-line" else b"")
    actual = cli_fingerprint(returncode, stdout, stderr)
    if actual != fingerprint:
        if "err=traceback" not in actual:
            raise SystemExit(f"cli {' '.join(args)}: prints {actual}, expected {fingerprint}")
        print(f"note: cli {' '.join(args)} fails today; pinned the expected output")
    return fingerprint


def main() -> None:
    pins = {"requests": {}, "probe": {}, "routes": ROUTES}
    for workload, spec in WORKLOADS.items():
        for scale in ("full", "tiny"):
            for request in spec[scale]:
                key = request_id(request)
                if key in pins["requests"]:
                    continue
                if request[0] == "cli":
                    pins["requests"][key] = pin_cli(request[1])
                elif request[0] == "verify_table3":
                    tallies = None
                    if request[2] is None:  # the README's figures for the whole table
                        tallies = {"agree": 290, "erratum": 21, "mismatch": 0, "skipped": 0}
                    pins["requests"][key] = pin_report(key, verify_table3(request[2]), tallies)
                elif request[0] == "verify":
                    n = request[2]
                    tallies = {"agree": n + 1, "erratum": 0, "mismatch": 0, "skipped": 0}
                    report = verify(canonicalize_type(request[1]), n)
                    pins["requests"][key] = pin_report(key, report, tallies)
                else:
                    pins["requests"][key] = pin_count(*request)
                print(f"pinned {key}", flush=True)

    aaa = canonicalize_type("aaa")
    sweep = octant_excursions(PROBE_CAPS["aaa"])
    pins["probe"]["aaa"] = {
        str(n): count_fingerprint(agree(f"probe aaa {n}", {
            "dp:bench-sweep": sweep[n], "formula": general_count(aaa, n),
        }))
        for n in probe_grid("aaa")
    }
    cap = PROBE_CAPS["cccc"]
    cc = quadrant_cc(cap)
    c = meander_1d(cap)
    by_closed = convolve(cc, cc)
    by_formula = convolve(convolve(c, c), convolve(c, c))
    cccc = canonicalize_type("cccc")
    probe = {}
    for n in probe_grid("cccc"):
        routes = {"closed:cc*cc": by_closed[n], "formula:convolution": by_formula[n]}
        if n <= 60:
            routes["formula"] = general_count(cccc, n)
        probe[str(n)] = count_fingerprint(agree(f"probe cccc {n}", routes))
    pins["probe"]["cccc"] = probe

    # The closed form used for cc must itself match the DP.
    cc_type = canonicalize_type("cc")
    agree("check cc closed form", {"dp": sequence_dp(cc_type, 40), "closed:A005566": quadrant_cc(40)})

    with open(os.path.join(HERE, "pins.json"), "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
