"""Golden sequence tables and the cross-verification report.

The golden data (data/table3.txt) stores the published reference terms
for all 25 three-dimensional walk types digit for digit, and this module
checks them against the two independent computations: the DP oracle and
the master summation.  Disagreements are never silently dropped; they
are either hard mismatches (exit code 2 in the CLI) or, for the two
documented defects in the published tables, NOTE lines:

* rows bdd and bde have their printed digit strings transposed with
  each other (the rows' own cited identifiers side with the oracle), and
* the two-dimensional type ac is claimed to be counted by
  binomial(2n + 1, n), but that closed form counts type ce; the
  summation quadrant_axis_sum is what actually matches the ac oracle.

Loading the golden tables compiles neither the DP oracle nor
closedforms nor exactmath, and this module imports neither dataclasses
(which loads inspect) nor importlib.resources.  The golden records, the
table 2 entries and the report rows are NamedTuples: they copy with
_replace and _asdict and compare as tuples.  data/table3.txt is read
through the package's own loader, as pkgutil.get_data reads it.  The
nine formula names verify calls, and sequence_dp, are bound at import
to touchard._on_first_call stand-ins: each loads its module on its first
call and binds the loaded function in its place.  The named closed
forms look these names up when they run, so a name replaced with
setattr, before its first call or after, is the one verify calls.
verify and _formula_prefix import GuardExceeded when they run, and
ResourceLimits is named only in annotations, which are not evaluated.
"""

from __future__ import annotations

import os
from functools import cache
from itertools import zip_longest
from typing import TYPE_CHECKING, NamedTuple

from . import _on_first_call
from .walks import WalkType, canonicalize_type

if TYPE_CHECKING:
    from .oracle import ResourceLimits

aa_closed = _on_first_call("aa_closed", globals())
ab_closed = _on_first_call("ab_closed", globals())
ace3d_count = _on_first_call("ace3d_count", globals())
catalan = _on_first_call("catalan", globals())
general_count = _on_first_call("general_count", globals())
general_sequence = _on_first_call("general_sequence", globals())
halfplane_closed = _on_first_call("halfplane_closed", globals())
motzkin = _on_first_call("motzkin", globals())
quadrant_axis_sum = _on_first_call("quadrant_axis_sum", globals())
sequence_dp = _on_first_call("sequence_dp", globals())


class SequenceRecord(NamedTuple):
    """One golden row: a walk type and its published initial terms."""

    walk_type: WalkType
    terms: tuple
    source: str
    oeis_id: str | None = None
    even_only_star: bool = False
    absolute_values_note: bool = False


# Cited sequence identifiers for the golden three-dimensional rows.
# Rows absent here print no identifier in the source table.
_TABLE3_OEIS = {
    "aaa": "A064037",
    "aae": "A145867",
    "acd": "A145847",
    "add": "A000108",
    "ade": "A002212",
    "aee": "A005572",
    "bbb": "A002896",
    "bbc": "A138547",
    "bbe": "A202814",
    "bcd": "A150500",
    "bdd": "A000984",
    "bde": "A026375",
    "bee": "A081671",
}

# The one row whose cited sequence carries alternating signs; the golden
# terms store the absolute values, which equal the walk counts.
_TABLE3_ABS = {"bbc"}

# Documented erratum: these two rows' printed digit strings belong to
# each other.  Adjudicated by the oracle (e.g. three one-step walks of
# type bde: the one-way step and both free steps, yet the bde row prints
# 2) and by the rows' own cited identifiers.
TABLE3_TERM_TRANSPOSITIONS = {"bdd": "bde", "bde": "bdd"}


def golden_table3() -> list:
    """The 25 golden records, terms exactly as printed in the source table.

    Returns a new list on each call; the file is parsed once per process.
    """
    return list(_golden_records())


@cache
def _golden_records() -> tuple:
    path = os.path.join(os.path.dirname(__file__), "data", "table3.txt")
    text = __spec__.loader.get_data(path).decode()
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        letters, source, star, terms_field = line.split()
        records.append(
            SequenceRecord(
                walk_type=canonicalize_type(letters),
                terms=tuple(int(t) for t in terms_field.split(",")),
                source=source,
                oeis_id=_TABLE3_OEIS.get(letters),
                even_only_star=star == "*",
                absolute_values_note=letters in _TABLE3_ABS,
            )
        )
    return tuple(records)


class Table2Entry(NamedTuple):
    """A two-dimensional type mapped to its cited sequence identifier."""

    walk_type: WalkType
    oeis_id: str
    even_only_star: bool = False


def table2_map() -> list:
    """The 15 two-dimensional types and their cited identifiers.

    Starred entries enumerate even lengths only (the cited sequences
    index those walks by half-length); no terms are printed for them in
    the source, so there is nothing to store beyond the flag.  The ac
    entry repeats the published citation verbatim even though the
    adjudicated ac counts do not match it; see verify().
    """
    rows = [
        ("aa", "A005568", True),
        ("ab", "A000891", True),
        ("ac", "A001700", False),
        ("ad", "A001006", False),
        ("ae", "A000108", False),
        ("bb", "A002894", True),
        ("bc", "A018224", False),
        ("bd", "A002426", False),
        ("be", "A000984", False),
        ("cc", "A005566", False),
        ("cd", "A005773", False),
        ("ce", "A001700", False),
        ("dd", "A000079", False),
        ("de", "A000244", False),
        ("ee", "A000302", False),
    ]
    return [
        Table2Entry(canonicalize_type(letters), oeis, star)
        for letters, oeis, star in rows
    ]


# Named closed forms attached to specific types, used as the third
# verification column where one exists.  Each looks its function up in
# this module when it runs.
_SPECIAL_CLOSED = {
    "ae": ("catalan(n+1)", lambda n: catalan(n + 1)),
    "add": ("catalan(n+1)", lambda n: catalan(n + 1)),
    "ab": ("catalan(n/2)*binom(n+1,n/2)", lambda n: ab_closed(n) if n % 2 == 0 else 0),
    "aa": ("catalan(n/2)*catalan(n/2+1)", lambda n: aa_closed(n) if n % 2 == 0 else 0),
    "ac": ("quadrant_axis_sum", lambda n: quadrant_axis_sum(n)),
    "ad": ("motzkin(n)", lambda n: motzkin(n)),
    "ce": ("binom(2n+1,n)", lambda n: halfplane_closed(n)),
    "ace": ("ace3d_count", lambda n: ace3d_count(n)),
}


def named_closed_form(walk_type: WalkType):
    """(label, function) for the type's named closed form, or None."""
    special = _SPECIAL_CLOSED.get(walk_type.letters)
    if special is not None:
        return special
    if all(kind.unrestricted for kind in walk_type.dims):
        r = walk_type.free_direction_count
        return (f"{r}^n", lambda n, r=r: r**n)
    return None


def _fmt(value) -> str:
    return "-" if value is None else str(value)


class RowCheck(NamedTuple):
    """One verified (type, n) cell of the report."""

    type_letters: str
    n: int
    oracle: int | None
    formula: int | None
    closed: int | None
    golden: int | None
    status: str

    def structured(self) -> str:
        return (
            f"{self.type_letters} {self.n} {_fmt(self.oracle)} {_fmt(self.formula)} "
            f"{_fmt(self.closed)} {_fmt(self.golden)} {self.status}"
        )


class VerificationReport:
    """Checked rows, NOTE lines and WARN lines; each list is the report's own."""

    def __init__(
        self, rows: list | None = None, notes: list | None = None, warnings: list | None = None
    ):
        self.rows = [] if rows is None else rows
        self.notes = [] if notes is None else notes
        self.warnings = [] if warnings is None else warnings

    def __repr__(self) -> str:
        return (
            f"VerificationReport(rows={self.rows!r}, notes={self.notes!r}, "
            f"warnings={self.warnings!r})"
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.rows, self.notes, self.warnings) == (other.rows, other.notes, other.warnings)

    @property
    def ok(self) -> bool:
        """True when no hard mismatch was recorded (NOTEs do not fail)."""
        return not any(row.status.startswith("mismatch") for row in self.rows)

    def counts(self) -> dict:
        out = {"agree": 0, "erratum": 0, "mismatch": 0, "skipped": 0}
        for row in self.rows:
            out[row.status.split("(", 1)[0]] += 1
        return out

    def text(self) -> str:
        counts = self.counts()
        types = sorted({row.type_letters for row in self.rows})
        lines = [
            f"verify: {len(types)} type(s), {len(self.rows)} row(s) checked, "
            f"{counts['agree']} agree, {counts['erratum']} erratum, "
            f"{counts['mismatch']} mismatch, {counts['skipped']} skipped",
            "type n oracle formula closed golden status",
        ]
        lines.extend(row.structured() for row in self.rows)
        lines.extend(f"NOTE {note}" for note in self.notes)
        lines.extend(f"WARN {warning}" for warning in self.warnings)
        return "\n".join(lines)


def _golden_row(records: list, walk_type: WalkType) -> SequenceRecord | None:
    """walk_type's golden record among records, or None."""
    return next((record for record in records if record.walk_type == walk_type), None)


def _formula_prefix(walk_type: WalkType, n_max: int) -> tuple:
    """Master-summation counts for the longest admitted prefix of 0..n_max.

    Returns (counts, refusal), where refusal is the guard's refusal of the
    whole row, or None.  The guard trips before any table is built, and
    after a refusal the largest n general_sequence admits is read from
    the type's plan (closedforms._plan), worked out once per budget, so
    only that prefix is computed.
    """
    from .oracle import GuardExceeded

    try:
        return general_sequence(walk_type, n_max), None
    except GuardExceeded as exc:
        refusal = exc
    from .closedforms import MAX_FORMULA_WORK, _plan  # loaded by the refused call

    _, _, _, (largest, _) = _plan(walk_type, MAX_FORMULA_WORK)
    return general_sequence(walk_type, largest) if largest >= 0 else [], refusal


def verify(
    walk_type: WalkType,
    n_max: int,
    limits: ResourceLimits | None = None,
    records: list | None = None,
) -> VerificationReport:
    """Cross-check one type for n = 0..n_max.

    Compares the DP oracle, the master summation, the named closed form
    (if any) and the golden terms (if the type has a golden row).  Each
    column comes from one call per row.  The closed form is evaluated
    only where the oracle column exists, so the DP guard bounds it too.
    For the two transposed golden rows the adjudicated expectation is
    the partner row's digits; the verbatim digits still appear in the
    golden column and the row is flagged "erratum" with an explanatory
    NOTE.  Lengths that no column fills are omitted with a WARN.  records
    are the golden records (golden_table3() by default).
    """
    from .oracle import GuardExceeded

    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    records = golden_table3() if records is None else records
    letters = walk_type.letters
    record = _golden_row(records, walk_type)
    golden = record.terms if record is not None else ()
    expected = golden
    partner_letters = TABLE3_TERM_TRANSPOSITIONS.get(letters)
    if record is not None and partner_letters is not None:
        expected = (_golden_row(records, canonicalize_type(partner_letters)) or record).terms

    report = VerificationReport()
    oracle = []
    try:
        oracle = sequence_dp(walk_type, n_max, limits)
    except GuardExceeded as exc:
        report.warnings.append(f"{letters}: oracle skipped: {exc}")
    formula, refusal = _formula_prefix(walk_type, n_max)
    if refusal is not None:
        report.warnings.append(f"{letters}: formula skipped from n={len(formula)}: {refusal}")
    closed_form = named_closed_form(walk_type)
    closed = [closed_form[1](n) for n in range(n_max + 1)] if closed_form and oracle else []
    filled = min(n_max + 1, max(len(oracle), len(formula), len(golden)))
    if filled <= n_max:
        report.warnings.append(f"{letters}: rows n={filled}..{n_max} omitted: no column fills them")

    columns = (oracle, formula, closed, golden, expected)
    erratum_seen = False
    for n, cells in enumerate(zip_longest(*(column[:filled] for column in columns))):
        oracle_value, formula_value, closed_value, golden_value, expected_golden = cells
        if oracle_value is None:
            status = "skipped(oracle-guard)"
        elif {formula_value, closed_value, expected_golden} - {None, oracle_value}:
            details = (
                f"oracle={_fmt(oracle_value)},formula={_fmt(formula_value)},"
                f"closed={_fmt(closed_value)},golden={_fmt(expected_golden)}"
            )
            status = f"mismatch({details})"
        elif golden_value not in (None, oracle_value):
            status = "erratum"
            erratum_seen = True
        else:
            status = "agree"
        report.rows.append(
            RowCheck(letters, n, oracle_value, formula_value, closed_value, golden_value, status)
        )

    if erratum_seen:
        report.notes.append(
            f"{letters}: printed golden digits are transposed with row "
            f"{partner_letters}; computed values match the partner row and "
            f"the row's cited identifier {_TABLE3_OEIS.get(letters)}"
        )
    if letters == "ac":
        claim = ", ".join(
            f"n={n}: claimed binom(2n+1,n)={halfplane_closed(n)} vs count={general_count(walk_type, n)}"
            for n in range(min(n_max, 3) + 1)
        )
        report.notes.append(
            "ac: the published closed form binom(2n+1,n) (cited as A001700) "
            f"counts type ce, not ac ({claim})"
        )
    return report


def verify_table3(
    n_max: int | None = None, limits: ResourceLimits | None = None
) -> VerificationReport:
    """Cross-check every golden row over its printed terms (capped at n_max)."""
    records = golden_table3()
    report = VerificationReport()
    for record in records:
        row_max = len(record.terms) - 1
        if n_max is not None:
            row_max = min(row_max, n_max)
        part = verify(record.walk_type, row_max, limits, records)
        report.rows.extend(part.rows)
        report.notes.extend(part.notes)
        report.warnings.extend(part.warnings)
    return report
