"""Exact enumeration workbench for Touchard walks.

Counting of lattice walks whose per-dimension constraints are drawn from
five kinds (excursion, bridge, meander, one-way, free), with independent
brute-force and DP oracles, closed-form summations, the bijection with
Dyck paths, golden sequence tables, and a small CLI.
"""

from .bijections import (
    DyckPath,
    MotzkinStep,
    TYPE_AE,
    dyck_to_touchard,
    enumerate_dyck,
    parse_dyck,
    to_two_colored_motzkin,
    touchard_to_dyck,
)
from .catalog import (
    RowCheck,
    SequenceRecord,
    TABLE3_TERM_TRANSPOSITIONS,
    Table2Entry,
    VerificationReport,
    golden_table3,
    named_closed_form,
    table2_map,
    verify,
    verify_table3,
)
from .render import (
    render_dyck_ascii,
    render_dyck_svg,
    render_walk_ascii,
    render_walk_svg,
    walk_vertices,
)
from .closedforms import (
    aa_closed,
    ab_closed,
    ace3d_count,
    general_count,
    general_sequence,
    halfplane_closed,
    quadrant_axis_sum,
    touchard_terms,
    vandermonde_chain,
)
from .exactmath import (
    binomial,
    catalan,
    central_binomial_any,
    central_binomial_even,
    motzkin,
    multinomial,
)
from .oracle import (
    GuardExceeded,
    ResourceLimits,
    count_dp,
    enumerate_walks,
    sequence_dp,
)
from .walks import (
    DimKind,
    Direction,
    ParseError,
    Violation,
    Walk,
    WalkType,
    canonicalize_type,
    parse_walk,
    prefix_heights,
    step_alphabet,
    validate,
    walk_text,
)

__version__ = "1.0.0"
