"""Exact enumeration workbench for Touchard walks.

Counting of lattice walks whose per-dimension constraints are drawn from
five kinds (excursion, bridge, meander, one-way, free), with independent
brute-force and DP oracles, closed-form summations, the bijection with
Dyck paths, golden sequence tables, and a small CLI.

The public names below load their submodule on first access (PEP 562),
so `import touchard` alone imports no submodule and each CLI subcommand
loads only the modules it runs.
"""

_SUBMODULE_NAMES = {
    "bijections": (
        "DyckPath",
        "MotzkinStep",
        "TYPE_AE",
        "dyck_to_touchard",
        "enumerate_dyck",
        "parse_dyck",
        "to_two_colored_motzkin",
        "touchard_to_dyck",
    ),
    "catalog": (
        "RowCheck",
        "SequenceRecord",
        "TABLE3_TERM_TRANSPOSITIONS",
        "Table2Entry",
        "VerificationReport",
        "golden_table3",
        "named_closed_form",
        "table2_map",
        "verify",
        "verify_table3",
    ),
    "render": (
        "render_dyck_ascii",
        "render_dyck_svg",
        "render_walk_ascii",
        "render_walk_svg",
        "walk_vertices",
    ),
    "closedforms": (
        "aa_closed",
        "ab_closed",
        "ace3d_count",
        "general_count",
        "general_sequence",
        "halfplane_closed",
        "quadrant_axis_sum",
        "touchard_terms",
        "vandermonde_chain",
    ),
    "exactmath": (
        "binomial",
        "catalan",
        "central_binomial_any",
        "central_binomial_even",
        "motzkin",
        "multinomial",
    ),
    "oracle": (
        "GuardExceeded",
        "ResourceLimits",
        "count_dp",
        "enumerate_walks",
        "sequence_dp",
    ),
    "walks": (
        "DimKind",
        "Direction",
        "ParseError",
        "Violation",
        "Walk",
        "WalkType",
        "canonicalize_type",
        "parse_walk",
        "prefix_heights",
        "step_alphabet",
        "validate",
        "walk_text",
    ),
}

_MODULE_OF = {
    name: module for module, names in _SUBMODULE_NAMES.items() for name in names
}

__all__ = list(_MODULE_OF)

__version__ = "1.0.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, goes through the import
    # statement's own path, so the load shows in python -X importtime.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=(name,)), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
