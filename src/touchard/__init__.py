"""Exact enumeration workbench for Touchard walks.

Counting of lattice walks whose per-dimension constraints are drawn from
five kinds (excursion, bridge, meander, one-way, free), with independent
brute-force and DP oracles, closed-form summations, the bijection with
Dyck paths, golden sequence tables, and a small CLI.

The public names below load their submodule on first access (PEP 562),
so `import touchard` alone imports no submodule.  _on_first_call gives
cli and catalog stand-ins for the public names they defer, so each CLI
subcommand loads only the modules it runs and loading the golden tables
loads no formula module.
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


def _load(name):
    """The public name's object, importing its submodule.

    __import__, unlike importlib.import_module, goes through the import
    statement's own path, so the load shows in python -X importtime.
    """
    module = f"{__name__}.{_MODULE_OF[name]}"
    return getattr(__import__(module, fromlist=(name,)), name)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = _load(name)
    return value


def _on_first_call(name, namespace):
    """A stand-in for the public name that loads its submodule on the first call.

    A call finding the stand-in still bound at namespace[name] binds the
    loaded object there, so later calls through the namespace reach it
    directly.  A wrapper bound there with setattr is kept; it goes on
    calling the stand-in, which looks the name up in the submodule on each
    call, so it never holds a stale copy of what is bound there.
    """

    def call(*args, **kwargs):
        target = _load(name)
        if namespace.get(name) is call:
            namespace[name] = target
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


def __dir__():
    return sorted(set(globals()) | set(__all__))
