"""Walk types, Dyck paths and the small records keep their value semantics."""

import pytest

from touchard import (
    DimKind,
    DyckPath,
    ResourceLimits,
    Violation,
    Walk,
    WalkType,
    canonicalize_type,
    validate,
)


def test_walk_type_canonical_order_equality_and_hash():
    assert canonicalize_type("ea") == canonicalize_type("ae")
    assert hash(canonicalize_type("ea")) == hash(canonicalize_type("ae"))
    assert canonicalize_type("ae") != canonicalize_type("aa")
    assert canonicalize_type("ea").dims == (DimKind.EXCURSION, DimKind.FREE)


def test_walk_type_is_a_dict_key():
    table = {canonicalize_type("ae"): 1, canonicalize_type("bdd"): 2}
    assert table[WalkType((DimKind.FREE, DimKind.EXCURSION))] == 1
    assert table[canonicalize_type("dbd")] == 2
    assert len(table) == 2


def test_walk_type_validates_and_prints():
    with pytest.raises(ValueError, match="between 1 and 4"):
        WalkType(())
    with pytest.raises(ValueError, match="between 1 and 4"):
        canonicalize_type("abcde")
    walk_type = canonicalize_type("ea")
    assert str(walk_type) == walk_type.letters == "ae"
    assert repr(walk_type) == (
        "WalkType(dims=(<DimKind.EXCURSION: 'a'>, <DimKind.FREE: 'e'>))"
    )


def test_walk_type_is_immutable():
    walk_type = canonicalize_type("ae")
    with pytest.raises(AttributeError):
        walk_type.dims = ()
    with pytest.raises(AttributeError):
        del walk_type.dims
    assert walk_type.letters == "ae"


def test_dyck_path_value_semantics():
    assert DyckPath("NS") == DyckPath("NS")
    assert DyckPath("NS") != "NS"
    assert DyckPath("NNSS") != DyckPath("NSNS")
    assert {DyckPath("NS"): 1}[DyckPath("NS")] == 1
    assert repr(DyckPath("NS")) == "DyckPath(word='NS')"
    with pytest.raises(AttributeError):
        DyckPath("NS").word = "NNSS"


def test_dyck_path_validates():
    with pytest.raises(ValueError, match="below 0"):
        DyckPath("SN")
    with pytest.raises(ValueError, match="ends at height 1"):
        DyckPath("NNS")


def test_resource_limits_keyword_defaults():
    limits = ResourceLimits(max_dp_states=5)
    assert limits.max_dp_states == 5
    assert limits.max_brute_candidates == ResourceLimits().max_brute_candidates == 10_000_000
    assert ResourceLimits(max_brute_candidates=7).max_dp_states == 5_000_000


def test_walk_and_violation_fields():
    walk = Walk(((0, 1), (0, -1)))
    assert walk.n == 2
    assert walk == Walk(((0, 1), (0, -1)))
    violation = validate(Walk(((0, -1),)), canonicalize_type("ae"))
    assert violation == Violation(0, 0, "height below 0 in dimension 0")
    assert (violation.step_index, violation.dim) == (0, 0)
