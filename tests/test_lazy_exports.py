"""The package's public names resolve lazily to their submodules' objects."""

import importlib

import pytest

import touchard

SUBMODULES = (
    "bijections", "catalog", "closedforms", "exactmath", "oracle", "render", "walks",
)


def test_all_lists_55_unique_names():
    assert len(touchard.__all__) == len(set(touchard.__all__)) == 55
    assert touchard.__version__ == "1.0.0"


@pytest.mark.parametrize("name", touchard.__all__)
def test_public_name_is_the_submodule_object(name):
    owners = [
        module
        for module in (importlib.import_module(f"touchard.{sub}") for sub in SUBMODULES)
        if name in vars(module)
    ]
    value = getattr(touchard, name)
    assert any(vars(module)[name] is value for module in owners)
    namespace = {}
    exec(f"from touchard import {name}", namespace)
    assert namespace[name] is value


def test_submodules_import_by_name():
    from touchard import catalog, render

    assert catalog.verify is touchard.verify
    assert render.render_walk_ascii is touchard.render_walk_ascii


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        touchard.no_such_name
    with pytest.raises(ImportError):
        exec("from touchard import no_such_name", {})


def test_dir_lists_public_names():
    assert set(touchard.__all__) <= set(dir(touchard))
