import importlib
import types

import pytest

import taximeasure


def test_public_names_resolve_once():
    names = taximeasure.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(taximeasure, n)]
    assert not missing


def test_public_names_are_the_objects_of_their_home_module():
    for name in taximeasure.__all__:
        home = importlib.import_module(f"taximeasure.{taximeasure._HOME[name]}")
        obj = getattr(taximeasure, name)
        assert obj is getattr(home, name), name
        # Defined there, not imported into it from another module.
        defined_in = getattr(obj, "__module__", home.__name__)
        if defined_in.startswith("taximeasure."):
            assert defined_in == home.__name__, name


def test_dir_covers_the_public_names():
    assert set(taximeasure.__all__) <= set(dir(taximeasure))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from taximeasure import *", namespace)
    for name in taximeasure.__all__:
        assert namespace[name] is getattr(taximeasure, name), name


def test_submodules_still_import_by_name():
    from taximeasure import measures, oracles, profiles, shapes

    for module, name in ((measures, "measures"), (oracles, "oracles"),
                         (profiles, "profiles"), (shapes, "shapes")):
        assert isinstance(module, types.ModuleType)
        assert module.__name__ == f"taximeasure.{name}"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        taximeasure.no_such_name  # noqa: B018
