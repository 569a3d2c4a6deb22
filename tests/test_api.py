"""The package's public API is the union of its modules' __all__."""

import importlib

import maxca

MODULES = ("automaton", "charpoly", "enumerator", "gf2poly", "primitivity", "tables")


def test_package_all_is_the_sorted_union_of_module_lists():
    names = []
    for name in MODULES:
        names += importlib.import_module(f"maxca.{name}").__all__
    assert maxca.__all__ == sorted(names)
    assert len(set(names)) == len(names)


def test_every_public_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"maxca.{name}")
        for attr in module.__all__:
            assert getattr(maxca, attr) is getattr(module, attr)
