import importlib

import pytest

MODULES = (
    "chain",
    "cli",
    "functionals",
    "harness",
    "hilbert",
    "modelio",
    "paths",
    "reporting",
    "seeding",
    "twisted",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    mod = importlib.import_module(f"twistlab.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from twistlab.{name} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()
