import importlib
import re
from pathlib import Path

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


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = re.search(r"## Library sketch(.*?)\n## ", readme, re.S).group(1)
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library sketch)", "exec"), {})
