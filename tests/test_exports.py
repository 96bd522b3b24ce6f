import ast
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


@pytest.mark.parametrize("name", ["chain", "functionals", "harness", "hilbert", "paths", "reporting"])
def test_no_power_operator_but_a_literal_square(name):
    # numpy's float power takes a CPU-dependent SIMD pow for every exponent but
    # a constant 2, so these modules square by `** 2` and take any other power
    # by multiplication (`functionals._power`)
    source = Path(importlib.import_module(f"twistlab.{name}").__file__).read_text(encoding="utf-8")
    powers = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
    ]
    exponents = [node.right if isinstance(node, ast.BinOp) else node.value for node in powers]
    assert [ast.unparse(e) for e in exponents if not (isinstance(e, ast.Constant) and e.value == 2)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_raise_is_a_class_main_maps_to_an_exit(name):
    # `cli.main` turns these four into exit 2 or 3; any other class would end it in a traceback
    source = Path(importlib.import_module(f"twistlab.{name}").__file__).read_text(encoding="utf-8")
    raised = [node.exc for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]
    classes = {ast.unparse(e.func if isinstance(e, ast.Call) else e) if e else "bare raise" for e in raised}
    assert classes <= {"ValueError", "ChainError", "SpecFileError", "NumericalError"}
