import ast
import importlib
import re
from pathlib import Path

import pytest

import twistlab

SRC = Path(twistlab.__file__).parent
# the package's modules, read from its directory so that a new one meets every rule that takes them all
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


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

