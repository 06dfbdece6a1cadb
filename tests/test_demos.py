"""The demos and the README's Python examples import only names that the
package still defines, and every demo runs to completion."""

import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _readme_blocks() -> list:
    """The source of each ```python block of the README."""
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def _adiaflow_imports(source: str, filename: str) -> list:
    """(module, name) for every ``from adiaflow... import name`` in source."""
    tree = ast.parse(source, filename=filename)
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "adiaflow"
        for alias in node.names
    ]


def _missing(imports: list) -> list:
    return [
        f"{module}.{name}" for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_exist(path):
    imports = _adiaflow_imports(path.read_text(encoding="utf-8"), str(path))
    assert imports
    missing = _missing(imports)
    assert not missing, f"{path.name} imports names adiaflow lacks: {missing}"


# Every demo is cheap: as subprocesses on a 2-vCPU host they took 0.2-0.3 s
# (01-03) and 0.5-0.8 s (04-06, which shoot and run full solves; 05 calls
# ``evolve_lanes`` without a collapse floor and 06 runs a witness).
@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_cheap_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_example_imports_exist():
    blocks = _readme_blocks()
    assert blocks
    for index, source in enumerate(blocks):
        imports = _adiaflow_imports(source, f"README.md block {index}")
        missing = _missing(imports)
        assert not missing, f"README.md block {index} imports names " \
            f"adiaflow lacks: {missing}"
