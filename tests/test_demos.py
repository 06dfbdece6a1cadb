"""The demos import only names that the package still defines."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _adiaflow_imports(path: Path) -> list:
    """(module, name) for every ``from adiaflow... import name`` in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "adiaflow"
        for alias in node.names
    ]


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_exist(path):
    imports = _adiaflow_imports(path)
    assert imports
    missing = [
        f"{module}.{name}" for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports names adiaflow lacks: {missing}"
