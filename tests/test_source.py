"""Source hygiene: every name a module imports is used in that module, and
no module imports another module's underscore names."""

import ast
from pathlib import Path

import pytest

import adiaflow

MODULES = sorted(Path(adiaflow.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _private_imports(tree: ast.Module) -> list:
    return sorted(
        (node.lineno, alias.name) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names if alias.name.startswith("_")
    )


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom x import a, b\n"
                     "np.zeros(a)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "b")]


def test_the_check_sees_a_private_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "from .harness import _jsonable, build_runtime\n"
                     "from numpy import _core\n")
    assert _private_imports(tree) == [(2, "_jsonable"), (3, "_core")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_imports_no_underscore_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _private_imports(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_imports_only_names_it_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []
