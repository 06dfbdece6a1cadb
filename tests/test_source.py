"""Source hygiene: every name a module imports is used in that module, no
module imports another module's underscore names, every underscore name
a module defines at its top level is read in that module, the command
line opens no file itself, no module makes a transform through numpy,
only the grid imports scipy, the program loads no scipy package beyond
the pocketfft binding, and the CI workflow runs the tier-1 command the
ROADMAP names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adiaflow

MODULES = sorted(Path(adiaflow.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent


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


def _unread_private_names(tree: ast.Module) -> list:
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [name.id for target in node.targets
                     for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name not in read)


def _numpy_fft_uses(tree: ast.Module) -> list:
    """Lines that reach numpy's FFT module: ``np.fft`` or ``numpy.fft`` as
    an attribute, or an import of it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "fft" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.fft") or (
                node.module == "numpy"
                and any(alias.name == "fft" for alias in node.names))
        elif isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.fft")
                      for alias in node.names)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def _scipy_imports(tree: ast.Module) -> list:
    """Lines that import scipy or a module of it."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module or "").split(".")[0] == "scipy")


def _open_calls(tree: ast.Module) -> list:
    """Lines that call ``open``, by name or as an attribute (``io.open``,
    ``Path.open``, ``os.open``)."""
    return sorted(
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Name) and node.func.id == "open"
             or isinstance(node.func, ast.Attribute)
             and node.func.attr == "open"))


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom x import a, b\n"
                     "np.zeros(a)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "b")]


def test_the_check_sees_a_private_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "from .harness import _jsonable, build_runtime\n"
                     "from numpy import _core\n")
    assert _private_imports(tree) == [(2, "_jsonable"), (3, "_core")]


def test_the_check_sees_an_unread_private_name():
    tree = ast.parse("__version__ = '1'\n_READ = 1\n_UNREAD = 2\n"
                     "def _helper():\n    _local = _READ\n"
                     "class _Box:\n    pass\n"
                     "_A, _B = 3, 4\n"
                     "def public():\n    return _A\n")
    assert _unread_private_names(tree) == [
        (3, "_UNREAD"), (4, "_helper"), (6, "_Box"), (8, "_B")]


def test_the_check_sees_an_open():
    tree = ast.parse("with open(path, 'w') as handle:\n    pass\n"
                     "io.open(path)\nPath(path).open()\n"
                     "text = 'open(path)'  # open(path)\n"
                     "reopen(path)\nopened = handle\n")
    assert _open_calls(tree) == [1, 3, 4]


def test_the_check_sees_a_numpy_fft():
    tree = ast.parse("import numpy as np\nimport numpy.fft\n"
                     "from numpy import fft\nfrom numpy.fft import rfft\n"
                     "from scipy import fft as sfft\n"
                     "x = np.fft.rfft(np.zeros(4))\n"
                     "y = sfft.rfft(x)  # np.fft in a comment\n"
                     "z = 'np.fft.irfft in a string'\n")
    assert _numpy_fft_uses(tree) == [2, 3, 4, 6]


def test_the_check_sees_a_scipy_import():
    tree = ast.parse("import scipy\nimport scipy.linalg as la\n"
                     "from scipy import fft\nfrom scipy.fft import rfft\n"
                     "import scipyx\nfrom .scipy import x\nimport os, scipy\n"
                     "s = 'import scipy'  # import scipy\n")
    assert _scipy_imports(tree) == [1, 2, 3, 4, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_imports_no_underscore_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _private_imports(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_imports_only_names_it_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_reads_every_underscore_name_it_defines(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unread_private_names(tree) == []


def test_the_command_line_opens_no_file():
    """Every file is read and written in the module that owns its format;
    cli.py opens none itself."""
    path = Path(adiaflow.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _open_calls(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_makes_no_transform_through_numpy(path):
    """No module calls a numpy FFT, so patching ``PeriodicGrid.r2c`` and
    ``c2r`` (as the complex-FFT control in test_grid_convergence.py does)
    swaps every transform the program makes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _numpy_fft_uses(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_grid_imports_scipy(path):
    """The grid loads the pocketfft binding, the one piece of scipy the
    program uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert bool(_scipy_imports(tree)) == (path.name == "grid.py")


IMPORT_GRAPH = """
import sys
import adiaflow.cli
print(sorted(name for name in ("scipy.integrate", "scipy.linalg",
                               "scipy.special", "scipy.fft")
             if name in sys.modules))
import numpy as np
import scipy.fft
from adiaflow.grid import PeriodicGrid
x = np.random.default_rng(0).standard_normal((3, 512))
print(np.array_equal(PeriodicGrid(512).rfft(x), np.fft.rfft(x)))
"""


def test_the_command_line_loads_no_scipy_package_beyond_the_binding():
    """In a fresh interpreter, importing the command line loads none of
    scipy's integrate, linalg, special or fft packages; importing
    ``scipy.fft`` afterwards leaves the grid's forward transform bitwise
    numpy's."""
    src = str(Path(adiaflow.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GRAPH],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]


def test_the_ci_workflow_runs_the_roadmap_tier1_command():
    """Read as plain text: CI installs no YAML parser."""
    roadmap = (REPO / "ROADMAP.md").read_text(encoding="utf-8")
    verify = [line.removeprefix("**Tier-1 verify:** ").strip("`")
              for line in roadmap.splitlines()
              if line.startswith("**Tier-1 verify:** ")]
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text(
        encoding="utf-8").splitlines()
    step = workflow.index("      - name: Tier-1 tests")
    assert len(verify) == 1
    assert workflow[step + 1] == f"        run: {verify[0]}"
