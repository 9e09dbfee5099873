"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qenergydex"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds "a"
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, annotations included, and what ``__all__`` exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return used


def test_the_package_modules_are_found():
    # a wrong path would leave the parametrized test below with no cases
    assert PACKAGE / "cli.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(imported_names(tree) - used_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_scan_finds_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import inf, log\n"
        "__all__ = ['inf']\n"
        "def f(x: np.ndarray):\n    return log(x)\n"
    )
    assert imported_names(tree) - used_names(tree) == {"os"}
