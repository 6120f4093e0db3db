"""No library module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stackmfg"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> set:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported - used


def test_unused_imports_are_found():
    source = "import os.path\nfrom x import a, b as c\nfrom __future__ import annotations\nc()\n"
    assert unused_imports(source) == {"os", "a"}


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert not unused_imports((SRC / module).read_text())
