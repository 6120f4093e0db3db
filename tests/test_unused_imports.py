"""No library module imports a name it never uses, and the package reads
every module-level private function, class and constant it defines."""

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


def private_definitions(source: str) -> set:
    """Module-level functions, classes and constants of ``source`` named
    with one leading underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set:
    """Names ``source`` reads: as a name, as an attribute or in an import."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_unused_private_definitions_are_found():
    source = ("_A = 1\n_B: int = 2\n__all__ = []\nX = 1\n"
              "def _f():\n    return _A\nclass _C:\n    pass\nm._g()\n")
    assert private_definitions(source) == {"_A", "_B", "_f", "_C"}
    assert private_definitions(source) - read_names(source) == {"_B", "_f", "_C"}


def test_package_reads_every_private_definition():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    read = set().union(*map(read_names, sources.values()))
    assert not {(name, defined) for name, source in sources.items()
                for defined in private_definitions(source) - read}
