"""The cross-check paths share no code with the engine they check."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stackmfg"
ENGINE_MODULES = {"stage", "solver"}
ENGINE_NAMES = {"belief_batch", "mean_field_batch", "simplex_stencils", "stencil_products",
                "_first_seen"}


@pytest.mark.parametrize("module", ["reference.py", "oracle.py"])
def test_cross_check_imports_nothing_from_the_engine(module):
    tree = ast.parse((SRC / module).read_text())
    imported, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    engine = {f"stackmfg.{m}" for m in ENGINE_MODULES} | ENGINE_MODULES
    assert not imported & engine, imported & engine
    assert not names & (ENGINE_NAMES | ENGINE_MODULES), names & (ENGINE_NAMES | ENGINE_MODULES)
