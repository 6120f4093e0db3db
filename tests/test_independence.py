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


PAIR_STEPS = {"belief_batch", "mean_field_batch", "_joint_stencils"}


def test_stage_builds_pairs_in_one_function():
    """In stage.py only ``_build_pairs`` names the Bayes, next-mean-field and
    joint-stencil steps, so a second pair builder cannot grow beside it."""
    tree = ast.parse((SRC / "stage.py").read_text())
    builder, = (node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_build_pairs")
    inside = {id(node) for node in ast.walk(builder)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in PAIR_STEPS
            or isinstance(node, ast.Attribute) and node.attr in PAIR_STEPS]
    assert {getattr(node, "id", None) or node.attr for node in uses} == PAIR_STEPS
    outside = [node.lineno for node in uses if id(node) not in inside]
    assert not outside, f"stage.py lines {outside} build pairs outside _build_pairs"
