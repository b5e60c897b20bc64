"""Every exported name resolves, none is exported twice, the names the
benchmark reads exist, and every private helper of the package is used."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import fatpoints

MODULES = ["core", "cremona", "degeneration", "neg_curves", "oracle", "tables", "verdict"]


@pytest.mark.parametrize("module", [fatpoints] + [
    importlib.import_module(f"fatpoints.{name}") for name in MODULES], ids=["fatpoints"] + MODULES)
def test_exports_resolve_without_duplicates(module):
    names = module.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing


# The benchmark under perfbench/ wraps and reads these names; deleting one
# breaks its traced runs with an AttributeError.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKER_READS = [("tables", "classification_table"), ("tables", "known_hard_cases"),
                ("tables", "dimension_char_p"), ("tables", "HardCase.parsed"),
                ("verdict", "DimVerdict.conclusive")]


def _perfbench_targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("spans").TARGETS
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("module,name", list(_perfbench_targets()) + WORKER_READS)
def test_perfbench_names_resolve(module, name):
    obj = importlib.import_module(f"fatpoints.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj) or isinstance(obj, property)


# -- unused private helpers -----------------------------------------------------

SRC = Path(fatpoints.__file__).resolve().parent


def _private_definitions(tree):
    """Module-level ``def _x``, ``class _x`` and ``_x = ...`` names of ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name in _private_definitions(tree) if name not in used]
    assert not unused
