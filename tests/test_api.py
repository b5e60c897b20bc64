"""Every exported name resolves, none is exported twice, each module is the
package attribute of its name, the names the benchmark reads exist, every
private helper and module-level import of the package is used, the certificate
checker reaches no search code, and neither the checker's closure nor the
package outgrows its ceiling."""

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


@pytest.mark.parametrize("name", MODULES + ["cli"])
def test_each_layer_is_the_package_attribute_of_its_name(name):
    # no name that the package imports from a layer may hide the layer itself
    module = importlib.import_module(f"fatpoints.{name}")
    assert getattr(fatpoints, name) is module


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


# -- unused private helpers and imports ---------------------------------------

SRC = Path(fatpoints.__file__).resolve().parent


def _trees():
    """The parsed source of each module of the package, by file name."""
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """``(name, node)`` of each module-level ``def``, ``class`` and ``x = ...`` of ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def _referenced(tree):
    """Every name ``tree`` loads and every attribute name it reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unused_imports(tree):
    """The names that module-level imports of ``tree`` bind and it never loads;
    a name listed in its ``__all__`` counts as loaded."""
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    loaded.update(*(ast.literal_eval(node.value)
                    for name, node in _definitions(tree) if name == "__all__"))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    yield name


def test_every_private_helper_is_referenced():
    trees = _trees()
    used = {name for tree in trees.values() for name in _referenced(tree)}
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name, _ in _definitions(tree)
              if name.startswith("_") and not name.startswith("__") and name not in used]
    unused += [f"{module}: import {name}" for module, tree in trees.items()
               for name in _unused_imports(tree)]
    assert not unused


# -- the checker's trusted closure ---------------------------------------------

# The prover's search and memo, its closed-form runs of line splits, the
# classifier's split chain and the table generator: the certificate checker
# replays a proof without any of them.
SEARCH = {"recursive_dim", "_solve", "_solve_fresh", "_Ctx", "_try", "_scan_degenerations",
          "_reduction_verdict", "hh_dimension", "hh_prediction", "_judged",
          "_split_chain", "_next_split", "find_splittings", "standard_reduce",
          "_MOVES_BY_RANK", "generate_classification"}
# Source lines of the definitions check_certificate reaches, constants and
# decorators included.  A change that grows the closure raises this ceiling and
# says why.
CHECKER_CLOSURE_LINES = 950


def _closure(root: str) -> dict[str, list[ast.AST]]:
    """The module-level definitions of the package reachable from ``root`` by
    name, each with every node that defines it; a class counts whole."""
    defined: dict[str, list[ast.AST]] = {}
    for tree in _trees().values():
        for name, node in _definitions(tree):
            defined.setdefault(name, []).append(node)
    reached: dict[str, list[ast.AST]] = {}
    todo = [root]
    while todo:
        name = todo.pop()
        if name in defined and name not in reached:
            reached[name] = defined[name]
            todo.extend(ref for node in defined[name] for ref in _referenced(node))
    return reached


def _lines(node) -> int:
    """Source lines of a definition, its decorators included."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return node.end_lineno - first + 1


def test_checker_reaches_no_search_code():
    reached = _closure("check_certificate")
    lines = sum(_lines(node) for nodes in reached.values() for node in nodes)
    print(f"\ncheck_certificate closure: {len(reached)} definitions, {lines} lines")
    assert sorted(SEARCH & reached.keys()) == []
    assert lines <= CHECKER_CLOSURE_LINES, f"the closure grew to {lines} lines"


# -- the package's size --------------------------------------------------------

# Lines of src/fatpoints/*.py as ``wc -l`` counts them.  A change that grows the
# package raises this ceiling and says why.
SOURCE_LINES = 2750


def test_package_source_lines_within_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    print(f"\nsrc/fatpoints: {lines} lines")
    assert lines <= SOURCE_LINES, f"the package grew to {lines} lines"
