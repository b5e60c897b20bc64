"""Every exported name resolves, none is exported twice, and the names the
benchmark reads exist."""

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
