"""Every exported name resolves, and none is exported twice."""

import importlib

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
