"""The public surface: the package namespace and each module's exports."""

from __future__ import annotations

import importlib

import pytest

import ihshodge

MODULES = ("checks", "cli", "diamond", "equivariant", "goettsche",
           "pipeline", "render")


def test_package_exports_only_the_entry_points():
    assert sorted(ihshodge.__all__) == [
        "ConsistencyError",
        "EquivariantDiamond",
        "HodgeDiamond",
        "NamedConstants",
        "TruncatedSeries3",
        "hilbert_scheme_diamond",
        "run_full_pipeline",
        "tensor",
    ]
    assert all(hasattr(ihshodge, name) for name in ihshodge.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"ihshodge.{module}")
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
