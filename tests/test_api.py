"""The public surface: the package namespace and each module's exports."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ihshodge

MODULES = ("checks", "cli", "diamond", "equivariant", "goettsche",
           "pipeline", "render")

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter; prints the heavy modules loaded by the
# Hilbert-scheme route, then h^{3,3} of OG6 once the pipeline is asked for.
HILBERT_ROUTE = """
import sys
import ihshodge
from ihshodge import HodgeDiamond, hilbert_scheme_diamond
k3 = HodgeDiamond({(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1},
                  complex_dimension=2)
assert hilbert_scheme_diamond(k3, 3).h(3, 3) == 2004
heavy = ["ihshodge." + m for m in ("pipeline", "equivariant", "checks", "cli", "render")]
print(sorted(m for m in heavy + ["dataclasses", "json"] if m in sys.modules))
from ihshodge import run_full_pipeline
print(run_full_pipeline().diamond.h(3, 3))
"""

# Runs in a fresh interpreter; prints the record machinery the CLI loads.
CLI_IMPORT = """
import sys
import ihshodge.cli
print(sorted({"dataclasses", "inspect", "typing"} & set(sys.modules)))
"""


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


def test_hilbert_scheme_route_loads_only_diamond_and_goettsche():
    # -S: no site hook may preload modules the package itself avoids
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", HILBERT_ROUTE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "1144"]


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", CLI_IMPORT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]"]


def test_package_names_resolve_lazily_and_uncached():
    with pytest.raises(AttributeError, match="no_such_name"):
        ihshodge.no_such_name  # noqa: B018
    namespace: dict = {}
    exec("from ihshodge import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(ihshodge.__all__)
    assert namespace["hilbert_scheme_diamond"] is ihshodge.goettsche.hilbert_scheme_diamond
    assert "hilbert_scheme_diamond" not in vars(ihshodge)
