"""The public surface: the package namespace and each module's exports."""

from __future__ import annotations

import ast
import importlib
import inspect
import itertools
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

# Runs in a fresh interpreter; prints what the OG6 route loads that it
# does not need: Goettsche's formula, the suites, the front end and json.
OG6_ROUTE = """
import sys
from ihshodge import run_full_pipeline
run_full_pipeline()
unused = ["ihshodge." + m for m in ("goettsche", "checks", "cli", "render")]
print(sorted(m for m in unused + ["json"] if m in sys.modules))
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


# Submodule exports that no other module imports, each with its reason.
UNIMPORTED_EXPORTS = {
    "goettsche.DEFAULT_MAX_N": "the documented limit on n",
    "goettsche.MAX_PACKED_BITS": "the documented limit on a packed slice",
    "pipeline.ybar_invariants": "wrapped by name in perfbench/tracer.py",
    "pipeline.yhat_invariants": "wrapped by name in perfbench/tracer.py",
    "pipeline.og6_diamond": "wrapped by name in perfbench/tracer.py",
}


def test_every_submodule_export_is_imported_by_another_module():
    exported, imported = set(), set()
    for path in (SRC / "ihshodge").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module != path.stem:
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif (path.stem != "__init__" and isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                exported.update(f"{path.stem}.{name}"
                                for name in ast.literal_eval(node.value))
    # the package namespace loads these lazily instead of importing them
    imported.update(f"{module}.{name}" for name, module in ihshodge._SUBMODULE.items())
    assert sorted(exported - imported) == sorted(UNIMPORTED_EXPORTS)


def test_hilbert_scheme_route_loads_only_diamond_and_goettsche():
    # -S: no site hook may preload modules the package itself avoids
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", HILBERT_ROUTE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "1144"]


def test_og6_route_loads_no_goettsche_checks_cli_render_or_json():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", OG6_ROUTE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]"]


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


def _exported() -> dict:
    """Every function or class the package defines and a submodule exports,
    plus the result records that exported functions hand back.

    cli.main is left out: its answer to bad input is argparse's exit code 2.
    """
    found = {}
    for module in MODULES:
        mod = importlib.import_module(f"ihshodge.{module}")
        for obj in map(vars(mod).get, mod.__all__):
            if ((inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__.startswith("ihshodge.")):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    # run_suite and run_full_pipeline return these, though no caller imports them
    for module, name in (("checks", "CheckResult"), ("pipeline", "PipelineResult")):
        obj = getattr(importlib.import_module(f"ihshodge.{module}"), name)
        found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    del found["ihshodge.cli.main"]
    return found


EXPORTED = _exported()
BAD_VALUES = (None, "x", 5, {}, (1,))


def _required_positional(obj) -> int:
    try:
        signature = inspect.signature(obj)
    except ValueError:
        # an exception class has only the builtin (*args) signature
        return 0
    return sum(1 for p in signature.parameters.values()
               if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
               and p.default is p.empty)


@pytest.mark.parametrize("name", sorted(EXPORTED))
def test_exported_callables_return_or_raise_value_error(name):
    obj = EXPORTED[name]
    escaped = []
    for args in itertools.product(BAD_VALUES, repeat=_required_positional(obj)):
        try:
            obj(*args)
        except ValueError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other type breaks the contract
            escaped.append(f"{name}{args!r}: {type(exc).__name__}: {exc}")
    assert escaped == []
