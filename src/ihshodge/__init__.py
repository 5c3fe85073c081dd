"""Exact Hodge diamonds, Betti numbers and Chern numbers of
irreducible holomorphic symplectic manifolds.

The package provides four layers:

* :mod:`ihshodge.diamond`: bigraded integer tables with the table
  algebra plus the Salamon and Euler constraints,
* :mod:`ihshodge.equivariant`: the same tables refined by the
  eigenspaces of an involution,
* :mod:`ihshodge.goettsche`: Hodge numbers of Hilbert schemes of points
  on surfaces via Goettsche's product formula,
* :mod:`ihshodge.pipeline`: the derivation of the OG6 Hodge diamond
  through a traced chain of blow-up and quotient corrections.

The package namespace re-exports only the entry points listed in
``__all__``; every other name is imported from its submodule.  Importing
the package loads only :mod:`ihshodge.diamond`; the other entry points
load their submodule on first use.
"""

from importlib import import_module

from .diamond import ConsistencyError, HodgeDiamond, tensor

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "EquivariantDiamond",
    "HodgeDiamond",
    "NamedConstants",
    "TruncatedSeries3",
    "hilbert_scheme_diamond",
    "run_full_pipeline",
    "tensor",
]

_SUBMODULE = {"EquivariantDiamond": "equivariant", "NamedConstants": "pipeline",
              "TruncatedSeries3": "goettsche", "hilbert_scheme_diamond": "goettsche",
              "run_full_pipeline": "pipeline"}


def __getattr__(name):
    # never cached here, so the package hands out what the submodule binds now
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
