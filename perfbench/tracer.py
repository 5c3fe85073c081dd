"""Timing spans installed around the library's public names at run time.

:class:`Tracer` replaces each traced function by a wrapper in every
``ihshodge`` module namespace that binds it, and each traced class's
``__init__`` by a wrapper on the class.  Spans nest on a stack, so a
span's self time is its duration minus the time of the spans it caused.
:meth:`Tracer.uninstall` puts every original object back.  A name the
library no longer defines is recorded as absent and traced as nothing.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter_ns

# (module, attribute, span bucket); a bucket may collect several names.
FUNCTIONS = (
    [("cli", "main", "cli.main")]
    + [("pipeline", name, f"pipeline.{name}") for name in (
        "run_full_pipeline", "markman_equivariant", "ybar_invariants",
        "yhat_invariants", "og6_diamond", "chern_numbers",
        "og6_via_dual_degrees", "markman_assembly")]
    + [("checks", "run_suite", "checks.run_suite")]
    + [("equivariant", name, f"equivariant.{name}") for name in (
        "eq_sym_power", "eq_ext_power", "eq_tensor", "eq_sum", "forget",
        "invariant_part")]
    + [("diamond", name, f"diamond.{name}") for name in (
        "sym_power", "ext_power", "tensor", "direct_sum",
        "complete_by_duality", "check_diamond", "betti")]
    + [("goettsche", name, f"goettsche.{name}") for name in (
        "hilbert_scheme_diamond", "factor_power", "series_mul")]
)
# Every public function of these modules counts toward one bucket.
MODULE_BUCKETS = (("render", "render"),)
CLASSES = (
    ("diamond", "HodgeDiamond", "diamond.HodgeDiamond"),
    ("equivariant", "EquivariantDiamond", "equivariant.EquivariantDiamond"),
    ("goettsche", "TruncatedSeries3", "goettsche.TruncatedSeries3"),
)
PACKAGE = "ihshodge"


def _count_terms(series) -> int:
    return sum(1 for _ in series.items())


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Collects per-bucket call counts, durations and self times."""

    def __init__(self, functions=FUNCTIONS, classes=CLASSES,
                 module_buckets=MODULE_BUCKETS, package: str = PACKAGE):
        self.functions = list(functions)
        self.classes = classes
        self.module_buckets = module_buckets
        self.package = package
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self.series_pairs = 0
        self.series_terms = 0
        self.max_coeff_bits = 0
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _span(self, bucket: str, fn, after=None):
        stat = self.stats.setdefault(bucket, Stat())
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                # hook time counts toward no span's self time
                hook_start = perf_counter_ns()
                after(args, result)
                if stack:
                    stack[-1][0] += perf_counter_ns() - hook_start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_series_mul(self, args, result) -> None:
        self.series_pairs += _count_terms(args[0]) * _count_terms(args[1])
        self.series_terms += _count_terms(result)

    def _after_hilbert(self, args, result) -> None:
        bits = max((abs(v).bit_length() for _, _, v in result.items()),
                   default=0)
        self.max_coeff_bits = max(self.max_coeff_bits, bits)

    # -- installation ---------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def _targets(self):
        targets = list(self.functions)
        for module_name, bucket in self.module_buckets:
            module = sys.modules.get(f"{self.package}.{module_name}")
            names = getattr(module, "__all__", ())
            if not names:
                self.absent.append(module_name)
            targets += [(module_name, name, bucket) for name in names]
        return targets

    def install(self) -> None:
        self.absent = []
        hooks = {"goettsche.series_mul": self._after_series_mul,
                 "goettsche.hilbert_scheme_diamond": self._after_hilbert}
        modules = self._modules()
        for module_name, attr, bucket in self._targets():
            module = sys.modules.get(f"{self.package}.{module_name}")
            original = getattr(module, attr, None)
            if not isinstance(original, types.FunctionType):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._span(bucket, original, hooks.get(bucket))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)
        for module_name, attr, bucket in self.classes:
            module = sys.modules.get(f"{self.package}.{module_name}")
            cls = getattr(module, attr, None)
            if cls is None or "__init__" not in vars(cls):
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = vars(cls)["__init__"]
            self._patched.append((cls, "__init__", original))
            setattr(cls, "__init__", self._span(bucket, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
