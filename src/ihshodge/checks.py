"""Named invariant suites behind the ``check`` subcommand.

Each suite is a list of cheap, deterministic self-checks that exercise
one slice of the package against an independent route to the same
numbers.  Every check compares one computed value with its expected
value; a failing check's detail reads ``got <computed!r>, expected
<expected!r>``, or ``raised <Type>: <message>`` when computing the value
raised, and the command line tool prints one line per check.  A check
computes its value inside :func:`_check`, so one raise fails only the
checks that need the value that raised; a check that compares two
computed routes computes both in one call and expects ``True``.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

from .diamond import (
    BettiVector,
    HodgeDiamond,
    _Record,
    betti,
    check_diamond,
    complete_by_duality,
    euler_characteristic,
    ext_power,
    salamon_residual,
    sym_power,
    tensor,
)
from .equivariant import (
    EquivariantDiamond,
    eq_ext_power,
    eq_sym_power,
    eq_tensor,
    forget,
    invariant_part,
)
from .goettsche import (
    TruncatedSeries3,
    factor_power,
    hilbert_scheme_diamond,
    series_mul,
    surface_diamond,
)
from .pipeline import (
    chern_numbers,
    derive_invariant_h2,
    markman_assembly,
    markman_equivariant,
    og6_via_dual_degrees,
    run_full_pipeline,
)

__all__ = ["SUITE_NAMES", "run_suite"]


class CheckResult(_Record):
    __slots__ = ("name", "ok", "detail")


def _check(name: str, compute: Callable[[], object], expected: object) -> CheckResult:
    """Pass when ``compute() == expected``; the detail is built only on failure.

    An exception from ``compute`` fails this check alone, with its type and
    message.
    """
    try:
        computed = compute()
        if computed == expected:
            return CheckResult(name, True, "")
    except Exception as exc:
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
    return CheckResult(name, False, f"got {computed!r}, expected {expected!r}")


# ---------------------------------------------------------------------------
# salamon


_OG6_BETTI = BettiVector(6, (1, 0, 8, 0, 199, 0, 1504, 0, 199, 0, 8, 0, 1))


def _suite_salamon(hilb: Callable[[str, int], HodgeDiamond]) -> list[CheckResult]:
    return [
        _check("salamon: OG6 Betti row satisfies the constraint",
               lambda: salamon_residual(_OG6_BETTI), 0),
        *(_check(f"salamon: K3^[{n}] Betti row satisfies the constraint",
                 lambda n=n: salamon_residual(betti(hilb("k3", n))), 0)
          for n in (2, 3)),
        _check("salamon: every even single-entry perturbation is detected",
               lambda: [(k, delta) for k in range(0, 7, 2) for delta in (1, -1)
                        if salamon_residual(BettiVector(6, tuple(
                            [b + delta * (i == k) for i, b in enumerate(_OG6_BETTI.b)])))
                        == 0], []),
        _check("salamon: pipeline output matches the OG6 Betti row",
               lambda: run_full_pipeline().betti_numbers, _OG6_BETTI),
    ]


# ---------------------------------------------------------------------------
# duality


def _suite_duality(hilb: Callable[[str, int], HodgeDiamond]) -> list[CheckResult]:
    return [
        _check("duality: OG6 diamond passes symmetry and duality",
               lambda: check_diamond(run_full_pipeline().diamond), ()),
        _check("duality: correction chain at dual degrees agrees",
               lambda: og6_via_dual_degrees() == run_full_pipeline().diamond, True),
        _check("duality: Euler bookkeeping of the quadric removal",
               lambda: euler_characteristic(complete_by_duality(next(
                   step.output for step in run_full_pipeline().trace
                   if step.lemma == "Kt-and-Ktt(2)"), 6))
               - euler_characteristic(run_full_pipeline().diamond), 2 * (256 + 512) + 512),
    ]


# ---------------------------------------------------------------------------
# goettsche


def _product_formula_slices(surface: HodgeDiamond,
                            n: int) -> list[dict[tuple[int, int], int]]:
    """The t^0..t^n slices of Goettsche's product, multiplied out factor by factor."""
    max_xy = 2 * n
    series = TruncatedSeries3({(0, 0, 0): 1}, max_xy, n)
    for k in range(1, n + 1):
        for p, q, h in surface.items():
            sign = 1 if (p + q) % 2 else -1
            factor = factor_power((p + k - 1, q + k - 1, k), sign, sign * h,
                                  max_xy, n)
            series = series_mul(series, factor)
    return [series.t_slice(m) for m in range(n + 1)]


def _suite_goettsche(hilb: Callable[[str, int], HodgeDiamond]) -> list[CheckResult]:
    chern = functools.cache(lambda: chern_numbers(hilb("k3", 3)))
    return [
        _check("goettsche: recurrence matches the product formula",
               lambda: [(kind, m) for kind, n in (("k3", 3), ("abelian", 2))
                        for m, entries in enumerate(
                            _product_formula_slices(surface_diamond(kind), n))
                        if hilb(kind, m).entries != entries], []),
        _check("goettsche: zero points give a point",
               lambda: hilb("k3", 0), HodgeDiamond({(0, 0): 1}, complex_dimension=0)),
        *(_check(f"goettsche: one point on {kind} gives the surface",
                 lambda kind=kind: hilb(kind, 1), surface_diamond(kind))
          for kind in ("k3", "abelian")),
        _check("goettsche: K3^[2] Betti numbers",
               lambda: betti(hilb("k3", 2)).b, (1, 0, 23, 0, 276, 0, 23, 0, 1)),
        _check("goettsche: K3^[3] equals its own Markman assembly",
               lambda: markman_assembly(HodgeDiamond(
                   {(p, q): v for p, q, v in hilb("k3", 3).items() if p + q == 2}))
               == hilb("k3", 3), True),
        _check("goettsche: K3^[3] Euler characteristic",
               lambda: euler_characteristic(hilb("k3", 3)), 3200),
        _check("goettsche: abelian Hilbert schemes have Euler number 0",
               lambda: [euler_characteristic(hilb("abelian", n)) for n in (1, 2, 3)],
               [0, 0, 0]),
        _check("goettsche: OG6 and K3^[0..3] have h^{p,0} = 1 for even p, 0 for odd p",
               lambda: [[d.h(p, 0) for p in range(d.complex_dimension + 1)]
                        for d in (run_full_pipeline().diamond,
                                  *(hilb("k3", n) for n in range(4)))],
               [[1 - p % 2 for p in range(dim + 1)] for dim in (6, 0, 2, 4, 6)]),
        _check("goettsche: OG6 and K3^[3] have Todd genus 4",
               lambda: [10 * c.c2_cubed - 9 * c.c2_c4 + 2 * c.c6
                        for c in (run_full_pipeline().chern, chern())], [241920, 241920]),
        _check("goettsche: K3^[3] Chern numbers c2^3, c2c4, c6",
               lambda: (chern().c2_cubed, chern().c2_c4, chern().c6), (36800, 14720, 3200)),
    ]


# ---------------------------------------------------------------------------
# equivariant


# (k, table a, table b): Sym^k and Lambda^k of a, and a (x) b, must forget to
# the plain results.  tools/mutants.py chose these pairs from a seeded draw of
# 200: two of them catch each mutant of diamond.py and equivariant.py that any
# of the 200 catches, and the rest add edge cases: both powers, every degree,
# an empty V+, an empty V- and Lambda^k of a piece smaller than k.  Rerun it
# to choose again; the comments give each pair's index in the draw.
_REFEREE = (
    (3, {(1, 3): (1, 0), (1, 1): (6, 0)},
     {(3, 1): (3, 1), (2, 2): (6, 0)}),  # pool pair 1
    (2, {(1, 1): (0, 3), (0, 0): (4, 3)},
     {(2, 0): (2, 5), (0, 2): (6, 2), (1, 3): (1, 3)}),  # pool pair 24
    (2, {(0, 0): (0, 3)},
     {(0, 0): (0, 2), (2, 0): (6, 1)}),  # pool pair 26
    (3, {(2, 0): (2, 0), (0, 2): (8, 0), (0, 0): (0, 2)},
     {(2, 0): (8, 0)}),  # pool pair 31
    (2, {(0, 2): (0, 2), (2, 2): (4, 2), (1, 1): (2, 1)},
     {(1, 1): (6, 1), (3, 1): (0, 8), (0, 2): (5, 3)}),  # pool pair 70
    (3, {(0, 2): (0, 1), (2, 2): (4, 2), (1, 3): (5, 0)},
     {(1, 1): (6, 1)}),  # pool pair 75
)


def _forget_failures() -> list:
    """The first referee pair whose power or tensor forgets to the wrong plain table.

    Every call builds its tables through the public constructor, so its
    validation runs too.
    """
    failures = []
    for k, a, b in _REFEREE:
        a, b = EquivariantDiamond(a), EquivariantDiamond(b)
        plain = forget(a)
        if forget(eq_sym_power(a, k)) != sym_power(plain, k):
            failures.append(("sym", k, a))
        if forget(eq_ext_power(a, k)) != ext_power(plain, k):
            failures.append(("ext", k, a))
        if forget(eq_tensor(a, b)) != tensor(plain, forget(b)):
            failures.append(("tensor", k, (a, b)))
    return failures[:1]


def _suite_equivariant(hilb: Callable[[str, int], HodgeDiamond]) -> list[CheckResult]:
    h2 = functools.cache(lambda: derive_invariant_h2(8))
    weight4 = functools.cache(lambda: markman_equivariant(h2(), 4))
    splits = [(plus, minus) for plus in range(9) for minus in range(9 - plus)]
    return [
        _check(f"equivariant: forgetting commutes on {len(_REFEREE)} mutation-chosen tables",
               _forget_failures, []),
        _check("equivariant: invariant weight 4 row is (1, 6, 157)",
               lambda: invariant_part(weight4()).entries,
               {(4, 0): 1, (3, 1): 6, (2, 2): 157, (1, 3): 6, (0, 4): 1}),
        _check("equivariant: invariant weight 6 row is (1, 5, 157, 852)",
               lambda: invariant_part(markman_equivariant(h2(), 6)).entries,
               {(6, 0): 1, (5, 1): 5, (4, 2): 157, (3, 3): 852,
                (2, 4): 157, (1, 5): 5, (0, 6): 1}),
        _check("equivariant: weight 4 total matches Sym^2 + twist",
               lambda: forget(weight4()).total_dimension(), 276 + 23),
        _check("equivariant: Sym^2 + Lambda^2 dimensions square",
               lambda: [sum(eq_sym_power(piece, 2).pair(2, 2))
                        + sum(eq_ext_power(piece, 2).pair(2, 2))
                        for piece in (EquivariantDiamond({(1, 1): split}) for split in splits)],
               [sum(split) ** 2 for split in splits]),
    ]


_SUITES = {
    "salamon": _suite_salamon,
    "duality": _suite_duality,
    "goettsche": _suite_goettsche,
    "equivariant": _suite_equivariant,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them in a fixed order.

    The suites of one call share ``hilb(kind, n)``, each K3^[n] or
    abelian^[n] built once; a build that raises is not kept.  No suite
    after the goettsche suite needs one, so the cache is cleared there
    rather than held through the equivariant suite.
    """
    if name == "all":
        suites = list(_SUITES.values())
    elif isinstance(name, str) and name in _SUITES:
        suites = [_SUITES[name]]
    else:
        raise ValueError(f"unknown suite {name!r}")
    hilb = functools.cache(lambda kind, n: hilbert_scheme_diamond(surface_diamond(kind), n))
    results = []
    for suite in suites:
        results += suite(hilb)
        if suite is _suite_goettsche:
            hilb.cache_clear()
    return results
