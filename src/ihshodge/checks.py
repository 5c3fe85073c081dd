"""Named invariant suites behind the ``check`` subcommand.

Each suite is a list of cheap, deterministic self-checks that exercise
one slice of the package against an independent route to the same
numbers.  Every check compares one computed value with its expected
value; a failing check's detail reads ``got <computed!r>, expected
<expected!r>``, and the command line tool prints one line per check.
"""

from __future__ import annotations

import random

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


def _check(name: str, computed: object, expected: object) -> CheckResult:
    """Pass when ``computed == expected``; the detail is built only on failure."""
    if computed == expected:
        return CheckResult(name, True, "")
    return CheckResult(name, False, f"got {computed!r}, expected {expected!r}")


class _HilbertSchemes(dict):
    """K3^[n] and abelian^[n] by (kind, n), each built once per suite run."""

    def __missing__(self, key: tuple[str, int]) -> HodgeDiamond:
        kind, n = key
        self[key] = diamond = hilbert_scheme_diamond(surface_diamond(kind), n)
        return diamond


# ---------------------------------------------------------------------------
# salamon


_OG6_BETTI = BettiVector(6, (1, 0, 8, 0, 199, 0, 1504, 0, 199, 0, 8, 0, 1))


def _suite_salamon(hilb: _HilbertSchemes) -> list[CheckResult]:
    undetected = [
        (k, delta) for k in range(0, 7, 2) for delta in (1, -1)
        if salamon_residual(BettiVector(6, tuple(
            [b + delta * (i == k) for i, b in enumerate(_OG6_BETTI.b)]))) == 0]
    return [
        _check("salamon: OG6 Betti row satisfies the constraint",
               salamon_residual(_OG6_BETTI), 0),
        *(_check(f"salamon: K3^[{n}] Betti row satisfies the constraint",
                 salamon_residual(betti(hilb["k3", n])), 0)
          for n in (2, 3)),
        _check("salamon: every even single-entry perturbation is detected",
               undetected, []),
        _check("salamon: pipeline output matches the OG6 Betti row",
               run_full_pipeline().betti_numbers, _OG6_BETTI),
    ]


# ---------------------------------------------------------------------------
# duality


def _suite_duality(hilb: _HilbertSchemes) -> list[CheckResult]:
    result = run_full_pipeline()
    khat = next(step.output for step in result.trace if step.lemma == "Kt-and-Ktt(2)")
    return [
        _check("duality: OG6 diamond passes symmetry and duality",
               check_diamond(result.diamond), ()),
        _check("duality: correction chain at dual degrees agrees",
               og6_via_dual_degrees(), result.diamond),
        _check("duality: Euler bookkeeping of the quadric removal",
               euler_characteristic(complete_by_duality(khat, 6))
               - euler_characteristic(result.diamond), 2 * (256 + 512) + 512),
    ]


# ---------------------------------------------------------------------------
# goettsche


def _product_formula_slices(surface: HodgeDiamond,
                            n: int) -> list[dict[tuple[int, int], int]]:
    """The t^0..t^n slices of Goettsche's product, multiplied out factor by factor."""
    max_xy = 2 * n
    series = TruncatedSeries3.one(max_xy, n)
    for k in range(1, n + 1):
        for p, q, h in surface.items():
            sign = 1 if (p + q) % 2 else -1
            factor = factor_power((p + k - 1, q + k - 1, k), sign, sign * h,
                                  max_xy, n)
            series = series_mul(series, factor)
    return [series.t_slice(m) for m in range(n + 1)]


def _suite_goettsche(hilb: _HilbertSchemes) -> list[CheckResult]:
    three = hilb["k3", 3]
    h2 = HodgeDiamond({(p, q): v for p, q, v in three.items() if p + q == 2})
    chern = chern_numbers(three)
    return [
        _check("goettsche: recurrence matches the product formula",
               [(kind, m) for kind, n in (("k3", 3), ("abelian", 2))
                for m, entries in enumerate(
                    _product_formula_slices(surface_diamond(kind), n))
                if hilb[kind, m].entries != entries], []),
        _check("goettsche: zero points give a point",
               hilb["k3", 0], HodgeDiamond({(0, 0): 1}, complex_dimension=0)),
        *(_check(f"goettsche: one point on {kind} gives the surface",
                 hilb[kind, 1], surface_diamond(kind))
          for kind in ("k3", "abelian")),
        _check("goettsche: K3^[2] Betti numbers",
               betti(hilb["k3", 2]).b, (1, 0, 23, 0, 276, 0, 23, 0, 1)),
        _check("goettsche: K3^[3] equals its own Markman assembly",
               markman_assembly(h2), three),
        _check("goettsche: K3^[3] Euler characteristic",
               euler_characteristic(three), 3200),
        _check("goettsche: abelian Hilbert schemes have Euler number 0",
               [euler_characteristic(hilb["abelian", n]) for n in (1, 2, 3)],
               [0, 0, 0]),
        _check("goettsche: OG6 and K3^[3] have Todd genus 4",
               [10 * c.c2_cubed - 9 * c.c2_c4 + 2 * c.c6
                for c in (run_full_pipeline().chern, chern)], [241920, 241920]),
        _check("goettsche: K3^[3] Chern numbers c2^3, c2c4, c6",
               (chern.c2_cubed, chern.c2_c4, chern.c6), (36800, 14720, 3200)),
    ]


# ---------------------------------------------------------------------------
# equivariant


_EVEN_DEGREES = ((0, 0), (2, 0), (1, 1), (0, 2), (2, 2), (3, 1), (1, 3))


def _random_equivariant(rng: random.Random) -> EquivariantDiamond:
    table = {}
    for degree in rng.sample(_EVEN_DEGREES, rng.randint(1, 3)):
        plus = rng.randint(0, 8)
        minus = rng.randint(0, 8 - plus)
        table[degree] = (plus, minus)
    return EquivariantDiamond(table)


def _suite_equivariant(hilb: _HilbertSchemes) -> list[CheckResult]:
    rng = random.Random(64001)
    failures = []
    for i in range(200):
        k = 2 + i % 2
        a = _random_equivariant(rng)
        b = _random_equivariant(rng)
        plain = forget(a)
        if forget(eq_sym_power(a, k)) != sym_power(plain, k):
            failures.append(("sym", k, a))
        if forget(eq_ext_power(a, k)) != ext_power(plain, k):
            failures.append(("ext", k, a))
        if forget(eq_tensor(a, b)) != tensor(plain, forget(b)):
            failures.append(("tensor", k, (a, b)))
    h2 = derive_invariant_h2(8)
    weight4 = markman_equivariant(h2, 4)
    splits = [(plus, minus) for plus in range(9) for minus in range(9 - plus)]
    return [
        _check("equivariant: forgetting commutes on 200 random tables",
               failures[:1], []),
        _check("equivariant: invariant weight 4 row is (1, 6, 157)",
               invariant_part(weight4).entries,
               {(4, 0): 1, (3, 1): 6, (2, 2): 157, (1, 3): 6, (0, 4): 1}),
        _check("equivariant: invariant weight 6 row is (1, 5, 157, 852)",
               invariant_part(markman_equivariant(h2, 6)).entries,
               {(6, 0): 1, (5, 1): 5, (4, 2): 157, (3, 3): 852,
                (2, 4): 157, (1, 5): 5, (0, 6): 1}),
        _check("equivariant: weight 4 total matches Sym^2 + twist",
               forget(weight4).total_dimension(), 276 + 23),
        _check("equivariant: Sym^2 + Lambda^2 dimensions square",
               [sum(eq_sym_power(piece, 2).pair(2, 2))
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

    The suites of one call share each Hilbert-scheme diamond they need.
    No suite after the goettsche suite needs one, so the diamonds are
    dropped there rather than held through the equivariant suite.
    """
    if name == "all":
        suites = list(_SUITES.values())
    elif isinstance(name, str) and name in _SUITES:
        suites = [_SUITES[name]]
    else:
        raise ValueError(f"unknown suite {name!r}")
    hilb = _HilbertSchemes()
    results = []
    for suite in suites:
        results += suite(hilb)
        if suite is _suite_goettsche:
            hilb.clear()
    return results
