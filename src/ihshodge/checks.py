"""Named invariant suites behind the ``check`` subcommand.

Each suite is a list of cheap, deterministic self-checks that exercise
one slice of the package against an independent route to the same
numbers.  A check result carries a name and, on failure, a detail
string; the command line tool prints one line per check.
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
    derive_invariant_h2,
    markman_assembly,
    markman_equivariant,
    og6_via_dual_degrees,
    run_full_pipeline,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = ("salamon", "duality", "goettsche", "equivariant")


class CheckResult(_Record):
    __slots__ = ("name", "ok", "detail")


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), "" if ok else detail)


# ---------------------------------------------------------------------------
# salamon


_OG6_HALF = BettiVector(3, (1, 0, 8, 0, 199, 0, 1504))


def _suite_salamon() -> list[CheckResult]:
    out = []
    out.append(_check("salamon: OG6 Betti row satisfies the constraint",
                      salamon_residual(_OG6_HALF) == 0,
                      f"residual {salamon_residual(_OG6_HALF)}"))
    k3 = surface_diamond("k3")
    for n in (2, 3):
        half = betti(hilbert_scheme_diamond(k3, n)).lower_half()
        res = salamon_residual(half)
        out.append(_check(f"salamon: K3^[{n}] Betti row satisfies the constraint",
                          res == 0, f"residual {res}"))
    hits = []
    for k in range(0, 7, 2):
        for delta in (1, -1):
            row = list(_OG6_HALF.b)
            row[k] += delta
            if salamon_residual(BettiVector(3, tuple(row))) == 0:
                hits.append((k, delta))
    out.append(_check("salamon: every even single-entry perturbation is detected",
                      not hits, f"undetected perturbations {hits}"))
    pipeline_half = run_full_pipeline().betti_numbers.lower_half()
    out.append(_check("salamon: pipeline output matches the OG6 Betti row",
                      pipeline_half == _OG6_HALF, f"got {pipeline_half.b}"))
    return out


# ---------------------------------------------------------------------------
# duality


def _suite_duality() -> list[CheckResult]:
    out = []
    result = run_full_pipeline()
    violations = check_diamond(result.diamond)
    out.append(_check("duality: OG6 diamond passes symmetry and duality",
                      not violations, "; ".join(violations)))
    dual_route = og6_via_dual_degrees()
    out.append(_check("duality: correction chain at dual degrees agrees",
                      dual_route == result.diamond,
                      f"dual route differs: {dual_route!r}"))
    khat = next(step.output for step in result.trace if step.lemma == "Kt-and-Ktt(2)")
    completed = complete_by_duality(khat, 6)
    gap = euler_characteristic(completed) - euler_characteristic(result.diamond)
    out.append(_check("duality: Euler bookkeeping of the quadric removal",
                      gap == 2 * (256 + 512) + 512, f"gap {gap}"))
    return out


# ---------------------------------------------------------------------------
# goettsche


_K3_HILB2_BETTI = (1, 0, 23, 0, 276, 0, 23, 0, 1)


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


def _recurrence_matches_product_formula(k3: HodgeDiamond,
                                        abelian: HodgeDiamond) -> CheckResult:
    mismatched = []
    for kind, surface, n in (("k3", k3, 3), ("abelian", abelian, 2)):
        for m, expected in enumerate(_product_formula_slices(surface, n)):
            if hilbert_scheme_diamond(surface, m).entries != expected:
                mismatched.append((kind, m))
    return _check("goettsche: recurrence matches the product formula",
                  not mismatched, f"differs on {mismatched}")


def _suite_goettsche() -> list[CheckResult]:
    out = []
    k3 = surface_diamond("k3")
    abelian = surface_diamond("abelian")
    out.append(_recurrence_matches_product_formula(k3, abelian))
    point = surface_diamond("point")
    out.append(_check("goettsche: zero points give a point",
                      hilbert_scheme_diamond(k3, 0) == point,
                      repr(hilbert_scheme_diamond(k3, 0))))
    for kind, surface in (("k3", k3), ("abelian", abelian)):
        one = hilbert_scheme_diamond(surface, 1)
        out.append(_check(f"goettsche: one point on {kind} gives the surface",
                          one == surface, repr(one)))
    two = betti(hilbert_scheme_diamond(k3, 2))
    out.append(_check("goettsche: K3^[2] Betti numbers",
                      two.b == _K3_HILB2_BETTI, f"got {two.b}"))
    three = hilbert_scheme_diamond(k3, 3)
    h2 = HodgeDiamond({(p, q): v for p, q, v in three.items() if p + q == 2})
    out.append(_check("goettsche: K3^[3] equals its own Markman assembly",
                      markman_assembly(h2) == three,
                      repr(markman_assembly(h2))))
    out.append(_check("goettsche: K3^[3] Euler characteristic",
                      euler_characteristic(three) == 3200,
                      str(euler_characteristic(three))))
    bad = []
    for n in (1, 2, 3):
        chi = euler_characteristic(hilbert_scheme_diamond(abelian, n))
        if chi != 0:
            bad.append((n, chi))
    out.append(_check("goettsche: abelian Hilbert schemes have Euler number 0",
                      not bad, f"nonzero {bad}"))
    return out


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


def _suite_equivariant() -> list[CheckResult]:
    out = []
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
    out.append(_check("equivariant: forgetting commutes on 200 random tables",
                      not failures, f"first failure {failures[:1]}"))

    h2 = derive_invariant_h2(8)
    w4 = invariant_part(markman_equivariant(h2, 4))
    w6 = invariant_part(markman_equivariant(h2, 6))
    expected4 = {(4, 0): 1, (3, 1): 6, (2, 2): 157, (1, 3): 6, (0, 4): 1}
    expected6 = {(6, 0): 1, (5, 1): 5, (4, 2): 157, (3, 3): 852,
                 (2, 4): 157, (1, 5): 5, (0, 6): 1}
    out.append(_check("equivariant: invariant weight 4 row is (1, 6, 157)",
                      w4.entries == expected4, repr(w4)))
    out.append(_check("equivariant: invariant weight 6 row is (1, 5, 157, 852)",
                      w6.entries == expected6, repr(w6)))
    anti_total = forget(markman_equivariant(h2, 4)).total_dimension()
    out.append(_check("equivariant: weight 4 total matches Sym^2 + twist",
                      anti_total == 276 + 23, str(anti_total)))

    mismatched = []
    for plus in range(9):
        for minus in range(9 - plus):
            total = plus + minus
            piece = EquivariantDiamond({(1, 1): (plus, minus)})
            got = (sum(eq_sym_power(piece, 2).pair(2, 2))
                   + sum(eq_ext_power(piece, 2).pair(2, 2)))
            if got != total * total:
                mismatched.append((plus, minus, got))
    out.append(_check("equivariant: Sym^2 + Lambda^2 dimensions square",
                      not mismatched, f"mismatches {mismatched[:3]}"))
    return out


_SUITES = {
    "salamon": _suite_salamon,
    "duality": _suite_duality,
    "goettsche": _suite_goettsche,
    "equivariant": _suite_equivariant,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them in a fixed order."""
    if name == "all":
        results = []
        for suite in SUITE_NAMES:
            results.extend(_SUITES[suite]())
        return results
    if not isinstance(name, str) or name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _SUITES[name]()
