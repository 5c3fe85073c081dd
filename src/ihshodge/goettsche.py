"""Hodge numbers of Hilbert schemes of points via Goettsche's formula.

For a smooth projective surface S the generating series of the Hodge
numbers of the Hilbert schemes S^[n] is the infinite product

    sum_{n>=0} sum_{p,q} h^{p,q}(S^[n]) x^p y^q t^n
        = prod_{k>=1} prod_{p,q}
            (1 - (-1)^{p+q} x^{p+k-1} y^{q+k-1} t^k)^{-(-1)^{p+q} h^{p,q}(S)}

so a class of the surface in even total degree contributes a factor
(1 - m)^{-h} and a class in odd total degree a factor (1 + m)^{+h},
with m the displayed monomial.  Truncating at t-degree n only needs the
factors with k <= n, and every monomial that survives into the t^n slice
has x- and y-degree at most 2n, so the computation below is a finite
product of polynomials with integer coefficients.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

from .diamond import ConsistencyError, HodgeDiamond, _is_int

__all__ = [
    "DEFAULT_MAX_N",
    "TruncatedSeries3",
    "abelian_fourfold_diamond",
    "factor_power",
    "hilbert_scheme_diamond",
    "series_mul",
    "surface_diamond",
]

DEFAULT_MAX_N = 5

Exponents = tuple[int, int, int]


def _binomial_any(exponent: int, j: int) -> int:
    """Binomial coefficient C(exponent, j) for an integer of any sign."""
    if j < 0:
        raise ValueError("lower index must be nonnegative")
    if exponent >= 0:
        return math.comb(exponent, j)
    return (-1) ** j * math.comb(-exponent + j - 1, j)


def _check_bounds(max_xy: int, max_t: int) -> None:
    if not (_is_int(max_xy) and _is_int(max_t)) or max_xy < 0 or max_t < 0:
        raise ValueError("truncation bounds must be nonnegative integers")


class TruncatedSeries3:
    """Polynomial in x, y, t truncated at fixed maximal exponents.

    Coefficients are exact integers; monomials x^a y^b t^m with a or b
    above ``max_xy`` or m above ``max_t`` are discarded on construction
    and during multiplication.
    """

    __slots__ = ("_coeffs", "max_xy", "max_t")

    def __init__(self, coefficients: Mapping[Exponents, int],
                 max_xy: int, max_t: int):
        _check_bounds(max_xy, max_t)
        object.__setattr__(self, "max_xy", max_xy)
        object.__setattr__(self, "max_t", max_t)
        table: dict[Exponents, int] = {}
        for key, value in coefficients.items():
            if (not isinstance(key, tuple) or len(key) != 3
                    or not all(_is_int(c) for c in key)):
                raise ValueError(f"exponent keys must be integer triples, got {key!r}")
            a, b, m = key
            if a < 0 or b < 0 or m < 0:
                raise ValueError(f"negative exponent in {key}")
            if not _is_int(value):
                raise ValueError(f"coefficient at {key} must be an integer")
            if a > max_xy or b > max_xy or m > max_t:
                continue
            if value:
                table[key] = value
        object.__setattr__(self, "_coeffs", dict(sorted(table.items())))

    @classmethod
    def _trusted(cls, coefficients: Mapping[Exponents, int],
                 max_xy: int, max_t: int) -> "TruncatedSeries3":
        """Wrap in-bound coefficients computed from validated series."""
        s = object.__new__(cls)
        object.__setattr__(s, "max_xy", max_xy)
        object.__setattr__(s, "max_t", max_t)
        object.__setattr__(s, "_coeffs",
                           {key: v for key, v in sorted(coefficients.items()) if v})
        return s

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries3 is immutable")

    @classmethod
    def one(cls, max_xy: int, max_t: int) -> "TruncatedSeries3":
        return cls({(0, 0, 0): 1}, max_xy, max_t)

    def coefficient(self, a: int, b: int, m: int) -> int:
        return self._coeffs.get((a, b, m), 0)

    def items(self) -> Iterator[tuple[Exponents, int]]:
        yield from self._coeffs.items()

    def t_slice(self, m: int) -> dict[tuple[int, int], int]:
        """The coefficient of t^m as a table (a, b) -> integer."""
        out = {(a, b): c for (a, b, mm), c in self._coeffs.items() if mm == m}
        return dict(sorted(out.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries3):
            return NotImplemented
        return (self.max_xy == other.max_xy and self.max_t == other.max_t
                and self._coeffs == other._coeffs)

    def __hash__(self) -> int:
        return hash((self.max_xy, self.max_t, tuple(self._coeffs.items())))

    def __repr__(self) -> str:
        terms = ", ".join(f"{key}: {value}" for key, value in self._coeffs.items())
        return (f"TruncatedSeries3({{{terms}}}, max_xy={self.max_xy}, "
                f"max_t={self.max_t})")

    def __mul__(self, other: "TruncatedSeries3") -> "TruncatedSeries3":
        return series_mul(self, other)


def series_mul(a: TruncatedSeries3, b: TruncatedSeries3) -> TruncatedSeries3:
    """Product of two series with identical truncation bounds."""
    if a.max_xy != b.max_xy or a.max_t != b.max_t:
        raise ValueError(
            f"truncation bounds differ: ({a.max_xy},{a.max_t}) vs "
            f"({b.max_xy},{b.max_t})")
    table: dict[Exponents, int] = {}
    for (a1, b1, m1), c1 in a.items():
        for (a2, b2, m2), c2 in b.items():
            key = (a1 + a2, b1 + b2, m1 + m2)
            if key[0] > a.max_xy or key[1] > a.max_xy or key[2] > a.max_t:
                continue
            table[key] = table.get(key, 0) + c1 * c2
    return TruncatedSeries3._trusted(table, a.max_xy, a.max_t)


def factor_power(base_exponents: Exponents, sign: int, exponent: int,
                 max_xy: int, max_t: int) -> TruncatedSeries3:
    """Expand (1 + sign * m)^exponent for a monomial m, truncated.

    ``exponent`` may be negative; the expansion uses the generalized
    binomial series and terminates because every power of m exceeds the
    truncation bounds eventually.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_bounds(max_xy, max_t)
    dx, dy, dt = base_exponents
    if not all(_is_int(c) and c >= 0 for c in base_exponents):
        raise ValueError("base exponents must be nonnegative integers")
    if not (dx or dy or dt):
        raise ValueError("base monomial must be nonconstant")
    steps = [(dx, max_xy), (dy, max_xy), (dt, max_t)]
    j_max = min(bound // step for step, bound in steps if step)
    table: dict[Exponents, int] = {}
    for j in range(j_max + 1):
        c = _binomial_any(exponent, j) * sign ** j
        if c:
            table[(j * dx, j * dy, j * dt)] = c
    return TruncatedSeries3._trusted(table, max_xy, max_t)


# ---------------------------------------------------------------------------
# input surfaces and reference fourfold


_SURFACES: dict[str, dict[tuple[int, int], int]] = {
    "k3": {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1},
    "abelian": {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (1, 1): 4,
                (0, 2): 1, (2, 1): 2, (1, 2): 2, (2, 2): 1},
}


def surface_diamond(kind: str) -> HodgeDiamond:
    """Reference diamonds: ``k3``, ``abelian``, or a ``point``.

    >>> surface_diamond("k3").h(1, 1)
    20
    >>> surface_diamond("abelian").h(1, 0)
    2
    """
    if kind == "point":
        return HodgeDiamond({(0, 0): 1}, complex_dimension=0)
    if kind not in _SURFACES:
        raise ValueError(f"unknown surface kind {kind!r}")
    return HodgeDiamond(_SURFACES[kind], complex_dimension=2)


def abelian_fourfold_diamond() -> HodgeDiamond:
    """The 4-torus A x A^ with h^{p,q} = C(4,p) C(4,q)."""
    table = {(p, q): math.comb(4, p) * math.comb(4, q)
             for p in range(5) for q in range(5)}
    return HodgeDiamond(table, complex_dimension=4)


# ---------------------------------------------------------------------------
# the Hilbert scheme diamonds


def hilbert_scheme_diamond(surface: HodgeDiamond, n: int, *,
                           max_n: int = DEFAULT_MAX_N) -> HodgeDiamond:
    """Hodge diamond of the Hilbert scheme of n points on a surface.

    The default cap of n <= 5 keeps coefficient counts small; pass a
    larger ``max_n`` to raise it.  A negative coefficient in the t^n
    slice cannot occur for an actual surface diamond and raises
    :class:`ConsistencyError`.

    >>> hilbert_scheme_diamond(surface_diamond("k3"), 2).h(2, 2)
    232
    """
    if surface.complex_dimension != 2:
        raise ValueError("the input diamond must have complex dimension 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > max_n:
        raise ValueError(f"n={n} exceeds the configured cap {max_n}")
    max_xy, max_t = 2 * n, n
    series = TruncatedSeries3.one(max_xy, max_t)
    for k in range(1, n + 1):
        for p, q, h in surface.items():
            base = (p + k - 1, q + k - 1, k)
            if (p + q) % 2 == 0:
                factor = factor_power(base, -1, -h, max_xy, max_t)
            else:
                factor = factor_power(base, 1, h, max_xy, max_t)
            series = series * factor
    table = series.t_slice(n)
    for (a, b), value in table.items():
        if value < 0:
            raise ConsistencyError(
                f"negative coefficient {value} at x^{a} y^{b} t^{n} in the "
                f"Hilbert scheme series")
    return HodgeDiamond._trusted(table, 2 * n)
