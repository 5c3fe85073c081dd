"""Hodge numbers of Hilbert schemes of points via Goettsche's formula.

For a smooth projective surface S the generating series of the Hodge
numbers of the Hilbert schemes S^[n] is the infinite product

    F = sum_{n>=0} F_n t^n,   F_n = sum_{p,q} h^{p,q}(S^[n]) x^p y^q,

    F = prod_{k>=1} prod_{p,q}
            (1 - e x^{p+k-1} y^{q+k-1} t^k)^{-e h^{p,q}(S)},   e = (-1)^{p+q}.

:func:`hilbert_scheme_diamond` never multiplies this product out.  Its
logarithmic derivative is a sum of geometric series,

    t d/dt log F = sum_{i>=1} G_i t^i,
    G_i = sum_{k j = i} k sum_{p,q} e^{j+1} h^{p,q} x^{j(p+k-1)} y^{j(q+k-1)},

so comparing coefficients of t^N in t dF/dt = F * (t d/dt log F) gives
the recurrence N F_N = sum_{i=1..N} G_i F_{N-i} from F_0 = 1.  Only the
two-variable slices F_0..F_n are ever built, and each G_i has at most
|S| d(i) terms.  Every monomial of F_N and of G_N has x- and y-degree at
most 2N, so a slice is stored as a dict keyed by the packed integer
a + (2n+1) b: adding keys adds exponents without carries, and no two
monomials of a slice share a key.

:class:`TruncatedSeries3` with :func:`factor_power` and
:func:`series_mul` multiply the product out factor by factor.  They are
the independent referee that ``check --suite goettsche`` compares the
recurrence against.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping

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

# The one limit on n for Hilbert schemes.  K3^[30] takes about 0.5 s and
# abelian^[30] about 1.6 s, abelian^[40] about 5 s (CPython 3.11, one core
# of a shared x86 host), so a larger limit only invites long runs.
DEFAULT_MAX_N = 30

Exponents = tuple[int, int, int]


def _binomial_any(exponent: int, j: int) -> int:
    """Binomial coefficient C(exponent, j) for an integer of any sign."""
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


def _log_derivative_slices(surface: HodgeDiamond, n: int,
                           base: int) -> list[dict[int, int]]:
    """G_0..G_n of t d/dt log F, each keyed by the packed a + base * b."""
    slices: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for k in range(1, n + 1):
        for j in range(1, n // k + 1):
            g = slices[k * j]
            for p, q, h in surface.items():
                sign = -1 if (p + q) % 2 and j % 2 == 0 else 1
                key = j * (p + k - 1) + base * j * (q + k - 1)
                g[key] = g.get(key, 0) + sign * k * h
    return slices


def _packed_t_slice(surface: HodgeDiamond, n: int, base: int) -> dict[int, int]:
    """F_n by the recurrence N F_N = sum_{i=1..N} G_i F_{N-i}, packed keys."""
    g = _log_derivative_slices(surface, n, base)
    f: list[dict[int, int]] = [{0: 1}]
    for big_n in range(1, n + 1):
        acc: dict[int, int] = {}
        get = acc.get
        for i in range(1, big_n + 1):
            lower = f[big_n - i]
            for kg, cg in g[i].items():
                for kf, cf in lower.items():
                    key = kg + kf
                    acc[key] = get(key, 0) + cg * cf
        # Odd classes cancel many terms; dropping them keeps every later
        # pass over this slice short.
        slice_n: dict[int, int] = {}
        for key, value in acc.items():
            coeff, remainder = divmod(value, big_n)
            if remainder:
                raise ConsistencyError(
                    f"coefficient {value} at x^{key % base} y^{key // base} "
                    f"t^{big_n} of t dF/dt is not divisible by {big_n}")
            if coeff:
                slice_n[key] = coeff
        f.append(slice_n)
    return f[n]


def hilbert_scheme_diamond(surface: HodgeDiamond, n: int, *,
                           max_n: int = DEFAULT_MAX_N) -> HodgeDiamond:
    """Hodge diamond of the Hilbert scheme of n points on a surface.

    Computed by the recurrence N F_N = sum_i G_i F_{N-i} of the module
    docstring, on slices keyed by a + (2n+1) b.  n may not exceed
    ``max_n``, by default the limit :data:`DEFAULT_MAX_N` = 30.  An
    inexact division by N, or a negative coefficient in the t^n slice,
    cannot occur for an actual surface diamond and raises
    :class:`ConsistencyError`.

    >>> hilbert_scheme_diamond(surface_diamond("k3"), 2).h(2, 2)
    232
    """
    if surface.complex_dimension != 2:
        raise ValueError("the input diamond must have complex dimension 2")
    if not _is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if not _is_int(max_n) or max_n < 0:
        raise ValueError(f"max_n must be a nonnegative integer, got {max_n!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > max_n:
        raise ValueError(f"n={n} exceeds the limit {max_n}")
    base = 2 * n + 1
    packed = _packed_t_slice(surface, n, base)
    table = {(key % base, key // base): value for key, value in packed.items()}
    for (a, b), value in table.items():
        if value < 0:
            raise ConsistencyError(
                f"negative coefficient {value} at x^{a} y^{b} t^{n} in the "
                f"Hilbert scheme series")
    return HodgeDiamond._trusted(table, 2 * n)
