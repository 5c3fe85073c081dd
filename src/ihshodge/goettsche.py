"""Hodge numbers of Hilbert schemes of points via Goettsche's formula.

For a smooth projective surface S the generating series of the Hodge
numbers of the Hilbert schemes S^[n] is the infinite product

    F = sum_{n>=0} F_n t^n,   F_n = sum_{p,q} h^{p,q}(S^[n]) x^p y^q,

    F = prod_{k>=1} prod_{p,q}
            (1 - e x^{p+k-1} y^{q+k-1} t^k)^{-e h^{p,q}(S)},   e = (-1)^{p+q}.

:func:`hilbert_scheme_diamond` never multiplies this product out.  Its
logarithmic derivative, grouped by the power j of each factor's
monomial, is a sum of geometric series,

    t d/dt log F = sum_{j>=1} T_j t^j / (1 - (x y t)^j)^2,
    T_j = sum_{p,q} e^{j+1} h^{p,q} x^{j p} y^{j q},

so comparing coefficients of t^N in t dF/dt = F * (t d/dt log F) gives
the recurrence

    N F_N = sum_{j=1..N} T_j H_{N,j},
    H_{N,j} = sum_{k=1..N/j} k (x y)^{j(k-1)} F_{N-jk},

from F_0 = 1; H_{N,j} is F_{N-j} once 2j > N.  Only the two-variable
slices F_0..F_n are built: each H_{N,j} is a sum of shifted slices and
T_j has at most |S| terms.  Every monomial of F_N and of T_j H_{N,j} has
x- and y-degree at most 2N, so x^a y^b packs into the key a + (2n+1) b:
adding keys adds exponents without carries.  N F_N is summed in a list
indexed by the key, which is at most 2N(2n+2).  H_{N,j} and the slices
stay sparse dicts keyed by it: most of their cells are zero, and the
T_j H_{N,j} products should visit only nonzero pairs.

:class:`TruncatedSeries3` with :func:`factor_power` and
:func:`series_mul` multiply the product out factor by factor.  They are
the independent referee that ``check --suite goettsche`` compares the
recurrence against.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from itertools import compress

from .diamond import ConsistencyError, HodgeDiamond, _Record, _is_int, _wrong_type

__all__ = [
    "DEFAULT_MAX_N",
    "TruncatedSeries3",
    "abelian_fourfold_diamond",
    "factor_power",
    "hilbert_scheme_diamond",
    "series_mul",
    "surface_diamond",
]

# The one limit on n for Hilbert schemes.  K3^[30] takes about 0.15 s and
# abelian^[30] about 0.4 s (CPython 3.11, one core of a shared x86 host),
# and the cost grows steeply with n, so a larger limit only invites long runs.
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


class TruncatedSeries3(_Record):
    """Polynomial in x, y, t truncated at fixed maximal exponents.

    Coefficients are exact integers; monomials x^a y^b t^m with a or b
    above ``max_xy`` or m above ``max_t`` are discarded on construction
    and during multiplication.
    """

    __slots__ = ("_coeffs", "max_xy", "max_t")

    def __init__(self, coefficients: Mapping[Exponents, int],
                 max_xy: int, max_t: int):
        _check_bounds(max_xy, max_t)
        if not isinstance(coefficients, Mapping):
            raise _wrong_type(Mapping, coefficients)
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
        super().__init__(dict(sorted(table.items())), max_xy, max_t)

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
    if not (isinstance(a, TruncatedSeries3) and isinstance(b, TruncatedSeries3)):
        raise _wrong_type(TruncatedSeries3, a, b)
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
    if not isinstance(kind, str) or kind not in _SURFACES:
        raise ValueError(f"unknown surface kind {kind!r}")
    return HodgeDiamond(_SURFACES[kind], complex_dimension=2)


def abelian_fourfold_diamond() -> HodgeDiamond:
    """The 4-torus A x A^ with h^{p,q} = C(4,p) C(4,q)."""
    table = {(p, q): math.comb(4, p) * math.comb(4, q)
             for p in range(5) for q in range(5)}
    return HodgeDiamond(table, complex_dimension=4)


# ---------------------------------------------------------------------------
# the Hilbert scheme diamonds


def _packed_t_slice(surface: HodgeDiamond, n: int, base: int) -> dict[int, int]:
    """F_n by N F_N = sum_j T_j H_{N,j}; N F_N is a list by packed key."""
    terms = [[(j * (p + base * q), h if j % 2 or (p + q) % 2 == 0 else -h)
              for p, q, h in surface.items()] for j in range(n + 1)]
    f: list[dict[int, int]] = [{0: 1}]
    for big_n in range(1, n + 1):
        acc = [0] * (2 * big_n * (base + 1) + 1)
        for j in range(1, big_n + 1):
            if 2 * j > big_n:
                h_nj = f[big_n - j]
            else:
                h_nj = {}
                for k in range(1, big_n // j + 1):
                    shift = j * (k - 1) * (base + 1)
                    for kf, cf in f[big_n - j * k].items():
                        h_nj[kf + shift] = h_nj.get(kf + shift, 0) + k * cf
            for kt, ct in terms[j]:
                for kh, ch in h_nj.items():
                    acc[kt + kh] += ct * ch
        # The slices stay sparse dicts: odd classes cancel many terms, and
        # each later T_j H_{N,j} pass should visit only nonzero entries.
        slice_n: dict[int, int] = {}
        for key, value in compress(enumerate(acc), acc):
            coeff, remainder = divmod(value, big_n)
            if remainder:
                raise ConsistencyError(
                    f"coefficient {value} at x^{key % base} y^{key // base} "
                    f"t^{big_n} of t dF/dt is not divisible by {big_n}")
            slice_n[key] = coeff
        f.append(slice_n)
    return f[n]


def hilbert_scheme_diamond(surface: HodgeDiamond, n: int, *,
                           max_n: int = DEFAULT_MAX_N) -> HodgeDiamond:
    """Hodge diamond of the Hilbert scheme of n points on a surface.

    Computed by the recurrence N F_N = sum_j T_j H_{N,j} of the module
    docstring, on slices keyed by a + (2n+1) b.  n may not exceed
    ``max_n``, by default the limit :data:`DEFAULT_MAX_N` = 30.  An
    inexact division by N, or a negative coefficient in the t^n slice,
    cannot occur for an actual surface diamond and raises
    :class:`ConsistencyError`.

    >>> hilbert_scheme_diamond(surface_diamond("k3"), 2).h(2, 2)
    232
    """
    if not isinstance(surface, HodgeDiamond):
        raise ValueError(f"the surface must be a HodgeDiamond, got {surface!r}")
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
