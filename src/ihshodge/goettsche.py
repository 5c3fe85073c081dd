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
slices F_0..F_n are built.  Every monomial of F_N and of T_j H_{N,j} has
x- and y-degree at most 2N, so x^a y^b packs into z^key with key
(2n+1) a + b: adding keys adds exponents without carries, and keys run
in the lexicographic order of (a, b).

Not every key is reached.  Each key of each T_j, H_{N,j}, N F_N and F_N
is a sum of multiples of the class keys (2n+1) p + q and of the key
2n + 2 of xy, so it is a multiple of their gcd, the step: 2n + 2 when
every class lies on the diagonal p = q, 2 when no class has odd p + q,
and 1 otherwise.  Keys divided by the step still add, still run in
order and still name one (a, b) each, so a slice packs on the cells
0..2n (2n+2) / step alone.  Each cell still holds one coefficient and
no sum of several, so the width proof below holds as it stands.

Each slice is one Python integer, its polynomial in z evaluated at
z = 2^w (Kronecker substitution).  Multiplying by x^a y^b is a left
shift by w key / step, so H_{N,j} and N F_N are sums of shifted small
multiples of earlier slices, and CPython's big-integer code does all of
the work.
Evaluation at 2^w is a ring homomorphism, so every packed integer is
exact whatever its digits; only N F_N and F_n are ever read as digits.

The width w comes from a majorant.  Let s = sum |h^{p,q}| and
G_m = [t^m] prod_k (1 - t^k)^(-s).  With every coefficient of every T_j
replaced by its size, the recurrence solves to the product with factors
(1 - x^{p+k-1} y^{q+k-1} t^k)^(-|h^{p,q}|): its coefficients are
nonnegative, bound those of F in size by induction on N, and at
x = y = 1 sum to G_m.  G_m does not decrease with m (for s > 0 the
product has the factor 1/(1 - t)), so each coefficient of F_m, m <= n,
is at most G_n < 2^b in size, b the bit length of G_n, and each of N F_N
below n 2^b.  So w = 8 ceil((b + bitlength(n) + 2) / 8) bits hold every
digit read, with room for a sign.  Whole bytes let F_n unpack in one
pass: ``to_bytes``, a copy of each digit's bytes into whole 64-bit
words, one ``struct.unpack``, and a shift per further word of a digit.
Only the unpack pads a digit; every slice keeps width w.

N F_N must divide by N coefficient by coefficient, and one test on the
whole integer decides that exactly.  Let F = (N F_N) // N, and V be F
plus 2^b in every digit.  The test passes when the remainder is 0,
0 <= V < 2^(w cells) and no digit of V reaches 2^(b+1).  Then F has
digits f_i with |f_i| <= 2^b, and N F_N = sum N f_i 2^(w i) with every
|N f_i| < 2^(w-1).  Digits of size below 2^(w-1) are unique, so N f_i
is the coefficient itself, which therefore divides by N.  Conversely,
exact quotients are at most G_n < 2^b in size, and the test passes.  A
failure names the first coefficient that does not divide; if none
fails, the slice broke its proven bound.  Either way it raises.  Once
F_n has passed, its biased digits f_i + 2^b lie in [0, 2^(b+1)), so
f_i >= 0 exactly when bit b of digit i is set.  One more whole-integer
test, V AND B = B with B = 2^b in every digit, thus decides that F_n has
no negative coefficient; then F_n = V - B unpacks as it is.

:class:`TruncatedSeries3` with :func:`factor_power` and
:func:`series_mul` multiply the product out factor by factor.  They are
the independent referee that ``check --suite goettsche`` compares the
recurrence against.  The referee multiplies the factors from k = n down,
and :func:`series_mul` skips each pair of terms past the truncation before
it builds the pair's key.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterator, Mapping
from functools import lru_cache
from itertools import compress, islice, repeat
from operator import lshift, mul, or_

from .diamond import ConsistencyError, HodgeDiamond, _Record, _is_int, _wrong_type

__all__ = [
    "DEFAULT_MAX_N",
    "MAX_PACKED_BITS",
    "TruncatedSeries3",
    "factor_power",
    "hilbert_scheme_diamond",
    "series_mul",
    "surface_diamond",
]

# The one limit on n for Hilbert schemes.  K3^[30] takes about 15 ms and
# abelian^[30] about 45 ms (best of 7, CPython 3.11.7, one core of a shared
# x86 host); the cost grows steeply with n, so a larger limit invites long runs.
DEFAULT_MAX_N = 30
# The one limit on a request's size: the bits of one packed slice, digit
# width times cells.  K3^[30] packs 133,992 and abelian^[30] 238,144; the
# largest tables below it (abelian, h^{1,1} = 2^11) take 0.16 s at n = 30 on that host.
MAX_PACKED_BITS = 1 << 20

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
    and during multiplication.  Coefficients keep their build order, but
    :meth:`items` and ``repr`` sort them; equality and hashes ignore order.
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
        super().__init__(table, max_xy, max_t)

    @classmethod
    def _trusted(cls, coefficients: dict[Exponents, int],
                 max_xy: int, max_t: int) -> "TruncatedSeries3":
        """Wrap fresh, zero-free, in-bound coefficients of validated series.

        The rule of :meth:`HodgeDiamond._trusted`: the result owns the dict.
        """
        s = object.__new__(cls)
        object.__setattr__(s, "max_xy", max_xy)
        object.__setattr__(s, "max_t", max_t)
        object.__setattr__(s, "_coeffs", coefficients)
        return s

    def items(self) -> Iterator[tuple[Exponents, int]]:
        yield from sorted(self._coeffs.items())

    def t_slice(self, m: int) -> dict[tuple[int, int], int]:
        """The coefficient of t^m, 0 <= m <= ``max_t``, as a table (a, b) -> integer."""
        if not _is_int(m) or not 0 <= m <= self.max_t:
            raise ValueError(f"t power must be an integer in 0..{self.max_t}, got {m!r}")
        return dict(sorted(((a, b), c) for (a, b, mm), c in self._coeffs.items() if mm == m))

    def __hash__(self) -> int:
        return hash((self.max_xy, self.max_t, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        terms = ", ".join(f"{key}: {value}" for key, value in self.items())
        return (f"TruncatedSeries3({{{terms}}}, max_xy={self.max_xy}, "
                f"max_t={self.max_t})")


def series_mul(a: TruncatedSeries3, b: TruncatedSeries3) -> TruncatedSeries3:
    """Product of two series with identical truncation bounds."""
    if not (isinstance(a, TruncatedSeries3) and isinstance(b, TruncatedSeries3)):
        raise _wrong_type(TruncatedSeries3, a, b)
    if a.max_xy != b.max_xy or a.max_t != b.max_t:
        raise ValueError(
            f"truncation bounds differ: ({a.max_xy},{a.max_t}) vs "
            f"({b.max_xy},{b.max_t})")
    table: dict[Exponents, int] = {}
    for (a2, b2, m2), c2 in b._coeffs.items():
        # the room each exponent of a's term has left; a pair past it is never built
        room_a, room_b, room_m = a.max_xy - a2, a.max_xy - b2, a.max_t - m2
        for (a1, b1, m1), c1 in a._coeffs.items():
            if a1 > room_a or b1 > room_b or m1 > room_m:
                continue
            key = (a1 + a2, b1 + b2, m1 + m2)
            table[key] = table.get(key, 0) + c1 * c2
    # signed terms can cancel; no other builder of a series makes a zero
    return TruncatedSeries3._trusted({key: c for key, c in table.items() if c},
                                     a.max_xy, a.max_t)


def factor_power(base_exponents: Exponents, sign: int, exponent: int,
                 max_xy: int, max_t: int) -> TruncatedSeries3:
    """Expand (1 + sign * m)^exponent for a monomial m, truncated.

    ``exponent`` may be negative; the expansion uses the generalized
    binomial series and terminates because every power of m exceeds the
    truncation bounds eventually.
    """
    if not _is_int(sign) or sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not _is_int(exponent):
        raise ValueError(f"exponent must be an integer, got {exponent!r}")
    _check_bounds(max_xy, max_t)
    if (not isinstance(base_exponents, tuple) or len(base_exponents) != 3
            or not all(_is_int(c) and c >= 0 for c in base_exponents)):
        raise ValueError("base exponents must be three nonnegative integers")
    dx, dy, dt = base_exponents
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
# input surfaces


_SURFACES: dict[str, dict[tuple[int, int], int]] = {
    "k3": {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1},
    "abelian": {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (1, 1): 4,
                (0, 2): 1, (2, 1): 2, (1, 2): 2, (2, 2): 1},
}


def surface_diamond(kind: str) -> HodgeDiamond:
    """Reference surface diamonds: ``k3`` or ``abelian``.

    >>> surface_diamond("k3").h(1, 1)
    20
    >>> surface_diamond("abelian").h(1, 0)
    2
    """
    if not isinstance(kind, str) or kind not in _SURFACES:
        raise ValueError(f"unknown surface kind {kind!r}")
    return HodgeDiamond(_SURFACES[kind], complex_dimension=2)


# ---------------------------------------------------------------------------
# the Hilbert scheme diamonds


@lru_cache(maxsize=1024)
def _digit_bits(size: int, n: int) -> int:
    """Bit length of G_n = [t^n] prod_k (1 - t^k)^(-s), s = ``size``.

    With s = sum |h^{p,q}|, every coefficient of F_0..F_n is at most
    G_n < 2^b in size (module docstring).  N G_N = s sum_m sigma(m)
    G_{N-m}, with the divisor sums sigma from a sieve.
    """
    sigma = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            sigma[m] += d
    g = [1]
    for big_n in range(1, n + 1):
        g.append(size * sum(map(mul, sigma[1:big_n + 1], reversed(g))) // big_n)
    return g[n].bit_length()


def _width(bits: int, n: int) -> int:
    """The digit width w for the bit length b = ``bits`` of G_n (module docstring)."""
    return 8 * -(-(bits + n.bit_length() + 2) // 8)


def _digits(value: int, width: int, cells: int) -> tuple[int, ...]:
    """The ``cells`` base-2^width digits of ``value`` >= 0, in one pass."""
    size = width // 8
    limbs = -(-size // 8)
    raw = value.to_bytes(size * cells, "little")
    slots = bytearray(8 * limbs * cells)
    for i in range(size):
        slots[i::8 * limbs] = raw[i::size]
    del raw  # unpacking F_n sets a call's peak memory: free each buffer early
    words = struct.unpack(f"<{limbs * cells}Q", slots)
    del slots
    digits = words[::limbs]
    for k in range(1, limbs):
        digits = map(or_, digits, map(lshift, islice(words, k, None, limbs), repeat(64 * k)))
    return tuple(digits)


def _t_terms(surface: HodgeDiamond, n: int, base: int, width: int,
             step: int) -> list[list[tuple[int, int]]]:
    """T_0..T_n as (shift by the packed key, coefficient) pairs."""
    classes = list(surface.items())
    return [[(width * j * (base * p + q) // step,
              h if j % 2 or (p + q) % 2 == 0 else -h)
             for p, q, h in classes] for j in range(n + 1)]


def _packed_t_slice(surface: HodgeDiamond, n: int, base: int, step: int,
                    bits: int, width: int, cells: int) -> list[int]:
    """The coefficients of F_n by packed key, from N F_N = sum_j T_j H_{N,j}."""
    terms = _t_terms(surface, n, base, width, step)
    xy = width * (base + 1) // step
    ones = ((1 << width * cells) - 1) // ((1 << width) - 1)
    bias = ones << bits
    high = ones * ((1 << width) - (1 << bits + 1))
    f = [1]
    biased = 1 + bias  # the biased F_0, read only when n = 0
    for big_n in range(1, n + 1):
        acc = 0
        for j in range(1, big_n + 1):
            h_nj = f[big_n - j]  # F_{N-j} alone once 2j > N
            for k in range(2, big_n // j + 1):
                h_nj += k * f[big_n - j * k] << xy * j * (k - 1)
            for shift, c in terms[j]:
                if c == 1:
                    acc += h_nj << shift
                elif c == -1:
                    acc -= h_nj << shift
                else:
                    acc += c * h_nj << shift
        slice_n, remainder = divmod(acc, big_n)
        # Each digit of the biased slice lies in [0, 2^(bits+1)) exactly
        # when every coefficient of N F_N divides by N.
        biased = slice_n + (bias >> xy * 2 * (n - big_n))
        if (remainder or biased < 0 or biased & high
                or biased.bit_length() > xy * 2 * big_n + width):
            raise _indivisible(acc, big_n, base, step, width, bits)
        f.append(slice_n)
    if biased & bias != bias:  # a digit without bit ``bits``: a negative coefficient
        key, value = next((step * cell, d - (1 << bits)) for cell, d in
                          enumerate(_digits(biased, width, cells)) if d >> bits == 0)
        raise ConsistencyError(f"negative coefficient {value} at x^{key // base} "
                               f"y^{key % base} t^{n} in the Hilbert scheme series")
    del biased  # unpacking F_n sets a call's peak memory; drop this copy first
    return _digits(f[n], width, cells)


def _indivisible(acc: int, big_n: int, base: int, step: int, width: int,
                 bits: int) -> ConsistencyError:
    """The error for an N F_N that fails the divisibility test."""
    cells = 2 * big_n * (base + 1) // step + 1
    half = 1 << width - 1
    biased = acc + half * (((1 << width * cells) - 1) // ((1 << width) - 1))
    if 0 <= biased < 1 << width * cells:
        for cell, digit in enumerate(_digits(biased, width, cells)):
            if (digit - half) % big_n:
                key = step * cell
                return ConsistencyError(
                    f"coefficient {digit - half} at x^{key // base} y^{key % base} "
                    f"t^{big_n} of t dF/dt is not divisible by {big_n}")
    return ConsistencyError(
        f"the t^{big_n} slice of t dF/dt exceeds its {bits}-bit coefficient bound")


def hilbert_scheme_diamond(surface: HodgeDiamond, n: int, *,
                           max_n: int = DEFAULT_MAX_N) -> HodgeDiamond:
    """Hodge diamond of the Hilbert scheme of n points on a surface.

    Computed by the recurrence N F_N = sum_j T_j H_{N,j} of the module
    docstring, each slice one integer packed by the key ((2n+1) a + b) /
    step.  n may not exceed ``max_n``, by default the limit
    :data:`DEFAULT_MAX_N` = 30; ``max_n`` can lower that limit but not
    raise it.  A request whose packed slice, digit width times cells,
    would exceed :data:`MAX_PACKED_BITS` = 2^20 bits raises ``ValueError``
    before any work.  An inexact division by N, a slice beyond its
    proven coefficient bound, or a negative coefficient in the t^n slice
    cannot occur for an actual surface diamond and raises
    :class:`ConsistencyError`.

    >>> hilbert_scheme_diamond(surface_diamond("k3"), 2).h(2, 2)
    232
    """
    if not isinstance(surface, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, surface)
    if surface.complex_dimension != 2:
        raise ValueError("the input diamond must have complex dimension 2")
    if not _is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if not _is_int(max_n) or not 0 <= max_n <= DEFAULT_MAX_N:
        raise ValueError(f"max_n must be a nonnegative integer at most "
                         f"{DEFAULT_MAX_N}, got {max_n!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > max_n:
        raise ValueError(f"n={n} exceeds the limit {max_n}")
    base = 2 * n + 1
    step = math.gcd(base + 1, *(base * p + q for p, q in surface._entries))
    size = sum(map(abs, surface._entries.values()))
    cells = (base * base - 1) // step + 1
    # G_n >= s^n/n! >= 2^(n(b-1))/n^n, b = bitlength(s): a huge s fails before _digit_bits
    least = _width(n * (size.bit_length() - 1 - n.bit_length()) + 1, n) * cells
    if least > MAX_PACKED_BITS:
        raise ValueError(f"the request packs each slice into at least {least} bits, "
                         f"beyond the limit {MAX_PACKED_BITS}")
    bits = _digit_bits(size, n)
    width = _width(bits, n)
    if width * cells > MAX_PACKED_BITS:
        raise ValueError(f"the request packs each slice into {width * cells} bits, "
                         f"beyond the limit {MAX_PACKED_BITS}")
    coefficients = _packed_t_slice(surface, n, base, step, bits, width, cells)
    return HodgeDiamond._trusted(dict(compress(zip(
        map(divmod, range(0, base * base, step), repeat(base)), coefficients),
        coefficients)), 2 * n)
