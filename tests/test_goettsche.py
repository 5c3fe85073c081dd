"""The truncated series engine and the Hilbert scheme diamonds."""

from __future__ import annotations

import random
import re
import time

import pytest
from hypothesis import example, given, strategies as st

from _oracles import (
    chi_minus_y,
    goettsche_betti_row,
    hilbert_chi_y,
    inverse_eta_power_coefficient,
    naive_truncated_product,
)
from ihshodge import checks, goettsche
from ihshodge.checks import _product_formula_slices
from ihshodge.diamond import (
    ConsistencyError,
    HodgeDiamond,
    betti,
    check_diamond,
    euler_characteristic,
    salamon_residual,
)
from ihshodge.goettsche import (
    DEFAULT_MAX_N,
    TruncatedSeries3,
    factor_power,
    hilbert_scheme_diamond,
    series_mul,
    surface_diamond,
)

POINT = HodgeDiamond({(0, 0): 1}, complex_dimension=0)

K3_HILB2 = {
    (0, 0): 1,
    (2, 0): 1, (1, 1): 21, (0, 2): 1,
    (4, 0): 1, (3, 1): 21, (2, 2): 232, (1, 3): 21, (0, 4): 1,
    (4, 2): 1, (3, 3): 21, (2, 4): 1,
    (4, 4): 1,
}

K3_HILB3 = {
    (0, 0): 1,
    (2, 0): 1, (1, 1): 21, (0, 2): 1,
    (4, 0): 1, (3, 1): 22, (2, 2): 253, (1, 3): 22, (0, 4): 1,
    (6, 0): 1, (5, 1): 21, (4, 2): 253, (3, 3): 2004, (2, 4): 253,
    (1, 5): 21, (0, 6): 1,
    (6, 2): 1, (5, 3): 22, (4, 4): 253, (3, 5): 22, (2, 6): 1,
    (6, 4): 1, (5, 5): 21, (4, 6): 1,
    (6, 6): 1,
}


# ---------------------------------------------------------------------------
# series engine


def test_one_is_multiplicative_unit():
    one = TruncatedSeries3({(0, 0, 0): 1}, 4, 2)
    f = TruncatedSeries3({(1, 0, 1): 3, (0, 2, 2): -5}, 4, 2)
    assert series_mul(one, f) == f == series_mul(f, one)


def test_out_of_bound_monomials_dropped():
    f = TruncatedSeries3({(5, 0, 0): 7, (1, 1, 1): 2, (0, 0, 3): 4}, 4, 2)
    assert dict(f.items()) == {(1, 1, 1): 2}


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries3({(-1, 0, 0): 1}, 4, 2)


def test_bound_mismatch_rejected():
    a = TruncatedSeries3({(0, 0, 0): 1}, 4, 2)
    for bounds in ((4, 3), (3, 2)):
        with pytest.raises(ValueError):
            series_mul(a, TruncatedSeries3({(0, 0, 0): 1}, *bounds))


def test_bool_is_not_an_integer():
    with pytest.raises(ValueError):
        TruncatedSeries3({(True, 0, 0): 1}, 4, 2)
    with pytest.raises(ValueError):
        TruncatedSeries3({(1, 0, 0): True}, 4, 2)
    with pytest.raises(ValueError):
        TruncatedSeries3({}, True, 2)
    with pytest.raises(ValueError):
        TruncatedSeries3({(0, 0, 0): 1}, 4, False)


def test_difference_of_squares():
    plus = TruncatedSeries3({(0, 0, 0): 1, (1, 0, 1): 1}, 4, 4)
    minus = TruncatedSeries3({(0, 0, 0): 1, (1, 0, 1): -1}, 4, 4)
    # the x t terms cancel, and series_mul drops the zero they leave
    product = series_mul(plus, minus)
    assert product == TruncatedSeries3({(0, 0, 0): 1, (2, 0, 2): -1}, 4, 4)


def test_t_slice():
    f = TruncatedSeries3({(1, 1, 2): 4, (0, 0, 2): 1, (1, 0, 1): 9}, 4, 2)
    assert f.t_slice(2) == {(0, 0): 1, (1, 1): 4}
    assert f.t_slice(0) == {}


@pytest.mark.parametrize("m", [True, False, 1.0, 2.0, "1", None, -1, 3, 7], ids=repr)
def test_t_slice_rejects_a_power_that_is_not_one_of_its_slices(m):
    # a bool or float would pose as slice 0 or 1, and a power past max_t or
    # below 0 would read as an empty slice
    f = TruncatedSeries3({(0, 0, 0): 1, (1, 0, 1): 9, (1, 1, 2): 4}, 4, 2)
    with pytest.raises(ValueError, match=r"t power must be an integer in 0\.\.2"):
        f.t_slice(m)


def monomial_key():
    return st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))


def coeffs_strategy():
    return st.dictionaries(monomial_key(), st.integers(-5, 5), max_size=5)


@given(coeffs_strategy(), coeffs_strategy())
def test_product_matches_naive_convolution(ca, cb):
    a = TruncatedSeries3(ca, 3, 2)
    b = TruncatedSeries3(cb, 3, 2)
    got = dict(series_mul(a, b).items())
    expected = naive_truncated_product(dict(a.items()), dict(b.items()), 3, 2)
    assert got == expected


def tight_coeffs_strategy(max_size):
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
    return st.dictionaries(keys, st.integers(-5, 5), max_size=max_size)


# In each example one of the x, y and t room tests discards a pair of terms,
# and a pair that meets the bound exactly is kept.
@example({(1, 0, 0): 2}, {(1, 0, 0): 3, (2, 0, 0): 5, (0, 1, 1): 7})
@example({(0, 1, 0): 2}, {(0, 1, 0): 3, (0, 2, 0): 5, (1, 0, 1): 7})
@example({(0, 0, 1): 2}, {(0, 0, 0): 3, (0, 0, 1): 5, (2, 2, 0): 7})
@given(tight_coeffs_strategy(3), tight_coeffs_strategy(12))
def test_product_with_the_larger_operand_second_matches_naive_convolution(ca, cb):
    a = TruncatedSeries3(ca, 2, 1)
    b = TruncatedSeries3(cb, 2, 1)
    got = dict(series_mul(a, b).items())
    assert got == naive_truncated_product(dict(a.items()), dict(b.items()), 2, 1)


@given(coeffs_strategy(), st.data())
def test_series_build_order_is_invisible(coefficients, data):
    orders = [data.draw(st.permutations(list(coefficients))) for _ in range(2)]
    zero_free = {key: c for key, c in coefficients.items() if c}
    # the public constructor drops zeros; _trusted is never given any
    for build, source in ((TruncatedSeries3, coefficients),
                          (TruncatedSeries3._trusted, zero_free)):
        a, b = (build({key: source[key] for key in order if key in source}, 3, 2)
                for order in orders)
        assert a == b and hash(a) == hash(b)
        assert list(a.items()) == list(b.items()) and repr(a) == repr(b)
        for m in range(3):
            assert list(a.t_slice(m).items()) == list(b.t_slice(m).items())


@given(coeffs_strategy(), coeffs_strategy(), coeffs_strategy())
def test_product_laws(ca, cb, cc):
    a = TruncatedSeries3(ca, 3, 2)
    b = TruncatedSeries3(cb, 3, 2)
    c = TruncatedSeries3(cc, 3, 2)
    assert series_mul(a, b) == series_mul(b, a)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


@given(coeffs_strategy(), coeffs_strategy(), monomial_key(), st.sampled_from((1, -1)),
       st.integers(-4, 4))
def test_series_results_own_zero_free_dicts(ca, cb, base, sign, exponent):
    a = TruncatedSeries3(ca, 3, 2)
    b = TruncatedSeries3(cb, 3, 2)
    one = TruncatedSeries3({(0, 0, 0): 1}, 3, 2)
    results = [series_mul(a, b), series_mul(a, a), series_mul(a, one)]
    if any(base):
        power = factor_power(base, sign, exponent, 3, 2)
        # every term but the constant one cancels
        inverse = series_mul(power, factor_power(base, sign, -exponent, 3, 2))
        assert inverse == one
        results += [power, inverse]
    for result in results:
        assert 0 not in result._coeffs.values()
        assert all(result._coeffs is not s._coeffs for s in (a, b, one))


# ---------------------------------------------------------------------------
# factor expansion


def test_factor_power_geometric_series():
    f = factor_power((1, 1, 1), -1, -1, 3, 3)
    assert dict(f.items()) == {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1,
                               (3, 3, 3): 1}


def test_factor_power_positive_square():
    f = factor_power((1, 0, 1), 1, 2, 4, 4)
    assert dict(f.items()) == {(0, 0, 0): 1, (1, 0, 1): 2, (2, 0, 2): 1}


def test_factor_power_negative_binomial():
    f = factor_power((1, 1, 1), -1, -20, 4, 2)
    assert dict(f.items()) == {(0, 0, 0): 1, (1, 1, 1): 20, (2, 2, 2): 210}


def test_factor_power_alternating_signs():
    f = factor_power((1, 0, 1), 1, -2, 6, 6)
    assert dict(f.items()) == {(j, 0, j): (-1) ** j * (j + 1) for j in range(7)}


def test_factor_power_validates_input():
    with pytest.raises(ValueError):
        factor_power((0, 0, 0), 1, 2, 4, 4)
    with pytest.raises(ValueError):
        factor_power((1, 0, 1), 3, 2, 4, 4)
    with pytest.raises(ValueError):
        factor_power((1, 0, 1), 1, 2, -1, 4)
    with pytest.raises(ValueError):
        factor_power((1, 0, 1), 1, 2, 4, -1)
    with pytest.raises(ValueError):
        factor_power((1, -1, 1), 1, 2, 4, 4)


@pytest.mark.parametrize("position", range(5))
@pytest.mark.parametrize("bad", [None, "x", 2.5, True, [1, 0, 1], (1,)], ids=repr)
def test_factor_power_rejects_each_bad_argument(position, bad):
    args = [(1, 0, 1), 1, 2, 4, 4]  # a valid call, with one argument replaced
    args[position] = bad
    with pytest.raises(ValueError):
        factor_power(*args)


# ---------------------------------------------------------------------------
# surfaces


def test_surface_diamonds():
    k3 = surface_diamond("k3")
    assert k3.h(1, 1) == 20
    assert euler_characteristic(k3) == 24
    abelian = surface_diamond("abelian")
    assert abelian.h(1, 0) == 2
    assert abelian.h(1, 1) == 4
    assert euler_characteristic(abelian) == 0
    for kind in ("enriques", "point", {}, []):
        with pytest.raises(ValueError, match="unknown surface kind"):
            surface_diamond(kind)


# ---------------------------------------------------------------------------
# Hilbert scheme diamonds


def test_hilb_zero_points_is_a_point():
    assert hilbert_scheme_diamond(surface_diamond("k3"), 0) == POINT


@pytest.mark.parametrize("kind", ["k3", "abelian"])
def test_hilb_one_point_is_the_surface(kind):
    surface = surface_diamond(kind)
    assert hilbert_scheme_diamond(surface, 1) == surface


def test_k3_hilb2_table():
    d = hilbert_scheme_diamond(surface_diamond("k3"), 2)
    assert d.entries == K3_HILB2
    assert betti(d).b == (1, 0, 23, 0, 276, 0, 23, 0, 1)
    assert salamon_residual(betti(d)) == 0


def test_k3_hilb3_table():
    d = hilbert_scheme_diamond(surface_diamond("k3"), 3)
    assert d.entries == K3_HILB3
    assert betti(d).b == (1, 0, 23, 0, 299, 0, 2554, 0, 299, 0, 23, 0, 1)
    assert euler_characteristic(d) == 3200
    assert check_diamond(d) == ()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_abelian_hilbert_schemes(n):
    d = hilbert_scheme_diamond(surface_diamond("abelian"), n)
    assert euler_characteristic(d) == 0
    assert d.h(0, 0) == 1
    assert check_diamond(d) == ()


def test_hilb_cap_enforced():
    k3 = surface_diamond("k3")
    with pytest.raises(ValueError):
        hilbert_scheme_diamond(k3, DEFAULT_MAX_N + 1)
    with pytest.raises(ValueError):
        hilbert_scheme_diamond(k3, -1)
    assert hilbert_scheme_diamond(k3, 4, max_n=4).complex_dimension == 8


@pytest.mark.parametrize("table, packed", [
    ({(0, 0): 1, (2, 0): 1, (1, 1): 10 ** 200, (0, 2): 1, (2, 2): 1}, 36818024),
    ({(0, 0): 1, (2, 0): 1, (1, 1): 10 ** 100000, (0, 2): 1, (2, 2): 1}, 18546026264),
    ({(0, 0): 1, (1, 1): 10 ** 20000, (2, 2): 1}, 121573000),
], ids=["k3-shaped-e200", "k3-shaped-e100000", "diagonal-e20000"])
def test_hilb_rejects_a_request_beyond_the_packed_size_limit(monkeypatch, table, packed):
    # K3-shaped with h^{1,1} = 10^200 at n = 30: digits of at least 19,784
    # bits on 1861 cells, 36.8M bits a slice, 35 times the limit.  The lower
    # bound n (bitlength(s) - 1 - bitlength(n)) + 1 on the bits of G_n rejects
    # it before the majorant, which takes seconds for s = 10^100000.
    def ran(*args):
        raise AssertionError("the majorant or the recurrence ran")

    monkeypatch.setattr(goettsche, "_digit_bits", ran)
    monkeypatch.setattr(goettsche, "_packed_t_slice", ran)
    huge = HodgeDiamond(table, complex_dimension=2)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(
            f"packs each slice into at least {packed} bits, beyond the limit "
            f"{goettsche.MAX_PACKED_BITS}")):
        hilbert_scheme_diamond(huge, DEFAULT_MAX_N)
    assert time.perf_counter() - start < 0.05
    assert goettsche.MAX_PACKED_BITS == 1 << 20


def test_hilb_size_limit_checks_the_exact_width_past_the_lower_bound(monkeypatch):
    # K3^[30]: s = 24 is too small for the lower bound to reject anything, so
    # only the exact width, from G_30, finds 133,992 bits over a lower limit.
    monkeypatch.setattr(goettsche, "MAX_PACKED_BITS", 133991)
    with pytest.raises(ValueError, match="^the request packs each slice into 133992 bits, "
                                         "beyond the limit 133991$"):
        hilbert_scheme_diamond(surface_diamond("k3"), 30)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, DEFAULT_MAX_N])
def test_hilb_lower_bound_never_rejects_a_request_that_fits(monkeypatch, n):
    # With the limit at the exact packed size, s around each 2^e passes both
    # checks: the cheap bound on bits(G_n) never exceeds the exact one.
    class Packed(Exception):
        pass

    def kernel(*args):
        raise Packed

    monkeypatch.setattr(goettsche, "_packed_t_slice", kernel)
    for size in (2 ** e + d for e in range(2, 600, 7) for d in (-1, 0, 1)):
        # the diagonal packs 2n + 1 cells
        exact = goettsche._width(goettsche._digit_bits(size, n), n) * (2 * n + 1)
        monkeypatch.setattr(goettsche, "MAX_PACKED_BITS", exact)
        with pytest.raises(Packed):
            hilbert_scheme_diamond(HodgeDiamond(
                {(0, 0): 1, (1, 1): size - 2, (2, 2): 1}, complex_dimension=2), n)


@pytest.mark.parametrize("kind, size", [("k3", 40), ("abelian", 72)])
def test_hilb_size_limit_counts_the_cells_packed(monkeypatch, kind, size):
    # At n = 1, K3 packs 5 cells (step 2) and abelian all 9, of 8 bits each;
    # the lower bound on the width already gives those 8 bits.
    surface = surface_diamond(kind)
    monkeypatch.setattr(goettsche, "MAX_PACKED_BITS", size)
    assert hilbert_scheme_diamond(surface, 1) == surface
    monkeypatch.setattr(goettsche, "MAX_PACKED_BITS", size - 1)
    with pytest.raises(ValueError, match=f"into at least {size} bits, beyond the limit {size - 1}"):
        hilbert_scheme_diamond(surface, 1)


@pytest.mark.parametrize("n", [True, 2.0])
def test_hilb_rejects_non_integer_n(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        hilbert_scheme_diamond(surface_diamond("k3"), n)


@pytest.mark.parametrize("max_n", [2.5, -1, 31])
def test_hilb_rejects_bad_max_n(max_n):
    with pytest.raises(ValueError, match="max_n must be a nonnegative integer"):
        hilbert_scheme_diamond(surface_diamond("k3"), 2, max_n=max_n)


def test_hilb_rejects_a_plain_table():
    message = "expected a HodgeDiamond, got {(0, 0): 1}"
    with pytest.raises(ValueError, match=re.escape(message)):
        hilbert_scheme_diamond({(0, 0): 1}, 2)


def test_hilb_requires_a_surface():
    with pytest.raises(ValueError):
        hilbert_scheme_diamond(POINT, 2)
    with pytest.raises(ValueError):
        hilbert_scheme_diamond(HodgeDiamond({(0, 0): 1}), 2)


def test_hilb_odd_cohomology_stays_nonnegative():
    # Odd-degree classes enter the product through (1 + m)^h factors, so
    # every coefficient stays nonnegative whatever nonnegative table the
    # caller feeds in; the negativity guard inside is purely defensive.
    fake = HodgeDiamond({(0, 0): 1, (1, 0): 5, (0, 1): 5},
                        complex_dimension=2)
    d = hilbert_scheme_diamond(fake, 2)
    assert d.h(1, 0) == 5
    assert d.h(1, 1) == 26
    assert d.h(2, 1) == 5
    assert all(value > 0 for _, _, value in d.items())


@pytest.mark.parametrize("changes, message", [
    ({(1, 1): -1}, "negative coefficient -1 at x^1 y^1 t^1"),
    ({(2, 0): -1}, "negative coefficient -1 at x^2 y^0 t^1"),
    ({(2, 0): -1, (0, 2): -2}, "negative coefficient -2 at x^0 y^2 t^1"),
])
def test_hilb_guards_name_the_decoded_monomial(changes, message):
    # Tables no surface has, built unvalidated, reach each guard; the
    # message names the bidegree decoded from the packed key, and of
    # several negatives the first in the lexicographic order of items().
    fake = HodgeDiamond._trusted({**surface_diamond("k3").entries, **changes}, 2)
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        hilbert_scheme_diamond(fake, 1)


def test_hilb_divisibility_guard_names_the_decoded_monomial(monkeypatch):
    # An odd coefficient of T_2 at x^0 y^0 makes that coefficient of
    # 2 F_2 equal to 1 + 2 instead of 1 + 1, which no surface can give;
    # at x^2 y^0 it does the same to the coefficient at x^4 y^0.
    exact = goettsche._t_terms
    k3 = surface_diamond("k3")
    classes = [(p, q) for p, q, _ in k3.items()]
    for cell, monomial in (((0, 0), "x^0 y^0"), ((2, 0), "x^4 y^0")):
        def odd_t2(*args, i=classes.index(cell)):
            terms = exact(*args)
            shift, c = terms[2][i]
            terms[2][i] = (shift, c + 1)
            return terms

        monkeypatch.setattr(goettsche, "_t_terms", odd_t2)
        with pytest.raises(ConsistencyError, match=re.escape(
                f"coefficient 3 at {monomial} t^2 of t dF/dt is not divisible by 2")):
            hilbert_scheme_diamond(k3, 2)


DIAGONAL = {(0, 0): 1, (1, 1): 3, (2, 2): 1}


@pytest.mark.parametrize("changes, message", [
    ({(1, 1): -1}, "negative coefficient -1 at x^1 y^1 t^1"),
    ({(2, 2): -2}, "negative coefficient -2 at x^2 y^2 t^1"),
])
def test_hilb_negativity_guard_decodes_diagonal_cells(changes, message):
    # A diagonal table packs every 4th key of K3^[1]'s 3 x 3 square
    # (step 2n + 2 = 4), so cell c is the key 4c.
    fake = HodgeDiamond._trusted({**DIAGONAL, **changes}, 2)
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        hilbert_scheme_diamond(fake, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_hilb_divisibility_guard_decodes_diagonal_cells(monkeypatch, n):
    # T_2 = 1 + 3 x^2 y^2 + x^4 y^4 on the diagonal table; with 4 in place
    # of 3, the coefficient (h + 1)(h + 2) = 20 of 2 F_2 at x^2 y^2 becomes
    # 21.  That is cell 2 of step 2n + 2: key 12 of 5 x 5, 16 of 7 x 7.
    exact = goettsche._t_terms

    def odd_t2(*args):
        terms = exact(*args)
        shift, c = terms[2][1]
        terms[2][1] = (shift, c + 1)
        return terms

    monkeypatch.setattr(goettsche, "_t_terms", odd_t2)
    with pytest.raises(ConsistencyError, match=re.escape(
            "coefficient 21 at x^2 y^2 t^2 of t dF/dt is not divisible by 2")):
        hilbert_scheme_diamond(HodgeDiamond(DIAGONAL, complex_dimension=2), n)


@pytest.mark.parametrize("offset", [1 << 40, -(1 << 40), 1 << 72, -(1 << 72)])
def test_hilb_rejects_a_slice_beyond_its_last_digit(monkeypatch, offset):
    # K3^[1] packs its 5 even cells (step 2) of w = 8 bits (b = 5), 40 bits
    # in all.  F_1 moved by +-2^40, just past the last digit, or by +-2^72
    # keeps every one of those digits in range, so only the sign and
    # length conditions of the whole-integer test reject it.
    exact = goettsche._t_terms

    def moved(*args):
        terms = exact(*args)
        shift, c = terms[1][0]
        terms[1][0] = (shift, c + offset)
        return terms

    monkeypatch.setattr(goettsche, "_t_terms", moved)
    assert goettsche._digit_bits(24, 1) == 5
    with pytest.raises(ConsistencyError, match="coefficient bound"):
        hilbert_scheme_diamond(surface_diamond("k3"), 1)


@pytest.mark.parametrize("kind", ["k3", "abelian"])
def test_hilb_too_narrow_width_raises(monkeypatch, kind):
    # Digits that overflow their width carry into their neighbours; the
    # whole-integer test must reject such a slice, never return a diamond.
    monkeypatch.setattr(goettsche, "_digit_bits", lambda size, n: 2)
    for n in range(1, 10):
        with pytest.raises(ConsistencyError, match="coefficient bound"):
            hilbert_scheme_diamond(surface_diamond(kind), n)


# ---------------------------------------------------------------------------
# large n against one-variable generating functions


@pytest.mark.parametrize("n", [*range(13), DEFAULT_MAX_N])
def test_k3_hilb_euler_betti_and_salamon(n):
    d = hilbert_scheme_diamond(surface_diamond("k3"), n, max_n=n)
    assert euler_characteristic(d) == inverse_eta_power_coefficient(n, 24)
    assert list(betti(d).b) == goettsche_betti_row([1, 0, 22, 0, 1], n)
    assert salamon_residual(betti(d)) == 0
    assert check_diamond(d) == ()


@pytest.mark.parametrize("n", [*range(9), DEFAULT_MAX_N])
def test_abelian_hilb_betti_numbers(n):
    d = hilbert_scheme_diamond(surface_diamond("abelian"), n, max_n=n)
    assert list(betti(d).b) == goettsche_betti_row([1, 4, 6, 4, 1], n)
    assert check_diamond(d) == ()


@pytest.mark.parametrize("kind", ["k3", "abelian"])
def test_hard_lefschetz_at_every_n(kind):
    # Cupping with a Kaehler class injects H^{p,q} into H^{p+1,q+1} below the
    # middle degree.  Hilbert schemes of projective surfaces are Kaehler, so
    # this holds for these two surfaces; an arbitrary table need not obey it.
    # Each diamond's chi_{-y} must also match the Ellingsrud-Goettsche-Lehn series.
    chi_y = hilbert_chi_y(surface_diamond(kind).entries, DEFAULT_MAX_N)
    for n in range(DEFAULT_MAX_N + 1):
        d = hilbert_scheme_diamond(surface_diamond(kind), n)
        assert [(p, q) for p in range(2 * n + 1) for q in range(2 * n - p)
                if d.h(p, q) > d.h(p + 1, q + 1)] == [], n
        assert chi_minus_y(d.entries, 2 * n) == chi_y[n], n


@pytest.mark.parametrize("n", [7, 8, 9])
def test_hilb_betti_numbers_on_random_surfaces(n):
    # The benchmark's table shapes and sizes, against the one-variable Betti
    # product and the chi_{-y} series.
    rng = random.Random(20262 + n)
    for _ in range(4):
        surface = _surface_shaped(rng, 50)
        q, pg, h11 = surface.h(1, 0), surface.h(2, 0), surface.h(1, 1)
        d = hilbert_scheme_diamond(surface, n)
        assert list(betti(d).b) == \
            goettsche_betti_row([1, 2 * q, 2 * pg + h11, 2 * q, 1], n), surface
        assert chi_minus_y(d.entries, 2 * n) == hilbert_chi_y(surface.entries, n)[n], surface
        assert check_diamond(d) == (), surface


def _surface_shaped(rng: random.Random, h11_max: int) -> HodgeDiamond:
    q, pg, h11 = rng.randint(0, 2), rng.randint(0, 4), rng.randint(1, h11_max)
    return HodgeDiamond({(0, 0): 1, (1, 0): q, (0, 1): q, (2, 0): pg,
                         (1, 1): h11, (0, 2): pg, (2, 1): q, (1, 2): q,
                         (2, 2): 1}, complex_dimension=2)


def test_recurrence_matches_product_formula_on_random_surfaces():
    rng = random.Random(20260)
    cases = [(_surface_shaped(rng, 50), n) for n in (1, 2, 3, 4, 5, 5)]
    # T_j's coefficients of 1 skip their multiply; E x P^1's lone odd
    # class h^{1,0} = 1 gives -1 at even j, and h^{0,0} = 2 gives 2.  The
    # empty table gives empty diamonds for n >= 1.
    cases += [(HodgeDiamond(table, complex_dimension=2), 5) for table in (
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1, (1, 2): 1, (2, 2): 1},
        {(0, 0): 2, (2, 0): 1, (1, 1): 3, (0, 2): 1, (2, 2): 2},
        {},
    )]
    for surface, n in cases:
        for m, expected in enumerate(_product_formula_slices(surface, n)):
            got = hilbert_scheme_diamond(surface, m)
            assert got.entries == expected, (surface, m)


def _asymmetric_surface(rng: random.Random) -> HodgeDiamond:
    """A table with h10 != h01 and h20 != h02."""
    h10, h20 = rng.randint(0, 3), rng.randint(0, 3)
    return HodgeDiamond({
        (0, 0): 1, (1, 0): h10, (0, 1): h10 + rng.randint(1, 3),
        (2, 0): h20, (0, 2): h20 + rng.randint(1, 2),
        (1, 1): rng.randint(0, 30), (2, 1): rng.randint(0, 4),
        (1, 2): rng.randint(0, 4), (2, 2): rng.randint(0, 2)},
        complex_dimension=2)


def _forward_multiply_out(surface: HodgeDiamond, n: int) -> list[dict]:
    """The slices of Goettsche's product, k = 1 first, truncated only at the end
    of each multiplication."""
    series = {(0, 0, 0): 1}
    for k in range(1, n + 1):
        for p, q, h in surface.items():
            sign = 1 if (p + q) % 2 else -1
            factor = factor_power((p + k - 1, q + k - 1, k), sign, sign * h, 2 * n, n)
            series = naive_truncated_product(series, dict(factor.items()), 2 * n, n)
    return [{(a, b): c for (a, b, m), c in series.items() if m == t}
            for t in range(n + 1)]


def test_product_formula_slices_match_a_forward_naive_multiply_out():
    # The referee multiplies from k = n down and skips pairs past the
    # truncation; the oracle goes k = 1 first and truncates afterwards.
    cases = [(surface_diamond("k3"), n) for n in range(5)]
    cases += [(surface_diamond("abelian"), n) for n in range(4)]
    cases += [(_asymmetric_surface(random.Random(20265)), 3)]
    for surface, n in cases:
        slices = _product_formula_slices(surface, n)
        assert slices == _forward_multiply_out(surface, n), (surface, n)
        assert all(list(s) == sorted(s) for s in slices)


def test_product_referee_line_fails_alone_when_the_top_power_of_t_is_dropped(monkeypatch):
    exact = checks.series_mul

    def drop_top(a, b):
        product = exact(a, b)
        return TruncatedSeries3({key: c for key, c in product.items()
                                 if key[2] != product.max_t},
                                product.max_xy, product.max_t)

    monkeypatch.setattr(checks, "series_mul", drop_top)
    failed = [r.name for r in checks.run_suite("goettsche") if not r.ok]
    assert failed == ["goettsche: recurrence matches the product formula"]


def test_recurrence_matches_product_formula_without_surface_symmetries():
    # h10 != h01 and h20 != h02 break Hodge symmetry and Serre duality, so
    # the grouped recurrence is checked as an identity of series alone.
    rng = random.Random(20261)
    for n in (2, 3, 4, 5, 6, 6):
        table = _asymmetric_surface(rng)
        for m, expected in enumerate(_product_formula_slices(table, n)):
            got = hilbert_scheme_diamond(table, m)
            assert got.entries == expected, (table, m)


# ---------------------------------------------------------------------------
# the lattice of packed keys


STEP_TABLES = [
    # pg = q = 0: every class on the diagonal, step 2n + 2
    ({(0, 0): 1, (1, 1): 7, (2, 2): 1}, lambda n: 2 * n + 2),
    # K3-shaped, asymmetric: no odd class, step 2
    ({(0, 0): 1, (2, 0): 2, (1, 1): 5, (0, 2): 1, (2, 2): 1}, lambda n: 2),
    # q > 0, asymmetric: an odd class, step 1
    ({(0, 0): 1, (0, 1): 2, (2, 0): 1, (1, 1): 3, (0, 2): 1, (2, 1): 1,
      (2, 2): 1}, lambda n: 1),
]


@pytest.mark.parametrize("table, step", STEP_TABLES)
def test_recurrence_matches_product_formula_on_each_step(monkeypatch, table, step):
    steps = []
    kernel = goettsche._packed_t_slice

    def spy(surface, n, base, step, *rest):
        steps.append(step)
        return kernel(surface, n, base, step, *rest)

    monkeypatch.setattr(goettsche, "_packed_t_slice", spy)
    surface = HodgeDiamond(table, complex_dimension=2)
    for m, expected in enumerate(_product_formula_slices(surface, 5)):
        assert hilbert_scheme_diamond(surface, m).entries == expected, m
    assert steps == [step(m) for m in range(6)]


def test_diagonal_surface_at_the_largest_n_matches_the_betti_product():
    # Step 62 packs F_30 on its 61 diagonal cells alone.
    d = hilbert_scheme_diamond(HodgeDiamond(STEP_TABLES[0][0], complex_dimension=2),
                               DEFAULT_MAX_N)
    row = goettsche_betti_row([1, 0, 7, 0, 1], DEFAULT_MAX_N)
    assert all(p == q for p, q, _ in d.items())
    assert [d.h(p, p) for p in range(2 * DEFAULT_MAX_N + 1)] == row[::2]
    assert not any(row[1::2])


@st.composite
def zero_free_surfaces(draw):
    """Surface tables of each step: the diagonal, the even cells, any cell."""
    cells = draw(st.sampled_from([
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0), (2, 0), (1, 1), (0, 2), (2, 2)],
        [(p, q) for p in range(3) for q in range(3)],
    ]))
    values = draw(st.lists(st.integers(0, 4), min_size=len(cells),
                           max_size=len(cells)))
    table = {cell: h for cell, h in zip(cells, values) if h}
    return HodgeDiamond(table, complex_dimension=2), draw(st.integers(0, 4))


@given(zero_free_surfaces())
def test_recurrence_matches_product_formula_on_drawn_surfaces(case):
    # Cells are drawn one by one, so most tables break Hodge symmetry and
    # Serre duality; the identity of series must hold all the same.
    surface, n = case
    for m, expected in enumerate(_product_formula_slices(surface, n)):
        assert hilbert_scheme_diamond(surface, m).entries == expected, (surface, m)


# ---------------------------------------------------------------------------
# the digit width of the packed recurrence


def test_recurrence_matches_product_formula_with_digits_beyond_64_bits():
    # h11 up to 10^12 with odd classes: the coefficients of F_6 reach
    # about 230 bits, so every digit spans several machine words.
    rng = random.Random(20263)
    tables = [_surface_shaped(rng, 10 ** 12) for _ in range(3)]
    tables.append(HodgeDiamond({(0, 0): 1, (1, 0): 3, (0, 1): 3, (1, 1): 10 ** 12,
                                (2, 1): 3, (1, 2): 3, (2, 2): 1},
                               complex_dimension=2))
    for table in tables:
        assert goettsche._digit_bits(sum(h for _, _, h in table.items()), 6) > 64
        for m, expected in enumerate(_product_formula_slices(table, 6)):
            assert hilbert_scheme_diamond(table, m).entries == expected, (table, m)


def test_every_hodge_number_is_within_the_majorant():
    # h^{p,q}(S^[n]) <= G_n = [t^n] prod_k (1 - t^k)^(-sum |h(S)|), the
    # bound the packed width is built from.
    rng = random.Random(20264)
    cases = [(surface_diamond(kind), n) for kind in ("k3", "abelian")
             for n in (*range(13), DEFAULT_MAX_N)]
    cases += [(_surface_shaped(rng, 50), n) for n in range(4, 10) for _ in range(4)]
    for surface, n in cases:
        size = sum(abs(h) for _, _, h in surface.items())
        bound = inverse_eta_power_coefficient(n, size)
        assert goettsche._digit_bits(size, n) == bound.bit_length()
        d = hilbert_scheme_diamond(surface, n, max_n=n)
        assert max(h for _, _, h in d.items()) <= bound, (surface, n)


# ---------------------------------------------------------------------------
# unpacking a packed slice into its digits


DIGIT_WIDTHS = [8, 24, 40, 48, 56, 64, 72, 128, 1568]


def _digits_by_cell(value: int, width: int, cells: int) -> tuple[int, ...]:
    """The reference decode: one ``int.from_bytes`` per cell."""
    size = width // 8
    raw = value.to_bytes(size * cells, "little")
    return tuple(int.from_bytes(raw[i:i + size], "little")
                 for i in range(0, size * cells, size))


def _packed(digits: list[int], width: int) -> int:
    return sum(d << width * i for i, d in enumerate(digits))


@pytest.mark.parametrize("width", DIGIT_WIDTHS)
def test_digits_match_a_per_cell_decode(width):
    # Widths below, at and above one 64-bit word and of many words; every
    # prefix is decoded, so the top cell takes each kind of digit.
    top = (1 << width) - 1
    rng = random.Random(width)
    digits = [0, 1, top, *(rng.getrandbits(width) for _ in range(4)), top, 1, 0]
    for cells in range(1, len(digits) + 1):
        value = _packed(digits[:cells], width)
        assert goettsche._digits(value, width, cells) == \
            _digits_by_cell(value, width, cells) == tuple(digits[:cells]), cells


@st.composite
def packed_digits(draw):
    """A width of whole bytes and digits in its range, extremes included."""
    width = draw(st.sampled_from(DIGIT_WIDTHS) | st.integers(1, 200).map(lambda b: 8 * b))
    top = (1 << width) - 1
    digits = draw(st.lists(st.sampled_from([0, 1, top]) | st.integers(0, top),
                           min_size=1, max_size=12))
    return width, digits


@given(packed_digits())
def test_digits_match_a_per_cell_decode_on_drawn_values(case):
    width, digits = case
    value = _packed(digits, width)
    assert goettsche._digits(value, width, len(digits)) == \
        _digits_by_cell(value, width, len(digits)) == tuple(digits)
