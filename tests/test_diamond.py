"""Core table algebra, Betti/Euler invariants and the 6-fold constraints."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, strategies as st

from _oracles import ext_power_oracle, sym_power_oracle
from ihshodge.diamond import (
    BettiVector,
    HodgeDiamond,
    betti,
    check_diamond,
    chi_p,
    complete_by_duality,
    direct_sum,
    euler_characteristic,
    ext_power,
    salamon_residual,
    solve_betti_dim6,
    sym_power,
    tate_twist,
    tensor,
    weight_sums,
)
from ihshodge.equivariant import EquivariantDiamond
from ihshodge.goettsche import TruncatedSeries3, surface_diamond

OG6_LOWER = [
    (0, 0, 1),
    (2, 0, 1), (1, 1, 6), (0, 2, 1),
    (4, 0, 1), (3, 1, 12), (2, 2, 173), (1, 3, 12), (0, 4, 1),
    (6, 0, 1), (5, 1, 6), (4, 2, 173), (3, 3, 1144), (2, 4, 173),
    (1, 5, 6), (0, 6, 1),
]

OG6_TABLE = {(p, q): v for p, q, v in OG6_LOWER}
OG6_TABLE.update({(6 - p, 6 - q): v for p, q, v in OG6_LOWER})

OG6_BETTI = (1, 0, 8, 0, 199, 0, 1504, 0, 199, 0, 8, 0, 1)

K3_ENTRIES = {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1}

POINT = HodgeDiamond({(0, 0): 1}, complex_dimension=0)


def og6() -> HodgeDiamond:
    return HodgeDiamond(OG6_TABLE, complex_dimension=6)


# ---------------------------------------------------------------------------
# construction and value semantics


def test_zero_entries_are_dropped():
    d = HodgeDiamond({(0, 0): 1, (1, 1): 0})
    assert d.entries == {(0, 0): 1}
    assert d == HodgeDiamond({(0, 0): 1})


def test_negative_entry_rejected():
    with pytest.raises(ValueError):
        HodgeDiamond({(0, 0): -1})


def test_entries_outside_bounds_rejected():
    with pytest.raises(ValueError):
        HodgeDiamond({(3, 0): 1}, complex_dimension=2)
    with pytest.raises(ValueError):
        HodgeDiamond({(-1, 0): 1})


@pytest.mark.parametrize("entries", [5, None, [1], "ab"], ids=repr)
def test_entries_that_are_not_a_table_rejected(entries):
    with pytest.raises(ValueError, match="entries must be a mapping"):
        HodgeDiamond(entries)


def test_dimension_must_be_nonnegative_integer():
    with pytest.raises(ValueError):
        HodgeDiamond({}, complex_dimension=-1)
    with pytest.raises(ValueError):
        HodgeDiamond({}, complex_dimension=True)


def test_bool_is_not_an_integer():
    with pytest.raises(ValueError):
        HodgeDiamond({(True, 0): 1})
    with pytest.raises(ValueError):
        HodgeDiamond({(0, 0): True})


class Small(int):
    """An int subclass other than bool, which tables accept as an integer."""


@pytest.mark.parametrize("entries, dim, message", [
    ({(-1, 0): "x"}, None, "negative bidegree (-1,0)"),
    ({(-1, 5): -1}, 2, "negative bidegree (-1,5)"),
    ({(0, 0): "x"}, None, "dimension at (0,0) must be an integer, got 'x'"),
    ({(0, 0): True}, None, "dimension at (0,0) must be an integer, got True"),
    ({(True, 0): 1}, None, "bidegree keys must be integer pairs, got (True, 0)"),
    ({(0, 0, 0): 1}, None, "bidegree keys must be integer pairs, got (0, 0, 0)"),
    ({"ab": 1}, None, "bidegree keys must be integer pairs, got 'ab'"),
    ({(0, 0): -1}, None, "negative dimension -1 at (0,0)"),
    ({(3, 0): -1}, 2, "negative dimension -1 at (3,0)"),
    ({(3, 0): 1}, 2, "entry at (3,0) lies outside the diamond of a 2-fold"),
    ({(0, 0): 1, (1, 1): "x", (-1, 0): 1}, None,
     "dimension at (1,1) must be an integer, got 'x'"),
], ids=repr)
def test_entry_errors_keep_their_messages_and_order(entries, dim, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        HodgeDiamond(entries, complex_dimension=dim)


def test_int_subclass_entries_accepted():
    d = HodgeDiamond({(Small(1), 0): Small(2), (0, 0): 1}, complex_dimension=1)
    assert d == HodgeDiamond({(0, 0): 1, (1, 0): 2}, complex_dimension=1)
    assert list(d.items()) == [(0, 0, 1), (1, 0, 2)]


def test_immutability():
    d = og6()
    with pytest.raises(AttributeError):
        d.complex_dimension = 3
    d.entries[(0, 0)] = 99
    assert d.h(0, 0) == 1


@pytest.mark.parametrize("value", [
    HodgeDiamond({(0, 0): 1, (1, 1): 2}, complex_dimension=1),
    EquivariantDiamond({(1, 1): (2, 1)}),
    TruncatedSeries3({(0, 0, 0): 1, (1, 0, 1): 3}, 2, 1),
], ids=lambda value: type(value).__name__)
def test_slots_cannot_be_deleted(value):
    before = repr(value)
    for name in type(value).__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
    assert repr(value) == before


def test_equality_distinguishes_dimension():
    assert HodgeDiamond(K3_ENTRIES) != HodgeDiamond(K3_ENTRIES, complex_dimension=2)
    assert hash(og6()) == hash(og6())


@pytest.mark.parametrize("other", [5, None, "x", K3_ENTRIES], ids=repr)
def test_equality_with_a_non_table_is_not_implemented(other):
    # Python then falls back to identity, so == is False and != is True.
    d = HodgeDiamond(K3_ENTRIES)
    assert d.__eq__(other) is NotImplemented
    assert d != other and not d == other


def test_json_round_trip():
    for d in (og6(), HodgeDiamond({(1, 1): 5})):
        data = json.loads(json.dumps(d.to_json_dict()))
        assert HodgeDiamond({(p, q): v for p, q, v in data["entries"]},
                            complex_dimension=data["complex_dimension"]) == d


def test_json_entries_sorted():
    d = HodgeDiamond({(2, 0): 1, (0, 2): 1, (1, 1): 4})
    assert d.to_json_dict()["entries"] == [[0, 2, 1], [1, 1, 4], [2, 0, 1]]


# ---------------------------------------------------------------------------
# numerical invariants


def test_betti_og6():
    assert betti(og6()).b == OG6_BETTI


def test_betti_point():
    assert betti(POINT).b == (1,)


def test_betti_needs_dimension():
    with pytest.raises(ValueError):
        betti(HodgeDiamond({(0, 0): 1}))


def test_chi_p_og6():
    d = og6()
    assert chi_p(d, 0) == 4
    assert chi_p(d, 1) == -24
    assert chi_p(d, 2) == 348


def test_chi_p_k3():
    k3 = HodgeDiamond(K3_ENTRIES, complex_dimension=2)
    assert chi_p(k3, 0) == 2
    assert chi_p(k3, 1) == -20


def test_chi_p_range_checked():
    with pytest.raises(ValueError):
        chi_p(og6(), 7)
    with pytest.raises(ValueError):
        chi_p(og6(), -1)


def test_chi_p_rejects_non_integer_p():
    for p in (True, 1.0):
        with pytest.raises(ValueError):
            chi_p(og6(), p)


def test_euler_characteristic():
    assert euler_characteristic(og6()) == 1920
    assert euler_characteristic(POINT) == 1
    abelian = HodgeDiamond({(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1,
                            (1, 1): 4, (0, 2): 1, (2, 1): 2, (1, 2): 2,
                            (2, 2): 1}, complex_dimension=2)
    assert euler_characteristic(abelian) == 0


def test_weight_sums():
    assert weight_sums(og6())[6] == 1504
    assert weight_sums(HodgeDiamond({})) == {}


# ---------------------------------------------------------------------------
# table algebra


def test_direct_sum_adds_entrywise():
    a = HodgeDiamond({(1, 1): 2})
    b = HodgeDiamond({(1, 1): 3, (2, 0): 1})
    assert direct_sum(a, b).entries == {(1, 1): 5, (2, 0): 1}
    assert direct_sum(a, HodgeDiamond({})) == a


def test_tensor_with_point_is_identity():
    a = HodgeDiamond({(1, 1): 7, (2, 0): 1})
    unit = HodgeDiamond({(0, 0): 1})
    assert tensor(a, unit) == a


def test_tensor_abelian_squared_is_binomial_fourfold():
    from math import comb

    abelian = HodgeDiamond({(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1,
                            (1, 1): 4, (0, 2): 1, (2, 1): 2, (1, 2): 2,
                            (2, 2): 1})
    square = tensor(abelian, abelian)
    assert square.entries == {(p, q): comb(4, p) * comb(4, q)
                              for p in range(5) for q in range(5)}


def test_tate_twist_shifts_diagonally():
    h2 = HodgeDiamond({(2, 0): 1, (1, 1): 21, (0, 2): 1})
    twisted = tate_twist(h2, 1)
    assert twisted.entries == {(3, 1): 1, (2, 2): 21, (1, 3): 1}
    assert tate_twist(twisted, -1) == h2
    with pytest.raises(ValueError):
        tate_twist(h2, -1)
    with pytest.raises(ValueError):
        tate_twist(h2, 0.5)


def test_sym_power_k3_h2():
    h2 = HodgeDiamond({(2, 0): 1, (1, 1): 20, (0, 2): 1})
    s = sym_power(h2, 2)
    assert s.entries == {(4, 0): 1, (3, 1): 20, (2, 2): 211, (1, 3): 20,
                         (0, 4): 1}


def test_sym_power_identities():
    h2 = HodgeDiamond({(2, 0): 1, (1, 1): 21, (0, 2): 1})
    assert sym_power(h2, 0) == HodgeDiamond({(0, 0): 1})
    assert sym_power(h2, 1) == h2
    assert sym_power(h2, 3).total_dimension() == 2300
    for k in (-1, True):
        with pytest.raises(ValueError):
            sym_power(h2, k)
        with pytest.raises(ValueError):
            ext_power(h2, k)


def test_ext_power_k3_cube_h2():
    h2 = HodgeDiamond({(2, 0): 1, (1, 1): 21, (0, 2): 1})
    e = ext_power(h2, 2)
    assert e.entries == {(3, 1): 21, (2, 2): 211, (1, 3): 21}
    assert e.total_dimension() == 253
    assert ext_power(HodgeDiamond({(2, 0): 1}), 2) == HodgeDiamond({})
    assert ext_power(h2, 1) == h2


def test_powers_reject_odd_support():
    odd = HodgeDiamond({(1, 0): 2})
    with pytest.raises(ValueError):
        sym_power(odd, 2)
    with pytest.raises(ValueError):
        ext_power(odd, 2)
    # the message names the first odd entry in lexicographic order, not in build order
    for table in ({(2, 0): 1, (1, 0): 1, (0, 1): 1}, {(0, 1): 1, (1, 0): 1}):
        for build in (HodgeDiamond, HodgeDiamond._trusted):
            with pytest.raises(ValueError, match=re.escape("found an entry at (0,1)")):
                sym_power(build(table), 2)
    with pytest.raises(ValueError):
        sym_power(HodgeDiamond({(1, 1): 1}), -1)


def test_markman_weight4_rows():
    h2 = HodgeDiamond({(2, 0): 1, (1, 1): 21, (0, 2): 1})
    w4 = direct_sum(sym_power(h2, 2), tate_twist(h2, 1))
    assert w4.h(3, 1) == 22
    assert w4.h(2, 2) == 253


# ---------------------------------------------------------------------------
# randomized algebra properties


def table_strategy(degrees, max_value=6):
    return st.dictionaries(st.sampled_from(degrees),
                           st.integers(min_value=0, max_value=max_value),
                           max_size=4).map(HodgeDiamond)


ANY_DEGREES = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)]
EVEN_DEGREES = [(0, 0), (1, 1), (2, 0), (0, 2), (2, 2), (3, 1), (1, 3)]


@given(table_strategy(ANY_DEGREES), table_strategy(ANY_DEGREES),
       table_strategy(ANY_DEGREES))
def test_sum_and_tensor_laws(a, b, c):
    assert direct_sum(a, b) == direct_sum(b, a)
    assert tensor(a, b) == tensor(b, a)
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))
    assert tensor(a, direct_sum(b, c)) == direct_sum(tensor(a, b), tensor(a, c))


@given(table_strategy(ANY_DEGREES), table_strategy(ANY_DEGREES))
def test_betti_additive(a, b):
    a6 = HodgeDiamond(a.entries, complex_dimension=6)
    b6 = HodgeDiamond(b.entries, complex_dimension=6)
    s6 = HodgeDiamond(direct_sum(a, b).entries, complex_dimension=6)
    assert betti(s6).b == tuple(x + y for x, y in zip(betti(a6).b, betti(b6).b))


@given(table_strategy(ANY_DEGREES))
def test_chi_p_alternating_sum_is_euler(a):
    d = HodgeDiamond(a.entries, complex_dimension=6)
    total = sum((-1) ** p * chi_p(d, p) for p in range(7))
    assert total == euler_characteristic(d)


@given(table_strategy(EVEN_DEGREES, max_value=3), st.integers(0, 3))
def test_sym_power_matches_oracle(a, k):
    assert sym_power(a, k).entries == sym_power_oracle(a.entries, k)


@given(table_strategy(EVEN_DEGREES, max_value=3), st.integers(0, 3))
def test_ext_power_matches_oracle(a, k):
    assert ext_power(a, k).entries == ext_power_oracle(a.entries, k)


SEED_EDGE_TABLES = {
    "empty": {},
    "single piece": {(1, 1): 3},
    "single line": {(2, 0): 1},
    "first piece below k": {(0, 0): 1, (1, 1): 3},
    "first two below k": {(0, 0): 2, (1, 1): 1, (2, 2): 4},
    "only pieces below k": {(0, 0): 1, (2, 0): 2, (1, 1): 1},
}


@pytest.mark.parametrize("entries", SEED_EDGE_TABLES.values(),
                         ids=SEED_EDGE_TABLES.keys())
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_powers_seeded_by_first_piece_match_oracle(entries, k):
    d = HodgeDiamond(entries)
    assert sym_power(d, k).entries == sym_power_oracle(entries, k)
    assert ext_power(d, k).entries == ext_power_oracle(entries, k)
    assert sym_power(d, 0) == ext_power(d, 0) == HodgeDiamond({(0, 0): 1})


def test_direct_sum_with_an_empty_side():
    k3 = surface_diamond("k3")
    empty = HodgeDiamond({})
    for result in (direct_sum(k3, empty), direct_sum(empty, k3)):
        assert result.complex_dimension is None
        assert result == HodgeDiamond(k3.entries)
    abstract = HodgeDiamond(K3_ENTRIES)
    empty_surface = HodgeDiamond({}, complex_dimension=2)
    for other in (empty, empty_surface):
        assert direct_sum(abstract, other) is abstract
        assert direct_sum(other, abstract) is abstract
    assert direct_sum(empty_surface, HodgeDiamond({}, 3)) == empty


@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.integers(0, 3), max_size=8), st.data())
def test_build_order_is_invisible(table, data):
    orders = [data.draw(st.permutations(list(table))) for _ in range(2)]
    zero_free = {key: value for key, value in table.items() if value}
    # the public constructor drops zeros; _trusted is never given any
    for build, source in ((HodgeDiamond, table), (HodgeDiamond._trusted, zero_free)):
        a, b = (build({key: source[key] for key in order if key in source}, 4)
                for order in orders)
        assert a == b and hash(a) == hash(b)
        assert list(a.items()) == list(b.items())
        assert list(a.entries.items()) == list(b.entries.items())
        assert repr(a) == repr(b) and a.to_json_dict() == b.to_json_dict()


@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.integers(0, 3), max_size=8))
def test_trusted_matches_validated_construction(table):
    d = HodgeDiamond._trusted({key: value for key, value in table.items() if value})
    assert list(d.items()) == sorted(d.items())
    assert d == HodgeDiamond(table)
    assert hash(d) == hash(HodgeDiamond(table))


@given(table_strategy(EVEN_DEGREES, max_value=4))
def test_sym_plus_ext_squares(a):
    total = a.total_dimension()
    got = (sym_power(a, 2).total_dimension()
           + ext_power(a, 2).total_dimension())
    assert got == total * total


# ---------------------------------------------------------------------------
# hyperkaehler constraints


def test_betti_vector_validation():
    with pytest.raises(ValueError, match="n must be a nonnegative integer"):
        BettiVector(-1, (1, 0))
    with pytest.raises(ValueError, match="expected 5 Betti numbers for n=2, got 3"):
        BettiVector(2, [1, 0, 23])
    with pytest.raises(ValueError, match="b_1 must be a nonnegative integer"):
        BettiVector(1, (1, -1, 1))
    for n, row in ((1.0, (1, 0, 1)), (True, (1, 0, 1)), (1, (1, True, 1)), (1, 5)):
        with pytest.raises(ValueError):
            BettiVector(n, row)


def test_betti_vector_value_semantics():
    v = BettiVector(2, (1, 0, 23, 0, 276))
    assert repr(v) == "BettiVector(n=2, b=(1, 0, 23, 0, 276))"
    w = BettiVector(n=2, b=[1, 0, 23, 0, 276])
    assert w.b == (1, 0, 23, 0, 276)
    assert w == v and hash(w) == hash(v) == hash((2, (1, 0, 23, 0, 276)))
    assert v != BettiVector(2, (1, 0, 22, 0, 276))
    assert v != (2, (1, 0, 23, 0, 276))

    class Sub(BettiVector):
        pass

    assert v != Sub(2, (1, 0, 23, 0, 276))
    with pytest.raises(AttributeError):
        v.n = 3
    with pytest.raises(AttributeError):
        v.b = (1,)
    with pytest.raises(AttributeError):
        del v.n
    assert v.n == 2 and v.b == (1, 0, 23, 0, 276)


OG6_BETTI = (1, 0, 8, 0, 199, 0, 1504, 0, 199, 0, 8, 0, 1)


def test_salamon_residual_known_manifolds():
    assert salamon_residual(betti(og6())) == 0
    assert salamon_residual(BettiVector(6, OG6_BETTI)) == 0
    assert salamon_residual(BettiVector(4, (1, 0, 23, 0, 276, 0, 23, 0, 1))) == 0
    assert salamon_residual(BettiVector(
        6, (1, 0, 23, 0, 299, 0, 2554, 0, 299, 0, 23, 0, 1))) == 0
    assert salamon_residual(BettiVector(2, (1, 0, 22, 0, 1))) == 0


def test_salamon_residual_detects_b4_perturbation():
    row = list(OG6_BETTI)
    row[4] += 1
    assert salamon_residual(BettiVector(6, tuple(row))) == 18


def test_salamon_residual_even_perturbations_all_detected():
    for k in range(0, 7, 2):
        for delta in (1, -1):
            row = list(OG6_BETTI)
            row[k] += delta
            assert salamon_residual(BettiVector(6, tuple(row))) != 0


def test_salamon_residual_rejects_an_odd_complex_dimension():
    with pytest.raises(ValueError, match="even complex dimension, got 3"):
        salamon_residual(BettiVector(3, (1, 0, 1, 0, 1, 0, 1)))


def test_solve_betti_dim6():
    assert solve_betti_dim6(1, 8, 1920) == (199, 1504)
    assert solve_betti_dim6(1, 23, 3200) == (299, 2554)


def test_solve_betti_dim6_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_betti_dim6(1, 8, 1921)
    with pytest.raises(ValueError):
        solve_betti_dim6(1, 8, 0)


def test_solve_betti_dim6_rejects_non_integers():
    for args in ((1, 8.0, 1920), (True, 8, 1920), (1, 8, 1920.0), (1, False, 1920)):
        with pytest.raises(ValueError):
            solve_betti_dim6(*args)


# ---------------------------------------------------------------------------
# structural checks


def test_check_diamond_passes_og6():
    assert check_diamond(og6()) == ()


def test_check_diamond_reports_symmetry_violation():
    d = HodgeDiamond({(1, 0): 1}, complex_dimension=1)
    violations = check_diamond(d)
    assert isinstance(violations, tuple) and violations
    assert any("symmetry" in v for v in violations)


def test_check_diamond_reports_duality_violation():
    d = HodgeDiamond({(0, 0): 2, (1, 1): 1}, complex_dimension=1)
    assert any("duality" in v for v in check_diamond(d))


def test_check_diamond_needs_dimension():
    with pytest.raises(ValueError):
        check_diamond(HodgeDiamond({(0, 0): 1}))


def test_complete_by_duality():
    lower = HodgeDiamond({(p, q): v for p, q, v in OG6_LOWER})
    assert complete_by_duality(lower, 6) == og6()


def test_complete_by_duality_conflict():
    lower = HodgeDiamond({(0, 0): 1, (2, 2): 5})
    with pytest.raises(ValueError, match="duality completion conflict"):
        complete_by_duality(lower, 2)


def test_complete_by_duality_rejects_a_negative_dimension():
    with pytest.raises(ValueError, match="nonnegative integer"):
        complete_by_duality(HodgeDiamond({(0, 0): 1}), -1)


@pytest.mark.parametrize("entry", [(7, 0), (0, 7), (7, 7)], ids=str)
def test_complete_by_duality_rejects_entries_outside_the_diamond(entry):
    # bad input, so a ValueError rather than a duality conflict
    p, q = entry
    message = f"entry at ({p},{q}) lies outside the diamond of a 6-fold"
    with pytest.raises(ValueError, match=re.escape(message)):
        complete_by_duality(HodgeDiamond({(0, 0): 1, entry: 1}), 6)


def test_complete_by_duality_accepts_consistent_upper():
    table = HodgeDiamond({(0, 0): 1, (1, 1): 4, (2, 2): 1})
    assert complete_by_duality(table, 2).h(2, 2) == 1
