"""Eigenspace tables: sign rules, plethysm and the forget functor."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, strategies as st

from _oracles import (
    eq_ext_power_oracle,
    eq_sum_oracle,
    eq_sym_power_oracle,
    eq_tensor_oracle,
    forget_oracle,
    random_eq_entries,
)
from ihshodge import checks, equivariant
from ihshodge.diamond import (
    HodgeDiamond,
    betti,
    check_diamond,
    chi_p,
    complete_by_duality,
    direct_sum,
    euler_characteristic,
    ext_power,
    salamon_residual,
    sym_power,
    tate_twist,
    tensor,
    weight_sums,
)
from ihshodge.equivariant import (
    EquivariantDiamond,
    eq_ext_power,
    eq_sum,
    eq_sym_power,
    eq_tate_twist,
    eq_tensor,
    forget,
    invariant_part,
)

H2_SPLIT = EquivariantDiamond({(2, 0): (1, 0), (1, 1): (5, 16), (0, 2): (1, 0)})


# ---------------------------------------------------------------------------
# construction


def test_zero_pairs_dropped():
    d = EquivariantDiamond({(1, 1): (0, 0), (2, 0): (1, 0)})
    assert d.entries == {(2, 0): (1, 0)}


def test_negative_pair_rejected():
    with pytest.raises(ValueError):
        EquivariantDiamond({(1, 1): (1, -1)})
    with pytest.raises(ValueError):
        EquivariantDiamond({(1, 1): (-1, 1)})


@pytest.mark.parametrize("entries", [
    {(1, 1): 3},
    {(1, 1): (1, 2, 3)},
    {(1, 1): [1, 2]},
    {(1, 1): (True, False)},
    {(True, 1): (1, 0)},
    {(-1, 1): (1, 0)},
    5,
], ids=["scalar", "triple", "list", "bool-pair", "bool-key", "negative-key", "int"])
def test_invalid_entries_rejected(entries):
    with pytest.raises(ValueError):
        EquivariantDiamond(entries)


@pytest.mark.parametrize("entries, message", [
    ({(1, 1): (True, 0)}, "dimension at (1,1) must be an integer, got True"),
    ({(-1, 0): ("x", 0)}, "negative bidegree (-1,0)"),
    ({(1, 1): 3}, "eigenspace dimensions at (1, 1) must be an integer pair, got 3"),
    ({(1, 1): (1, -1)}, "negative dimension -1 at (1,1)"),
    ({(1, 1): (-1, "x")}, "negative dimension -1 at (1,1)"),
    ({(1, 1): (0, False)}, "dimension at (1,1) must be an integer, got False"),
    ({(1, 1): (1.0, 0)}, "dimension at (1,1) must be an integer, got 1.0"),
    ({(1, 1): (0, 2.5)}, "dimension at (1,1) must be an integer, got 2.5"),
    ({(1.5, 1): (1, 0)}, "bidegree keys must be integer pairs, got (1.5, 1)"),
    ({(2, False): (0, 1)}, "bidegree keys must be integer pairs, got (2, False)"),
    ({(1, 1, 1): (1, 0)}, "bidegree keys must be integer pairs, got (1, 1, 1)"),
    ({(1,): (1, 0)}, "bidegree keys must be integer pairs, got (1,)"),
    ({"ab": (1, 0)}, "bidegree keys must be integer pairs, got 'ab'"),
    ({(0, -2): (0, 1)}, "negative bidegree (0,-2)"),
    ({(1, 1): (1,)}, "eigenspace dimensions at (1, 1) must be an integer pair, got (1,)"),
    ({(1, 1): None}, "eigenspace dimensions at (1, 1) must be an integer pair, got None"),
    # every pair is split before either eigenspace is validated
    ({(1, 1): (-1, 0), (2, 2): [1, 2]},
     "eigenspace dimensions at (2, 2) must be an integer pair, got [1, 2]"),
    # the whole plus eigenspace is validated before the minus one
    ({(1, 1): (1, "x"), (0, 0): (-2, 0)}, "negative dimension -2 at (0,0)"),
    ({(0, 0): (1, -1), (1, 1): (True, 0)}, "dimension at (1,1) must be an integer, got True"),
    ({(0, 0): (1, 0), (1, 1): (0, -1), (2, 2): (-1, 0)}, "negative dimension -1 at (2,2)"),
    # a sequence of items is not a table
    ([((1, 1), (2, 0))], "entries must be a mapping, got [((1, 1), (2, 0))]"),
], ids=repr)
def test_entry_errors_keep_their_messages_and_order(entries, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        EquivariantDiamond(entries)


def test_immutability():
    with pytest.raises(AttributeError):
        H2_SPLIT.entries = {}
    H2_SPLIT.entries[(9, 9)] = (1, 1)
    assert H2_SPLIT.pair(9, 9) == (0, 0)


# ---------------------------------------------------------------------------
# projections and splits


def test_invariant_and_anti_parts():
    assert invariant_part(H2_SPLIT).entries == {(2, 0): 1, (1, 1): 5, (0, 2): 1}
    assert [H2_SPLIT.pair(p, q)[1] for p, q in ((2, 0), (1, 1), (0, 2))] == [0, 16, 0]


def test_forget_is_sum_of_parts():
    total = forget(H2_SPLIT)
    assert total.entries == {(p, q): sum(H2_SPLIT.pair(p, q))
                             for p, q, _, _ in H2_SPLIT.items()}
    assert total.entries == {(2, 0): 1, (1, 1): 21, (0, 2): 1}


# ---------------------------------------------------------------------------
# algebra on eigenspace pairs


def test_eq_sum_adds_pairs():
    s = eq_sum(H2_SPLIT, EquivariantDiamond({(1, 1): (2, 3)}))
    assert s.pair(1, 1) == (7, 19)


def test_eq_tensor_sign_rule():
    line_plus = EquivariantDiamond({(1, 0): (1, 0)})
    line_minus = EquivariantDiamond({(0, 1): (0, 1)})
    assert eq_tensor(line_minus, line_minus).pair(0, 2) == (1, 0)
    assert eq_tensor(line_plus, line_minus).pair(1, 1) == (0, 1)
    mixed = eq_tensor(EquivariantDiamond({(1, 0): (1, 0)}), H2_SPLIT)
    assert mixed.pair(2, 1) == (5, 16)


def test_eq_tate_twist():
    t = eq_tate_twist(H2_SPLIT, 1)
    assert t.pair(2, 2) == (5, 16)
    with pytest.raises(ValueError):
        eq_tate_twist(H2_SPLIT, -1)


def test_eq_sym_power_single_degree():
    piece = EquivariantDiamond({(1, 1): (5, 16)})
    assert eq_sym_power(piece, 2).pair(2, 2) == (151, 80)
    assert eq_sym_power(piece, 3).pair(3, 3) == (715, 1056)
    line = EquivariantDiamond({(1, 1): (1, 0)})
    assert eq_sym_power(line, 3).pair(3, 3) == (1, 0)


def test_eq_ext_power_single_degree():
    piece = EquivariantDiamond({(1, 1): (5, 16)})
    assert eq_ext_power(piece, 2).pair(2, 2) == (130, 80)
    line = EquivariantDiamond({(1, 1): (1, 0)})
    assert eq_ext_power(line, 2) == EquivariantDiamond({})
    assert eq_ext_power(piece, 1) == piece


def test_eq_powers_reject_odd_support():
    odd = EquivariantDiamond({(1, 0): (1, 1)})
    with pytest.raises(ValueError):
        eq_sym_power(odd, 2)
    with pytest.raises(ValueError):
        eq_ext_power(odd, 2)


ODD_DEGREES = [(1, 0), (0, 1), (2, 1), (1, 2), (0, 3), (3, 2)]


@pytest.mark.parametrize("seed", range(30))
def test_eq_powers_name_the_first_odd_entry_of_the_whole_table(seed):
    rng = random.Random(seed)
    table = {degree: (rng.randint(0, 2), rng.randint(0, 2))
             for degree in rng.sample(EVEN_DEGREES + ODD_DEGREES, rng.randint(1, 6))}
    table[rng.choice(ODD_DEGREES)] = rng.choice([(1, 0), (0, 1), (2, 1)])
    d, k = EquivariantDiamond(table), rng.randint(0, 4)
    for eq_power, power in ((eq_sym_power, sym_power), (eq_ext_power, ext_power)):
        with pytest.raises(ValueError) as plain:
            power(forget(d), k)
        with pytest.raises(ValueError) as split:
            eq_power(d, k)
        assert str(split.value) == f"eq_{plain.value}"


def test_eq_powers_name_an_odd_minus_entry_before_a_later_plus_one():
    d = EquivariantDiamond({(1, 2): (1, 0), (0, 1): (0, 1)})
    for operation in (eq_sym_power, eq_ext_power):
        with pytest.raises(ValueError, match=re.escape("found an entry at (0,1)")):
            operation(d, 2)


def test_eq_sym_power_multi_degree_h2_split():
    s3 = eq_sym_power(H2_SPLIT, 3)
    assert s3.pair(3, 3) == (720, 1072)
    e2 = eq_ext_power(H2_SPLIT, 2)
    assert e2.pair(2, 2) == (131, 80)


# ---------------------------------------------------------------------------
# exhaustive oracle agreement (single even degree)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_eq_sym_power_matches_signed_enumeration(k):
    for a in range(9):
        for b in range(9 - a):
            table = {(1, 1): (a, b)}
            expected = eq_sym_power_oracle(table, k)
            got = eq_sym_power(EquivariantDiamond(table), k).entries
            assert got == expected, (a, b, k)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_eq_ext_power_matches_signed_enumeration(k):
    for a in range(9):
        for b in range(9 - a):
            table = {(1, 1): (a, b)}
            expected = eq_ext_power_oracle(table, k)
            got = eq_ext_power(EquivariantDiamond(table), k).entries
            assert got == expected, (a, b, k)


EVEN_DEGREES = [(0, 0), (1, 1), (2, 0), (0, 2), (2, 2), (3, 1)]


def pair_strategy():
    return st.tuples(st.integers(0, 3), st.integers(0, 3))


def eq_table_strategy():
    return st.dictionaries(st.sampled_from(EVEN_DEGREES), pair_strategy(),
                           max_size=3).map(EquivariantDiamond)


@given(st.dictionaries(st.sampled_from(EVEN_DEGREES), pair_strategy(), max_size=6),
       st.data())
def test_equivariant_build_order_is_invisible(table, data):
    a, b = (EquivariantDiamond({key: table[key] for key in
                                data.draw(st.permutations(list(table)))})
            for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert list(a.items()) == list(b.items())
    assert list(a.entries.items()) == list(b.entries.items())
    assert repr(a) == repr(b)
    for part in (invariant_part, forget):
        assert repr(part(a)) == repr(part(b))
        assert part(a).to_json_dict() == part(b).to_json_dict()


@given(eq_table_strategy(), st.integers(0, 3))
def test_eq_sym_power_matches_oracle_multi_degree(d, k):
    assert eq_sym_power(d, k).entries == eq_sym_power_oracle(d.entries, k)


@given(eq_table_strategy(), st.integers(0, 3))
def test_eq_ext_power_matches_oracle_multi_degree(d, k):
    assert eq_ext_power(d, k).entries == eq_ext_power_oracle(d.entries, k)


# ---------------------------------------------------------------------------
# the forget functor commutes with everything


def test_forget_commutes_on_200_random_tables():
    rng = random.Random(411)
    for i in range(200):
        k = 2 + i % 2
        a = EquivariantDiamond(random_eq_entries(rng))
        b = EquivariantDiamond(random_eq_entries(rng))
        assert forget(eq_sym_power(a, k)) == sym_power(forget(a), k)
        assert forget(eq_ext_power(a, k)) == ext_power(forget(a), k)
        assert forget(eq_tensor(a, b)) == tensor(forget(a), forget(b))
        assert forget(eq_sum(a, b)) == direct_sum(forget(a), forget(b))


# ---------------------------------------------------------------------------
# boundaries and canonical order of the table operations


PLAIN = HodgeDiamond({(1, 1): 2})
SPLIT = EquivariantDiamond({(1, 1): (1, 1)})
PLAIN_OPERATIONS = {
    "sym_power": lambda x: sym_power(x, 2),
    "ext_power": lambda x: ext_power(x, 2),
    "tensor-left": lambda x: tensor(x, PLAIN),
    "tensor-right": lambda x: tensor(PLAIN, x),
    "direct_sum-left": lambda x: direct_sum(x, PLAIN),
    "direct_sum-right": lambda x: direct_sum(PLAIN, x),
}
EQ_OPERATIONS = {
    "eq_sym_power": lambda x: eq_sym_power(x, 2),
    "eq_ext_power": lambda x: eq_ext_power(x, 2),
    "eq_tensor-left": lambda x: eq_tensor(x, SPLIT),
    "eq_tensor-right": lambda x: eq_tensor(SPLIT, x),
    "eq_sum-left": lambda x: eq_sum(x, SPLIT),
    "eq_sum-right": lambda x: eq_sum(SPLIT, x),
    "forget": forget,
    "invariant_part": invariant_part,
}
NOT_TABLES = {"None": None, "str": "x", "dict": {(1, 1): 2}}
BOUNDARY_CASES = (
    [pytest.param(op, value, "HodgeDiamond", id=f"{name}-{kind}")
     for name, op in PLAIN_OPERATIONS.items()
     for kind, value in {**NOT_TABLES, "equivariant": SPLIT}.items()]
    + [pytest.param(op, value, "EquivariantDiamond", id=f"{name}-{kind}")
       for name, op in EQ_OPERATIONS.items()
       for kind, value in {**NOT_TABLES, "plain": PLAIN}.items()])


@pytest.mark.parametrize("operation, value, expected", BOUNDARY_CASES)
def test_table_operations_reject_other_types(operation, value, expected):
    message = f"expected a {expected}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        operation(value)


TWIST_AND_INVARIANT_OPERATIONS = {
    "tate_twist": lambda x: tate_twist(x, 1),
    "betti": betti,
    "chi_p": lambda x: chi_p(x, 0),
    "euler_characteristic": euler_characteristic,
    "weight_sums": weight_sums,
    "check_diamond": check_diamond,
    "complete_by_duality": lambda x: complete_by_duality(x, 2),
}
TWIST_AND_INVARIANT_CASES = (
    [pytest.param(op, value, "HodgeDiamond", id=f"{name}-{kind}")
     for name, op in TWIST_AND_INVARIANT_OPERATIONS.items()
     for kind, value in {**NOT_TABLES, "equivariant": SPLIT}.items()]
    + [pytest.param(lambda x: eq_tate_twist(x, 1), value, "EquivariantDiamond",
                    id=f"eq_tate_twist-{kind}")
       for kind, value in {**NOT_TABLES, "plain": PLAIN}.items()]
    + [pytest.param(salamon_residual, "x", "BettiVector", id="salamon_residual-str")])


@pytest.mark.parametrize("operation, value, expected", TWIST_AND_INVARIANT_CASES)
def test_twists_and_invariants_reject_other_types(operation, value, expected):
    message = f"expected a {expected}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        operation(value)


def plain_table_strategy():
    degrees = EVEN_DEGREES + [(1, 0), (2, 1)]
    return st.dictionaries(st.sampled_from(degrees), st.integers(0, 4),
                           max_size=4).map(HodgeDiamond)


def assert_canonical(result):
    """Sorted entries, hashing like the same table built from scratch."""
    if isinstance(result, EquivariantDiamond):
        assert hash(result) == hash(EquivariantDiamond(result.entries))
        result = forget(result)
    assert list(result.items()) == sorted(result.items())
    assert hash(result) == hash(HodgeDiamond(result.entries))


@given(eq_table_strategy(), eq_table_strategy(), plain_table_strategy(),
       plain_table_strategy(), st.integers(0, 3))
def test_every_table_operation_returns_canonical_order(a, b, c, d, k):
    even = forget(a)
    for result in (sym_power(even, k), ext_power(even, k), tensor(c, d),
                   direct_sum(c, d), direct_sum(d, c), tate_twist(c, k),
                   eq_sym_power(a, k), eq_ext_power(a, k), eq_tensor(a, b),
                   eq_sum(a, b), eq_sum(b, a), eq_tate_twist(a, k), forget(a),
                   invariant_part(b)):
        assert_canonical(result)


def plain_parts(table):
    if isinstance(table, EquivariantDiamond):
        return table._plus, table._minus
    return (table,)


@given(eq_table_strategy(), eq_table_strategy(), plain_table_strategy(),
       plain_table_strategy(), st.integers(0, 3))
def test_every_table_operation_owns_a_zero_free_result(a, b, c, d, k):
    # a part may be an input table returned whole (direct_sum, forget), but
    # never a new table around an input's dict
    even = forget(a)
    held = [part for table in (a, b, c, d, even) for part in plain_parts(table)]
    for result in (sym_power(even, k), ext_power(even, k), tensor(c, d),
                   direct_sum(c, d), direct_sum(d, c), tate_twist(c, k),
                   eq_sym_power(a, k), eq_ext_power(a, k), eq_tensor(a, b),
                   eq_sum(a, b), eq_sum(b, a), eq_tate_twist(a, k), forget(a)):
        parts = plain_parts(result)
        assert len({id(part._entries) for part in parts}) == len(parts)
        for part in parts:
            assert 0 not in part._entries.values()
            assert all(part is own or part._entries is not own._entries
                       for own in held)


SEED_EDGE_TABLES = {
    "empty": {},
    "single piece": {(1, 1): (2, 1)},
    "only minus": {(1, 1): (0, 3)},
    "only plus": {(0, 0): (1, 0), (1, 1): (3, 0)},
    "first piece below k": {(0, 0): (1, 1), (1, 1): (2, 0)},
    "pieces below k on both sides": {(0, 0): (1, 0), (2, 0): (0, 1), (1, 1): (1, 1)},
}
# one eigenspace only, and pieces of dimension m < k, whose Lambda^k vanishes
ONE_SIDED_AND_SMALL_TABLES = {
    "only plus, three pieces": {(0, 0): (1, 0), (1, 1): (2, 0), (2, 0): (1, 0)},
    "only minus, two pieces": {(1, 1): (0, 2), (0, 2): (0, 1)},
    "plus pieces below k": {(1, 1): (2, 0), (2, 2): (1, 0)},
    "minus pieces below k": {(0, 0): (0, 1), (3, 1): (0, 2)},
    "one piece below k": {(1, 1): (1, 1)},
}
POWER_EDGE_TABLES = {**SEED_EDGE_TABLES, **ONE_SIDED_AND_SMALL_TABLES}


@pytest.mark.parametrize("entries", POWER_EDGE_TABLES.values(),
                         ids=POWER_EDGE_TABLES.keys())
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_eq_powers_seeded_by_first_piece_match_oracle(entries, k):
    d = EquivariantDiamond(entries)
    assert eq_sym_power(d, k).entries == eq_sym_power_oracle(entries, k)
    assert eq_ext_power(d, k).entries == eq_ext_power_oracle(entries, k)


# ---------------------------------------------------------------------------
# empty eigenspaces


@pytest.mark.parametrize("left", SEED_EDGE_TABLES.values(),
                         ids=SEED_EDGE_TABLES.keys())
@pytest.mark.parametrize("right", SEED_EDGE_TABLES.values(),
                         ids=SEED_EDGE_TABLES.keys())
def test_sums_and_tensors_with_an_empty_eigenspace_match_oracles(left, right):
    a, b = EquivariantDiamond(left), EquivariantDiamond(right)
    assert eq_tensor(a, b).entries == eq_tensor_oracle(left, right)
    assert eq_sum(a, b).entries == eq_sum_oracle(left, right)
    assert forget(a).entries == forget_oracle(left)


@pytest.mark.parametrize("operation", [eq_sym_power, eq_ext_power])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_eq_powers_never_convolve_with_the_unit_table(monkeypatch, operation, k):
    units, convolved = [], []
    graded_powers, convolve = equivariant._graded_powers, equivariant._convolve

    def graded_powers_spy(*args):
        powers = graded_powers(*args)
        units.append(powers[0])
        return powers

    def convolve_spy(a, b, out):
        convolved.append((a, b))
        return convolve(a, b, out)

    monkeypatch.setattr(equivariant, "_graded_powers", graded_powers_spy)
    monkeypatch.setattr(equivariant, "_convolve", convolve_spy)
    rng = random.Random(k)
    tables = [EquivariantDiamond(entries) for entries in POWER_EDGE_TABLES.values()]
    for d in tables + [EquivariantDiamond(random_eq_entries(rng)) for _ in range(50)]:
        operation(d, k)
    assert units and all(unit == {(0, 0): 1} for unit in units)
    assert bool(convolved) == (k >= 2)
    assert not [pair for pair in convolved if any(t is u for t in pair for u in units)]


@pytest.mark.parametrize("k", [-1, True, 1.5])
def test_empty_tables_still_reject_a_bad_power_index(k):
    for operation, table in ((sym_power, HodgeDiamond({})),
                             (ext_power, HodgeDiamond({})),
                             (eq_sym_power, EquivariantDiamond({})),
                             (eq_ext_power, EquivariantDiamond({}))):
        with pytest.raises(ValueError, match="power index"):
            operation(table, k)


# ---------------------------------------------------------------------------
# the referee loop of ``check --suite equivariant``


def bumped(operation):
    """``operation`` with one more invariant class at (0, 0)."""
    def mutant(*args):
        result = operation(*args)
        if isinstance(result, HodgeDiamond):
            return HodgeDiamond({**result.entries, (0, 0): result.h(0, 0) + 1})
        plus, minus = result.pair(0, 0)
        return EquivariantDiamond({**result.entries, (0, 0): (plus + 1, minus)})
    return mutant


@pytest.mark.parametrize("name", ["eq_sym_power", "eq_ext_power", "eq_tensor",
                                  "sym_power", "ext_power", "tensor"])
def test_referee_catches_a_faulty_operation(monkeypatch, name):
    monkeypatch.setattr(checks, name, bumped(getattr(checks, name)))
    results = {r.name: r for r in checks.run_suite("equivariant")}
    line = f"equivariant: forgetting commutes on {len(checks._REFEREE)} mutation-chosen tables"
    route = name.removeprefix("eq_").removesuffix("_power")  # sym, ext or tensor
    failures = [(i, route) for i in range(len(checks._REFEREE))]
    assert results[line] == checks.CheckResult(line, False, f"got {failures!r}, expected []")
