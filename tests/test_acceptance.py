"""Acceptance suite: the ten headline guarantees of this package.

Each criterion is one test function, numbered so that a verbose pytest
run reads as a checklist.  Everything here is exact integer arithmetic;
no tolerances anywhere.
"""

from __future__ import annotations

import json
import random

from _oracles import (
    OG6_BETTI,
    OG6_ENTRIES,
    eq_ext_power_oracle,
    eq_sym_power_oracle,
    random_eq_entries,
)
from ihshodge import cli
from ihshodge.diamond import (
    BettiVector,
    HodgeDiamond,
    betti,
    check_diamond,
    euler_characteristic,
    ext_power,
    salamon_residual,
    sym_power,
    tensor,
    weight_sums,
)
from ihshodge.equivariant import (
    EquivariantDiamond,
    eq_ext_power,
    eq_sum,
    eq_sym_power,
    eq_tensor,
    forget,
    invariant_part,
)
from ihshodge.goettsche import hilbert_scheme_diamond, surface_diamond
from ihshodge.pipeline import (
    derive_invariant_h2,
    markman_assembly,
    markman_equivariant,
    og6_diamond,
    run_full_pipeline,
    ybar_invariants,
    yhat_invariants,
)


def test_criterion_01_og6_hodge_table():
    result = run_full_pipeline()
    assert result.diamond.entries == OG6_ENTRIES
    assert result.diamond.complex_dimension == 6


def test_criterion_02_og6_betti_vector():
    result = run_full_pipeline()
    assert result.betti_numbers == BettiVector(6, OG6_BETTI)
    assert euler_characteristic(result.diamond) == 1920


def test_criterion_03_og6_chern_numbers():
    chern = run_full_pipeline().chern
    assert (chern.c2_cubed, chern.c2_c4, chern.c6) == (30720, 7680, 1920)
    assert (chern.chi0, chern.chi1, chern.chi2) == (4, -24, 348)
    assert chern.c6 == euler_characteristic(run_full_pipeline().diamond)


def test_criterion_04_invariant_rows():
    h2 = derive_invariant_h2(8)
    total = eq_sum(EquivariantDiamond({(0, 0): (1, 0)}), h2)
    total = eq_sum(total, markman_equivariant(h2, 4))
    total = eq_sum(total, markman_equivariant(h2, 6))
    inv = invariant_part(total)
    assert inv.entries == {
        (0, 0): 1,
        (2, 0): 1, (1, 1): 5, (0, 2): 1,
        (4, 0): 1, (3, 1): 6, (2, 2): 157, (1, 3): 6, (0, 4): 1,
        (6, 0): 1, (5, 1): 5, (4, 2): 157, (3, 3): 852, (2, 4): 157,
        (1, 5): 5, (0, 6): 1,
    }
    assert weight_sums(inv) == {0: 1, 2: 7, 4: 171, 6: 1178}


def test_criterion_05_oracle_triangle_on_k3_hilb3():
    via_series = hilbert_scheme_diamond(surface_diamond("k3"), 3)
    weight2 = HodgeDiamond({(2, 0): via_series.h(2, 0),
                            (1, 1): via_series.h(1, 1),
                            (0, 2): via_series.h(0, 2)})
    via_assembly = markman_assembly(weight2)
    assert via_series == via_assembly
    assert salamon_residual(betti(via_series)) == 0


def test_criterion_06_salamon_constraint():
    assert salamon_residual(BettiVector(6, OG6_BETTI)) == 0
    assert salamon_residual(BettiVector(4, (1, 0, 23, 0, 276, 0, 23, 0, 1))) == 0
    assert salamon_residual(BettiVector(
        6, (1, 0, 23, 0, 299, 0, 2554, 0, 299, 0, 23, 0, 1))) == 0
    for index in (0, 2, 4, 6):
        for delta in (1, -1):
            bumped = list(OG6_BETTI)
            bumped[index] += delta
            assert salamon_residual(BettiVector(6, tuple(bumped))) != 0, \
                (index, delta)


def test_criterion_07_forget_commutes_on_200_random_tables():
    rng = random.Random(90021)
    for i in range(200):
        k = 2 + i % 2
        a = EquivariantDiamond(random_eq_entries(rng))
        b = EquivariantDiamond(random_eq_entries(rng))
        assert forget(eq_sym_power(a, k)) == sym_power(forget(a), k)
        assert forget(eq_ext_power(a, k)) == ext_power(forget(a), k)
        assert forget(eq_tensor(a, b)) == tensor(forget(a), forget(b))


def test_criterion_08_plethysm_matches_signed_enumeration():
    for k in range(4):
        for a in range(9):
            for b in range(9 - a):
                table = {(1, 1): (a, b)}
                d = EquivariantDiamond(table)
                assert eq_sym_power(d, k).entries == \
                    eq_sym_power_oracle(table, k), (a, b, k)
                assert eq_ext_power(d, k).entries == \
                    eq_ext_power_oracle(table, k), (a, b, k)


def test_criterion_09_duality_and_symmetry():
    h2 = derive_invariant_h2(8)
    total = eq_sum(EquivariantDiamond({(0, 0): (1, 0)}), h2)
    total = eq_sum(total, markman_equivariant(h2, 4))
    total = eq_sum(total, markman_equivariant(h2, 6))
    chain = og6_diamond(
        yhat_invariants(ybar_invariants(invariant_part(total))))
    assert check_diamond(chain) == ()


def test_criterion_10_cli_exit_codes(capsys):
    # in-process; test_cli.py checks the exit status of a child interpreter
    assert cli.main(["hilb", "--n", "31"]) == 2
    assert cli.main(["check", "--suite", "all"]) == 0
    capsys.readouterr()
    # and the JSON emitter stays parseable, since scripts build on it
    assert cli.main(["og6", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["diamond"]["entries"]
