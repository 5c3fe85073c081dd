"""The six-stage OG6 derivation chain and its cross-validations."""

from __future__ import annotations

import functools
import re

import pytest

from _oracles import swap_orbit_counts
from ihshodge.diamond import (
    BettiVector,
    ConsistencyError,
    HodgeDiamond,
    betti,
    check_diamond,
    complete_by_duality,
    euler_characteristic,
    salamon_residual,
    weight_sums,
)
from ihshodge.equivariant import EquivariantDiamond, eq_sum, forget, invariant_part
from ihshodge.goettsche import hilbert_scheme_diamond, surface_diamond
from ihshodge.pipeline import (
    ChernReport,
    NamedConstants,
    PipelineResult,
    TraceStep,
    _apply_corrections,
    _blowup_classes,
    _delta_bar_diamond,
    _dual_degree_table,
    chern_numbers,
    derive_invariant_h2,
    markman_assembly,
    markman_equivariant,
    og6_diamond,
    og6_via_dual_degrees,
    run_full_pipeline,
    ybar_invariants,
    yhat_invariants,
)

OG6_ENTRIES = {
    (0, 0): 1,
    (2, 0): 1, (1, 1): 6, (0, 2): 1,
    (4, 0): 1, (3, 1): 12, (2, 2): 173, (1, 3): 12, (0, 4): 1,
    (6, 0): 1, (5, 1): 6, (4, 2): 173, (3, 3): 1144, (2, 4): 173,
    (1, 5): 6, (0, 6): 1,
    (6, 2): 1, (5, 3): 12, (4, 4): 173, (3, 5): 12, (2, 6): 1,
    (6, 4): 1, (5, 5): 6, (4, 6): 1,
    (6, 6): 1,
}

OG6_BETTI = (1, 0, 8, 0, 199, 0, 1504, 0, 199, 0, 8, 0, 1)
STAGES = ("4fin", "3fin", "X-and-Y", "Kt-and-Ktt(2)", "Kt-and-Ktt(1)", "thm:main")
QUADRIC3 = HodgeDiamond({(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1},
                        complex_dimension=3)
DEFAULTS = NamedConstants()

W4_INVARIANT = {(4, 0): 1, (3, 1): 6, (2, 2): 157, (1, 3): 6, (0, 4): 1}
W6_INVARIANT = {(6, 0): 1, (5, 1): 5, (4, 2): 157, (3, 3): 852,
                (2, 4): 157, (1, 5): 5, (0, 6): 1}


def stage_4fin_invariants(b2: int = 8) -> HodgeDiamond:
    """The invariant lower half, rebuilt from public operations only."""
    h2 = derive_invariant_h2(b2)
    total = eq_sum(EquivariantDiamond({(0, 0): (1, 0)}), h2)
    total = eq_sum(total, markman_equivariant(h2, 4))
    total = eq_sum(total, markman_equivariant(h2, 6))
    return invariant_part(total)


# ---------------------------------------------------------------------------
# geometric building blocks


def test_quadric_threefold():
    q = DEFAULTS.quadric3
    assert q == QUADRIC3
    assert euler_characteristic(q) == 4


def test_incidence_swap_row_matches_orbit_count():
    assert DEFAULTS.incidence_swap_row == swap_orbit_counts()
    assert DEFAULTS.incidence_swap_row == (1, 1, 2)


def test_named_constants_frozen():
    assert DEFAULTS.two_torsion_count == 2 ** 8
    assert DEFAULTS.quadric3 == QUADRIC3
    assert DEFAULTS.b2 == 8
    assert DEFAULTS.euler_characteristic == 1920
    with pytest.raises(AttributeError, match="immutable"):
        DEFAULTS.two_torsion_count = 0
    with pytest.raises(AttributeError, match="immutable"):
        del DEFAULTS.b2


def test_named_constants_value_semantics():
    fields = (256, QUADRIC3, (1, 1, 2), 8, 1920)
    assert NamedConstants(*fields) == DEFAULTS
    assert NamedConstants(euler_characteristic=1920, b2=8, two_torsion_count=256,
                          incidence_swap_row=(1, 1, 2),
                          quadric3=QUADRIC3) == DEFAULTS
    assert NamedConstants(b2=9) != DEFAULTS != fields
    assert hash(DEFAULTS) == hash(NamedConstants()) == hash(fields)
    assert repr(DEFAULTS) == (
        "NamedConstants(two_torsion_count=256, quadric3=HodgeDiamond({(0,0): 1, "
        "(1,1): 1, (2,2): 1, (3,3): 1}, complex_dimension=3), "
        "incidence_swap_row=(1, 1, 2), b2=8, euler_characteristic=1920)")


def test_chern_report_and_trace_step_repr():
    assert repr(ChernReport(4, -24, 348, 30720, 7680, 1920)) == (
        "ChernReport(chi0=4, chi1=-24, chi2=348, c2_cubed=30720, c2_c4=7680, "
        "c6=1920)")
    step = TraceStep("3fin", HodgeDiamond({(1, 1): 2}), ((1, 1, 2),))
    assert repr(step) == ("TraceStep(lemma='3fin', output=HodgeDiamond({(1,1): 2}), "
                          "corrections=((1, 1, 2),))")


def test_delta_bar_diamond():
    d = _delta_bar_diamond(DEFAULTS)
    assert d.complex_dimension == 4
    assert d.h(0, 0) == 1
    assert d.h(1, 1) == 16 + 256
    assert d.h(2, 0) == 6
    assert d.h(2, 2) == 36 + 256
    assert d.h(3, 3) == 16 + 256
    assert d.h(1, 0) == 0
    assert d.h(2, 1) == 0
    assert euler_characteristic(d) == 128 + 3 * 256
    assert check_diamond(d) == ()


def test_blowup_of_k3_at_a_point():
    k3 = surface_diamond("k3")
    point = HodgeDiamond({(0, 0): 1}, complex_dimension=0)
    classes = _blowup_classes(point, 2, 1)
    assert classes == {(1, 1): 1}
    blown = _apply_corrections(k3, classes, 2)
    assert blown.h(1, 1) == 21
    assert euler_characteristic(blown) == 25


def test_blowup_along_a_fourfold_center():
    classes = _blowup_classes(_delta_bar_diamond(DEFAULTS), 2, 1)
    assert classes[(1, 1)] == 1
    assert classes[(2, 2)] == 272
    assert classes[(3, 1)] == 6


def test_blowup_along_empty_center_is_identity():
    empty = HodgeDiamond({}, complex_dimension=0)
    assert _blowup_classes(empty, 2, 1) == {}


# ---------------------------------------------------------------------------
# the equivariant model of the covering K3^[3]-type manifold


def test_derive_invariant_h2():
    h2 = derive_invariant_h2(8)
    assert h2.entries == {(2, 0): (1, 0), (1, 1): (5, 16), (0, 2): (1, 0)}
    assert derive_invariant_h2(3).pair(1, 1) == (0, 21)
    assert derive_invariant_h2(24).pair(1, 1) == (21, 0)
    with pytest.raises(ValueError):
        derive_invariant_h2(2)
    with pytest.raises(ValueError):
        derive_invariant_h2(25)


def test_markman_weight4_invariants():
    w4 = markman_equivariant(derive_invariant_h2(8), 4)
    assert invariant_part(w4).entries == W4_INVARIANT
    assert forget(w4).total_dimension() == 299


def test_markman_weight6_invariants():
    w6 = markman_equivariant(derive_invariant_h2(8), 6)
    assert invariant_part(w6).entries == W6_INVARIANT
    assert forget(w6).total_dimension() == 2554


def test_markman_equivariant_validation():
    h2 = derive_invariant_h2(8)
    with pytest.raises(ValueError):
        markman_equivariant(h2, 5)
    with pytest.raises(ValueError):
        markman_equivariant(h2, 4.0)
    with pytest.raises(ValueError):
        markman_equivariant(EquivariantDiamond({(3, 3): (1, 0)}), 4)
    with pytest.raises(ValueError, match="expected a EquivariantDiamond, got None"):
        markman_equivariant(None, 4)


def test_markman_assembly_matches_goettsche_route():
    row = HodgeDiamond({(2, 0): 1, (1, 1): 21, (0, 2): 1})
    assert markman_assembly(row) == hilbert_scheme_diamond(
        surface_diamond("k3"), 3)
    with pytest.raises(ValueError):
        markman_assembly(HodgeDiamond({(0, 0): 1}))


# ---------------------------------------------------------------------------
# stage-by-stage entries


def test_stage_chain_entry_by_entry():
    y_inv = stage_4fin_invariants()
    assert weight_sums(y_inv) == {0: 1, 2: 7, 4: 171, 6: 1178}

    ybar = ybar_invariants(y_inv)
    assert ybar.h(1, 1) == 261
    assert ybar.h(2, 2) == 413
    assert ybar.h(3, 3) == 1364
    assert weight_sums(ybar) == {0: 1, 2: 263, 4: 427, 6: 1690}

    yhat = yhat_invariants(ybar)
    assert yhat.h(1, 1) == 262
    assert yhat.h(2, 2) == 685
    assert yhat.h(3, 1) == 12
    assert yhat.h(3, 3) == 1656
    assert weight_sums(yhat) == {0: 1, 2: 264, 4: 711, 6: 2016}

    final = og6_diamond(yhat)
    assert final.entries == OG6_ENTRIES
    assert final.complex_dimension == 6
    assert check_diamond(final) == ()


def test_og6_diamond_rejects_undersized_tables():
    with pytest.raises(ValueError):
        og6_diamond(HodgeDiamond({(0, 0): 1}))


def test_stage_inputs_reject_upper_degrees():
    too_high = HodgeDiamond({(0, 0): 1, (4, 4): 1})
    for stage in (ybar_invariants, yhat_invariants, og6_diamond):
        with pytest.raises(ValueError):
            stage(too_high)


# ---------------------------------------------------------------------------
# Chern numbers


def test_chern_numbers_og6():
    report = chern_numbers(HodgeDiamond(OG6_ENTRIES, complex_dimension=6))
    assert (report.chi0, report.chi1, report.chi2) == (4, -24, 348)
    assert (report.c2_cubed, report.c2_c4, report.c6) == (30720, 7680, 1920)
    assert report.to_json_dict() == {
        "chi0": 4, "chi1": -24, "chi2": 348,
        "c2_cubed": 30720, "c2_c4": 7680, "c6": 1920,
    }


def test_chern_numbers_k3_hilb3():
    d = hilbert_scheme_diamond(surface_diamond("k3"), 3)
    report = chern_numbers(d)
    assert (report.c2_cubed, report.c2_c4, report.c6) == (36800, 14720, 3200)
    assert report.c6 == euler_characteristic(d)


def test_chern_numbers_validation():
    with pytest.raises(ValueError):
        chern_numbers(surface_diamond("k3"))
    cooked = dict(OG6_ENTRIES)
    cooked[(1, 1)] += 1
    with pytest.raises(ValueError, match="c6="):
        chern_numbers(HodgeDiamond(cooked, complex_dimension=6))


# ---------------------------------------------------------------------------
# the full pipeline


def test_run_full_pipeline_result():
    result = run_full_pipeline()
    assert isinstance(result, PipelineResult)
    assert result.diamond.entries == OG6_ENTRIES
    assert result.betti_numbers == BettiVector(6, OG6_BETTI)
    assert euler_characteristic(result.diamond) == 1920
    assert salamon_residual(result.betti_numbers) == 0
    assert (result.chern.c2_cubed, result.chern.c2_c4,
            result.chern.c6) == (30720, 7680, 1920)


def test_trace_stage_order_and_corrections():
    trace = run_full_pipeline().trace
    assert isinstance(trace, tuple)
    assert tuple(step.lemma for step in trace) == STAGES
    step = {s.lemma: s for s in trace}
    assert step["4fin"].corrections == ()
    assert step["3fin"].corrections == (
        (1, 1, 256), (2, 2, 256), (3, 3, 512))
    assert step["X-and-Y"].corrections == (
        (1, 1, 1), (1, 3, 6), (1, 5, 1), (2, 2, 272), (2, 4, 16),
        (3, 1, 6), (3, 3, 292), (4, 2, 16), (5, 1, 1))
    assert step["Kt-and-Ktt(2)"].corrections == ()
    assert step["Kt-and-Ktt(1)"].corrections == (
        (1, 1, -256), (2, 2, -512), (3, 3, -512))
    assert step["thm:main"].corrections == ()


def test_trace_outputs():
    output = {step.lemma: step.output for step in run_full_pipeline().trace}
    assert weight_sums(output["4fin"]) == {0: 1, 2: 7, 4: 171, 6: 1178}
    assert weight_sums(output["3fin"]) == {0: 1, 2: 263, 4: 427, 6: 1690}
    assert weight_sums(output["Kt-and-Ktt(2)"]) == {0: 1, 2: 264, 4: 711, 6: 2016}
    assert weight_sums(output["Kt-and-Ktt(1)"]) == {0: 1, 2: 8, 4: 199, 6: 1504}
    assert output["thm:main"].entries == OG6_ENTRIES


def test_trace_json_schema():
    payload = [step.to_json_dict() for step in run_full_pipeline().trace]
    assert [entry["lemma"] for entry in payload] == list(STAGES)
    for entry in payload:
        assert set(entry) == {"lemma", "output", "corrections"}
    assert payload[1]["corrections"] == [[1, 1, 256], [2, 2, 256],
                                         [3, 3, 512]]
    assert payload[-1]["output"]["complex_dimension"] == 6


PUBLIC_STAGES = {"3fin": ybar_invariants, "X-and-Y": yhat_invariants,
                 "Kt-and-Ktt(1)": og6_diamond}


def test_public_stages_and_trace_cannot_drift_apart():
    steps = run_full_pipeline().trace
    final = steps[-1].output
    assert steps[0].corrections == ()
    for before, step in zip(steps, steps[1:]):
        if step.lemma not in PUBLIC_STAGES:
            assert step.corrections == ()
            continue
        expected = step.output
        if step.lemma == "Kt-and-Ktt(1)":
            # og6_diamond also completes the corrected lower half by duality
            assert step.output.entries == {
                (p, q): v for p, q, v in final.items() if p + q <= 6}
            expected = final
        assert PUBLIC_STAGES[step.lemma](before.output) == expected
        applied = {(p, q): delta for p, q, delta in step.corrections}
        assert list(step.corrections) == sorted(step.corrections)
        assert 0 not in applied.values()
        keys = before.output.entries.keys() | step.output.entries.keys() | applied.keys()
        for p, q in keys:
            assert step.output.h(p, q) - before.output.h(p, q) == \
                applied.get((p, q), 0), (step.lemma, p, q)


POINT = HodgeDiamond({(0, 0): 1})
ROUTES = {"run_full_pipeline": run_full_pipeline,
          "og6_via_dual_degrees": og6_via_dual_degrees,
          "ybar_invariants": functools.partial(ybar_invariants, POINT),
          "yhat_invariants": functools.partial(yhat_invariants, POINT),
          "og6_diamond": functools.partial(og6_diamond, POINT)}


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
@pytest.mark.parametrize("constants", ["x", None])
def test_routes_reject_constants_of_another_type(route, constants):
    message = f"expected a NamedConstants, got {constants!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        route(constants)


TABLE_STAGES = {"ybar_invariants": ybar_invariants,
                "yhat_invariants": yhat_invariants,
                "og6_diamond": og6_diamond,
                "markman_assembly": markman_assembly,
                "chern_numbers": chern_numbers}


@pytest.mark.parametrize("stage", TABLE_STAGES.values(), ids=TABLE_STAGES.keys())
@pytest.mark.parametrize("table", ["x", None, {(0, 0): 1}], ids=repr)
def test_stages_reject_tables_of_another_type(stage, table):
    message = f"expected a HodgeDiamond, got {table!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        stage(table)


def test_pipeline_result_is_shared_per_constants():
    assert run_full_pipeline() is run_full_pipeline()
    assert run_full_pipeline(NamedConstants()) is run_full_pipeline()


@pytest.mark.parametrize("perturbed", [
    NamedConstants(two_torsion_count=255), NamedConstants(b2=7),
    NamedConstants(b2=9), NamedConstants(euler_characteristic=1921)])
def test_perturbed_constants_raise_on_every_call(perturbed):
    run_full_pipeline()
    for _ in range(2):
        with pytest.raises(ConsistencyError):
            run_full_pipeline(perturbed)


@pytest.mark.parametrize("fields", [
    {"b2": 8.0}, {"b2": True}, {"two_torsion_count": 256.0},
    {"euler_characteristic": 1920.0}, {"incidence_swap_row": (1, 1, 2, 3)},
    {"incidence_swap_row": (1, 1, 2.0)}, {"incidence_swap_row": 5},
    {"incidence_swap_row": None}, {"incidence_swap_row": {1: "x", 2: None, 0: 0}},
    {"incidence_swap_row": {1, 2, 0}}, {"incidence_swap_row": {1: 1, 2: 1, 0: 2}.keys()},
    {"quadric3": {(0, 0): 1}}], ids=str)
def test_named_constants_reject_wrong_types(fields):
    (name,) = fields
    with pytest.raises(ValueError, match=f"^{name} must be"):
        NamedConstants(**fields)


def test_named_constants_store_the_incidence_row_as_a_tuple():
    constants = NamedConstants(incidence_swap_row=[1, 1, 2])
    assert constants == DEFAULTS
    assert constants.incidence_swap_row == (1, 1, 2)
    assert run_full_pipeline(constants) is run_full_pipeline()


def test_correction_outside_the_dimension_is_a_consistency_error():
    # a 5-fold center pushes its blow-up classes up to (7, 7)
    quadric5 = HodgeDiamond({(k, k): 1 for k in range(6)}, complex_dimension=5)
    bad = NamedConstants(two_torsion_count=-1, quadric3=quadric5)
    for route in (run_full_pipeline, og6_via_dual_degrees):
        with pytest.raises(ConsistencyError):
            route(bad)
    with pytest.raises(ValueError, match="outside"):
        _apply_corrections(HodgeDiamond({}, complex_dimension=2), {(3, 0): 1}, 2)


@pytest.mark.parametrize("fields", [
    {"incidence_swap_row": (1, -1, 2)}, {"incidence_swap_row": (-1, 1, 2)},
    {"two_torsion_count": -256}, {"b2": 2}, {"b2": 25},
    {"euler_characteristic": -8}], ids=str)
@pytest.mark.parametrize("route", [run_full_pipeline, og6_via_dual_degrees],
                         ids=lambda route: route.__name__)
def test_corrupted_constants_are_consistency_errors(route, fields):
    # a stage that rejects what the constants give it blames the constants
    with pytest.raises(ConsistencyError, match="cross-validation"):
        route(NamedConstants(**fields))


def test_asymmetric_quadric_fails_the_completed_diamond():
    # h^{2,0} = 1 on the quadric takes one class from (3,1) and none from
    # (1,3).  With 256 copies that would leave a negative dimension; with
    # one copy the table stays nonnegative and only _complete can object.
    quadric = HodgeDiamond({(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (2, 0): 1},
                           complex_dimension=3)
    message = ("cross-validation mismatch: the named constants admit no derivation: "
               "the completed table is not a valid 6-fold diamond: "
               "hodge symmetry broken: h[1,3]=12 != h[3,1]=11; "
               "hodge symmetry broken: h[2,4]=173 != h[4,2]=172; "
               "hodge symmetry broken: h[3,5]=11 != h[5,3]=12; "
               "poincare duality broken: h[2,4]=173 != h[4,2]=172")
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        run_full_pipeline(NamedConstants(two_torsion_count=1, quadric3=quadric))


def test_dual_route_rejects_a_wrong_euler_characteristic():
    # The swap row (0, 0, 1) with the quadric diagonal (0, 1, 0, 0) keeps
    # b2 = 8, b4 = 199 and b6 = 1504 on the dual route, so only the Euler
    # test of the cross-validation sees the corruption.
    quadric = HodgeDiamond({(1, 1): 1}, complex_dimension=3)
    bad = NamedConstants(incidence_swap_row=(0, 0, 1), quadric3=quadric)
    with pytest.raises(ConsistencyError, match="^" + re.escape(
            "cross-validation mismatch: the derived table has Euler "
            "characteristic 2176, expected 1920") + "$"):
        og6_via_dual_degrees(bad)


def test_corrupted_torsion_count_detected():
    with pytest.raises(ConsistencyError, match="cross-validation"):
        run_full_pipeline(constants=NamedConstants(two_torsion_count=255))


def test_corrupted_incidence_row_detected():
    bad = NamedConstants(incidence_swap_row=(1, 2, 2))
    with pytest.raises(ConsistencyError, match="cross-validation"):
        run_full_pipeline(constants=bad)


def test_mismatched_euler_input_rejected():
    # 1921 leaves the Betti system without an integral solution; 1928
    # solves it with b4 = 200, which the derived table contradicts.
    for chi in (1921, 1928):
        with pytest.raises(ConsistencyError, match="cross-validation"):
            run_full_pipeline(NamedConstants(euler_characteristic=chi))


def test_perturbed_b2_detected():
    # 7 and 9 fail the Salamon and Euler system; 2 and 25 leave no
    # eigenspace split of H^2.  Both routes reject all four.
    for b2 in (2, 7, 9, 25):
        with pytest.raises(ConsistencyError, match="cross-validation"):
            run_full_pipeline(NamedConstants(b2=b2))
        with pytest.raises(ConsistencyError, match="cross-validation"):
            og6_via_dual_degrees(NamedConstants(b2=b2))
    for b2 in (2, 25):
        with pytest.raises(ConsistencyError, match="cross-validation.*b2"):
            og6_via_dual_degrees(NamedConstants(b2=b2))


def test_euler_bookkeeping_gap():
    # Completing the blow-up stage by duality overcounts chi_top by each
    # doubled incidence correction plus the middle one: 2*(256+512)+512.
    output = {step.lemma: step.output for step in run_full_pipeline().trace}
    completed = complete_by_duality(output["Kt-and-Ktt(2)"], 6)
    assert euler_characteristic(completed) - 1920 == 2048


@pytest.mark.parametrize("b2", [3, 7, 8, 23])
def test_dual_degree_route_agrees(b2):
    y_inv = stage_4fin_invariants(b2)
    chain = og6_diamond(yhat_invariants(ybar_invariants(y_inv)))
    assert _dual_degree_table(NamedConstants(b2=b2)) == chain


def test_dual_degree_route_matches_pipeline_default():
    assert og6_via_dual_degrees() == run_full_pipeline().diamond


def test_betti_table_assembled_from_trace():
    result = run_full_pipeline()
    assert betti(result.diamond).b == OG6_BETTI
    assert result.betti_numbers.n == 6
    assert result.betti_numbers.b[4] == 199
