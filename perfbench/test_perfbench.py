"""Tests of the benchmark itself: oracles, seeding and tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import sys

import pytest

import oracles
import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(workloads.SRC))

import ihshodge  # noqa: E402
import ihshodge.cli  # noqa: E402


def _plus_minus_one(table, cells):
    for cell in cells:
        for delta in (1, -1):
            changed = dict(table)
            changed[cell] = changed.get(cell, 0) + delta
            yield {k: v for k, v in changed.items() if v}


# ---------------------------------------------------------------------------
# oracles


@pytest.mark.parametrize("argv", workloads.OG6_ARGV)
def test_og6_oracle_accepts_the_output_and_rejects_every_changed_entry(argv):
    _, (rc, out) = workloads.run_cli(argv)
    assert rc == 0
    assert oracles.og6_output_problems(out, workloads.output_format(argv)) == []
    table, betti, chern = oracles.parse_og6(out, workloads.output_format(argv))
    cells = [*table, (1, 0), (3, 2)]
    for changed in _plus_minus_one(table, cells):
        assert oracles.check_og6(changed, betti, chern)


def test_og6_oracle_rejects_wrong_printed_numbers():
    _, (_, out) = workloads.run_cli(("og6",))
    assert oracles.og6_output_problems(out.replace("c2^3 = 30720", "c2^3 = 30721"), "text")
    assert oracles.og6_output_problems(out.replace("1504", "1505", 1), "text")
    assert oracles.og6_output_problems("garbage", "json")


@pytest.mark.parametrize("n,table", [(3, workloads.K3), (3, workloads.ABELIAN),
                                     (4, workloads.surface_table(0, 0, 7)),
                                     (4, workloads.surface_table(2, 3, 11))])
def test_hilb_oracle_accepts_the_result_and_rejects_every_changed_entry(n, table):
    hilb = workloads.Hilb()
    item = hilb.item(n, table)
    _, result = hilb.invoke(item)
    assert hilb.verify(item, result) == []
    entries = {(p, q): v for p, q, v in result.items()}
    cells = [*entries, (0, 1), (2 * n, 0)]
    for changed in _plus_minus_one(entries, cells):
        assert oracles.check_hilb(table, n, changed, 2 * n)


def test_independent_series_match_known_values():
    assert oracles.goettsche_betti([1, 0, 22, 0, 1], 2) == [1, 0, 23, 0, 276, 0, 23, 0, 1]
    assert oracles.euler_number_series(24, 3) == 3200
    assert oracles.euler_number_series(0, 3) == 0


def test_hilb_text_oracle_reads_the_cli_output():
    _, (_, out) = workloads.run_cli(("hilb", "--n", "3", "--surface", "k3"))
    assert oracles.hilb_text_problems(out, workloads.K3, 3) == []
    assert oracles.hilb_text_problems(out.replace("2004", "2005"), workloads.K3, 3)


def test_check_oracle():
    _, (rc, out) = workloads.run_cli(("check", "--suite", "duality"))
    assert oracles.check_output_problems(rc, out) == []
    assert oracles.check_output_problems(1, out)
    assert oracles.check_output_problems(0, out.replace("3/3", "2/3"))
    assert oracles.check_output_problems(0, out.replace("ok   ", "FAIL ", 1))
    assert oracles.check_output_problems(0, "")


def test_cold_cli_oracle_compares_bytes():
    cold = workloads.ColdCli()
    cold.prepare()
    argv = workloads.COLD_ARGV[0]
    reference = cold.reference[argv]
    assert cold.verify(argv, (0, reference)) == []
    assert cold.verify(argv, (0, reference.replace(b"1144", b"1145")))
    assert cold.verify(argv, (1, reference))


def test_og6_workload_rejects_output_that_changes_between_calls():
    og6 = workloads.Og6()
    argv = workloads.OG6_ARGV[0]
    _, result = og6.invoke(argv)
    assert og6.verify(argv, result) == []
    assert og6.verify(argv, result) == []
    assert og6.verify(argv, (0, result[1] + " "))


# ---------------------------------------------------------------------------
# seeding


def _hilb_keys(seed):
    passes = run.Passes(workloads.Hilb(), seed)
    return [[(n, tuple(sorted(table.items()))) for n, table, _ in passes[i]]
            for i in range(3)]


def test_same_seed_gives_the_same_inputs():
    assert _hilb_keys(7) == _hilb_keys(7)
    assert run.Passes(workloads.Og6(), 7)[2] == run.Passes(workloads.Og6(), 7)[2]


def test_another_seed_changes_the_hilb_draws():
    assert _hilb_keys(7) != _hilb_keys(8)


def test_hilb_passes_cover_every_cell_and_rarely_repeat():
    keys = [key for pass_keys in _hilb_keys(3) for key in pass_keys]
    assert len(set(keys)) == len(keys)
    sizes = {(n, len(table)) for n, table in keys}
    assert sizes == {(n, size) for n in workloads.HILB_N for size in (3, 5, 7, 9)}


# ---------------------------------------------------------------------------
# tracing


def _bindings():
    bound = {}
    for name, module in list(sys.modules.items()):
        if name == "ihshodge" or name.startswith("ihshodge."):
            bound.update({(name, attr): value for attr, value in vars(module).items()})
    for cls in (ihshodge.HodgeDiamond, ihshodge.EquivariantDiamond,
                ihshodge.TruncatedSeries3):
        bound[(cls.__name__, "__init__")] = vars(cls)["__init__"]
    return bound


def test_tracer_restores_the_original_functions():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        during = _bindings()
        assert during[("ihshodge.cli", "main")] is not before[("ihshodge.cli", "main")]
        assert during[("ihshodge", "tensor")] is not before[("ihshodge", "tensor")]
        assert during[("HodgeDiamond", "__init__")] is not before[("HodgeDiamond", "__init__")]
        workloads.run_cli(("og6",))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.absent == []


def test_tracer_reports_absent_names_instead_of_failing():
    tracer = Tracer(functions=[("diamond", "no_such_function", "diamond.gone")],
                    classes=[("goettsche", "NoSuchSeries", "goettsche.Gone")],
                    module_buckets=[("no_such_module", "gone")])
    with tracer:
        workloads.run_cli(("og6",))
    assert sorted(tracer.absent) == ["diamond.no_such_function", "goettsche.NoSuchSeries",
                                     "no_such_module"]
    assert tracer.stats == {}


def test_self_times_add_up_to_the_top_span():
    with Tracer() as tracer:
        workloads.run_cli(("check", "--suite", "goettsche"))
    top = tracer.stats["cli.main"]
    assert top.calls == 1
    assert tracer.stats["goettsche.series_mul"].calls > 0
    assert tracer.series_pairs >= tracer.series_terms > 0
    total_self = sum(stat.self_ns for stat in tracer.stats.values())
    assert 0 < total_self <= top.total_ns
    assert all(0 <= stat.self_ns <= stat.total_ns for stat in tracer.stats.values())
