"""The command line interface: in-process through ``cli.main``, and as
``python -m ihshodge`` children where the process itself is under test."""

from __future__ import annotations

import json
import os
import re
import runpy
import subprocess
import sys

import pytest

from ihshodge import checks, cli, render
from ihshodge.diamond import ConsistencyError, HodgeDiamond
from ihshodge.goettsche import hilbert_scheme_diamond, surface_diamond
from ihshodge.pipeline import NamedConstants, PipelineResult, run_full_pipeline
from test_golden import CASES, GOLDEN


def run_cli(*argv: str):
    return subprocess.run([sys.executable, "-m", "ihshodge", *argv],
                          capture_output=True, text=True)


def run_main(capsys, *argv: str) -> subprocess.CompletedProcess:
    """``cli.main(argv)`` in this process, read back as ``run_cli`` reads a child."""
    try:
        code = cli.main(list(argv))
    except SystemExit as usage_error:  # argparse exits 2 and writes to stderr
        code = usage_error.code
    captured = capsys.readouterr()
    return subprocess.CompletedProcess(argv, code, captured.out, captured.err)


def rebuilt(payload: dict) -> HodgeDiamond:
    """The diamond whose ``to_json_dict`` is ``payload``, through the constructor."""
    return HodgeDiamond({(p, q): v for p, q, v in payload["entries"]},
                        complex_dimension=payload["complex_dimension"])


# ---------------------------------------------------------------------------
# og6


def test_og6_json_payload(capsys):
    proc = run_main(capsys, "og6", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    # the traced golden file holds the same report plus the trace
    traced = json.loads((GOLDEN / "og6_json_trace.json").read_text(encoding="utf-8"))
    del traced["trace"]
    assert payload == traced
    assert rebuilt(payload["diamond"]) == run_full_pipeline().diamond


def test_og6_rejects_impossible_euler_characteristic(capsys):
    # b2 and chi are named constants of the derivation, not options, so
    # any attempt to pass them is a usage error.
    proc = run_main(capsys, "og6", "--b2", "8", "--chi", "1921")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert proc.stdout == ""


def test_og6_rejects_bad_b2(capsys):
    proc = run_main(capsys, "og6", "--b2", "2")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.parametrize("fields", [
    {"two_torsion_count": 255}, {"incidence_swap_row": (1, -1, 2)}], ids=str)
def test_og6_corrupted_constant_exits_1(monkeypatch, capsys, fields):
    corrupted = NamedConstants(**fields)
    monkeypatch.setattr(cli, "run_full_pipeline",
                        lambda: run_full_pipeline(corrupted))
    assert cli.main(["og6"]) == 1
    captured = capsys.readouterr()
    assert "internal invariant violation" in captured.err
    assert captured.out == ""


def test_og6_renders_the_result_of_this_call(monkeypatch, capsys):
    assert cli.main(["og6", "--trace"]) == 0  # stores the rendered report
    full = capsys.readouterr().out
    real = run_full_pipeline()
    shorter = PipelineResult(real.diamond, real.betti_numbers, real.chern, real.trace[:-1])
    monkeypatch.setattr(cli, "run_full_pipeline", lambda: shorter)
    assert cli.main(["og6", "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [line for line in full.splitlines() if not line.startswith("  thm:main:")]
    assert len(lines) == len(full.splitlines()) - 1


def test_closed_stdout_exits_141_quietly():
    proc = subprocess.Popen([sys.executable, "-m", "ihshodge", "og6"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


def test_a_broken_pipe_returns_141_and_sends_stdout_to_the_null_device(monkeypatch, tmp_path):
    # the in-process half of the test above, so the coverage gate sees the branch
    out = tmp_path / "stdout"
    fd = os.open(out, os.O_WRONLY | os.O_CREAT)

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            raise BrokenPipeError

        def fileno(self):
            return fd

    opened, os_open = [], os.open

    def recording_open(*args, **kwargs):
        opened.append(os_open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        assert cli.main(["og6"]) == 141
        assert len(opened) == 1
        with pytest.raises(OSError):
            os.fstat(opened[0])  # the null device's own descriptor is closed
        os.write(fd, b"flushed at exit")
    finally:
        os.close(fd)
    assert out.read_bytes() == b""


def test_og6_output_is_byte_deterministic():
    first = run_cli("og6", "--format", "json", "--trace")
    second = run_cli("og6", "--format", "json", "--trace")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


# ---------------------------------------------------------------------------
# hilb


def test_hilb_json_round_trip(capsys):
    proc = run_main(capsys, "hilb", "--n", "2", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    diamond = hilbert_scheme_diamond(surface_diamond("k3"), 2)
    payload = json.loads(proc.stdout)
    assert payload == diamond.to_json_dict()
    assert rebuilt(payload) == diamond


def test_hilb_text_output(capsys):
    proc = run_main(capsys, "hilb", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    assert "k3^[2] Hodge diamond" in proc.stdout
    assert "232" in proc.stdout
    assert "Euler characteristic: 324" in proc.stdout


def test_hilb_latex_output(capsys):
    assert cli.main(["hilb", "--n", "2", "--format", "latex"]) == 0
    diamond = hilbert_scheme_diamond(surface_diamond("k3"), 2)
    out = capsys.readouterr().out
    assert out == render.hilb_report("k3", 2, diamond, "latex") + "\n"
    assert out.startswith("\\begin{array}")
    assert "232" in out


def test_hilb_abelian_surface(capsys):
    proc = run_main(capsys, "hilb", "--n", "2", "--surface", "abelian",
                    "--format", "json")
    assert proc.returncode == 0, proc.stderr
    diamond = hilbert_scheme_diamond(surface_diamond("abelian"), 2)
    payload = json.loads(proc.stdout)
    assert payload == diamond.to_json_dict()
    assert rebuilt(payload) == diamond


def test_hilb_cap(capsys):
    assert run_main(capsys, "hilb", "--n", "99").returncode == 2
    assert run_main(capsys, "hilb", "--n", "-1").returncode == 2


def test_hilb_limit_is_thirty(capsys):
    assert cli.main(["hilb", "--n", "6"]) == 0
    capsys.readouterr()
    assert cli.main(["hilb", "--n", "31"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: n=31 exceeds the limit 30\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# check


def test_check_single_suite(capsys):
    proc = run_main(capsys, "check", "--suite", "salamon")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok   " in proc.stdout
    assert "FAIL" not in proc.stdout
    assert proc.stdout.rstrip().endswith("checks passed")


def test_check_unknown_suite_is_a_usage_error(capsys):
    proc = run_main(capsys, "check", "--suite", "bogus")
    assert proc.returncode == 2
    for name in ({}, []):
        with pytest.raises(ValueError, match="unknown suite"):
            checks.run_suite(name)


def test_a_failing_check_prints_what_it_got_and_expected(monkeypatch, capsys):
    chi = checks.euler_characteristic
    monkeypatch.setattr(checks, "euler_characteristic", lambda d: chi(d) + 1)
    assert cli.main(["check", "--suite", "goettsche"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert ("FAIL goettsche: K3^[3] Euler characteristic: got 3201, expected 3200"
            in lines)
    passed, total = lines[-1].removesuffix(" checks passed").split("/")
    assert total == "11" and int(passed) < 11


def test_a_failing_check_prints_its_table_in_lexicographic_order(monkeypatch, capsys):
    # a table stores its build order; a FAIL detail must not show it
    part = checks.invariant_part

    def reversed_and_raised(d):
        entries = part(d).entries
        table = {key: entries[key] for key in sorted(entries, reverse=True)}
        table[2, 2] = table.get((2, 2), 0) + 1
        return HodgeDiamond._trusted(table)

    monkeypatch.setattr(checks, "invariant_part", reversed_and_raised)
    assert cli.main(["check", "--suite", "equivariant"]) == 1
    assert ("FAIL equivariant: invariant weight 4 row is (1, 6, 157): got "
            "{(0, 4): 1, (1, 3): 6, (2, 2): 158, (3, 1): 6, (4, 0): 1}, expected "
            "{(4, 0): 1, (3, 1): 6, (2, 2): 157, (1, 3): 6, (0, 4): 1}"
            in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("name, route", [
    ("og6_via_dual_degrees", "duality: correction chain at dual degrees agrees"),
    ("markman_assembly", "goettsche: K3^[3] equals its own Markman assembly"),
])
def test_two_routes_that_disagree_fail_their_check_alone(monkeypatch, capsys, name, route):
    operation = getattr(checks, name)

    def shifted(*args):
        d = operation(*args)
        return HodgeDiamond({**d.entries, (1, 1): d.h(1, 1) + 1},
                            complex_dimension=d.complex_dimension)

    monkeypatch.setattr(checks, name, shifted)
    assert cli.main(["check", "--suite", "all"]) == 1
    passing = (GOLDEN / "check_all.txt").read_text(encoding="utf-8").splitlines()[:-1]
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL {route}: got False, expected True" if line == f"ok   {route}" else line
        for line in passing
    ] + ["23/24 checks passed"]


# the lines of ``check --suite all`` that need each shared value
OG6_LINES = {
    "salamon: pipeline output matches the OG6 Betti row",
    "duality: OG6 diamond passes symmetry and duality",
    "duality: correction chain at dual degrees agrees",
    "duality: Euler bookkeeping of the quadric removal",
    "goettsche: OG6 and K3^[0..3] have h^{p,0} = 1 for even p, 0 for odd p",
    "goettsche: OG6 and K3^[3] have Todd genus 4",
}
K3_3_LINES = {
    "salamon: K3^[3] Betti row satisfies the constraint",
    "goettsche: recurrence matches the product formula",
    "goettsche: K3^[3] equals its own Markman assembly",
    "goettsche: K3^[3] Euler characteristic",
    "goettsche: OG6 and K3^[0..3] have h^{p,0} = 1 for even p, 0 for odd p",
    "goettsche: OG6 and K3^[3] have Todd genus 4",
    "goettsche: K3^[3] Chern numbers c2^3, c2c4, c6",
}
WEIGHT_4_LINES = {
    "equivariant: invariant weight 4 row is (1, 6, 157)",
    "equivariant: weight 4 total matches Sym^2 + twist",
}


def raising_on(operation, *args):
    """``operation``, except that it raises for exactly these arguments."""
    def faulty(*called):
        if called == args:
            raise ConsistencyError("injected fault")
        return operation(*called)
    return faulty


@pytest.mark.parametrize("name, args, failing", [
    ("run_full_pipeline", (), OG6_LINES),
    ("hilbert_scheme_diamond", (surface_diamond("k3"), 3), K3_3_LINES),
    ("markman_equivariant", (checks.derive_invariant_h2(8), 4), WEIGHT_4_LINES),
], ids=["pipeline", "k3-n3", "weight4"])
def test_a_raise_fails_every_check_that_needs_the_value_and_no_other(
        monkeypatch, capsys, name, args, failing):
    monkeypatch.setattr(checks, name, raising_on(getattr(checks, name), *args))
    assert cli.main(["check", "--suite", "all"]) == 1
    passing = (GOLDEN / "check_all.txt").read_text(encoding="utf-8").splitlines()[:-1]
    assert {f"ok   {check}" for check in failing} <= set(passing)
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"FAIL {line[5:]}: raised ConsistencyError: injected fault"
        if line[5:] in failing else line for line in passing
    ] + [f"{24 - len(failing)}/24 checks passed"]
    assert captured.err == ""


def test_check_all_derives_each_markman_table_once(monkeypatch):
    calls = {}

    def counted(name):
        operation = getattr(checks, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return operation(*args)
        return wrapper

    for name in ("markman_assembly", "markman_equivariant"):
        monkeypatch.setattr(checks, name, counted(name))
    checks.run_suite("all")
    assert calls == {"markman_assembly": 1, "markman_equivariant": 2}


def test_check_all_builds_each_hilbert_scheme_once(monkeypatch):
    # K3^[n] and abelian^[n] for n = 0..3, shared by the suites of one call.
    built = []
    exact = checks.hilbert_scheme_diamond

    def counted(surface, n):
        built.append((surface, n))
        return exact(surface, n)

    monkeypatch.setattr(checks, "hilbert_scheme_diamond", counted)
    checks.run_suite("all")
    assert len(built) == 8 and len(set(built)) == 8


def test_check_all_drops_the_hilbert_schemes_before_the_equivariant_suite(monkeypatch):
    # The shared diamonds must not sit in memory beside the equivariant suite.
    held = []
    equivariant = checks._SUITES["equivariant"]

    def spy(hilb):
        held.append(hilb.cache_info().currsize)
        return equivariant(hilb)

    monkeypatch.setitem(checks._SUITES, "equivariant", spy)
    checks.run_suite("all")
    assert held == [0]


def test_all_runs_every_suite_in_order():
    one_by_one = [result for name in checks.SUITE_NAMES
                  for result in checks.run_suite(name)]
    assert checks.run_suite("all") == one_by_one
    assert all(result.ok for result in one_by_one)


def test_missing_subcommand_is_a_usage_error():
    # a real process: argparse's exit status reaches the shell as 2
    proc = run_cli()
    assert proc.returncode == 2


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ihshodge", "og6", "--format", "latex", "--trace"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("ihshodge", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out.encode("utf-8") == \
        (GOLDEN / "og6_latex_trace.tex").read_bytes()


# ---------------------------------------------------------------------------
# one parse of each command line and one derivation shared by every call
# in a process


def test_repeated_in_process_calls_match_golden_bytes(capsys):
    with pytest.raises(SystemExit) as bad:
        cli.main(["og6", "--b2", "8"])
    assert bad.value.code == 2
    capsys.readouterr()
    # every golden command line, then each og6 one again after the others
    og6 = [golden for golden in CASES if golden.startswith("og6")]
    for golden in [*CASES, *og6[::-1]]:
        assert cli.main(CASES[golden]) == 0
        assert capsys.readouterr().out.encode("utf-8") == \
            (GOLDEN / golden).read_bytes(), golden


def test_a_usage_error_prints_on_every_call(capsys):
    # a failed parse exits inside the memo, so nothing is stored for it
    first, second = (run_main(capsys, "og6", "--format", "yaml") for _ in range(2))
    for proc in (first, second):
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: ihshodge og6 ")
        assert "error: argument --format: invalid choice: 'yaml'" in proc.stderr
        assert proc.stdout == ""
    assert first.stderr == second.stderr


def test_help_prints_on_every_call(capsys):
    first, second = (run_main(capsys, "og6", "--help") for _ in range(2))
    for proc in (first, second):
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: ihshodge og6 ")
        assert "include the stage-by-stage audit trail" in proc.stdout
        assert proc.stderr == ""
    assert first.stdout == second.stdout


def test_main_without_argv_parses_the_sys_argv_of_each_call(monkeypatch, capsys):
    for golden in ("og6.txt", "hilb_n3_k3.txt"):
        monkeypatch.setattr(sys, "argv", ["ihshodge", *CASES[golden]])
        assert cli.main() == 0
        assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_the_parse_memo_is_bounded(capsys):
    # "02", "002", ...: distinct command lines that all mean n = 2
    size = cli._parse.cache_info().maxsize
    outputs = set()
    for zeros in range(1, size + 4):
        assert cli.main(["hilb", "--n", "0" * zeros + "2"]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
    assert cli._parse.cache_info().currsize == size


# ---------------------------------------------------------------------------
# the render functions take only the value they render


RENDERERS = {"diamond_text": "HodgeDiamond", "diamond_latex": "HodgeDiamond",
             "betti_text": "BettiVector", "chern_text": "ChernReport",
             "trace_text": "tuple"}


@pytest.mark.parametrize("name", RENDERERS)
@pytest.mark.parametrize("value", [None, "x", 5], ids=repr)
def test_render_functions_reject_other_types(name, value):
    with pytest.raises(ValueError, match=f"expected a {RENDERERS[name]}, got"):
        getattr(render, name)(value)


@pytest.mark.parametrize("name", ["diamond_text", "diamond_latex"])
def test_diamond_renderers_need_a_dimension(name):
    message = f"^{name} needs a diamond with a complex dimension$"
    with pytest.raises(ValueError, match=message):
        getattr(render, name)(HodgeDiamond({(0, 0): 1}))


def test_each_report_rejects_a_value_of_another_type():
    passed = checks.CheckResult("name", True, "")
    for value in (None, "x", 5):
        for expected, report, args in (
                ("PipelineResult", render.og6_report, (value, "text", False)),
                ("HodgeDiamond", render.hilb_report, ("k3", 2, value, "text")),
                ("list", render.check_report, (value,)),
                ("CheckResult", render.check_report, ([passed, value],))):
            message = re.escape(f"expected a {expected}, got {value!r}")
            with pytest.raises(ValueError, match=message):
                report(*args)
    message = "^hilb_report needs a diamond with a complex dimension$"
    with pytest.raises(ValueError, match=message):
        render.hilb_report("k3", 2, HodgeDiamond({(0, 0): 1}), "text")
