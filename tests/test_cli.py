"""End-to-end runs of the installed command line interface."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ihshodge import checks, cli, render
from ihshodge.diamond import HodgeDiamond
from ihshodge.goettsche import hilbert_scheme_diamond, surface_diamond
from ihshodge.pipeline import NamedConstants, run_full_pipeline


GOLDEN = Path(__file__).resolve().parent / "golden"
STAGES = ("4fin", "3fin", "X-and-Y", "Kt-and-Ktt(2)", "Kt-and-Ktt(1)", "thm:main")


def run_cli(*argv: str):
    return subprocess.run([sys.executable, "-m", "ihshodge", *argv],
                          capture_output=True, text=True)


def rebuilt(payload: dict) -> HodgeDiamond:
    """The diamond whose ``to_json_dict`` is ``payload``, through the constructor."""
    return HodgeDiamond({(p, q): v for p, q, v in payload["entries"]},
                        complex_dimension=payload["complex_dimension"])


# ---------------------------------------------------------------------------
# og6


def test_og6_json_payload():
    proc = run_cli("og6", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert set(payload) == {"diamond", "betti", "chern"}
    assert [3, 3, 1144] in payload["diamond"]["entries"]
    assert payload["betti"] == {
        "n": 6, "b": [1, 0, 8, 0, 199, 0, 1504, 0, 199, 0, 8, 0, 1]}
    assert payload["chern"]["c2_cubed"] == 30720
    assert payload["chern"]["c6"] == 1920
    diamond = run_full_pipeline().diamond
    assert payload["diamond"] == diamond.to_json_dict()
    assert rebuilt(payload["diamond"]) == diamond


def test_og6_json_trace():
    proc = run_cli("og6", "--format", "json", "--trace")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert [entry["lemma"] for entry in payload["trace"]] == list(STAGES)


def test_og6_text_output():
    proc = run_cli("og6")
    assert proc.returncode == 0, proc.stderr
    assert "OG6 Hodge diamond" in proc.stdout
    assert "Betti numbers: 1 0 8 0 199 0 1504 0 199 0 8 0 1" in proc.stdout
    assert "Euler characteristic: 1920" in proc.stdout
    assert "c2^3 = 30720" in proc.stdout
    assert "1144" in proc.stdout
    assert "Derivation trace:" not in proc.stdout


def test_og6_text_trace():
    proc = run_cli("og6", "--trace")
    assert proc.returncode == 0, proc.stderr
    assert "Derivation trace:" in proc.stdout
    for tag in STAGES:
        assert tag in proc.stdout


def test_og6_latex_output():
    proc = run_cli("og6", "--format", "latex", "--trace")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("\\begin{array}")
    assert "1144" in proc.stdout
    assert "% Betti numbers:" in proc.stdout
    assert "% chi^0 = 4" in proc.stdout
    assert "% Derivation trace:" in proc.stdout


def test_og6_rejects_impossible_euler_characteristic():
    # b2 and chi are named constants of the derivation, not options, so
    # any attempt to pass them is a usage error.
    proc = run_cli("og6", "--b2", "8", "--chi", "1921")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert proc.stdout == ""


def test_og6_rejects_bad_b2():
    proc = run_cli("og6", "--b2", "2")
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


def test_closed_stdout_exits_141_quietly():
    proc = subprocess.Popen([sys.executable, "-m", "ihshodge", "og6"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


def test_og6_output_is_byte_deterministic():
    first = run_cli("og6", "--format", "json", "--trace")
    second = run_cli("og6", "--format", "json", "--trace")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


# ---------------------------------------------------------------------------
# hilb


def test_hilb_json_round_trip():
    proc = run_cli("hilb", "--n", "2", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    diamond = hilbert_scheme_diamond(surface_diamond("k3"), 2)
    payload = json.loads(proc.stdout)
    assert payload == diamond.to_json_dict()
    assert rebuilt(payload) == diamond


def test_hilb_text_output():
    proc = run_cli("hilb", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    assert "k3^[2] Hodge diamond" in proc.stdout
    assert "232" in proc.stdout
    assert "Euler characteristic: 324" in proc.stdout


def test_hilb_latex_output():
    proc = run_cli("hilb", "--n", "2", "--format", "latex")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("\\begin{array}")
    assert "232" in proc.stdout


def test_hilb_abelian_surface():
    proc = run_cli("hilb", "--n", "2", "--surface", "abelian",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    diamond = hilbert_scheme_diamond(surface_diamond("abelian"), 2)
    payload = json.loads(proc.stdout)
    assert payload == diamond.to_json_dict()
    assert rebuilt(payload) == diamond


def test_hilb_cap():
    assert run_cli("hilb", "--n", "99").returncode == 2
    assert run_cli("hilb", "--n", "-1").returncode == 2


def test_hilb_limit_is_thirty():
    assert run_cli("hilb", "--n", "6").returncode == 0
    over = run_cli("hilb", "--n", "31")
    assert over.returncode == 2
    assert "n=31 exceeds the limit 30" in over.stderr


# ---------------------------------------------------------------------------
# check


def test_check_single_suite():
    proc = run_cli("check", "--suite", "salamon")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok   " in proc.stdout
    assert "FAIL" not in proc.stdout
    assert proc.stdout.rstrip().endswith("checks passed")


def test_check_all_suites():
    proc = run_cli("check", "--suite", "all")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = proc.stdout.rstrip().splitlines()[-1]
    passed, total = summary.split()[0].split("/")
    assert passed == total
    assert int(total) >= 15


def test_check_unknown_suite_is_a_usage_error():
    proc = run_cli("check", "--suite", "bogus")
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
    assert total == "10" and int(passed) < 10


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
    # The shared diamonds must not sit in memory beside the 200-table loop.
    held = []
    equivariant = checks._SUITES["equivariant"]

    def spy(hilb):
        held.append(len(hilb))
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
    proc = run_cli()
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# one parser and one derivation shared by every call in a process


def test_repeated_in_process_calls_match_golden_bytes(capsys):
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as bad:
        cli.main(["og6", "--b2", "8"])
    assert bad.value.code == 2
    capsys.readouterr()
    og6_cases = [
        (["og6"], "og6.txt"),
        (["og6", "--trace"], "og6_trace.txt"),
        (["og6", "--format", "json", "--trace"], "og6_json_trace.json"),
        (["og6", "--format", "latex", "--trace"], "og6_latex_trace.tex"),
    ]
    cases = (og6_cases
             + [(["hilb", "--n", "5", "--format", "json"], "hilb_n5_k3.json")]
             + og6_cases[::-1]
             + [(["check", "--suite", "all"], "check_all.txt")])
    for argv, golden in cases:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == \
            (GOLDEN / golden).read_bytes(), argv


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
