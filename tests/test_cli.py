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
from ihshodge.pipeline import STAGE_ORDER, NamedConstants, run_full_pipeline


GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*argv: str):
    return subprocess.run([sys.executable, "-m", "ihshodge", *argv],
                          capture_output=True, text=True)


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
    parsed = HodgeDiamond.from_json_dict(payload["diamond"])
    assert parsed == run_full_pipeline().diamond


def test_og6_json_trace():
    proc = run_cli("og6", "--format", "json", "--trace")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert [entry["lemma"] for entry in payload["trace"]] == list(STAGE_ORDER)


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
    for tag in STAGE_ORDER:
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


def test_og6_corrupted_constant_exits_1(monkeypatch, capsys):
    corrupted = NamedConstants(two_torsion_count=255)
    monkeypatch.setattr(cli, "run_full_pipeline",
                        lambda: run_full_pipeline(corrupted))
    assert cli.main(["og6"]) == 1
    captured = capsys.readouterr()
    assert "internal invariant violation" in captured.err
    assert captured.out == ""


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
    parsed = HodgeDiamond.from_json(proc.stdout)
    assert parsed == hilbert_scheme_diamond(surface_diamond("k3"), 2)


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
    parsed = HodgeDiamond.from_json(proc.stdout)
    assert parsed == hilbert_scheme_diamond(surface_diamond("abelian"), 2)


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
