"""The command line output, byte for byte, against recorded golden files.

The files under ``tests/golden`` hold the stdout of each command line
below.  Regenerate one only when an output change is intended, with for
example ``PYTHONPATH=src python -m ihshodge og6 --trace >
tests/golden/og6_trace.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ihshodge import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "og6.txt": ["og6"],
    "og6_trace.txt": ["og6", "--trace"],
    "og6_json_trace.json": ["og6", "--format", "json", "--trace"],
    "og6_latex_trace.tex": ["og6", "--format", "latex", "--trace"],
    "hilb_n3_k3.txt": ["hilb", "--n", "3", "--surface", "k3"],
    "hilb_n5_k3.json": ["hilb", "--n", "5", "--surface", "k3",
                        "--format", "json"],
    "hilb_n5_abelian.json": ["hilb", "--n", "5", "--surface", "abelian",
                             "--format", "json"],
    "hilb_n12_abelian.json": ["hilb", "--n", "12", "--surface", "abelian",
                              "--format", "json"],
    "hilb_n30_k3.json": ["hilb", "--n", "30", "--surface", "k3",
                         "--format", "json"],
    "check_all.txt": ["check", "--suite", "all"],
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_stdout_matches_golden_bytes(golden, capsys):
    assert cli.main(CASES[golden]) == 0
    assert capsys.readouterr().out.encode("utf-8") == \
        (GOLDEN / golden).read_bytes()
