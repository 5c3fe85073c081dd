"""``tools/mutants.py`` without its sweep: mutants, pool, choice and kill rules.

None of these tests starts a child interpreter.  The sweep itself runs as
``python tools/mutants.py --verify``.
"""

from __future__ import annotations

import ast
import collections
import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from ihshodge import checks
from ihshodge.equivariant import EquivariantDiamond

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SOURCE = """\
def f(a, b, flag=True):
    if a < b and a is not None or b in (1,):
        return a + 2 * b - a // 3 % b
    a += 1
    return a == b != (a <= b) or a not in () and b is a or a > b >= a
"""


def test_each_family_makes_one_mutant_per_site():
    changes = collections.Counter(
        "literal" if m["change"][0].isdigit() else m["change"]
        for m in mutants.mutants(SOURCE))
    assert changes == {
        "literal": 8,  # 1, 2, 3 and 1, each moved up and down; True is no literal
        "< -> <=": 1, "<= -> <": 1, "> -> >=": 1, ">= -> >": 1,
        "+ -> -": 2, "- -> +": 1, "* -> +": 1, "// -> *": 1, "% -> //": 1,
        "== -> !=": 1, "!= -> ==": 1, "is -> is not": 1, "is not -> is": 1,
        "in -> not in": 1, "not in -> in": 1, "and -> or": 2, "or -> and": 2,
    }


def test_each_mutant_changes_one_site():
    found = mutants.mutants(SOURCE)
    assert len({(m["line"], m["col"], m["change"]) for m in found}) == len(found)
    places = [(m["line"], m["col"]) for m in found]
    assert places == sorted(places)
    original = ast.unparse(ast.parse(SOURCE))
    assert ast.unparse(ast.parse(SOURCE)) == original  # no mutant is left in place
    for m in found:
        assert m["source"] != original
        ast.parse(m["source"])
    augmented = next(m for m in found if m["line"] == 4 and m["change"] == "+ -> -")
    assert "a -= 1" in augmented["source"]


def test_the_pool_is_the_referees_old_seeded_draw():
    tables = [EquivariantDiamond(table) for _, a, b in mutants.pool() for table in (a, b)]
    digest = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert digest == "27fa354fdc6bfa9483230f3d8c33c853b087d9894590904a36cb80cf0cd1b052"
    assert [k for k, _, _ in mutants.pool()] == [2, 3] * 100


def test_the_unmutated_package_passes_the_whole_pool():
    assert checks._forget_failures(mutants.pool()) == []


def test_referee_tables_span_the_edge_cases():
    pool = set().union(*(mutants.edge_features(*pair) for pair in mutants.pool()))
    assert set().union(*(mutants.edge_features(*pair) for pair in checks._REFEREE)) >= pool


def test_the_referee_tables_are_the_recorded_choice():
    record = json.loads((TOOL.parents[1] / "MUTANTS.json").read_text(encoding="utf-8"))
    pool = mutants.pool()
    assert list(checks._REFEREE) == [pool[i] for i in sorted(record["cover"] + record["edge"])]


def test_two_cover_takes_the_largest_gain_and_the_lowest_index_on_a_tie():
    exposures = [{0, 1, 2}, {1, 2}, {3}, {2, 3}]
    # gains 1, 2, 3, 2 pick pair 2; then pairs 1 and 3 tie at 2 and 1 wins
    assert mutants.two_cover(exposures) == [2, 1, 3]
    assert mutants.two_cover([{5}, {4, 5}, set()]) == [5, 4]
    assert mutants.two_cover([]) == []


def test_edge_pairs_add_the_missing_edge_cases():
    pairs = [(2, {(1, 1): (3, 3)}, {(1, 1): (1, 1)}),
             (3, {(2, 0): (0, 2)}, {}),
             (2, {(0, 0): (4, 0)}, {(1, 1): (2, 2)})]
    # pair 1 brings k = 3, (2, 0), an empty V+ and Lambda^3 of a 2-dimensional piece
    assert mutants.edge_pairs(pairs, [0]) == [1, 2]
    assert mutants.edge_pairs(pairs, [0, 1, 2]) == []


def _timing_out(output):
    def run(args, **kwargs):
        raise subprocess.TimeoutExpired(args, kwargs["timeout"], output=output)
    return run


def test_a_timeout_counts_as_a_kill(monkeypatch):
    monkeypatch.setattr(mutants.subprocess, "run", _timing_out(None))
    result = mutants.run("diamond.py", "", "[]")
    assert result == {"outcome": "timeout", "lines": None, "exposed": None}
    assert mutants.killed(result) == (True, True, True)


@pytest.mark.parametrize("output", [str, str.encode])
def test_a_timeout_after_the_check_report_kills_by_the_pool_only(monkeypatch, output):
    lines = [["salamon: OG6 Betti row satisfies the constraint", True],
             [mutants.REFEREE_LINE + "6 mutation-chosen tables", True]]
    cut = json.dumps(lines) + "\n[0, 1"  # the pool report cut short
    monkeypatch.setattr(mutants.subprocess, "run", _timing_out(output(cut)))
    result = mutants.run("diamond.py", "", "[]")
    assert result == {"outcome": "timeout", "lines": lines, "exposed": None}
    assert mutants.killed(result) == (False, False, True)


def test_a_failing_line_kills_at_check_level_and_the_referee_line_only_when_it_fails():
    lines = [["duality: OG6 diamond passes symmetry and duality", False],
             [mutants.REFEREE_LINE + "6 mutation-chosen tables", True]]
    assert mutants.killed({"lines": lines, "exposed": []}) == (True, False, False)
    lines[1][1] = False
    assert mutants.killed({"lines": lines, "exposed": [7]}) == (True, True, True)
