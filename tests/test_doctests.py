"""Run the usage examples embedded in the library docstrings and README,
and keep ``PAPER.md`` the README under its own header."""

import doctest
from pathlib import Path

import pytest

import ihshodge.diamond
import ihshodge.goettsche
import ihshodge.pipeline

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", [
    ihshodge.diamond,
    ihshodge.goettsche,
    ihshodge.pipeline,
], ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_library_example():
    readme = ROOT / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0


def test_paper_md_is_the_readme_under_a_four_line_header():
    lines = (ROOT / "PAPER.md").read_bytes().splitlines(keepends=True)
    assert b"".join(lines[4:]) == (ROOT / "README.md").read_bytes()
