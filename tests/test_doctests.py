"""Run the usage examples embedded in the library docstrings and README."""

import doctest
from pathlib import Path

import pytest

import ihshodge.diamond
import ihshodge.goettsche
import ihshodge.pipeline


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
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0
