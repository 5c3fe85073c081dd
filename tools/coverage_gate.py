"""Fail on a statement of ``src/ihshodge`` that no in-process test runs.

Run from the repository root as ``PYTHONPATH=src python
tools/coverage_gate.py``.  It runs pytest on ``tests/`` under
:func:`sys.settrace`, lists the package's statements with :mod:`ast` and
prints each one that never ran.  Exit status: pytest's if the tests fail,
else 1 if a statement was printed, else 0.  Child processes are not traced.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ihshodge"


def statements(path: Path):
    """(first line, last line, first source line) of each statement that compiles to code."""
    source = path.read_text(encoding="utf-8")
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)) \
                or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # docstrings and declarations compile to no code of their own
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        found.append((first, node.end_lineno,
                      ast.get_source_segment(source, node).splitlines()[0]))
    return sorted(found)


def main() -> int:
    files = {str(path): path.name for path in sorted(PACKAGE.glob("*.py"))}
    ran = {filename: set() for filename in files}

    def line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename in files else None)
    try:
        status = pytest.main([str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    if status:
        return status
    problems = [f"{name}:{first}: no test runs {text}"
                for filename, name in files.items()
                for first, last, text in statements(Path(filename))
                if ran[filename].isdisjoint(range(first, last + 1))]
    print("\n".join(problems) or f"every statement of {len(files)} files runs in-process")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
