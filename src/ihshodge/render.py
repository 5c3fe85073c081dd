"""The stdout of each command: the ``og6``, ``hilb`` and ``check`` reports.

Each report is deterministic: reports of equal values are byte identical,
so the command line tool can be diffed in scripts.

The ``check`` report has one line per check, ``ok   <name>``, ``FAIL
<name>: got <computed!r>, expected <expected!r>`` or, when computing the
value raised, ``FAIL <name>: raised <Type>: <message>``; then ``k/m
checks passed``.

The pieces the reports are built from, ``diamond_text``, ``diamond_latex``,
``betti_text``, ``chern_text`` and ``trace_text``, are not exported, and
each still refuses a value of another type.
"""

from __future__ import annotations

import json

from .checks import CheckResult
from .diamond import (BettiVector, HodgeDiamond, _dimension, _wrong_type, betti,
                      euler_characteristic, weight_sums)
from .pipeline import ChernReport, PipelineResult, TraceStep

__all__ = ["check_report", "hilb_report", "og6_report"]


def _weight_cells(d: HodgeDiamond, weight: int) -> list[tuple[int, int]]:
    n = d.complex_dimension
    top = min(weight, n)
    bottom = max(0, weight - n)
    return [(p, weight - p) for p in range(top, bottom - 1, -1)]


def diamond_text(d: HodgeDiamond) -> str:
    """Centered triangle of the h^{p,q}, one cohomological weight per row."""
    n = _dimension(d, "diamond_text")
    width = max((len(str(v)) for v in d._entries.values()), default=1)
    unit = width + 2
    lines = []
    for weight in range(2 * n + 1):
        cells = _weight_cells(d, weight)
        pad = " " * ((2 * n + 1 - len(cells)) * unit // 2)
        row = "  ".join(str(d.h(p, q)).rjust(width) for p, q in cells)
        lines.append((pad + row).rstrip())
    return "\n".join(lines)


def diamond_latex(d: HodgeDiamond) -> str:
    """Triangular array of the nonzero H^{p,q}, one weight per row."""
    n = _dimension(d, "diamond_latex")
    columns = 2 * n + 1
    lines = [r"\begin{array}{" + "c" * columns + "}"]
    for weight in range(2 * n + 1):
        cells = _weight_cells(d, weight)
        pad_left = (columns - len(cells)) // 2
        row = [""] * pad_left
        for p, q in cells:
            value = d.h(p, q)
            row.append("" if value == 0 else f"H^{{{p},{q}}}={value}")
        row.extend([""] * (columns - len(row)))
        terminator = r" \\" if weight < 2 * n else ""
        lines.append("  " + " & ".join(row) + terminator)
    lines.append(r"\end{array}")
    return "\n".join(lines)


def betti_text(b: BettiVector) -> str:
    if not isinstance(b, BettiVector):
        raise _wrong_type(BettiVector, b)
    return "Betti numbers: " + " ".join(str(v) for v in b.b)


def chern_text(c: ChernReport) -> str:
    if not isinstance(c, ChernReport):
        raise _wrong_type(ChernReport, c)
    return (f"chi^0 = {c.chi0}, chi^1 = {c.chi1}, chi^2 = {c.chi2}\n"
            f"c2^3 = {c.c2_cubed}, c2*c4 = {c.c2_c4}, c6 = {c.c6}")


def trace_text(trace: tuple[TraceStep, ...]) -> str:
    """One line per stage: tag, weight sums of the output, corrections."""
    if not isinstance(trace, tuple):
        raise _wrong_type(tuple, trace)
    if not all(isinstance(step, TraceStep) for step in trace):
        raise _wrong_type(TraceStep, *trace)
    lines = ["Derivation trace:"]
    for step in trace:
        sums = weight_sums(step.output)
        row = " ".join(str(sums.get(w, 0)) for w in range(0, max(sums, default=0) + 1, 2))
        if step.corrections:
            corr = ", ".join(f"{delta:+d} @ ({p},{q})"
                             for p, q, delta in step.corrections)
        else:
            corr = "none"
        lines.append(f"  {step.lemma}: even weight sums {row}; corrections: {corr}")
    return "\n".join(lines)


def _text_report(title: str, d: HodgeDiamond, betti_numbers: BettiVector) -> str:
    """Title, centered h^{p,q} triangle, Betti and Euler lines."""
    return "\n".join([title, diamond_text(d), "", betti_text(betti_numbers),
                      f"Euler characteristic: {euler_characteristic(d)}"])


def og6_report(result: PipelineResult, fmt: str, trace: bool) -> str:
    """The whole ``og6`` stdout for ``result`` in ``fmt``, less its final newline."""
    if not isinstance(result, PipelineResult):
        raise _wrong_type(PipelineResult, result)
    if fmt == "json":
        payload = {
            "diamond": result.diamond.to_json_dict(),
            "betti": {"n": result.betti_numbers.n, "b": result.betti_numbers.b},
            "chern": dict(zip(ChernReport.__slots__, result.chern._fields())),
        }
        if trace:
            payload["trace"] = [{"lemma": step.lemma, "output": step.output.to_json_dict(),
                                 "corrections": step.corrections} for step in result.trace]
        return json.dumps(payload, sort_keys=True)
    if fmt == "latex":
        notes = [betti_text(result.betti_numbers), chern_text(result.chern)]
        if trace:
            notes.append(trace_text(result.trace))
        return "\n".join([diamond_latex(result.diamond),
                          *(f"% {line}" for line in "\n".join(notes).splitlines())])
    parts = [_text_report("OG6 Hodge diamond (complex dimension 6):", result.diamond,
                          result.betti_numbers), chern_text(result.chern)]
    if trace:
        parts += ["", trace_text(result.trace)]
    return "\n".join(parts)


def hilb_report(surface: str, n: int, diamond: HodgeDiamond, fmt: str) -> str:
    """The whole ``hilb`` stdout for ``diamond``, the surface^[n], less its final newline."""
    dim = _dimension(diamond, "hilb_report")
    if fmt == "json":
        return json.dumps(diamond.to_json_dict(), sort_keys=True)
    if fmt == "latex":
        return diamond_latex(diamond)
    return _text_report(f"{surface}^[{n}] Hodge diamond (complex dimension {dim}):",
                        diamond, betti(diamond))


def check_report(results: list[CheckResult]) -> str:
    """The whole ``check`` stdout for ``results``, less its final newline."""
    if not isinstance(results, list):
        raise _wrong_type(list, results)
    if not all(isinstance(result, CheckResult) for result in results):
        raise _wrong_type(CheckResult, *results)
    lines = [f"ok   {result.name}" if result.ok else f"FAIL {result.name}: {result.detail}"
             for result in results]
    passed = sum(1 for result in results if result.ok)
    return "\n".join([*lines, f"{passed}/{len(results)} checks passed"])
