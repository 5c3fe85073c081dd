"""Plain text and LaTeX rendering of diamonds and reports.

Output is deterministic: two renders of equal objects are byte
identical, so the command line tool can be diffed in scripts.
"""

from __future__ import annotations

from .diamond import BettiVector, HodgeDiamond, _dimension, _wrong_type, weight_sums
from .pipeline import ChernReport, TraceStep

__all__ = [
    "betti_text",
    "chern_text",
    "diamond_latex",
    "diamond_text",
    "trace_text",
]


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


def chern_text(report: ChernReport) -> str:
    if not isinstance(report, ChernReport):
        raise _wrong_type(ChernReport, report)
    return (
        f"chi^0 = {report.chi0}, chi^1 = {report.chi1}, "
        f"chi^2 = {report.chi2}\n"
        f"c2^3 = {report.c2_cubed}, c2*c4 = {report.c2_c4}, "
        f"c6 = {report.c6}"
    )


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
