"""Command line front end.

Three subcommands:

* ``og6``: run the full OG6 derivation and print the diamond, the Betti
  numbers and the Chern numbers (``--trace`` adds the audit trail).
* ``hilb``: print the diamond of the Hilbert scheme of n points on a K3
  or abelian surface.  n is limited to 30, the one limit on n
  :data:`~ihshodge.goettsche.DEFAULT_MAX_N`; a larger n exits 2.  The
  library also rejects, before any work, a surface and n whose packed
  slice (digit width times cells) exceeds
  :data:`~ihshodge.goettsche.MAX_PACKED_BITS` = 2^20 bits; K3^[30]
  packs 133,992 and abelian^[30] 238,144.
* ``check``: run a named invariant suite and report each check, as
  ``ok   <name>``, ``FAIL <name>: got <computed!r>, expected
  <expected!r>`` or, when computing the value raised, ``FAIL <name>:
  raised <Type>: <message>``; then ``k/m checks passed``.

Exit codes: 0 on success, 1 when an internal invariant is violated
(including failing checks), 2 on bad input, 141 when the reader of
stdout has closed it (the status of a SIGPIPE).  Output on stdout is UTF-8
and byte deterministic for a fixed command line; diagnostics go to
stderr.

The CLI renders each ``og6`` report once per derivation result and
output format, and parses each command line once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .checks import SUITE_NAMES, run_suite
from .diamond import BettiVector, ConsistencyError, HodgeDiamond, betti, euler_characteristic
from .goettsche import hilbert_scheme_diamond, surface_diamond
from .pipeline import PipelineResult, run_full_pipeline
from .render import betti_text, chern_text, diamond_latex, diamond_text, trace_text

__all__ = ["main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="ihshodge",
        description="Exact Hodge diamonds of hyperkaehler manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    og6 = sub.add_parser("og6", help="derive the OG6 Hodge diamond")
    og6.add_argument("--format", choices=("text", "json", "latex"),
                     default="text")
    og6.add_argument("--trace", action="store_true",
                     help="include the stage-by-stage audit trail")

    hilb = sub.add_parser("hilb", help="Hilbert scheme of points on a surface")
    hilb.add_argument("--n", type=int, required=True,
                      help="number of points")
    hilb.add_argument("--surface", choices=("k3", "abelian"), default="k3")
    hilb.add_argument("--format", choices=("text", "json", "latex"),
                      default="text")

    check = sub.add_parser("check", help="run an invariant suite")
    check.add_argument("--suite", choices=("all", *SUITE_NAMES),
                       default="all")
    return parser


@functools.lru_cache(maxsize=32)
def _parse(argv: tuple[str, ...]) -> argparse.Namespace:
    """The parse of one command line, shared by its calls: nothing writes to it.

    A usage error or ``--help`` exits inside the call, so it is never stored.
    """
    return _build_parser().parse_args(argv)


def _text_report(title: str, diamond: HodgeDiamond, betti_numbers: BettiVector) -> str:
    """The text report both diamond commands share, up to the Euler line."""
    return (f"{title}\n{diamond_text(diamond)}\n\n{betti_text(betti_numbers)}\n"
            f"Euler characteristic: {euler_characteristic(diamond)}")


def _og6_report(result: PipelineResult, fmt: str, trace: bool) -> str:
    """The whole ``og6`` stdout for ``result`` in ``fmt``, less its final newline."""
    if fmt == "json":
        payload = {
            "diamond": result.diamond.to_json_dict(),
            "betti": {"n": result.betti_numbers.n,
                      "b": list(result.betti_numbers.b)},
            "chern": result.chern.to_json_dict(),
        }
        if trace:
            payload["trace"] = [step.to_json_dict() for step in result.trace]
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


# (format, trace) -> (result, report): the og6 report last rendered, and the
# result it was rendered from.  A hit needs that very result object, so a
# new derivation, or a replaced run_full_pipeline, is rendered afresh.
_og6_reports: dict[tuple[str, bool], tuple[PipelineResult, str]] = {}


def _cmd_og6(args: argparse.Namespace) -> int:
    result = run_full_pipeline()
    key = (args.format, args.trace)
    rendered_from, report = _og6_reports.get(key, (None, ""))
    if rendered_from is not result:
        report = _og6_report(result, *key)
        _og6_reports[key] = (result, report)
    print(report)
    return 0


def _cmd_hilb(args: argparse.Namespace) -> int:
    diamond = hilbert_scheme_diamond(surface_diamond(args.surface), args.n)
    if args.format == "json":
        print(json.dumps(diamond.to_json_dict(), sort_keys=True))
        return 0
    if args.format == "latex":
        print(diamond_latex(diamond))
        return 0
    print(_text_report(f"{args.surface}^[{args.n}] Hodge diamond "
                       f"(complex dimension {diamond.complex_dimension}):",
                       diamond, betti(diamond)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    failed = [r for r in results if not r.ok]
    for result in results:
        if result.ok:
            print(f"ok   {result.name}")
        else:
            print(f"FAIL {result.name}: {result.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(tuple(sys.argv[1:] if argv is None else argv))
    try:
        run = {"og6": _cmd_og6, "hilb": _cmd_hilb, "check": _cmd_check}[args.command]
        status = run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader is gone: the flush at interpreter exit goes to devnull
        fd = os.open(os.devnull, os.O_WRONLY)
        os.dup2(fd, sys.stdout.fileno())
        os.close(fd)
        return 141
    except ConsistencyError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
