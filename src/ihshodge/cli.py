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
* ``check``: run a named invariant suite and report each check in the
  line format of :mod:`ihshodge.render`.

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
import os
import sys

from .checks import SUITE_NAMES, run_suite
from .diamond import ConsistencyError
from .goettsche import hilbert_scheme_diamond, surface_diamond
from .pipeline import PipelineResult, run_full_pipeline
from .render import check_report, hilb_report, og6_report

__all__ = ["main"]


@functools.lru_cache(maxsize=32)
def _parse(argv: tuple[str, ...]) -> argparse.Namespace:
    """The parse of one command line, shared by its calls: nothing writes to it.

    A usage error or ``--help`` exits inside the call, so it is never stored.
    """
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
    return parser.parse_args(argv)


# (format, trace) -> (result, report): the og6 report last rendered, and the
# result it was rendered from.  A hit needs that very result object, so a
# new derivation, or a replaced run_full_pipeline, is rendered afresh.
_og6_reports: dict[tuple[str, bool], tuple[PipelineResult, str]] = {}


def _cmd_og6(args: argparse.Namespace) -> int:
    result = run_full_pipeline()
    key = (args.format, args.trace)
    rendered_from, report = _og6_reports.get(key, (None, ""))
    if rendered_from is not result:
        report = og6_report(result, *key)
        _og6_reports[key] = (result, report)
    print(report)
    return 0


def _cmd_hilb(args: argparse.Namespace) -> int:
    diamond = hilbert_scheme_diamond(surface_diamond(args.surface), args.n)
    print(hilb_report(args.surface, args.n, diamond, args.format))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    print(check_report(results))
    return 0 if all(result.ok for result in results) else 1


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
