"""Command line front end.

Three subcommands:

* ``og6``: run the full OG6 derivation and print the diamond, the Betti
  numbers and the Chern numbers (``--trace`` adds the audit trail).
* ``hilb``: print the diamond of the Hilbert scheme of n points on a K3
  or abelian surface.  n is limited to 30, the one limit
  :data:`~ihshodge.goettsche.DEFAULT_MAX_N`, which keeps every request
  within a couple of seconds; a larger n exits 2.
* ``check``: run a named invariant suite and report each check.

Exit codes: 0 on success, 1 when an internal invariant is violated
(including failing checks), 2 on bad input.  Output on stdout is UTF-8
and byte deterministic for a fixed command line; diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .checks import SUITE_NAMES, run_suite
from .diamond import ConsistencyError, betti, euler_characteristic
from .goettsche import hilbert_scheme_diamond, surface_diamond
from .pipeline import run_full_pipeline
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


def _cmd_og6(args: argparse.Namespace) -> int:
    result = run_full_pipeline()
    if args.format == "json":
        payload = {
            "diamond": result.diamond.to_json_dict(),
            "betti": {"n": result.betti_numbers.n,
                      "b": list(result.betti_numbers.b)},
            "chern": result.chern.to_json_dict(),
        }
        if args.trace:
            payload["trace"] = [step.to_json_dict() for step in result.trace]
        print(json.dumps(payload, sort_keys=True))
        return 0
    if args.format == "latex":
        print(diamond_latex(result.diamond))
        print(f"% {betti_text(result.betti_numbers)}")
        for line in chern_text(result.chern).splitlines():
            print(f"% {line}")
        if args.trace:
            for line in trace_text(result.trace).splitlines():
                print(f"% {line}")
        return 0
    print("OG6 Hodge diamond (complex dimension 6):")
    print(diamond_text(result.diamond))
    print()
    print(betti_text(result.betti_numbers))
    print(f"Euler characteristic: {euler_characteristic(result.diamond)}")
    print(chern_text(result.chern))
    if args.trace:
        print()
        print(trace_text(result.trace))
    return 0


def _cmd_hilb(args: argparse.Namespace) -> int:
    diamond = hilbert_scheme_diamond(surface_diamond(args.surface), args.n)
    if args.format == "json":
        print(diamond.to_json())
        return 0
    if args.format == "latex":
        print(diamond_latex(diamond))
        return 0
    print(f"{args.surface}^[{args.n}] Hodge diamond "
          f"(complex dimension {diamond.complex_dimension}):")
    print(diamond_text(diamond))
    print()
    print(betti_text(betti(diamond)))
    print(f"Euler characteristic: {euler_characteristic(diamond)}")
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
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "og6":
            return _cmd_og6(args)
        if args.command == "hilb":
            return _cmd_hilb(args)
        return _cmd_check(args)
    except ConsistencyError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
