"""The benchmark's workloads: seeded inputs, one timed call, its verdict.

A workload yields its inputs one pass at a time.  ``invoke`` makes one
call through a public entry point of the library and times only that
call; ``verify`` then checks the result with the oracles of
:mod:`oracles`, outside the timed span.  ``invoke`` never raises: a
failing call comes back as a result that ``verify`` rejects.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter_ns

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

OG6_ARGV = (("og6",), ("og6", "--trace"), ("og6", "--format", "json", "--trace"),
            ("og6", "--format", "latex"))
# Calls of each variant per pass.  No subset of the counts sums to half or
# nine tenths of the pass, so p50 and p90 never fall on the edge between
# two variants' latency clusters.
OG6_COUNTS = (8, 5, 4, 3)
CHECK_ARGV = ("check", "--suite", "all")
COLD_ARGV = (("og6",), ("og6", "--format", "json", "--trace"),
             ("hilb", "--n", "3", "--surface", "k3"), ("check", "--suite", "duality"))
HILB_N = range(4, 10)
# (q > 0, pg > 0): 3, 5, 7 or 9 nonzero entries in the surface table
HILB_SHAPES = ((False, False), (False, True), (True, False), (True, True))
CHILD_TIMEOUT_S = 60

K3 = {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1}
ABELIAN = {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (1, 1): 4, (0, 2): 1,
           (2, 1): 2, (1, 2): 2, (2, 2): 1}


def surface_table(q: int, pg: int, h11: int) -> dict[tuple[int, int], int]:
    """A surface-shaped table: h00 = h22 = 1, irregularity q, genus pg."""
    table = {(0, 0): 1, (1, 1): h11, (2, 2): 1}
    if q:
        table.update({(1, 0): q, (0, 1): q, (2, 1): q, (1, 2): q})
    if pg:
        table.update({(2, 0): pg, (0, 2): pg})
    return table


def output_format(argv) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def run_cli(argv) -> tuple[int, tuple]:
    """Time one in-process ``ihshodge.cli.main`` call with stdout captured."""
    import ihshodge.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = perf_counter_ns()
        try:
            rc = ihshodge.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - a failed call, not a crash
            rc = repr(exc)
        elapsed = perf_counter_ns() - start
    return elapsed, (rc, buf.getvalue())


class Og6:
    """``og6`` argv variants through ``cli.main``; every call repeats one derivation."""

    name = "og6"
    in_process = True

    def __init__(self):
        self.reference: dict[tuple, str] = {}

    def prepare(self) -> None:
        pass

    def warmup_item(self):
        return OG6_ARGV[0]

    def new_pass(self, rng, used) -> list:
        items = [argv for argv, count in zip(OG6_ARGV, OG6_COUNTS) for _ in range(count)]
        rng.shuffle(items)
        return items

    def invoke(self, argv):
        return run_cli(argv)

    def verify(self, argv, result) -> list[str]:
        rc, out = result
        if rc != 0:
            return [f"exit code {rc}"]
        reference = self.reference.get(argv)
        if reference is not None:
            return [] if out == reference else [f"{argv} output changed between calls"]
        problems = oracles.og6_output_problems(out, output_format(argv))
        if not problems:
            self.reference[argv] = out
        return problems


class Check(Og6):
    """``check --suite all``: hundreds of tiny tables; the seed has no effect."""

    name = "check"

    def warmup_item(self):
        return CHECK_ARGV

    def new_pass(self, rng, used) -> list:
        return [CHECK_ARGV]

    def verify(self, argv, result) -> list[str]:
        return oracles.check_output_problems(*result)


class Hilb:
    """``hilbert_scheme_diamond`` on seeded surface tables; inputs rarely repeat."""

    name = "hilb"
    in_process = True

    def __init__(self):
        self.passes_made = 0

    def prepare(self) -> None:
        pass

    @staticmethod
    def item(n: int, table: dict):
        from ihshodge import HodgeDiamond

        return n, table, HodgeDiamond(table, complex_dimension=2)

    def warmup_item(self):
        return self.item(HILB_N[0], K3)

    def new_pass(self, rng, used) -> list:
        """One table per (n, shape) cell, drawn without repeats where possible.

        A nonzero q alternates between 1 and 2 over n and over passes, so
        every run has the same mix; q is the one drawn value that moves the
        cost of a call, and p50 falls between two cells with q > 0 and
        q = 0.  pg and h11 are drawn.
        """
        keys = []
        for n in HILB_N:
            q = 1 + (n + self.passes_made) % 2
            for has_q, has_pg in HILB_SHAPES:
                for _ in range(100):
                    key = (n, q if has_q else 0, rng.randint(1, 4) if has_pg else 0,
                           rng.randint(1, 50))
                    if key not in used:
                        break
                used.add(key)
                keys.append(key)
        self.passes_made += 1
        rng.shuffle(keys)
        return [self.item(n, surface_table(q, pg, h11)) for n, q, pg, h11 in keys]

    def invoke(self, item):
        from ihshodge import hilbert_scheme_diamond

        n, _, surface = item
        start = perf_counter_ns()
        try:
            result = hilbert_scheme_diamond(surface, n, max_n=n)
        except Exception as exc:  # noqa: BLE001 - a failed call, not a crash
            result = exc
        return perf_counter_ns() - start, result

    def verify(self, item, result) -> list[str]:
        n, table, _ = item
        if isinstance(result, Exception):
            return [f"raised {result!r}"]
        entries = {(p, q): v for p, q, v in result.items()}
        return oracles.check_hilb(table, n, entries, result.complex_dimension)


class ColdCli:
    """Fresh ``python -m ihshodge`` children, one at a time."""

    name = "cold-cli"
    in_process = False

    def __init__(self):
        self.reference: dict[tuple, bytes] = {}
        self.max_rss_kib = 0

    def prepare(self) -> None:
        """In-process reference outputs, each checked by its own oracle."""
        for argv in COLD_ARGV:
            _, (rc, out) = run_cli(argv)
            if argv[0] == "og6":
                problems = oracles.og6_output_problems(out, output_format(argv))
            elif argv[0] == "hilb":
                problems = oracles.hilb_text_problems(out, K3, int(argv[2]))
            else:
                problems = oracles.check_output_problems(rc, out)
            if rc != 0 or problems:
                raise RuntimeError(f"reference output of {argv} is wrong: {problems}")
            self.reference[argv] = out.encode()

    def warmup_item(self):
        return COLD_ARGV[0]

    def new_pass(self, rng, used) -> list:
        items = list(COLD_ARGV)
        rng.shuffle(items)
        return items

    def invoke(self, argv):
        """Wall time from spawn to reaping; the child's max RSS comes from wait4."""
        start = perf_counter_ns()
        proc = subprocess.Popen([sys.executable, "-m", "ihshodge", *argv],
                                stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter_ns() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kib = max(self.max_rss_kib, usage.ru_maxrss)
        return elapsed, (proc.returncode, out)

    def invoke_in_process(self, argv):
        """The same command through ``cli.main``, for the traced pass."""
        elapsed, (rc, out) = run_cli(argv)
        return elapsed, (rc, out.encode())

    def verify(self, argv, result) -> list[str]:
        rc, out = result
        if rc != 0:
            return [f"exit code {rc}"]
        return [] if out == self.reference[argv] else [f"{argv} differs from in-process output"]


WORKLOADS = {cls.name: cls for cls in (Og6, Hilb, Check, ColdCli)}
