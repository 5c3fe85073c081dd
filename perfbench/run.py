"""Benchmark of ihshodge, end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload og6 --seed 1 --seconds 20 --trace 0

``--workload`` is one of og6, hilb, check, cold-cli, or ``all`` to run
each in turn in a child process and print every metric by name.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of a separate traced pass.  Lines that
start with ``#`` are for people; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter_ns

import oracles
import workloads
from tracer import CLASSES, FUNCTIONS, MODULE_BUCKETS, Tracer

SETUP_REPEATS = 7
PROBE_REPEATS = 5
MIN_SAMPLES = 110  # leaves at least ten samples above p90
MAX_EXTRA_S = 60
# Host speed reference: a fixed kernel of the benchmark's own integer code
# (Goettsche's Betti product for an abelian-like surface at n = 7), timed
# just before and just after every call and set-up.  On a shared host the speed of one
# core changes by up to 2x over minutes, with load from outside this
# process; each time is scaled by REFERENCE_NS / (the kernel's mean time
# around it), so that runs at different moments compare.
REFERENCE_BETTI, REFERENCE_N = [1, 2, 24, 2, 1], 7
REFERENCE_NS = 1_800_000  # the kernel's time on the tuning host when unloaded
# fail_rate is 0 when all is well, and a gated metric must never read 0;
# success_rate carries it instead.
UNGATED = ("fail_rate",)
SCALING = (("k3", workloads.K3, (5, 10, 15, 20)),
           ("abelian", workloads.ABELIAN, (5, 8)))
IMPORT_PROBE = ("import sys, time; before = set(sys.modules); "
                "t = time.perf_counter_ns(); import ihshodge.cli; "
                "print(time.perf_counter_ns() - t, len(set(sys.modules) - before))")


def reference_ns() -> int:
    start = perf_counter_ns()
    oracles.goettsche_betti(REFERENCE_BETTI, REFERENCE_N)
    return perf_counter_ns() - start


class Tally:
    """Attempted and failed calls; the first few problems are kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, item, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{item!r:.80}: {problems[0]}")

    def call(self, workload, item, invoke=None) -> int:
        """One timed call, then its oracle; returns the call's ns."""
        elapsed, result = (invoke or workload.invoke)(item)
        self.record(item, workload.verify(item, result))
        return elapsed


class Passes:
    """Seeded passes of inputs, generated on first use and then kept."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.used: set = set()
        self.items: list[list] = []

    def __getitem__(self, i: int) -> list:
        while len(self.items) <= i:
            self.items.append(self.workload.new_pass(self.rng, self.used))
        return self.items[i]


def run_passes(workload, passes, tally, seconds, invoke=None, min_samples=0):
    """Closed loop over whole passes until ``seconds`` have elapsed.

    Returns the per-call latencies in ns, the mean time of the reference
    kernel just before and just after each call, and the number of passes.
    """
    latencies: list[int] = []
    references: list[int] = []
    start = perf_counter_ns()
    count = 0
    while True:
        elapsed_s = (perf_counter_ns() - start) / 1e9
        if count and elapsed_s >= seconds and (
                len(latencies) >= min_samples or elapsed_s >= seconds + MAX_EXTRA_S):
            return latencies, references, count
        for item in passes[count]:
            before = reference_ns()
            latencies.append(tally.call(workload, item, invoke))
            references.append((before + reference_ns()) / 2)
        count += 1


def peak_kib(workload, items, tally) -> float:
    """Largest tracemalloc peak of one call beyond what it held before the call."""
    tracemalloc.start()
    try:
        peak = 0
        for item in items:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, result = workload.invoke(item)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
            tally.record(item, workload.verify(item, result))
    finally:
        tracemalloc.stop()
    return peak / 1024


def child_json(argv: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=workloads.child_env(), cwd=workloads.ROOT,
                          timeout=workloads.CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds(name: str, seed: int, tally: Tally) -> float:
    """Median set-up time of fresh interpreters at the reference speed.

    The first interpreter only warms the bytecode cache.
    """
    script = str(workloads.ROOT / "perfbench" / "setup_child.py")
    times = []
    for i in range(SETUP_REPEATS + 1):
        before = reference_ns()
        report = child_json([script, name, str(seed)])
        reference = (before + reference_ns()) / 2
        tally.record(f"{name} set-up", report["problems"])
        if i:
            times.append(report["setup_ns"] * REFERENCE_NS / reference / 1e9)
    return statistics.median(times)


def wall_ms(argv: list[str]) -> float:
    start = perf_counter_ns()
    subprocess.run([sys.executable, *argv], check=True, stdout=subprocess.DEVNULL,
                   env=workloads.child_env(), cwd=workloads.ROOT,
                   timeout=workloads.CHILD_TIMEOUT_S)
    return (perf_counter_ns() - start) / 1e6


def import_metrics() -> dict:
    wall_ms(["-c", "pass"])
    floor = statistics.median(wall_ms(["-c", "pass"]) for _ in range(PROBE_REPEATS))
    probes = []
    for _ in range(PROBE_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                             capture_output=True, text=True, env=workloads.child_env(),
                             cwd=workloads.ROOT, timeout=workloads.CHILD_TIMEOUT_S).stdout
        probes.append([int(v) for v in out.split()])
    return {
        "import.floor_ms": (floor, "ms"),
        "import.ihshodge_ms": (statistics.median(ns for ns, _ in probes) / 1e6, "ms"),
        "import.modules": (max(m for _, m in probes), "count"),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(workload, passes, tally, seed: int, seconds: float) -> tuple[dict, dict]:
    """Set-up, the timed loop and the memory pass; times at the reference speed."""
    setup = setup_seconds(workload.name, seed, tally)
    latencies, references, count = run_passes(workload, passes, tally, seconds,
                                              min_samples=MIN_SAMPLES)
    scaled = [ns * REFERENCE_NS / ref for ns, ref in zip(latencies, references)]
    if workload.in_process:
        peak = peak_kib(workload, passes[0] + passes[1], tally)
    else:
        peak = workload.max_rss_kib
    p90 = statistics.quantiles(scaled, n=10)[-1]
    metrics = {
        "latency_ms.p50": (statistics.median(scaled) / 1e6, "ms"),
        "latency_ms.p90": (p90 / 1e6, "ms"),
        "throughput_per_s": (len(scaled) / (sum(scaled) / 1e9), "1/s"),
        "setup_s": (setup, "s"),
        "peak_kib": (peak, "KiB"),
        "success_rate": (1 - tally.failed / tally.attempted, "ratio"),
        "fail_rate": (tally.failed / tally.attempted, "ratio"),
    }
    unscaled = {
        "latency_ms.p50": statistics.median(latencies) / 1e6,
        "latency_ms.p90": statistics.quantiles(latencies, n=10)[-1] / 1e6,
        "throughput_per_s": len(latencies) / (sum(latencies) / 1e9),
    }
    return metrics, {"samples": len(scaled), "passes": count,
                     "above_p90": sum(1 for v in scaled if v > p90),
                     "host_slowdown": statistics.median(references) / REFERENCE_NS,
                     "unscaled": unscaled}


def per_layer(workload, passes, tally, seconds: float) -> tuple[dict, dict]:
    """Each pass untraced and then traced, alternating; then single scaling calls."""
    metrics = import_metrics()
    invoke = workload.invoke if workload.in_process else workload.invoke_in_process
    tracer = Tracer()
    untraced: list[int] = []
    traced: list[int] = []
    start = perf_counter_ns()
    count = 0
    while not count or (perf_counter_ns() - start) / 1e9 < seconds / 2:
        untraced += [tally.call(workload, item, invoke) for item in passes[count]]
        with tracer:
            traced += [tally.call(workload, item, invoke) for item in passes[count]]
        count += 1
    calls = len(traced)
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")
    metrics["trace.absent"] = (len(tracer.absent), "count")

    buckets = [(b, "calls", "self_ms") for _, _, b in FUNCTIONS]
    buckets += [(b, "calls", "self_ms") for _, b in MODULE_BUCKETS]
    buckets += [(b, "constructed", "init_ms") for _, _, b in CLASSES]
    for bucket, count_name, time_name in dict.fromkeys(buckets):
        stat = tracer.stats.get(bucket)
        metrics[f"{bucket}.{count_name}"] = (stat.calls / calls if stat else 0.0, "count/call")
        metrics[f"{bucket}.{time_name}"] = (stat.self_ns / calls / 1e6 if stat else 0.0, "ms/call")
    pairs = tracer.series_pairs
    metrics["goettsche.series_mul.pairs"] = (pairs / calls, "count/call")
    metrics["goettsche.series_mul.kept_ratio"] = (
        tracer.series_terms / pairs if pairs else 0.0, "ratio")
    metrics["goettsche.max_coeff_bits"] = (tracer.max_coeff_bits, "bits")

    hilb = workloads.Hilb()
    for surface, table, sizes in SCALING:
        for n in sizes:
            elapsed = tally.call(hilb, hilb.item(n, table))
            metrics[f"goettsche.{surface}_n{n}_ms"] = (elapsed / 1e6, "ms")
    return metrics, {"traced_calls": calls, "absent": tracer.absent}


# ---------------------------------------------------------------------------
# driver


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import ihshodge.cli  # noqa: F401

    # One core for this process and its children, so that the reference
    # kernel runs on the core that the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = workloads.WORKLOADS[name]()
    workload.prepare()
    tally = Tally()
    tally.call(workload, workload.warmup_item())
    passes = Passes(workload, seed)
    if trace:
        metrics, extra = per_layer(workload, passes, tally, seconds)
    else:
        metrics, extra = end_to_end(workload, passes, tally, seed, seconds)
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "attempted": tally.attempted, "failed": tally.failed,
            "fail_rate": tally.failed / tally.attempted, **extra}
    print("# meta " + json.dumps(meta))
    for problem in tally.problems:
        print(f"# FAIL {problem}")
    for key, (value, unit) in metrics.items():
        print(f"# {name} {key} = {value:.6g} {unit}" + (" (not gated)" if key in UNGATED else ""))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                        if k not in UNGATED}}


def run_all(args) -> dict:
    """Each workload in its own child process; metric names gain a prefix."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr[-400:]}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        child = json.loads(lines[-1])
        result["correct"] &= child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        for key, value in child["metrics"].items():
            result["metrics"][f"{name}.{key}"] = value
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "ihshodge" / "__init__.py").is_file():
        print(f"error: no ihshodge sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    import ihshodge

    if not Path(ihshodge.__file__).resolve().is_relative_to(workloads.SRC.resolve()):
        print(f"error: ihshodge was imported from {ihshodge.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
