"""Choose and check the table pairs of ``check``'s forget referee by mutation.

Run from the repository root as ``python tools/mutants.py [--out
MUTANTS.json] [--verify]``.  It needs nothing outside the standard library.

The sweep makes one small fault (a mutant) at a time in
``src/ihshodge/diamond.py`` and ``src/ihshodge/equivariant.py``: an integer
literal moved by one, or one operator swapped as ``REPLACE`` lists.  Each
mutant runs in a child interpreter on a temporary copy of the package.  The
child first runs ``check --suite all`` and reports the lines that fail.  Then
it runs the pool: the 200 table pairs that the referee of ``check`` drew
from seed 64001 before it took a fixed set.  It judges each pair alone with
the referee's own ``checks._forget_failures`` and reports the pairs that fail
or raise.  A crash or a timeout counts as a kill.

From the pool's kills it picks a greedy 2-cover: every mutant that some pair
exposes is exposed by two chosen pairs, or by all of its pairs if it has
fewer.  Ties go to the lowest pool index.  Then it adds pool pairs until the
set holds both powers, every degree of the pool, a powered table with an
empty V+ and one with an empty V-, and an exterior power of a piece smaller
than its index.  It prints the chosen pairs as the literal ``_REFEREE`` of
``ihshodge/checks.py``.

``--out`` writes the whole record as JSON: for each mutant its outcome, its
failing ``check`` lines as indices into ``lines``, and the pool pairs that
expose it as a hexadecimal mask, bit i for pair i.  ``--verify`` exits 1 when
the pool kills a mutant that the referee line of ``check`` does not; otherwise
the exit is 0, or 2 if the unmutated package already fails.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ihshodge"
TARGETS = ("diamond.py", "equivariant.py")
REFEREE_LINE = "equivariant: forgetting commutes on "
TIMEOUT_S = 30
MEMORY_LIMIT = 1 << 30  # bytes of address space for one child

# operator class -> its replacement; every entry is one mutant family
REPLACE = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOL = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Mod: "%",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.And: "and", ast.Or: "or",
}


# ---------------------------------------------------------------------------
# mutants


def mutants(source: str) -> list[dict]:
    """Every mutant of ``source``, in source order.

    Each is a dict with the ``line`` and ``col`` of the changed literal, or of
    the operand right of the changed operator, the ``change`` (``"7 -> 8"`` or
    ``"+ -> -"``) and the mutated ``source``.
    """
    tree = ast.parse(source)
    sites = []  # (located node, changed node, field, new value, change)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            for new in (node.value + 1, node.value - 1):
                sites.append((node, node, "value", new, f"{node.value} -> {new}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) \
                and type(node.op) in REPLACE:
            new = REPLACE[type(node.op)]
            right = node.values[1] if isinstance(node, ast.BoolOp) else \
                node.right if isinstance(node, ast.BinOp) else node.value
            sites.append((right, node, "op", new(),
                          f"{SYMBOL[type(node.op)]} -> {SYMBOL[new]}"))
        elif isinstance(node, ast.Compare):
            for i, (op, right) in enumerate(zip(node.ops, node.comparators)):
                if type(op) in REPLACE:
                    new = REPLACE[type(op)]
                    sites.append((right, node, "ops", [*node.ops[:i], new(), *node.ops[i + 1:]],
                                  f"{SYMBOL[type(op)]} -> {SYMBOL[new]}"))
    found = []
    for located, node, field, new, change in sites:
        old = getattr(node, field)
        setattr(node, field, new)
        found.append({"line": located.lineno, "col": located.col_offset, "change": change,
                      "source": ast.unparse(tree)})
        setattr(node, field, old)
    return sorted(found, key=lambda m: (m["line"], m["col"]))


# ---------------------------------------------------------------------------
# the pool: the referee's seeded draw, kept here after the referee dropped it


EVEN_DEGREES = ((0, 0), (2, 0), (1, 1), (0, 2), (2, 2), (3, 1), (1, 3))


def _random_table(rng: random.Random) -> dict:
    table = {}
    for degree in rng.sample(EVEN_DEGREES, rng.randint(1, 3)):
        plus = rng.randint(0, 8)
        minus = rng.randint(0, 8 - plus)
        table[degree] = (plus, minus)
    return table


def pool(seed: int = 64001, size: int = 200) -> list[tuple[int, dict, dict]]:
    """``(k, table_a, table_b)`` for each pair, drawn in the referee's old order."""
    rng = random.Random(seed)
    return [(2 + i % 2, _random_table(rng), _random_table(rng)) for i in range(size)]


# ---------------------------------------------------------------------------
# one child per mutant


_CHILD = f"""
import ast, json, sys
try:
    import resource
    resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT}, {MEMORY_LIMIT}))
except (ImportError, ValueError, OSError):
    pass
from ihshodge import checks
pairs = ast.literal_eval(sys.stdin.read())
print(json.dumps([[r.name, r.ok] for r in checks.run_suite("all")]), flush=True)
exposed = []
for i, pair in enumerate(pairs):
    try:
        failed = bool(checks._forget_failures([pair]))
    except Exception:
        failed = True
    if failed:
        exposed.append(i)
print(json.dumps(exposed), flush=True)
"""


def run(target: str | None, source: str | None, pairs_text: str,
        timeout: float = TIMEOUT_S) -> dict:
    """Run one mutant, or the unmutated package if ``target`` is None.

    ``lines`` holds ``[name, ok]`` for each line of ``check --suite all``,
    ``exposed`` the indices of the pool pairs that fail; either is None if the
    child crashed or timed out before it reported them.
    """
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp) / "ihshodge"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        if target is not None:
            (package / target).write_text(source, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            child = subprocess.run([sys.executable, "-c", _CHILD], input=pairs_text,
                                   capture_output=True, text=True, cwd=tmp, env=env,
                                   timeout=timeout)
            out, outcome = child.stdout, "crash" if child.returncode else "ran"
        except subprocess.TimeoutExpired as exc:
            out, outcome = exc.stdout or "", "timeout"
    if isinstance(out, bytes):
        out = out.decode("utf-8", "replace")
    reports = []
    for line in out.splitlines()[:2]:
        try:
            reports.append(json.loads(line))
        except json.JSONDecodeError:  # cut short by a timeout
            break
    reports += [None] * (2 - len(reports))
    return {"outcome": outcome, "lines": reports[0], "exposed": reports[1]}


def killed(result: dict) -> tuple[bool, bool, bool]:
    """Whether ``check``, its referee line and the pool kill a mutant."""
    lines, exposed = result["lines"], result["exposed"]
    failed = None if lines is None else [name for name, ok in lines if not ok]
    return (failed is None or bool(failed),
            failed is None or any(name.startswith(REFEREE_LINE) for name in failed),
            exposed is None or bool(exposed))


# ---------------------------------------------------------------------------
# choosing the pairs


def two_cover(exposures: list[set[int]]) -> list[int]:
    """Greedy pairs, in the order chosen, that expose each mutant twice.

    A mutant that fewer than two pairs expose needs all of them.  Each step
    takes the pair that meets the most open demand, the lowest index on a tie.
    """
    need = [min(2, len(pairs)) for pairs in exposures]
    chosen: list[int] = []
    while any(need):
        gain: dict[int, int] = {}
        for pairs, n in zip(exposures, need):
            for i in pairs if n else ():
                if i not in chosen:
                    gain[i] = gain.get(i, 0) + 1
        best = min(gain, key=lambda i: (-gain[i], i))
        chosen.append(best)
        need = [n - (n > 0 and best in pairs) for pairs, n in zip(exposures, need)]
    return chosen


def edge_features(k: int, a: dict, b: dict) -> set:
    """The edge cases one pair holds: its power and its degrees, and for the
    powered table an empty V+ beside a nonempty V-, the reverse, and an exterior
    power past the size of a piece."""
    features = {("k", k)}
    features |= {("degree", key) for table in (a, b)
                 for key, pair in table.items() if any(pair)}
    plus, minus = any(plus for plus, _ in a.values()), any(minus for _, minus in a.values())
    if minus and not plus:
        features.add("empty V+")
    if plus and not minus:
        features.add("empty V-")
    if any(0 < m < k for pair in a.values() for m in pair):
        features.add("Lambda^k with k > m")
    return features


def edge_pairs(pairs: list[tuple[int, dict, dict]], chosen: list[int]) -> list[int]:
    """Pool pairs that add the edge cases ``chosen`` lacks, greedily, lowest index on a tie."""
    wanted = set().union(*(edge_features(*pair) for pair in pairs))
    wanted -= set().union(*(edge_features(*pairs[i]) for i in chosen))
    added = []
    while wanted:
        best = min(range(len(pairs)),
                   key=lambda i: (-len(edge_features(*pairs[i]) & wanted), i))
        added.append(best)
        wanted -= edge_features(*pairs[best])
    return added


def referee_literal(pairs: list[tuple[int, dict, dict]], indices: list[int]) -> str:
    """The chosen pairs as the source of ``checks._REFEREE``."""
    lines = [f"    ({k}, {a!r},\n     {b!r}),  # pool pair {i}"
             for i in sorted(indices) for k, a, b in [pairs[i]]]
    return "_REFEREE = (\n" + "\n".join(lines) + "\n)"


# ---------------------------------------------------------------------------


def _mask(indices: list[int]) -> str:
    """Pool pair indices as a hexadecimal mask, bit i for pair i."""
    return format(sum(1 << i for i in indices), "x")


def sweep(workers: int) -> dict:
    """Run every mutant; the record names check lines by their index in ``lines``."""
    pairs = pool()
    pairs_text = repr(pairs)
    baseline = run(None, None, pairs_text)
    if baseline["lines"] is None or any(killed(baseline)):
        print(f"the unmutated package already fails: {baseline}", file=sys.stderr)
        sys.exit(2)
    names = [name for name, _ in baseline["lines"]]
    todo = [{"id": f"{target}:{m['line']}:{m['col']}:{m['change']}", "file": target, **m}
            for target in TARGETS
            for m in mutants((PACKAGE / target).read_text(encoding="utf-8"))]
    assert len({m["id"] for m in todo}) == len(todo), "two mutants share an id"
    with concurrent.futures.ThreadPoolExecutor(workers) as executor:
        results = list(executor.map(
            lambda m: run(m["file"], m["source"], pairs_text), todo))
    record = []
    for m, result in zip(todo, results):
        check, line, by_pool = killed(result)
        lines, exposed = result["lines"], result["exposed"]
        record.append({
            "id": m["id"], "outcome": result["outcome"],
            "check": check, "referee_line": line, "pool": by_pool,
            "failed": None if lines is None else [
                names.index(name) for name, ok in lines if not ok],
            "exposed": None if exposed is None else _mask(exposed),
        })
    cover = two_cover([set(result["exposed"]) for result in results if result["exposed"]])
    return {
        "sources": {target: hashlib.sha256((PACKAGE / target).read_bytes()).hexdigest()
                    for target in TARGETS},
        "pool": {"seed": 64001, "pairs": len(pairs)},
        "lines": names,
        "cover": cover,
        "edge": edge_pairs(pairs, cover),
        "mutants": record,
    }


def summary(record: dict) -> list[str]:
    found = record["mutants"]
    count = {key: sum(m[key] for m in found) for key in ("check", "referee_line", "pool")}
    outcomes = {o: sum(m["outcome"] == o for m in found) for o in ("crash", "timeout")}
    return [
        f"{len(found)} mutants of {', '.join(TARGETS)}: {count['check']} killed by "
        f"check, {count['referee_line']} on its referee line, {count['pool']} by the "
        f"pool ({outcomes['crash']} crashes, {outcomes['timeout']} timeouts)",
        f"2-cover {record['cover']}, edge pairs {record['edge']}",
    ]


def write(record: dict, path: Path) -> None:
    """One key, and one mutant, a line, so a later sweep diffs by mutant."""
    items = [f"{json.dumps(key)}: {json.dumps(value)}"
             for key, value in record.items() if key != "mutants"]
    items.append('"mutants": [\n' + ",\n".join(
        json.dumps(m, sort_keys=True) for m in record["mutants"]) + "\n]")
    path.write_text("{\n" + ",\n".join(items) + "\n}\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the record to this JSON file")
    parser.add_argument("--verify", action="store_true",
                        help="exit 1 if the pool kills a mutant the referee line misses")
    args = parser.parse_args(argv)
    record = sweep(min(4, os.cpu_count() or 1))
    print("\n".join(summary(record)))
    if args.out:
        write(record, args.out)
    lost = [m["id"] for m in record["mutants"] if m["pool"] and not m["referee_line"]]
    if args.verify:
        print("\n".join(f"kept by the referee line, killed by the pool: {m}" for m in lost)
              or "the referee line kills every mutant the pool kills")
        return 1 if lost else 0
    pairs = pool()
    print(referee_literal(pairs, record["cover"] + record["edge"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
