"""Output oracles that do not use the library under test.

Every oracle returns a list of problems; an empty list means the output
is correct.  Diamonds are plain dicts ``(p, q) -> h^{p,q}`` with zero
entries omitted, parsed from the command line output or read from a
returned table through its public ``items()``.
"""

from __future__ import annotations

import json
import math
import re

OG6_BETTI = (1, 0, 8, 0, 199, 0, 1504, 0, 199, 0, 8, 0, 1)
OG6_H33 = 1144
OG6_CHERN = {"c2_cubed": 30720, "c2_c4": 7680, "c6": 1920}

_INT = re.compile(r"-?\d+")
_CHERN_LINE = re.compile(r"c2\^3 = (-?\d+), c2\*c4 = (-?\d+), c6 = (-?\d+)")
_LATEX_CELL = re.compile(r"H\^\{(\d+),(\d+)\}=(-?\d+)")
_CHECK_TOTAL = re.compile(r"(\d+)/(\d+) checks passed")


# ---------------------------------------------------------------------------
# plain integer series, independent of the library's series engine


def _power_coeff(exponent: int, j: int) -> int:
    """Coefficient of u^j in (1 - u)^(-exponent), for any integer exponent."""
    if exponent >= 0:
        return math.comb(exponent + j - 1, j) if j else 1
    return (-1) ** j * math.comb(-exponent, j)


def euler_number_series(chi_surface: int, n: int) -> int:
    """Coefficient of t^n in prod_{k>=1} (1 - t^k)^(-chi_surface)."""
    series = [1] + [0] * n
    for k in range(1, n + 1):
        factor = [_power_coeff(chi_surface, j) for j in range(n // k + 1)]
        out = [0] * (n + 1)
        for m, c in enumerate(series):
            if c:
                for j, f in enumerate(factor):
                    if m + j * k > n:
                        break
                    out[m + j * k] += c * f
        series = out
    return series[n]


def goettsche_betti(surface_betti: list[int], n: int) -> list[int]:
    """Betti numbers of S^[n] from Goettsche's one-variable product.

    sum_n P(S^[n], z) t^n = prod_{k>=1} prod_{i=0}^{4}
        (1 - (-1)^i z^{2k-2+i} t^k)^(-(-1)^i b_i(S))
    """
    width = 4 * n + 1
    series = [[0] * width for _ in range(n + 1)]
    series[0][0] = 1
    for k in range(1, n + 1):
        for i, b in enumerate(surface_betti):
            if not b:
                continue
            shift_z = 2 * k - 2 + i
            # (1 - z^d t^k)^(-b) for even i, (1 + z^d t^k)^(+b) for odd i
            coeffs = [_power_coeff(b, j) if i % 2 == 0 else math.comb(b, j)
                      for j in range(n // k + 1)]
            out = [[0] * width for _ in range(n + 1)]
            for m in range(n + 1):
                for z, c in enumerate(series[m]):
                    if not c:
                        continue
                    for j, f in enumerate(coeffs):
                        mm, zz = m + j * k, z + j * shift_z
                        if mm > n or zz >= width:
                            break
                        out[mm][zz] += c * f
            series = out
    return series[n]


# ---------------------------------------------------------------------------
# structural checks shared by the diamond oracles


def betti_row(table: dict[tuple[int, int], int], dim: int) -> list[int]:
    row = [0] * (2 * dim + 1)
    for (p, q), v in table.items():
        row[p + q] += v
    return row


def diamond_problems(table: dict[tuple[int, int], int], dim: int) -> list[str]:
    """Range, sign, Hodge symmetry and Serre duality of a dim-fold table."""
    problems = []
    for (p, q), v in table.items():
        if not (0 <= p <= dim and 0 <= q <= dim):
            problems.append(f"entry ({p},{q}) outside a {dim}-fold")
        if v < 0:
            problems.append(f"negative entry {v} at ({p},{q})")
    for (p, q), v in table.items():
        if table.get((q, p), 0) != v:
            problems.append(f"Hodge symmetry fails at ({p},{q})")
        if table.get((dim - p, dim - q), 0) != v:
            problems.append(f"Serre duality fails at ({p},{q})")
    return problems


# ---------------------------------------------------------------------------
# og6


def check_og6(table: dict[tuple[int, int], int], printed_betti: list[int],
              chern: dict[str, int]) -> list[str]:
    """h(3,3), the Betti row (printed and recomputed), and the Chern numbers."""
    problems = diamond_problems(table, 6)
    if table.get((3, 3), 0) != OG6_H33:
        problems.append(f"h(3,3) = {table.get((3, 3), 0)}, expected {OG6_H33}")
    row = tuple(betti_row(table, 6))
    if row != OG6_BETTI:
        problems.append(f"Betti row of the diamond is {row}")
    if tuple(printed_betti) != OG6_BETTI:
        problems.append(f"printed Betti row is {tuple(printed_betti)}")
    if chern != OG6_CHERN:
        problems.append(f"Chern numbers {chern}, expected {OG6_CHERN}")
    euler = sum((-1) ** i * b for i, b in enumerate(row))
    if euler != OG6_CHERN["c6"]:
        problems.append(f"Euler number {euler} differs from c6")
    return problems


def parse_diamond_text(lines: list[str], dim: int) -> dict[tuple[int, int], int]:
    """Read the centred triangle, one weight per row, p descending."""
    if len(lines) != 2 * dim + 1:
        raise ValueError(f"expected {2 * dim + 1} diamond rows, got {len(lines)}")
    table = {}
    for weight, line in enumerate(lines):
        values = [int(v) for v in _INT.findall(line)]
        cells = [(p, weight - p)
                 for p in range(min(weight, dim), max(0, weight - dim) - 1, -1)]
        if len(values) != len(cells):
            raise ValueError(f"row {weight} has {len(values)} cells")
        for cell, v in zip(cells, values):
            if v:
                table[cell] = v
    return table


def parse_og6(output: str, fmt: str):
    """Diamond, printed Betti row and Chern numbers of one ``og6`` output."""
    if fmt == "json":
        payload = json.loads(output)
        table = {(p, q): v for p, q, v in payload["diamond"]["entries"] if v}
        chern = {k: payload["chern"][k] for k in OG6_CHERN}
        return table, payload["betti"]["b"], chern
    lines = output.splitlines()
    if fmt == "latex":
        table = {(int(p), int(q)): int(v)
                 for p, q, v in _LATEX_CELL.findall(output) if int(v)}
        betti_line = next(line for line in lines if line.startswith("% Betti numbers:"))
    else:
        if lines[0] != "OG6 Hodge diamond (complex dimension 6):":
            raise ValueError(f"unexpected header {lines[0]!r}")
        table = parse_diamond_text(lines[1:14], 6)
        betti_line = next(line for line in lines if line.startswith("Betti numbers:"))
    match = _CHERN_LINE.search(output)
    if match is None:
        raise ValueError("no Chern number line")
    chern = dict(zip(OG6_CHERN, (int(v) for v in match.groups())))
    return table, [int(v) for v in _INT.findall(betti_line)], chern


def og6_output_problems(output: str, fmt: str) -> list[str]:
    try:
        return check_og6(*parse_og6(output, fmt))
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        return [f"unparsable og6 output: {exc!r}"]


# ---------------------------------------------------------------------------
# hilb


def check_hilb(surface: dict[tuple[int, int], int], n: int,
               table: dict[tuple[int, int], int], dim: int | None) -> list[str]:
    """Euler number, Goettsche's Betti numbers, symmetry and duality of S^[n]."""
    if dim != 2 * n:
        return [f"complex dimension {dim}, expected {2 * n}"]
    problems = diamond_problems(table, dim)
    chi_surface = sum((-1) ** (p + q) * v for (p, q), v in surface.items())
    row = betti_row(table, dim)
    euler = sum((-1) ** i * b for i, b in enumerate(row))
    expected_euler = euler_number_series(chi_surface, n)
    if euler != expected_euler:
        problems.append(f"Euler number {euler}, expected {expected_euler}")
    expected_row = goettsche_betti(betti_row(surface, 2), n)
    if row != expected_row:
        problems.append(f"Betti row {row}, expected {expected_row}")
    return problems


def hilb_text_problems(output: str, surface: dict[tuple[int, int], int],
                       n: int) -> list[str]:
    """Check the text output of ``hilb``, including its printed Betti row."""
    try:
        lines = output.splitlines()
        table = parse_diamond_text(lines[1:4 * n + 2], 2 * n)
        printed = [int(v) for v in _INT.findall(lines[4 * n + 3].split(":")[1])]
    except (ValueError, IndexError) as exc:
        return [f"unparsable hilb output: {exc!r}"]
    problems = check_hilb(surface, n, table, 2 * n)
    if printed != betti_row(table, 2 * n):
        problems.append(f"printed Betti row {printed} disagrees with the diamond")
    return problems


# ---------------------------------------------------------------------------
# check


def check_output_problems(returncode, output: str) -> list[str]:
    """Exit code 0, an ``N/N checks passed`` last line and N ``ok`` lines."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    lines = output.splitlines()
    match = _CHECK_TOTAL.fullmatch(lines[-1]) if lines else None
    if match is None:
        return problems + ["no 'N/N checks passed' last line"]
    passed, total = int(match.group(1)), int(match.group(2))
    ok_lines = sum(1 for line in lines if line.startswith("ok   "))
    if not (0 < passed == total == ok_lines == len(lines) - 1):
        problems.append(f"{passed}/{total} passed with {ok_lines} ok lines")
    return problems
