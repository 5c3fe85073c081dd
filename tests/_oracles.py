"""Reference values and brute-force oracles, independent of the package.

OG6's Hodge numbers and Betti row are written here once, as the paper
states them; the golden files pin the derivation stages.  Everything
else enumerates explicit monomials in explicit basis vectors, so it is
exponentially slower than the closed-form package code but trivially
correct.  The test modules compare the two.  ``random_eq_entries``
draws the seeded eigenspace tables that several test modules share.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, product
from math import comb

Bidegree = tuple[int, int]

OG6_ENTRIES = {
    (0, 0): 1,
    (2, 0): 1, (1, 1): 6, (0, 2): 1,
    (4, 0): 1, (3, 1): 12, (2, 2): 173, (1, 3): 12, (0, 4): 1,
    (6, 0): 1, (5, 1): 6, (4, 2): 173, (3, 3): 1144, (2, 4): 173,
    (1, 5): 6, (0, 6): 1,
    (6, 2): 1, (5, 3): 12, (4, 4): 173, (3, 5): 12, (2, 6): 1,
    (6, 4): 1, (5, 5): 6, (4, 6): 1,
    (6, 6): 1,
}
OG6_BETTI = (1, 0, 8, 0, 199, 0, 1504, 0, 199, 0, 8, 0, 1)


def _signed_basis(entries: dict[Bidegree, tuple[int, int]]
                  ) -> list[tuple[Bidegree, int]]:
    basis: list[tuple[Bidegree, int]] = []
    for degree in sorted(entries):
        plus, minus = entries[degree]
        basis.extend([(degree, 1)] * plus)
        basis.extend([(degree, -1)] * minus)
    return basis


def _collect(monomials):
    """Tally each selection of basis vectors by degree and sign."""
    table: dict[Bidegree, list[int]] = {}
    for combo in monomials:
        p = sum(degree[0] for degree, _ in combo)
        q = sum(degree[1] for degree, _ in combo)
        sign = 1
        for _, s in combo:
            sign *= s
        pair = table.setdefault((p, q), [0, 0])
        pair[0 if sign > 0 else 1] += 1
    return {key: (plus, minus) for key, (plus, minus) in sorted(table.items())}


def eq_sym_power_oracle(entries: dict[Bidegree, tuple[int, int]],
                        k: int) -> dict[Bidegree, tuple[int, int]]:
    """Multisets of k basis vectors, graded by degree and total sign."""
    basis = _signed_basis(entries)
    return _collect(combinations_with_replacement(basis, k))


def eq_ext_power_oracle(entries: dict[Bidegree, tuple[int, int]],
                        k: int) -> dict[Bidegree, tuple[int, int]]:
    """Position-strictly-increasing selections of k basis vectors."""
    basis = _signed_basis(entries)
    return _collect(combinations(basis, k))


def eq_tensor_oracle(a: dict[Bidegree, tuple[int, int]],
                     b: dict[Bidegree, tuple[int, int]]
                     ) -> dict[Bidegree, tuple[int, int]]:
    """One basis vector from each side, graded by degree and sign product."""
    return _collect(product(_signed_basis(a), _signed_basis(b)))


def eq_sum_oracle(a: dict[Bidegree, tuple[int, int]],
                  b: dict[Bidegree, tuple[int, int]]
                  ) -> dict[Bidegree, tuple[int, int]]:
    """Every basis vector of either side on its own."""
    return _collect((vector,) for vector in _signed_basis(a) + _signed_basis(b))


def forget_oracle(entries: dict[Bidegree, tuple[int, int]]) -> dict[Bidegree, int]:
    """Basis vectors counted by degree, whatever their sign."""
    table: dict[Bidegree, int] = {}
    for degree, _ in _signed_basis(entries):
        table[degree] = table.get(degree, 0) + 1
    return table


def random_eq_entries(rng: random.Random) -> dict[Bidegree, tuple[int, int]]:
    """One to three even degrees, each with at most 8 classes split into (plus, minus)."""
    degrees = [(0, 0), (1, 1), (2, 0), (0, 2), (2, 2), (3, 1)]
    table = {}
    for degree in rng.sample(degrees, rng.randint(1, 3)):
        plus = rng.randint(0, 8)
        minus = rng.randint(0, 8 - plus)
        table[degree] = (plus, minus)
    return table


def sym_power_oracle(entries: dict[Bidegree, int],
                     k: int) -> dict[Bidegree, int]:
    signed = eq_sym_power_oracle({d: (m, 0) for d, m in entries.items()}, k)
    return {d: plus for d, (plus, _) in signed.items() if plus}


def ext_power_oracle(entries: dict[Bidegree, int],
                     k: int) -> dict[Bidegree, int]:
    signed = eq_ext_power_oracle({d: (m, 0) for d, m in entries.items()}, k)
    return {d: plus for d, (plus, _) in signed.items() if plus}


def naive_truncated_product(a: dict[tuple[int, int, int], int],
                            b: dict[tuple[int, int, int], int],
                            max_xy: int,
                            max_t: int) -> dict[tuple[int, int, int], int]:
    """Full polynomial product first, truncation afterwards."""
    full: dict[tuple[int, int, int], int] = {}
    for (x1, y1, t1), c1 in a.items():
        for (x2, y2, t2), c2 in b.items():
            key = (x1 + x2, y1 + y2, t1 + t2)
            full[key] = full.get(key, 0) + c1 * c2
    return {key: c for key, c in sorted(full.items())
            if c and key[0] <= max_xy and key[1] <= max_xy and key[2] <= max_t}


def inverse_eta_power_coefficient(n: int, power: int) -> int:
    """[t^n] prod_{k>=1} (1 - t^k)^(-power), by repeated geometric series."""
    series = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(power):
            for m in range(k, n + 1):
                series[m] += series[m - k]
    return series[n]


def goettsche_betti_row(surface_betti: list[int], n: int) -> list[int]:
    """Betti numbers b_0..b_4n of S^[n] from Goettsche's one-variable product

        sum_n P(S^[n], z) t^n
            = prod_{k>=1} prod_i (1 - (-1)^i z^(2k-2+i) t^k)^(-(-1)^i b_i(S)).
    """
    width = 4 * n + 1
    series = [[0] * width for _ in range(n + 1)]  # series[m][d]: z^d t^m
    series[0][0] = 1
    for k in range(1, n + 1):
        for i, b in enumerate(surface_betti):
            if not b:
                continue
            d = 2 * k - 2 + i
            steps = n // k
            if i % 2 == 0:
                coeffs = [comb(b + j - 1, j) for j in range(steps + 1)]
            else:
                coeffs = [comb(b, j) for j in range(steps + 1)]
            product = [[0] * width for _ in range(n + 1)]
            for m in range(n + 1):
                for e, c in enumerate(series[m]):
                    if not c:
                        continue
                    for j, cj in enumerate(coeffs):
                        mm, ee = m + j * k, e + j * d
                        if mm > n or ee >= width:
                            break
                        product[mm][ee] += c * cj
            series = product
    return series[n]


def chi_minus_y(entries: dict[Bidegree, int], top: int) -> list[int]:
    """chi_{-y} = sum_{p,q} (-1)^(p+q) h^{p,q} y^p, as the coefficients of y^0 .. y^top."""
    coeffs = [0] * (top + 1)
    for (p, q), h in entries.items():
        coeffs[p] += (-1) ** (p + q) * h
    return coeffs


def hilbert_chi_y(surface: dict[Bidegree, int], n: int) -> list[list[int]]:
    """chi_{-y}(S^[m]) for m = 0 .. n, each as the coefficients of y^0 .. y^2m.

    Ellingsrud, Goettsche and Lehn (J. Algebraic Geom. 10, 2001, Thm 4.2):

        sum_m chi_{-y}(S^[m]) t^m = exp(sum_{k>=1} chi_{-y^k}(S) t^k / (k (1 - y^k t^k))).

    Its logarithmic derivative is the recurrence m F_m = sum_i (i G_i) F_{m-i},
    with i G_i = sum_{k | i} (i/k) chi_{-y^k}(S) y^(i-k), run here on dense
    integer lists in y alone.  It collapses each row of the diamond to one
    signed sum, so it cannot see a move that keeps every such sum: in K3^[30],
    +1 at (8,12) and (10,14), -1 at (8,14) and (10,12), -1 at (9,11) and
    (11,13) and +1 at (9,13) and (11,11), made symmetric and dual, keeps
    chi_{-y}, every Betti number, symmetry and duality.
    """
    base = chi_minus_y(surface, 2)
    i_g = [[]]  # i_g[i]: the coefficients of i G_i
    for i in range(1, n + 1):
        poly = [0] * (2 * i + 1)
        for k in range(1, i + 1):
            if i % k == 0:
                for p, c in enumerate(base):
                    poly[k * p + i - k] += i // k * c
        i_g.append(poly)
    series = [[1]]
    for m in range(1, n + 1):
        total = [0] * (2 * m + 1)
        for i in range(1, m + 1):
            for a, g in enumerate(i_g[i]):
                if g:
                    for b, f in enumerate(series[m - i]):
                        total[a + b] += g * f
        assert all(c % m == 0 for c in total), (m, total)
        series.append([c // m for c in total])
    return series


def swap_orbit_counts(max_k: int = 2) -> tuple[int, ...]:
    """Orbit counts of the swap on monomials h1^a h2^b with a + b = k.

    Models the degree 2k cohomology of a smooth (1,1) divisor in
    P^3 x P^3 for 2k < 5, where restriction from the ambient space is an
    isomorphism and the swap exchanges the two hyperplane classes.
    """
    counts = []
    for k in range(max_k + 1):
        monomials = {(a, k - a) for a in range(k + 1)
                     if a <= 3 and k - a <= 3}
        orbits = {tuple(sorted(m)) for m in monomials}
        counts.append(len(orbits))
    return tuple(counts)
