"""Exact arithmetic on bigraded Hodge-number tables.

A Hodge diamond records the dimensions h^{p,q} of the bigraded pieces of
the cohomology of a compact complex manifold, or of any abstract bigraded
vector space.  Everything here is exact integer arithmetic: tables are
immutable, operations are pure functions, and no floating point appears
anywhere.

Besides the basic table algebra (direct sum, tensor product, Tate twist,
symmetric and exterior powers) the module carries the two numerical
constraints on compact hyperkaehler manifolds that the rest of the
package leans on:

* :func:`salamon_residual` evaluates Salamon's linear relation among the
  Betti numbers of a hyperkaehler 2n-fold,
* :func:`solve_betti_dim6` inverts that relation, together with the
  topological Euler characteristic, for the two unknown Betti numbers of
  a 6-fold with vanishing odd cohomology.

Algebraic operations return dimensionless ("abstract") tables, because a
symmetric power or a twist of manifold cohomology is no longer the full
cohomology of a manifold.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

__all__ = [
    "Bidegree",
    "BettiVector",
    "ConsistencyError",
    "HodgeDiamond",
    "betti",
    "check_diamond",
    "chi_p",
    "complete_by_duality",
    "direct_sum",
    "euler_characteristic",
    "ext_power",
    "salamon_residual",
    "solve_betti_dim6",
    "sym_power",
    "tate_twist",
    "tensor",
    "weight_sums",
]

Bidegree = tuple[int, int]


class ConsistencyError(RuntimeError):
    """An internal cross-check of a computation failed.

    Distinct from ``ValueError`` (bad caller input): this exception means
    two independent routes to the same quantity disagreed, or a stage
    rejected what the named constants gave it, so a constant or an
    algorithm is corrupt and no output should be trusted.
    """


def _is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


def _wrong_type(cls: type, *values: object) -> ValueError:
    """The boundary error for the first of ``values`` that is not a ``cls``."""
    bad = next(value for value in values if not isinstance(value, cls))
    return ValueError(f"expected a {cls.__name__}, got {bad!r}")


def _validated_entries(entries: Mapping[Bidegree, int],
                       dim: int | None = None) -> dict[Bidegree, int]:
    table: dict[Bidegree, int] = {}
    for key, value in entries.items():
        exact = (type(key) is tuple and len(key) == 2 and type(key[0]) is int
                 and type(key[1]) is int and type(value) is int)
        if not exact and (not isinstance(key, tuple) or len(key) != 2
                          or not (_is_int(key[0]) and _is_int(key[1]))):
            raise ValueError(f"bidegree keys must be integer pairs, got {key!r}")
        p, q = key
        if p < 0 or q < 0:
            raise ValueError(f"negative bidegree ({p},{q})")
        if not exact and not _is_int(value):
            raise ValueError(f"dimension at ({p},{q}) must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"negative dimension {value} at ({p},{q})")
        if dim is not None and (p > dim or q > dim):
            raise ValueError(
                f"entry at ({p},{q}) lies outside the diamond of a {dim}-fold")
        if value:
            table[(p, q)] = value
    return table


class _Record:
    """The one immutable value base of the package.

    The positional ``__init__`` binds the ``__slots__`` in order.  Values
    are equal only within one class, hash as their field tuple and refuse
    assignment and deletion.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class HodgeDiamond(_Record):
    """Immutable table (p, q) -> h^{p,q}, with an optional complex dimension.

    Zero entries are dropped on construction, so two diamonds compare
    and hash equal exactly when they store the same nonzero dimensions
    and the same ``complex_dimension``, in any order.  Entries stay in
    build order; :meth:`items`, :attr:`entries`, ``repr`` and JSON read
    them in lexicographic order.  Hodge symmetry and Poincare duality are
    deliberately not enforced: intermediate tables of a quotient
    computation violate both.  Run :func:`check_diamond` to test them.

    >>> K3 = HodgeDiamond({(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1,
    ...                    (2, 2): 1}, complex_dimension=2)
    >>> K3.h(1, 1)
    20
    >>> K3.h(1, 0)
    0
    >>> K3.total_dimension()
    24
    """

    __slots__ = ("_entries", "_dim")

    def __init__(self, entries: Mapping[Bidegree, int],
                 complex_dimension: int | None = None):
        if complex_dimension is not None:
            if not _is_int(complex_dimension) or complex_dimension < 0:
                raise ValueError(
                    f"complex dimension must be a nonnegative integer, "
                    f"got {complex_dimension!r}")
        if type(entries) is not dict and not isinstance(entries, Mapping):
            raise ValueError(f"entries must be a mapping, got {entries!r}")
        super().__init__(_validated_entries(entries, complex_dimension), complex_dimension)

    @classmethod
    def _trusted(cls, table: dict[Bidegree, int],
                 complex_dimension: int | None = None) -> "HodgeDiamond":
        """Wrap a fresh, zero-free table computed from validated diamonds.

        The result takes ownership of ``table``, as built: nothing copies,
        validates or scans it.  The caller passes a dict nothing else holds
        and leaves out zeros, so the result compares and hashes equal to
        its validated counterpart.
        """
        d = object.__new__(cls)
        object.__setattr__(d, "_dim", complex_dimension)
        object.__setattr__(d, "_entries", table)
        return d

    @property
    def complex_dimension(self) -> int | None:
        return self._dim

    @property
    def entries(self) -> dict[Bidegree, int]:
        """A fresh copy of the nonzero entries, in lexicographic order."""
        return dict(sorted(self._entries.items()))

    def h(self, p: int, q: int) -> int:
        return self._entries.get((p, q), 0)

    def items(self) -> Iterator[tuple[int, int, int]]:
        """Yield (p, q, h^{p,q}) triples in lexicographic order."""
        for (p, q), value in sorted(self._entries.items()):
            yield p, q, value

    def total_dimension(self) -> int:
        return sum(self._entries.values())

    # -- value semantics ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HodgeDiamond):
            return NotImplemented
        return self._dim == other._dim and self._entries == other._entries

    def __hash__(self) -> int:
        return hash((self._dim, frozenset(self._entries.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"({p},{q}): {v}" for p, q, v in self.items())
        if self._dim is None:
            return f"HodgeDiamond({{{body}}})"
        return f"HodgeDiamond({{{body}}}, complex_dimension={self._dim})"

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "complex_dimension": self._dim,
            "entries": [[p, q, v] for (p, q), v in sorted(self._entries.items())],
        }


# ---------------------------------------------------------------------------
# numerical invariants


class BettiVector(_Record):
    """The row b_0 .. b_{2n} of Betti numbers of a complex n-fold."""

    __slots__ = ("n", "b")

    def __init__(self, n: int, b: tuple[int, ...]):
        if not _is_int(n) or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        if not isinstance(b, Iterable):
            raise _wrong_type(tuple, b)
        b = tuple(b)
        if len(b) != 2 * n + 1:
            raise ValueError(f"expected {2 * n + 1} Betti numbers for n={n}, got {len(b)}")
        for k, value in enumerate(b):
            if not _is_int(value) or value < 0:
                raise ValueError(f"b_{k} must be a nonnegative integer")
        super().__init__(n, b)


def betti(d: HodgeDiamond) -> BettiVector:
    """Betti numbers b_k = sum over p+q=k of h^{p,q}.

    >>> point = HodgeDiamond({(0, 0): 1}, complex_dimension=0)
    >>> betti(point).b
    (1,)
    """
    if not isinstance(d, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, d)
    n = d.complex_dimension
    if n is None:
        raise ValueError("betti needs a diamond with a complex dimension")
    row = [0] * (2 * n + 1)
    for (p, q), value in d._entries.items():
        row[p + q] += value
    return BettiVector(n, tuple(row))


def chi_p(d: HodgeDiamond, p: int) -> int:
    """Hirzebruch characteristic chi^p = sum over q of (-1)^q h^{p,q}."""
    if not isinstance(d, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, d)
    n = d.complex_dimension
    if n is None:
        raise ValueError("chi_p needs a diamond with a complex dimension")
    if not _is_int(p) or not 0 <= p <= n:
        raise ValueError(f"p={p!r} out of range for a {n}-fold")
    return sum((-1) ** q * d.h(p, q) for q in range(n + 1))


def euler_characteristic(d: HodgeDiamond) -> int:
    """Topological Euler characteristic sum (-1)^{p+q} h^{p,q}."""
    if not isinstance(d, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, d)
    return sum((-1) ** (p + q) * value for (p, q), value in d._entries.items())


def weight_sums(d: HodgeDiamond) -> dict[int, int]:
    """Total dimension in each weight p+q, for any table."""
    if not isinstance(d, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, d)
    out: dict[int, int] = {}
    for (p, q), value in d._entries.items():
        out[p + q] = out.get(p + q, 0) + value
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# table algebra (all results are abstract, i.e. dimensionless)


def direct_sum(a: HodgeDiamond, b: HodgeDiamond) -> HodgeDiamond:
    """Entrywise sum of two tables.

    When one side is empty and the other is already abstract, that other
    side is the result and is returned as it is.
    """
    if not (isinstance(a, HodgeDiamond) and isinstance(b, HodgeDiamond)):
        raise _wrong_type(HodgeDiamond, a, b)
    if not b._entries and a._dim is None:
        return a
    if not a._entries and b._dim is None:
        return b
    table = dict(a._entries)
    for key, value in b._entries.items():
        table[key] = table.get(key, 0) + value
    return HodgeDiamond._trusted(table)


def _convolve(a: Mapping[Bidegree, int], b: Mapping[Bidegree, int],
              out: dict[Bidegree, int]) -> dict[Bidegree, int]:
    """Add the bigraded convolution of two raw tables into ``out``."""
    for (p1, q1), v1 in a.items():
        for (p2, q2), v2 in b.items():
            key = (p1 + p2, q1 + q2)
            out[key] = out.get(key, 0) + v1 * v2
    return out


def tensor(a: HodgeDiamond, b: HodgeDiamond) -> HodgeDiamond:
    """Bigraded tensor product (convolution of the two tables).

    >>> line = HodgeDiamond({(1, 1): 1})
    >>> t = tensor(line, HodgeDiamond({(0, 2): 3, (1, 0): 2}))
    >>> sorted(t.entries.items())
    [((1, 3), 3), ((2, 1), 2)]
    """
    if not (isinstance(a, HodgeDiamond) and isinstance(b, HodgeDiamond)):
        raise _wrong_type(HodgeDiamond, a, b)
    return HodgeDiamond._trusted(_convolve(a._entries, b._entries, {}))


def tate_twist(d: HodgeDiamond, k: int) -> HodgeDiamond:
    """Shift every entry from (p, q) to (p+k, q+k).

    ``k`` may be negative as long as all shifted indices stay >= 0.
    """
    if not isinstance(d, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, d)
    if not _is_int(k):
        raise ValueError(f"twist must be an integer, got {k!r}")
    table: dict[Bidegree, int] = {}
    for p, q, value in d.items():
        if p + k < 0 or q + k < 0:
            raise ValueError(f"twist by {k} pushes ({p},{q}) out of range")
        table[(p + k, q + k)] = value
    return HodgeDiamond._trusted(table)


def _graded_powers(d: HodgeDiamond, k: int, exterior: bool, op: str,
                   rest: tuple[HodgeDiamond, ...] = ()) -> list[dict[Bidegree, int]]:
    """The raw tables of the j-th power of ``d`` for every j = 0 .. k.

    An m-dimensional piece has j-th powers of dimension C(m+j-1, j), or
    C(m, j) if ``exterior``.  The first piece seeds each table; later ones
    are convolved in.  An odd total degree raises, naming the first one in
    ``d`` and ``rest``.  An empty ``d`` gives {(0, 0): 1}, then k empty tables.
    """
    if not _is_int(k) or k < 0:
        raise ValueError("power index must be a nonnegative integer")
    acc: list[dict[Bidegree, int]] = [{(0, 0): 1}] + [{} for _ in range(k)]
    for i, ((p, q), m) in enumerate(d._entries.items()):
        if (p + q) % 2:
            p, q = min(key for t in (d, *rest) for key in t._entries if sum(key) % 2)
            raise ValueError(f"{op} needs even total degrees only; "
                             f"found an entry at ({p},{q})")
        powers, bd = [], 1
        for j in range(1, (m if exterior and m < k else k) + 1):
            bd = bd * (m - j + 1 if exterior else m + j - 1) // j
            if i:
                powers.append((j, j * p, j * q, bd))
            else:  # the first piece seeds each table
                acc[j][(j * p, j * q)] = bd
        # later pieces fill from the top: acc[total - j] does not hold this one yet
        for total in range(k if i else 0, 0, -1):
            tgt = acc[total]
            for j, jp, jq, bd in powers[:total]:
                for (ap, aq), av in acc[total - j].items():
                    key = (ap + jp, aq + jq)
                    tgt[key] = tgt.get(key, 0) + av * bd
    return acc


def sym_power(d: HodgeDiamond, k: int) -> HodgeDiamond:
    """k-th symmetric power of a table supported in even total degree.

    Odd total degrees would need Koszul signs, which this table algebra
    does not model, so they are rejected.

    >>> H2 = HodgeDiamond({(2, 0): 1, (1, 1): 20, (0, 2): 1})
    >>> sym_power(H2, 2).h(2, 2)
    211
    """
    if not isinstance(d, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, d)
    return HodgeDiamond._trusted(_graded_powers(d, k, False, "sym_power")[k])


def ext_power(d: HodgeDiamond, k: int) -> HodgeDiamond:
    """k-th exterior power of a table supported in even total degree."""
    if not isinstance(d, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, d)
    return HodgeDiamond._trusted(_graded_powers(d, k, True, "ext_power")[k])


# ---------------------------------------------------------------------------
# hyperkaehler constraints


def salamon_residual(b: BettiVector) -> int:
    """Salamon's constraint on a hyperkaehler 2n-fold, as a residual.

    The input is the Betti row of the 2n-fold; only its lower half
    b_0 .. b_{2n} enters.  Returns

        2 * sum_{j=1}^{2n} (-1)^j (3j^2 - n) b_{2n-j}  -  n * b_{2n}

    which vanishes exactly when the constraint holds.  The sum starts at
    j = 1: the j = 0 term would change the relation on every known
    example, so the middle Betti number enters only through the right
    hand side.  An odd complex dimension raises ``ValueError``.

    >>> salamon_residual(BettiVector(4, (1, 0, 23, 0, 276, 0, 23, 0, 1)))
    0
    """
    if not isinstance(b, BettiVector):
        raise _wrong_type(BettiVector, b)
    if b.n % 2:
        raise ValueError(f"Salamon's relation needs an even complex dimension, "
                         f"got {b.n}")
    n = b.n // 2
    total = sum((-1) ** j * (3 * j * j - n) * b.b[2 * n - j]
                for j in range(1, 2 * n + 1))
    return 2 * total - n * b.b[2 * n]


def solve_betti_dim6(b0: int, b2: int, chi_top: int) -> tuple[int, int]:
    """Solve for (b4, b6) of a 6-fold with vanishing odd Betti numbers.

    Combines the n = 3 Salamon relation 3 b6 = 18 b4 + 90 b2 + 210 b0
    with chi_top = 2 (b0 + b2 + b4) + b6.  Raises ``ValueError`` when no
    nonnegative integer solution exists.

    >>> solve_betti_dim6(1, 8, 1920)
    (199, 1504)
    """
    if not (_is_int(b0) and _is_int(b2) and _is_int(chi_top)):
        raise ValueError(f"b0, b2 and chi must be integers, got {(b0, b2, chi_top)!r}")
    b4, remainder = divmod(chi_top - 32 * b2 - 72 * b0, 8)
    if remainder:
        raise ValueError(
            f"no integral b4 for b0={b0}, b2={b2}, chi={chi_top}")
    b6 = chi_top - 2 * (b0 + b2 + b4)
    if b4 < 0 or b6 < 0:
        raise ValueError(
            f"no nonnegative solution for b0={b0}, b2={b2}, chi={chi_top}")
    return b4, b6


# ---------------------------------------------------------------------------
# structural checks


def check_diamond(d: HodgeDiamond) -> tuple[str, ...]:
    """Violations of Hodge symmetry and Poincare duality.

    An empty tuple means the diamond passes.
    """
    if not isinstance(d, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, d)
    n = d.complex_dimension
    if n is None:
        raise ValueError("check_diamond needs a diamond with a complex dimension")
    found: list[str] = []
    for p in range(n + 1):
        for q in range(p + 1, n + 1):
            if d.h(p, q) != d.h(q, p):
                found.append(
                    f"hodge symmetry broken: h[{p},{q}]={d.h(p, q)} "
                    f"!= h[{q},{p}]={d.h(q, p)}")
    for p in range(n + 1):
        for q in range(n + 1):
            if p + q < n or (p + q == n and (p, q) <= (n - p, n - q)):
                dual = d.h(n - p, n - q)
                if d.h(p, q) != dual:
                    found.append(
                        f"poincare duality broken: h[{p},{q}]={d.h(p, q)} "
                        f"!= h[{n - p},{n - q}]={dual}")
    return tuple(found)


def complete_by_duality(d: HodgeDiamond, n: int) -> HodgeDiamond:
    """Extend a table supported in p+q <= n to a full n-fold diamond.

    Entries with p+q < n are mirrored to (n-p, n-q).  An entry with p > n
    or q > n, or one already present above the middle that disagrees
    with its mirror, raises ``ValueError``.
    """
    if not isinstance(d, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, d)
    if not _is_int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    table: dict[Bidegree, int] = {}
    upper: dict[Bidegree, int] = {}
    for p, q, value in d.items():
        if p > n or q > n:
            raise ValueError(f"entry at ({p},{q}) lies outside the diamond of a {n}-fold")
        if p + q <= n:
            table[(p, q)] = value
        else:
            upper[(p, q)] = value
    for (p, q), value in list(table.items()):
        if p + q < n:
            table[(n - p, n - q)] = value
    for (p, q), value in upper.items():
        if table.get((p, q), 0) != value:
            raise ValueError(
                f"duality completion conflict at ({p},{q}): table holds "
                f"{value}, mirror of ({n - p},{n - q}) gives "
                f"{table.get((p, q), 0)}")
    return HodgeDiamond(table, complex_dimension=n)
