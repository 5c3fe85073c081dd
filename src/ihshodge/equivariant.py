"""Z/2-equivariant refinement of Hodge-number tables.

An involution acting on a bigraded vector space V splits it into the +1
and -1 eigenspaces V+ and V-, each an ordinary bigraded table.  Every
operation here is the plain table algebra of :mod:`ihshodge.diamond`
applied to the two eigenspaces.  Tensor products follow the sign rule

    (V (x) W)+ = V+ W+  +  V- W-
    (V (x) W)- = V+ W-  +  V- W+

and symmetric or exterior powers split as

    Sym^k(V+ + V-) = sum over i of Sym^i V+ (x) Sym^{k-i} V-

where a summand is anti-invariant exactly when k - i is odd (likewise
for Lambda^k).  Forgetting the involution (adding the two eigenspace
dimensions) commutes with every operation here, which the test suite
exploits as a cross-check against the plain table algebra.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from .diamond import (
    Bidegree,
    HodgeDiamond,
    _convolve,
    _ext_dim,
    _graded_powers,
    _sym_dim,
    direct_sum,
    tate_twist,
)

__all__ = [
    "EquivariantDiamond",
    "eq_ext_power",
    "eq_sum",
    "eq_sym_power",
    "eq_tate_twist",
    "eq_tensor",
    "forget",
    "invariant_part",
]

EigenPair = tuple[int, int]


class EquivariantDiamond:
    """Immutable table (p, q) -> (plus, minus) of eigenspace dimensions.

    Stored as the two abstract eigenspace tables V+ and V-; like the
    results of the table algebra, it carries no complex dimension.
    """

    __slots__ = ("_plus", "_minus")

    def __init__(self, entries: Mapping[Bidegree, EigenPair] = ()):
        if not isinstance(entries, Mapping):
            entries = dict(entries)
        plus: dict = {}
        minus: dict = {}
        for key, pair in entries.items():
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise ValueError(
                    f"eigenspace dimensions at {key!r} must be an integer "
                    f"pair, got {pair!r}")
            plus[key], minus[key] = pair
        object.__setattr__(self, "_plus", HodgeDiamond(plus))
        object.__setattr__(self, "_minus", HodgeDiamond(minus))

    @classmethod
    def _from_parts(cls, plus: HodgeDiamond,
                    minus: HodgeDiamond) -> "EquivariantDiamond":
        """Pair two abstract eigenspace tables."""
        d = object.__new__(cls)
        object.__setattr__(d, "_plus", plus)
        object.__setattr__(d, "_minus", minus)
        return d

    def __setattr__(self, name, value):
        raise AttributeError("EquivariantDiamond is immutable")

    @property
    def entries(self) -> dict[Bidegree, EigenPair]:
        return {(p, q): (pl, mi) for p, q, pl, mi in self.items()}

    def pair(self, p: int, q: int) -> EigenPair:
        return self._plus.h(p, q), self._minus.h(p, q)

    def items(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (p, q, plus, minus) in lexicographic order."""
        plus, minus = self._plus, self._minus
        for p, q in sorted(plus._entries.keys() | minus._entries.keys()):
            yield p, q, plus.h(p, q), minus.h(p, q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EquivariantDiamond):
            return NotImplemented
        return self._plus == other._plus and self._minus == other._minus

    def __hash__(self) -> int:
        return hash((self._plus, self._minus))

    def __bool__(self) -> bool:
        return bool(self._plus or self._minus)

    def __repr__(self) -> str:
        body = ", ".join(f"({p},{q}): ({pl},{mi})" for p, q, pl, mi in self.items())
        return f"EquivariantDiamond({{{body}}})"


# ---------------------------------------------------------------------------
# projections


def invariant_part(d: EquivariantDiamond) -> HodgeDiamond:
    """The plus eigenspace dimensions as a plain table."""
    return d._plus


def forget(d: EquivariantDiamond) -> HodgeDiamond:
    """Drop the involution: total dimension plus + minus per bidegree."""
    return direct_sum(d._plus, d._minus)


# ---------------------------------------------------------------------------
# algebra (results are abstract, matching the plain table algebra)


def eq_sum(a: EquivariantDiamond, b: EquivariantDiamond) -> EquivariantDiamond:
    """Direct sum of each eigenspace."""
    return EquivariantDiamond._from_parts(direct_sum(a._plus, b._plus),
                                          direct_sum(a._minus, b._minus))


def eq_tensor(a: EquivariantDiamond, b: EquivariantDiamond) -> EquivariantDiamond:
    """Tensor product with the sign rule minus * minus -> plus."""
    ap, am = a._plus._entries, a._minus._entries
    bp, bm = b._plus._entries, b._minus._entries
    plus = _convolve(am, bm, _convolve(ap, bp, {}))
    minus = _convolve(am, bp, _convolve(ap, bm, {}))
    return EquivariantDiamond._from_parts(HodgeDiamond._trusted(plus),
                                          HodgeDiamond._trusted(minus))


def eq_tate_twist(d: EquivariantDiamond, k: int) -> EquivariantDiamond:
    """Shift every entry from (p, q) to (p+k, q+k), keeping the signs."""
    return EquivariantDiamond._from_parts(tate_twist(d._plus, k),
                                          tate_twist(d._minus, k))


def _eq_power(d: EquivariantDiamond, k: int, block,
              op: str) -> EquivariantDiamond:
    """Split the k-th power of V+ + V- by the parity of its minus factors."""
    plus = _graded_powers(d._plus, k, block, op)
    minus = _graded_powers(d._minus, k, block, op)
    signed: tuple[dict, dict] = ({}, {})
    for i in range(k + 1):
        _convolve(plus[i], minus[k - i], signed[(k - i) % 2])
    return EquivariantDiamond._from_parts(HodgeDiamond._trusted(signed[0]),
                                          HodgeDiamond._trusted(signed[1]))


def eq_sym_power(d: EquivariantDiamond, k: int) -> EquivariantDiamond:
    """k-th symmetric power with the eigenspace bookkeeping.

    Forgetting the involution recovers the plain ``sym_power``.
    """
    return _eq_power(d, k, _sym_dim, "eq_sym_power")


def eq_ext_power(d: EquivariantDiamond, k: int) -> EquivariantDiamond:
    """k-th exterior power with the eigenspace bookkeeping."""
    return _eq_power(d, k, _ext_dim, "eq_ext_power")
