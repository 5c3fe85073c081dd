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
    _Record,
    _convolve,
    _graded_powers,
    _validated_entries,
    _wrong_type,
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


class EquivariantDiamond(_Record):
    """Immutable table (p, q) -> (plus, minus) of eigenspace dimensions.

    Stored as the two abstract eigenspace tables V+ and V-; like the
    results of the table algebra, it carries no complex dimension.
    """

    __slots__ = ("_plus", "_minus")

    def __init__(self, entries: Mapping[Bidegree, EigenPair]):
        if type(entries) is not dict and not isinstance(entries, Mapping):
            raise ValueError(f"entries must be a mapping, got {entries!r}")
        plus, minus = {}, {}
        for key, pair in entries.items():
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise ValueError(
                    f"eigenspace dimensions at {key!r} must be an integer "
                    f"pair, got {pair!r}")
            plus[key], minus[key] = pair
        plus, minus = _validated_entries(plus), _validated_entries(minus)
        object.__setattr__(self, "_plus", HodgeDiamond._trusted(plus))
        object.__setattr__(self, "_minus", HodgeDiamond._trusted(minus))

    @classmethod
    def _trusted(cls, plus: HodgeDiamond,
                 minus: HodgeDiamond) -> "EquivariantDiamond":
        """Pair two zero-free eigenspace tables, neither copied nor checked.

        The rule of :meth:`HodgeDiamond._trusted`.  Tables are immutable, so
        a part may be an input's eigenspace that ``direct_sum`` returned whole.
        """
        d = object.__new__(cls)
        object.__setattr__(d, "_plus", plus)
        object.__setattr__(d, "_minus", minus)
        return d

    @property
    def entries(self) -> dict[Bidegree, EigenPair]:
        return {(p, q): (pl, mi) for p, q, pl, mi in self.items()}

    def pair(self, p: int, q: int) -> EigenPair:
        return self._plus.h(p, q), self._minus.h(p, q)

    def items(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (p, q, plus, minus) in lexicographic order."""
        plus, minus = self._plus._entries, self._minus._entries
        for key in sorted(plus.keys() | minus.keys()):
            yield *key, plus.get(key, 0), minus.get(key, 0)

    def __repr__(self) -> str:
        body = ", ".join(f"({p},{q}): ({pl},{mi})" for p, q, pl, mi in self.items())
        return f"EquivariantDiamond({{{body}}})"


# ---------------------------------------------------------------------------
# projections


def invariant_part(d: EquivariantDiamond) -> HodgeDiamond:
    """The plus eigenspace dimensions as a plain table."""
    if not isinstance(d, EquivariantDiamond):
        raise _wrong_type(EquivariantDiamond, d)
    return d._plus


def forget(d: EquivariantDiamond) -> HodgeDiamond:
    """Drop the involution: total dimension plus + minus per bidegree.

    An empty eigenspace makes the other one the result, the same object.
    """
    if not isinstance(d, EquivariantDiamond):
        raise _wrong_type(EquivariantDiamond, d)
    return direct_sum(d._plus, d._minus)


# ---------------------------------------------------------------------------
# algebra (results are abstract, matching the plain table algebra)


def eq_sum(a: EquivariantDiamond, b: EquivariantDiamond) -> EquivariantDiamond:
    """Direct sum of each eigenspace."""
    if not (isinstance(a, EquivariantDiamond) and isinstance(b, EquivariantDiamond)):
        raise _wrong_type(EquivariantDiamond, a, b)
    return EquivariantDiamond._trusted(direct_sum(a._plus, b._plus),
                                       direct_sum(a._minus, b._minus))


def eq_tensor(a: EquivariantDiamond, b: EquivariantDiamond) -> EquivariantDiamond:
    """Tensor product with the sign rule minus * minus -> plus."""
    if not (isinstance(a, EquivariantDiamond) and isinstance(b, EquivariantDiamond)):
        raise _wrong_type(EquivariantDiamond, a, b)
    ap, am = a._plus._entries, a._minus._entries
    bp, bm = b._plus._entries, b._minus._entries
    plus = _convolve(am, bm, _convolve(ap, bp, {}))
    minus = _convolve(am, bp, _convolve(ap, bm, {}))
    return EquivariantDiamond._trusted(HodgeDiamond._trusted(plus),
                                       HodgeDiamond._trusted(minus))


def eq_tate_twist(d: EquivariantDiamond, k: int) -> EquivariantDiamond:
    """Shift every entry from (p, q) to (p+k, q+k), keeping the signs."""
    if not isinstance(d, EquivariantDiamond):
        raise _wrong_type(EquivariantDiamond, d)
    return EquivariantDiamond._trusted(tate_twist(d._plus, k),
                                       tate_twist(d._minus, k))


def _eq_power(d: EquivariantDiamond, k: int, exterior: bool,
              op: str) -> EquivariantDiamond:
    """Split the k-th power of V+ + V- by the parity of its minus factors."""
    if not isinstance(d, EquivariantDiamond):
        raise _wrong_type(EquivariantDiamond, d)
    plus = _graded_powers(d._plus, k, exterior, op, (d._minus,))
    minus = _graded_powers(d._minus, k, exterior, op)
    # V+^k (x) V-^0 and V+^0 (x) V-^k are V+^k and V-^k themselves, fresh tables
    signed: tuple[dict, dict] = (plus[k], minus[k] if k % 2 else {})
    for key, value in minus[k].items() if k and k % 2 == 0 else ():
        signed[0][key] = signed[0].get(key, 0) + value
    for i in range(1, k):
        if plus[i] and minus[k - i]:
            _convolve(plus[i], minus[k - i], signed[(k - i) % 2])
    return EquivariantDiamond._trusted(HodgeDiamond._trusted(signed[0]),
                                       HodgeDiamond._trusted(signed[1]))


def eq_sym_power(d: EquivariantDiamond, k: int) -> EquivariantDiamond:
    """k-th symmetric power with the eigenspace bookkeeping.

    Forgetting the involution recovers the plain ``sym_power``.
    """
    return _eq_power(d, k, False, "eq_sym_power")


def eq_ext_power(d: EquivariantDiamond, k: int) -> EquivariantDiamond:
    """k-th exterior power with the eigenspace bookkeeping."""
    return _eq_power(d, k, True, "eq_ext_power")
