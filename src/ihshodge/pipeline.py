"""Derivation of the OG6 Hodge diamond, with a full audit trace.

The computation follows the birational geometry of the OG6 deformation
class: a degree six hyperkaehler manifold K is realized as the quotient
resolution of a manifold of K3^[3] type carrying a symplectic
involution.  Concretely the chain below

1. splits the cohomology of the K3^[3]-type manifold into eigenspaces of
   the involution, using the symmetric-power structure of its middle
   cohomology over H^2 (stage ``4fin``),
2. corrects the invariant part for the 256 exceptional loci introduced
   by blowing up the fixed incidence subvarieties (stage ``3fin``),
3. passes to the blow-up of a singular quotient along a 4-torus locus,
   adding its classes with a Tate shift (stage ``X-and-Y``),
4. identifies that blow-up with the one obtained from K by blowing up
   256 three-dimensional quadrics (stages ``Kt-and-Ktt(2)`` and
   ``Kt-and-Ktt(1)``),
5. removes the quadric contributions and completes the table by
   Poincare duality (stage ``thm:main``).

Every additive correction used along the way is derived from the named
constants in :class:`NamedConstants`, so a corrupted constant is caught
by the cross-validation at the end of :func:`run_full_pipeline`: the
middle Betti numbers of the result must also solve the Salamon plus
Euler characteristic linear system, and the top Chern number must equal
the topological Euler characteristic.

Every function here raises ``ValueError`` for a bad argument, a table
its stage cannot take included.  :func:`run_full_pipeline` and
:func:`og6_via_dual_degrees` build every argument from checked named
constants, so there a ``ValueError`` means corrupt constants: they
report it, like a failed cross-validation, as :class:`ConsistencyError`.

The chain is one table of (stage tag, corrections builder).  Only
bidegrees with p + q <= 6 are tracked through it, and the trace records
the p + q <= 6 corrections each stage applied; the upper half of the
final diamond is recovered by duality.  :func:`og6_via_dual_degrees`
sums the same builders and applies them at every bidegree to confirm
that this completion is consistent.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

from .diamond import (
    Bidegree,
    BettiVector,
    ConsistencyError,
    HodgeDiamond,
    _Record,
    _is_int,
    _wrong_type,
    betti,
    check_diamond,
    chi_p,
    complete_by_duality,
    euler_characteristic,
    salamon_residual,
    solve_betti_dim6,
)
from .equivariant import (
    EquivariantDiamond,
    eq_ext_power,
    eq_sum,
    eq_sym_power,
    eq_tate_twist,
    forget,
    invariant_part,
)

__all__ = [
    "ChernReport",
    "NamedConstants",
    "TraceStep",
    "chern_numbers",
    "derive_invariant_h2",
    "markman_assembly",
    "markman_equivariant",
    "og6_diamond",
    "og6_via_dual_degrees",
    "run_full_pipeline",
    "ybar_invariants",
    "yhat_invariants",
]


class NamedConstants(_Record):
    """The geometric constants every correction is derived from.

    * ``two_torsion_count``: 256 = 2^8, the number of two-torsion points
      on a four-dimensional abelian variety, which is also the number of
      exceptional components in each blow-up step.
    * ``quadric3``: the diamond of the smooth quadric threefold,
      h^{k,k} = 1 for k = 0..3, the center blown up when comparing with
      the OG6 manifold itself.
    * ``incidence_swap_row``: swap-invariant dimensions of H^0, H^2,
      H^4 of the incidence divisor I in P(V) x P(V*), whose swap action
      is induced by a symplectic form on V.  In degree 2k <= 4 the
      cohomology of I is spanned by the restricted monomials h1^a h2^b
      with a + b = k, and the invariant dimension is the number of swap
      orbits: 1, 1, 2.
    * ``b2`` and ``euler_characteristic``: the second Betti number 8 and
      the topological Euler characteristic 1920 of OG6, which fix the
      invariant part of H^2 and the Salamon and Euler cross-check.

    A constant of the wrong type, such as ``b2=8.0``, raises ``ValueError``
    here, so equal constants always name the same derivation.
    """

    __slots__ = ("two_torsion_count", "quadric3", "incidence_swap_row", "b2",
                 "euler_characteristic")

    def __init__(self, two_torsion_count: int = 256,
                 quadric3: HodgeDiamond = HodgeDiamond(
                     {(k, k): 1 for k in range(4)}, complex_dimension=3),
                 incidence_swap_row: tuple[int, int, int] = (1, 1, 2),
                 b2: int = 8, euler_characteristic: int = 1920):
        for name, value in (("two_torsion_count", two_torsion_count), ("b2", b2),
                            ("euler_characteristic", euler_characteristic)):
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(quadric3, HodgeDiamond):
            raise ValueError(f"quadric3 must be a HodgeDiamond, got {quadric3!r}")
        row = (tuple(incidence_swap_row)
               if isinstance(incidence_swap_row, (tuple, list)) else ())
        if len(row) != 3 or not all(_is_int(v) for v in row):
            raise ValueError(f"incidence_swap_row must be three integers, "
                             f"got {incidence_swap_row!r}")
        super().__init__(two_torsion_count, quadric3, row, b2, euler_characteristic)


_DEFAULTS = NamedConstants()


class ChernReport(_Record):
    """Chern numbers of a hyperkaehler 6-fold from chi^0, chi^1, chi^2.

    On such a manifold the Hirzebruch-Riemann-Roch integrals invert to

        c2^3  = 7272 chi^0 -  184 chi^1 - 8 chi^2
        c2 c4 = 1368 chi^0 -  208 chi^1 - 8 chi^2
        c6    =   36 chi^0 -   16 chi^1 + 4 chi^2

    and c6 is the topological Euler characteristic.
    """

    __slots__ = ("chi0", "chi1", "chi2", "c2_cubed", "c2_c4", "c6")

    def to_json_dict(self) -> dict:
        return dict(zip(self.__slots__, self._fields()))


class TraceStep(_Record):
    """One derivation stage: its tag, output and corrections."""

    __slots__ = ("lemma", "output", "corrections")

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "output": self.output.to_json_dict(),
            "corrections": [list(c) for c in self.corrections],
        }


class PipelineResult(_Record):
    """The outcome of :func:`run_full_pipeline`.

    ``diamond`` is the OG6 diamond, ``betti_numbers`` its Betti vector,
    ``chern`` its Chern numbers and ``trace`` a tuple of one
    :class:`TraceStep` per stage, in chain order.
    """

    __slots__ = ("diamond", "betti_numbers", "chern", "trace")


# ---------------------------------------------------------------------------
# geometric building blocks


def _blowup_classes(center: HodgeDiamond, codim: int,
                    copies: int) -> dict[Bidegree, int]:
    """The classes that blowing up ``copies`` disjoint copies of a center adds.

    At each bidegree (p, q) this is copies * h^{p-k,q-k}(center) summed
    over k = 1 .. codim-1; a negative ``copies`` blows the centers down.
    Blowing up a K3 surface at a point adds one class at (1, 1):

    >>> point = HodgeDiamond({(0, 0): 1}, complex_dimension=0)
    >>> _blowup_classes(point, 2, 1)
    {(1, 1): 1}
    """
    out: dict[Bidegree, int] = {}
    for p, q, value in center.items():
        for k in range(1, codim):
            key = (p + k, q + k)
            out[key] = out.get(key, 0) + copies * value
    return out


def _delta_bar_diamond(constants: NamedConstants) -> HodgeDiamond:
    """Quotient of the 4-torus A x A^ by -1, resolved at the fixed points.

    Even bidegrees keep the torus dimensions h^{p,q} = C(4,p) C(4,q); the
    odd part dies in the quotient; each of the 256 fixed two-torsion points
    contributes the classes of an exceptional P^3 at (1,1), (2,2) and (3,3).
    """
    even = HodgeDiamond._trusted({(p, q): math.comb(4, p) * math.comb(4, q)
                                  for p in range(5) for q in range(5)
                                  if (p + q) % 2 == 0})
    point = HodgeDiamond({(0, 0): 1}, complex_dimension=0)
    classes = _blowup_classes(point, 4, constants.two_torsion_count)
    return _apply_corrections(even, classes, 4)


# ---------------------------------------------------------------------------
# stage 4fin: equivariant structure of the K3^[3]-type cohomology


def derive_invariant_h2(b2_og6: int) -> EquivariantDiamond:
    """Eigenspace split of H^2 of the covering K3^[3]-type manifold.

    A holomorphic symplectic involution fixes the (2,0) and (0,2) lines,
    so the quotient keeps them, and the b2_og6 classes surviving in the
    quotient leave b2_og6 - 3 invariant (1,1) classes out of the total
    h^{1,1} = 21 of a K3^[3]-type manifold.  The remaining 24 - b2_og6
    classes of type (1,1) are anti-invariant.
    """
    if not _is_int(b2_og6):
        raise ValueError(f"b2 must be an integer, got {b2_og6!r}")
    if b2_og6 < 3:
        raise ValueError(f"b2={b2_og6} leaves no room for the (2,0) classes")
    inv_h11 = b2_og6 - 3
    if inv_h11 > 21:
        raise ValueError(
            f"b2={b2_og6} asks for an invariant h^{{1,1}}={inv_h11} above "
            f"the total 21")
    return EquivariantDiamond({
        (2, 0): (1, 0),
        (1, 1): (inv_h11, 21 - inv_h11),
        (0, 2): (1, 0),
    })


def markman_equivariant(h2: EquivariantDiamond,
                        weight: int) -> EquivariantDiamond:
    """Weight 4 or 6 cohomology of a K3^[3]-type manifold over its H^2.

    Weight four is Sym^2 H^2 plus a Tate twist of H^2; weight six is
    Sym^3 H^2 plus a twisted Lambda^2 H^2 plus one invariant line at
    (3,3).  The involution acts through H^2, so the summands inherit its
    eigenspace structure functorially.
    """
    if not _is_int(weight) or weight not in (4, 6):
        raise ValueError(f"weight must be 4 or 6, got {weight!r}")
    if not isinstance(h2, EquivariantDiamond):
        raise _wrong_type(EquivariantDiamond, h2)
    if any(p + q != 2 for p, q, _, _ in h2.items()):
        raise ValueError("markman_equivariant expects a weight 2 table")
    if weight == 4:
        return eq_sum(eq_sym_power(h2, 2), eq_tate_twist(h2, 1))
    twisted = eq_tate_twist(eq_ext_power(h2, 2), 1)
    trivial = EquivariantDiamond({(3, 3): (1, 0)})
    return eq_sum(eq_sum(eq_sym_power(h2, 3), twisted), trivial)


def _lower_cohomology(h2: EquivariantDiamond) -> EquivariantDiamond:
    """H^0 .. H^6 of a K3^[3]-type manifold from its weight 2 table."""
    full = eq_sum(EquivariantDiamond({(0, 0): (1, 0)}), h2)
    full = eq_sum(full, markman_equivariant(h2, 4))
    return eq_sum(full, markman_equivariant(h2, 6))


def markman_assembly(h2_total: HodgeDiamond) -> HodgeDiamond:
    """Full K3^[3]-type diamond assembled from a plain weight 2 table.

    The weight 2 table is read as carrying the trivial involution, so
    this is :func:`markman_equivariant` with the involution forgotten;
    it cross-checks the Goettsche series route on K3^[3] itself.
    """
    if not isinstance(h2_total, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, h2_total)
    h2 = EquivariantDiamond({(p, q): (v, 0) for p, q, v in h2_total.items()})
    return complete_by_duality(forget(_lower_cohomology(h2)), 6)


def _apply_corrections(d: HodgeDiamond, corrections: dict[Bidegree, int],
                       complex_dimension: int | None = None) -> HodgeDiamond:
    table = dict(d._entries)
    for key, delta in corrections.items():
        table[key] = table.get(key, 0) + delta
    return HodgeDiamond(table, complex_dimension=complex_dimension)


# ---------------------------------------------------------------------------
# stages 3fin .. thm:main: corrections along the birational chain


def _ybar_corrections(constants: NamedConstants) -> dict[Bidegree, int]:
    row = constants.incidence_swap_row
    # the H^0..H^4 row, mirrored to H^8 by Poincare duality on the 4-fold
    palindrome = row + row[-2::-1]
    incidence = HodgeDiamond({(k, k): v for k, v in enumerate(palindrome)},
                             complex_dimension=len(palindrome) - 1)
    return _blowup_classes(incidence, 2, constants.two_torsion_count)


def _yhat_corrections(constants: NamedConstants) -> dict[Bidegree, int]:
    return _blowup_classes(_delta_bar_diamond(constants), 2, 1)


def _quadric_corrections(constants: NamedConstants) -> dict[Bidegree, int]:
    return _blowup_classes(constants.quadric3, 3, -constants.two_torsion_count)


# (tag, corrections builder or None) for every stage before thm:main, in order
_CHAIN = (("4fin", None), ("3fin", _ybar_corrections), ("X-and-Y", _yhat_corrections),
          ("Kt-and-Ktt(2)", None), ("Kt-and-Ktt(1)", _quadric_corrections))


def _correct(table: HodgeDiamond, build, constants: NamedConstants,
             op: str) -> tuple[HodgeDiamond, tuple[tuple[int, int, int], ...]]:
    """Apply the nonzero p + q <= 6 part of ``build(constants)`` to a table.

    Returns the new table and the applied (p, q, delta) triples, sorted.
    """
    if not isinstance(constants, NamedConstants):
        raise _wrong_type(NamedConstants, constants)
    if not isinstance(table, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, table)
    for p, q, _ in table.items():
        if p + q > 6:
            raise ValueError(
                f"{op} expects a table supported in p+q <= 6; found ({p},{q})")
    applied = sorted((p, q, delta) for (p, q), delta in build(constants).items()
                     if delta and p + q <= 6)
    return _apply_corrections(table, {(p, q): d for p, q, d in applied}), tuple(applied)


def _complete(lower: HodgeDiamond) -> HodgeDiamond:
    """Mirror a p + q <= 6 table to a 6-fold and validate it as a diamond."""
    completed = complete_by_duality(lower, 6)
    violations = check_diamond(completed)
    if violations:
        raise ValueError("the completed table is not a valid 6-fold diamond: "
                         + "; ".join(violations))
    return completed


def ybar_invariants(y_inv: HodgeDiamond,
                    constants: NamedConstants = _DEFAULTS) -> HodgeDiamond:
    """Invariant cohomology after blowing up the 256 incidence loci.

    Each of the 256 fixed incidence varieties adds its swap-invariant
    classes with a Tate shift, giving +256, +256, +512 on the diagonal
    entries (1,1), (2,2), (3,3) of the invariant table.
    """
    return _correct(y_inv, _ybar_corrections, constants, "ybar_invariants")[0]


def yhat_invariants(ybar_inv: HodgeDiamond,
                    constants: NamedConstants = _DEFAULTS) -> HodgeDiamond:
    """Add the resolved torus quotient, Tate twisted by one.

    The singular quotient acquires, after blowing up the image of the
    fixed 4-torus, the classes h^{p-1,q-1} of the resolved torus quotient
    Delta-bar in each bidegree (p, q) with p + q <= 6.
    The result is also the blow-up of the OG6 manifold along 256 quadric
    threefolds (stage ``Kt-and-Ktt(2)``).
    """
    return _correct(ybar_inv, _yhat_corrections, constants, "yhat_invariants")[0]


def og6_diamond(khat: HodgeDiamond,
                constants: NamedConstants = _DEFAULTS) -> HodgeDiamond:
    """Remove the 256 quadric contributions and complete by duality.

    Inverts the codimension 3 blow-up formula (shifts k = 1, 2) for 256
    disjoint quadric threefold centers, then mirrors the p + q < 6
    entries to the upper half and validates the result as a 6-fold
    diamond; a table that fails the validation raises ``ValueError``.
    """
    return _complete(_correct(khat, _quadric_corrections, constants, "og6_diamond")[0])


# ---------------------------------------------------------------------------
# Chern numbers


def chern_numbers(d: HodgeDiamond) -> ChernReport:
    """Chern numbers of a hyperkaehler 6-fold from its diamond.

    Raises ``ValueError`` when the c6 linear form disagrees with the
    Euler characteristic of the table, which happens exactly when the
    input is not the diamond of a hyperkaehler 6-fold.
    """
    if not isinstance(d, HodgeDiamond):
        raise _wrong_type(HodgeDiamond, d)
    if d.complex_dimension != 6:
        raise ValueError("chern_numbers needs a 6-dimensional diamond")
    chi0 = chi_p(d, 0)
    chi1 = chi_p(d, 1)
    chi2 = chi_p(d, 2)
    c2_cubed = 7272 * chi0 - 184 * chi1 - 8 * chi2
    c2_c4 = 1368 * chi0 - 208 * chi1 - 8 * chi2
    c6 = 36 * chi0 - 16 * chi1 + 4 * chi2
    chi_top = euler_characteristic(d)
    if c6 != chi_top:
        raise ValueError(
            f"c6={c6} from the chi^p forms, but the Euler characteristic "
            f"is {chi_top}")
    return ChernReport(chi0, chi1, chi2, c2_cubed, c2_c4, c6)


# ---------------------------------------------------------------------------
# the full derivation


def _derived(step, *args):
    """Run one derivation step whose arguments come from checked constants.

    A step raises ``ValueError`` for a bad argument; here that means the
    named constants are corrupt.  This is the one place that turns it
    into :class:`ConsistencyError`.
    """
    try:
        return step(*args)
    except ValueError as exc:
        raise ConsistencyError(f"cross-validation mismatch: the named constants "
                               f"admit no derivation: {exc}") from exc


def run_full_pipeline(constants: NamedConstants = _DEFAULTS
                      ) -> PipelineResult:
    """Run the whole derivation and cross-validate the result.

    Returns the OG6 diamond, its Betti numbers, its Chern numbers and an
    audit trace of the six stages.  The middle Betti numbers of the
    derived table must independently solve the Salamon and Euler linear
    system for the named b2 and Euler characteristic.  A mismatch, or a
    stage that rejects what the named constants give it, for example
    after perturbing one of them, raises :class:`ConsistencyError`.

    The result is immutable and shared: equal constants get the same
    :class:`PipelineResult` object while they are among the 16 most
    recently used.  Failures are not cached, so corrupted constants
    raise on every call.
    """
    if not isinstance(constants, NamedConstants):
        raise _wrong_type(NamedConstants, constants)
    return _derived(_derive, constants)


@functools.lru_cache(maxsize=16)
def _derive(constants: NamedConstants) -> PipelineResult:
    table = invariant_part(_lower_cohomology(derive_invariant_h2(constants.b2)))
    steps = []
    for tag, build in _CHAIN:
        table, applied = _correct(table, build, constants, tag) if build else (table, ())
        steps.append(TraceStep(tag, table, applied))
    diamond = _complete(table)
    steps.append(TraceStep("thm:main", diamond, ()))
    return PipelineResult(diamond, _cross_validate(diamond, constants),
                          chern_numbers(diamond), tuple(steps))


def _cross_validate(diamond: HodgeDiamond,
                    constants: NamedConstants) -> BettiVector:
    """Betti numbers of a derived 6-fold, checked against b2 and chi."""
    b2, chi_top = constants.b2, constants.euler_characteristic
    b4, b6 = solve_betti_dim6(1, b2, chi_top)
    vector = betti(diamond)
    if (vector.b[2], vector.b[4], vector.b[6]) != (b2, b4, b6):
        raise ConsistencyError(
            f"cross-validation mismatch: the derived table has middle "
            f"Betti numbers {vector.b[2:7:2]}, the Salamon and Euler "
            f"system demands {(b2, b4, b6)}")
    if euler_characteristic(diamond) != chi_top:
        raise ConsistencyError(
            f"cross-validation mismatch: the derived table has Euler "
            f"characteristic {euler_characteristic(diamond)}, expected "
            f"{chi_top}")
    if salamon_residual(vector) != 0:
        raise ConsistencyError("the derived table violates the Salamon "
                               "constraint")
    return vector


def _dual_degree_table(constants: NamedConstants) -> HodgeDiamond:
    """The dual-degree bookkeeping of :func:`og6_via_dual_degrees`, unchecked."""
    corrections = Counter()
    for _, build in _CHAIN:
        corrections.update(build(constants) if build else {})
    table = complete_by_duality(
        invariant_part(_lower_cohomology(derive_invariant_h2(constants.b2))), 6)
    return _apply_corrections(table, corrections, 6)


def og6_via_dual_degrees(constants: NamedConstants = _DEFAULTS
                         ) -> HodgeDiamond:
    """Re-derive the OG6 diamond applying the corrections at dual degrees.

    Completes the stage 4fin invariant table by duality first and then
    applies the summed blow-up corrections of the chain at all
    bidegrees, the mirrored ones included.  Agreement with
    :func:`run_full_pipeline` validates that duality completion commutes
    with each correction.  The result is cross-validated as in
    :func:`run_full_pipeline`.
    """
    if not isinstance(constants, NamedConstants):
        raise _wrong_type(NamedConstants, constants)
    diamond = _derived(_dual_degree_table, constants)
    _derived(_cross_validate, diamond, constants)
    return diamond
