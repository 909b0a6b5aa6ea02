"""Divisibility constants for bundles over surfaces and the kappa-class basis.

For a smooth oriented bundle over a closed oriented surface with highly
connected almost parallelizable fiber of dimension ``4m - 2``, the total
space's signature and A-hat genus are divisible by the constants computed
here (assuming admissibility, which is a property of the bundle's bordism
class that this package does not decide; dropping it costs at most a
factor of 2, reported alongside).

The same data determines an integral basis of the free quotient of the
second cohomology of the diffeomorphism classifying space in terms of
fiber-integrated Pontryagin classes (generalized Miller-Morita-Mumford
classes).  A basis expression is stored by its two rational coefficients
on ``kappa_{p_top}`` and ``kappa_{p_half^2}``; evaluating such an
expression on a bordism class is the bilinear pairing with the class's
invariant vector.  Expressions are listed dual to the generator order of
:func:`hclat.lattices.generator_invariants` (the one carrying
``kappa_{p_top}`` first), so the pairing matrix against the
``signature_in_4Z`` basis is exactly the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import BezoutPair
from .lattices import (
    InvariantVector,
    OrdParameter,
    _as_ord,
    generator_invariants,
    minimal_ahat,
    minimal_signature,
)
from .plumbing import lambda_k, profile, require_bezout_for

__all__ = [
    "KappaExpression",
    "DivisibilityReport",
    "bundle_signature_divisor",
    "signature_4_realizable",
    "kappa_basis",
    "pairing",
    "pairing_matrix",
    "divisibility_report",
]


@dataclass(frozen=True)
class KappaExpression:
    """A rational combination of kappa_{p_top} and kappa_{p_half^2}."""

    coeff_p_top: Fraction
    coeff_p_half_sq: Fraction


def pairing(expr: KappaExpression, v: InvariantVector) -> Fraction:
    """Evaluate the expression on a bordism class with the given numbers."""
    return expr.coeff_p_top * v.p_top + expr.coeff_p_half_sq * v.p_half_sq


def bundle_signature_divisor(m: int, ord: OrdParameter | int = 1) -> int:
    """Divisor of the signature of an admissible total space over a surface.

    4 in the three exceptional dimensions, the minimal highly connected
    signature otherwise.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    ord = _as_ord(ord, m)
    if m in (1, 2, 4):
        return 4
    value, _ = minimal_signature(m, ord)
    return value


def signature_4_realizable(m: int) -> bool:
    """Whether signature exactly 4 occurs among such total spaces."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return m in (1, 2, 4)


def kappa_basis(
    m: int,
    ord: OrdParameter | int = 1,
    bezout: BezoutPair | None = None,
) -> list[KappaExpression]:
    """Integral basis of the free second cohomology in kappa classes.

    ``m = 1``: the single expression ``(1/12) kappa_{p_1}``.  Odd ``m``: the
    single expression ``kappa_{p_m} / (2 (2m-1)! j_m)``.  Even ``m = 2k``:
    two expressions, listed dual to the lattice generator order, i.e. the
    one with nonzero ``kappa_{p_top}`` coefficient first and the pure
    ``kappa_{p_half^2}`` expression second.

    ``bezout`` picks the representative entering the mixed expression
    (canonical pair by default); any valid pair gives a basis of the same
    lattice of functionals.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    ord = _as_ord(ord, m)
    if m == 1:
        return [KappaExpression(Fraction(1, 12), Fraction(0))]
    prof = profile(m)
    if m % 2:
        return [KappaExpression(Fraction(1, 2 * prof.fact * prof.j), Fraction(0))]
    k = m // 2
    bezout = require_bezout_for(m, bezout)
    pk = profile(k)
    b4k = Fraction(pk.num4, pk.j)
    mixed = KappaExpression(
        Fraction(1, prof.fact * prof.j),
        -Fraction(1, 2 * prof.fact * prof.j)
        - b4k * (bezout.c * b4k + 2 * bezout.d * (-1) ** k) / (2 * pk.fact**2),
    )
    pure = KappaExpression(
        Fraction(0),
        Fraction(1, 2 * lambda_k(k) * pk.a**2 * ord.value * pk.fact**2),
    )
    return [mixed, pure]


def pairing_matrix(
    m: int,
    ord: OrdParameter | int = 1,
    bezout: BezoutPair | None = None,
) -> list[list[Fraction]]:
    """Pairings of the kappa basis against the signature_in_4Z generators.

    Entry (i, j) is the i-th kappa expression evaluated on the j-th
    generator; the result is the identity matrix, which is the integrality
    and unimodularity statement at lattice level.  Needs ``m >= 2``: at
    ``m = 1`` there is a kappa basis but no lattice, and ValueError is raised.
    """
    exprs = kappa_basis(m, ord, bezout)
    basis = generator_invariants(m, ord, "signature_in_4Z", bezout)
    return [[pairing(e, vec) for _, vec in basis.generators] for e in exprs]


@dataclass(frozen=True)
class DivisibilityReport:
    """Signature and A-hat divisibility for admissible bundles over surfaces.

    ``realizable_at_genus`` records the fiber-genus threshold above which
    the stated divisors are actually attained; it is informational only.
    The ``non_admissible_*`` companions give the guaranteed divisor once
    admissibility is dropped (half the admissible one, when that is even).
    """

    m: int
    ord: OrdParameter
    signature_divisor: int
    ahat_divisor: int | None
    realizable_at_genus: str
    non_admissible_signature_divisor: int | None
    non_admissible_ahat_divisor: int | None


def divisibility_report(m: int, ord: OrdParameter | int = 1) -> DivisibilityReport:
    """Assemble the full divisibility report for dimension parameter ``m``."""
    ord = _as_ord(ord, m)
    sig = bundle_signature_divisor(m, ord)
    ahat = minimal_ahat(m) if m >= 2 else None
    return DivisibilityReport(
        m=m,
        ord=ord,
        signature_divisor=sig,
        ahat_divisor=ahat,
        realizable_at_genus="g >= 3" if m == 1 else "g >= 5",
        non_admissible_signature_divisor=sig // 2 if sig % 2 == 0 else None,
        non_admissible_ahat_divisor=(
            ahat // 2 if ahat is not None and ahat % 2 == 0 else None
        ),
    )
