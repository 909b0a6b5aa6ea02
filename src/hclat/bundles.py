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

from .exact import BezoutPair, _require_index
from .lattices import (
    InvariantVector,
    _basis,
    _ord_gate,
    minimal_ahat,
    minimal_signature,
)
from .plumbing import _answer, _bezout_terms, lambda_k, profile

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
    top, half = expr.coeff_p_top, expr.coeff_p_half_sq
    return Fraction(
        top.numerator * half.denominator * v.p_top + half.numerator * top.denominator * v.p_half_sq,
        top.denominator * half.denominator,
    )


def bundle_signature_divisor(m: int, ord: int = 1) -> int:
    """Divisor of the signature of an admissible total space over a surface.

    4 in the three exceptional dimensions, the minimal highly connected
    signature otherwise.
    """
    _ord_gate(m, ord, None)
    if m in (1, 2, 4):
        return 4
    value, _ = minimal_signature(m, ord)
    return value


def signature_4_realizable(m: int) -> bool:
    """Whether signature exactly 4 occurs among such total spaces."""
    _require_index(m, "m", 1)
    return m in (1, 2, 4)


def _kappa_terms(
    m: int, ord: int, bezout: BezoutPair | None
) -> list[tuple[int, int, int]]:
    """The kappa basis as rows ``(top num, half num, den)`` over one unreduced denominator."""
    if m == 1:
        return [(1, 0, 12)]
    prof = profile(m)
    dm = prof.fact * prof.j
    if m % 2:
        return [(1, 0, 2 * dm)]
    k = m // 2
    pk = profile(k)
    y, _ = _bezout_terms(k, bezout or prof.bezout)
    # 1/((4k-1)! j_2k) and -1/(2 (4k-1)! j_2k) - y / (2 (2k-1)!^2 j_k^2), over
    # 2 (4k-1)! j_2k j_k^2 since (2k-1)!^2 divides (4k-1)!; y carries the pair
    jk2 = pk.j**2
    q = prof.fact // pk.fact**2
    mixed = (2 * jk2, -(jk2 + q * prof.j * y), 2 * dm * jk2)
    pure = (0, 1, 2 * lambda_k(k) * pk.a**2 * ord * pk.fact**2)
    return [mixed, pure]


def kappa_basis(
    m: int,
    ord: int = 1,
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
    lattice of functionals.  A pair is checked against ``m`` in every case,
    once, where the answer memo is read.  The basis for the canonical pair
    (omitted or passed) is memoized per ``(m, ord)``, about 7 KB at
    ``m = 600``; each call returns a new list.
    """
    return list(_answer(_kappa_basis, _ord_gate, m, ord, bezout))


def _kappa_basis(
    m: int, ord: int, bezout: BezoutPair | None, arg: None
) -> tuple[KappaExpression, ...]:
    return tuple(
        KappaExpression(Fraction(tn, den), Fraction(hn, den))
        for tn, hn, den in _kappa_terms(m, ord, bezout)
    )


def pairing_matrix(
    m: int,
    ord: int = 1,
    bezout: BezoutPair | None = None,
) -> list[list[Fraction]]:
    """Pairings of the kappa basis against the signature_in_4Z generators.

    Entry (i, j) is the i-th kappa expression evaluated on the j-th
    generator; the result is the identity matrix, which is the integrality
    and unimodularity statement at lattice level.  Needs ``m >= 2``: at
    ``m = 1`` there is a kappa basis but no lattice, and ValueError is raised.

    The matrix for the canonical pair (omitted or passed) is memoized per
    ``(m, ord)``, about 0.6 KB, and is checked to
    be the identity on its first computation (RuntimeError otherwise); any
    other pair is checked once, where the answer memo is read, and recomputed
    on every call.  Each call returns new lists.
    """
    # gated at m >= 1: at m = 1 a bad pair is reported before the lattice's m >= 2
    return [list(row) for row in _answer(_pairing_matrix, _ord_gate, m, ord, bezout)]


def _pairing_matrix(
    m: int, ord: int, bezout: BezoutPair | None, arg: None
) -> tuple[tuple[Fraction, ...], ...]:
    terms = _kappa_terms(m, ord, bezout)
    basis = _basis(m, ord, bezout, "signature_in_4Z")
    rows = tuple(
        tuple(Fraction(tn * v.p_top + hn * v.p_half_sq, den) for _, v in basis.generators)
        for tn, hn, den in terms
    )
    if any(x != int(i == j) for i, row in enumerate(rows) for j, x in enumerate(row)):
        raise RuntimeError(f"the kappa basis does not pair to the identity at m={m}")
    return rows


@dataclass(frozen=True)
class DivisibilityReport:
    """Signature and A-hat divisibility for admissible bundles over surfaces.

    ``realizable_at_genus`` records the fiber-genus threshold above which
    the stated divisors are actually attained; it is informational only.
    The ``non_admissible_*`` companions give the guaranteed divisor once
    admissibility is dropped (half the admissible one, when that is even).
    """

    m: int
    ord: int
    signature_divisor: int
    ahat_divisor: int | None
    realizable_at_genus: str
    non_admissible_signature_divisor: int | None
    non_admissible_ahat_divisor: int | None


def divisibility_report(m: int, ord: int = 1) -> DivisibilityReport:
    """Assemble the full divisibility report for dimension parameter ``m``.

    The report is memoized per ``(m, ord)``, about 0.8 KB at ``m = 600``; it
    is built on first use from :func:`~hclat.lattices.minimal_signature`,
    whose integrality check runs then, and ``minimal_ahat``.
    """
    return _answer(_divisibility_report, _ord_gate, m, ord, None)


def _divisibility_report(m: int, ord: int, bezout: None, arg: None) -> DivisibilityReport:
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
