"""Numeric invariants of the two standard plumbings.

``P`` is the E8 plumbing, the parallelizable ``4m``-manifold of signature 8
whose boundary sphere generates the cyclic group of homotopy spheres
bounding parallelizable manifolds (of order ``sigma_m / 8``).  ``Q`` is the
plumbing of two sphere disk bundles with hyperbolic intersection form,
signature 0, and, in dimension ``8k``,

    p_k^2(Q) = 2 lambda_k^2 a_k^2 (2k-1)!^2,   lambda_k = 2 iff k in {1, 2}.

The splitting invariant ``s(M) = (sigma(M) - <S_m(M), [M, dM]>) / 8`` of an
almost closed spin manifold is an integer.  For ``Q`` it vanishes in odd
``m`` and admits two independent closed formulas when ``m = 2k``; both are
evaluated exactly and must agree before the value is returned.

Next to the profiles sits one memo of checked answers, shared by ``s_of_Q``,
``genus_coeffs`` (per genus), ``stolz_class_coeffs``, ``generator_invariants`` (per
variant), ``minimal_signature``, ``kappa_basis``, ``divisibility_report`` and
``pairing_matrix``: each answer is computed, and cross-checked, once per ``(m, ord)``
for the canonical Bezout pair; any other pair is checked, here and nowhere else, and
recomputed on every call.  A call is answered from the memo before any argument check
when ``m`` and ``ord`` are ints (not bools) and its pair is omitted or the kept
profile's own: an entry is stored under its function, ``m``, ``ord`` and genus or
variant only after those exact arguments passed every check, so a hit is a valid call
and no other input reaches it.  The identity scan drops m's answers once m is checked.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Any, TypeVar

from .bernoulli import bernoulli_record, tangent_number
from .exact import BezoutPair, _exact_int, _require_index, normalize_bezout

__all__ = [
    "DimensionProfile",
    "profile",
    "canonical_bezout",
    "bp_order",
    "pk2_of_Q",
    "s_of_Q",
    "stolz_s",
    "lambda_k",
    "a_m",
    "sigma_over_a",
    "sigma_m",
    "require_bezout_for",
]


def lambda_k(k: int) -> int:
    """2 for k in {1, 2}, else 1: the normalization of the middle class of Q,
    which is also the index of the second lattice generator."""
    _require_index(k, "k", 1)
    return 2 if k in (1, 2) else 1


def a_m(m: int) -> int:
    """``a_m``: 2 for odd m, 1 for even m."""
    _require_index(m, "m", 1)
    return 2 if m % 2 else 1


def sigma_over_a(m: int, num4: int = 1) -> int:
    """``sigma_m / a_m = 2^{2m+1}(2^{2m-1}-1) num4``, with ``num4 = num(|B_{2m}|/4m)``.

    With the default ``num4 = 1`` this is the bare power-of-two factor.
    """
    _require_index(m, "m", 1)
    return (num4 << (4 * m)) - (num4 << (2 * m + 1))


def sigma_m(m: int, num4: int) -> int:
    """``sigma_m`` from m and ``num4`` alone, for the scans, whose record stream
    leaves the Bernoulli memo and the profiles empty."""
    _require_index(m, "m", 1)
    return a_m(m) * sigma_over_a(m, num4)


@dataclass(frozen=True)
class DimensionProfile:
    """The constants attached to dimension ``4m``, each computed here and nowhere else.

    ``a = a_m`` (2 iff ``m`` is odd), ``sigma = sigma_m`` is the minimal
    positive signature of an almost parallelizable ``4m``-manifold,
    ``num4 / j`` is the reduced ``|B_{2m}|/4m``, ``bezout`` is the
    canonical (normalized) Bezout pair ``c num4 + d j = 1`` for it,
    ``fact = (2m-1)!`` and ``tangent = T_m`` (the int kept in the point-query memo).
    ``genera``, ``lattices`` and ``bundles`` read Bernoulli data only from here.
    """

    m: int
    a: int
    sigma: int
    num4: int
    j: int
    bezout: BezoutPair
    fact: int
    tangent: int


_profiles: dict[int, DimensionProfile] = {}


def profile(m: int) -> DimensionProfile:
    """The :class:`DimensionProfile` for dimension ``4m``, built once per m.  An ``m`` past
    ``INDEX_MAX`` raises OverflowError at the index gate, before ``(2m-1)!`` or any tangent
    number is computed."""
    prof = _profiles.get(m) if type(m) is int else None
    if prof is not None:
        return prof
    _require_index(m, "m", 1)
    fact = factorial(2 * m - 1)
    rec = bernoulli_record(m)
    bezout = normalize_bezout(rec.num4, rec.j)
    prof = DimensionProfile(
        m, a_m(m), sigma_m(m, rec.num4), rec.num4, rec.j, bezout, fact, tangent_number(m)
    )
    return _profiles.setdefault(m, prof)


_T = TypeVar("_T")

_answers: dict[tuple[Callable[..., Any], int, int, Any], Any] = {}


def _answer(
    compute: Callable[..., _T], gate: Callable[..., None], m: int, ord: Any,
    bezout: BezoutPair | None, arg: str | None = None,
) -> _T:
    """``compute(m, ord, bezout, arg)``, kept under ``(compute, m, ord, arg)`` for the
    canonical pair and read back from the raw arguments by the rule of the module docstring.
    On a miss, ``gate(m, ord, arg)`` only checks the arguments, so ``compute`` and the key
    get them as given; then any pair but the canonical one is checked here, the one check of
    a given pair, and goes to ``compute`` on every call; ``compute`` reads ``None`` as the
    canonical pair.  A raise keeps nothing.  The
    twelve answers at one ``(m, ord)`` take about 14 KB at ``m = 60`` and 62 KB at ``m = 600``.
    """
    if type(m) is int and type(ord) is int and (
        bezout is None or bezout is getattr(_profiles.get(m), "bezout", None)
    ):
        try:
            out = _answers.get((compute, m, ord, arg))
        except TypeError:  # an unhashable arg, which the gate refuses
            out = None
        if out is not None:
            return out
    gate(m, ord, arg)
    if bezout is not None:
        canonical = profile(m).bezout
        if bezout is not canonical and bezout != canonical:
            return compute(m, ord, require_bezout_for(m, bezout), arg)
    key = (compute, m, ord, arg)
    out = _answers.get(key)
    if out is None:
        out = _answers.setdefault(key, compute(m, ord, None, arg))
    return out


def _index_from_1(m: int, ord: int, arg: None) -> None:
    _require_index(m, "m", 1)


def _index_from_2(m: int, ord: int, arg: None) -> None:
    _require_index(m, "m", 2)


def _drop_answers(m: int) -> None:
    """Forget every answer kept at ``m``, whatever its name or ord."""
    for key in [key for key in _answers if key[1] == m]:
        del _answers[key]


def canonical_bezout(m: int) -> BezoutPair:
    """The normalized Bezout pair for the reduced ``|B_{2m}|/4m`` (any m >= 1)."""
    return profile(m).bezout


def require_bezout_for(m: int, bezout: BezoutPair | None = None) -> BezoutPair:
    """``bezout`` (the canonical pair when None); ValueError unless it is a
    ``BezoutPair`` for the reduced ``|B_{2m}|/4m``.  Only ``_answer`` calls it here."""
    prof = profile(m)
    if bezout is None:
        return prof.bezout
    if not isinstance(bezout, BezoutPair):
        raise ValueError(f"bezout must be a BezoutPair, got {type(bezout).__name__}")
    if bezout.for_numerator != prof.num4 or bezout.for_denominator != prof.j:
        raise ValueError(
            f"Bezout pair is for ({bezout.for_numerator}, {bezout.for_denominator}), "
            f"expected the numerator/denominator ({prof.num4}, {prof.j}) "
            f"of |B_{2 * m}|/{4 * m}"
        )
    return bezout


def bp_order(m: int) -> int:
    """``sigma_m / 8``, the order of the group of homotopy ``(4m-1)``-spheres
    bounding parallelizable manifolds.

    The group interpretation holds for ``m >= 2``; the formula value is
    returned for ``m = 1`` as well.
    """
    sigma = profile(m).sigma
    if sigma % 8:
        raise RuntimeError(f"sigma_{m} = {sigma} is not divisible by 8")
    return sigma // 8


def pk2_of_Q(k: int) -> int:
    """The Pontryagin number ``p_k^2`` of the hyperbolic plumbing in dimension 8k."""
    _require_index(k, "k", 1)
    return 2 * lambda_k(k) ** 2 * a_m(k) ** 2 * factorial(2 * k - 1) ** 2


def _bezout_terms(k: int, bezout: BezoutPair) -> tuple[int, int]:
    """``(y, x)`` with ``b (c b + 2(-1)^k d) = y / j_k^2`` and
    ``d b (|B_{2k}|/|B_{4k}| + (-1)^{k+1}) = x / (2 num4_{2k} j_k^2)``, where
    ``b = |B_{2k}|/4k = num4_k / j_k`` and ``(c, d)`` is the pair for ``m = 2k``.

    These two Bezout-weighted terms enter the second lattice generator, the
    mixed kappa expression and both formulas for ``s(Q)``.
    """
    pk, p2k = profile(k), profile(2 * k)
    sign = (-1) ** k
    y = pk.num4 * (bezout.c * pk.num4 + 2 * sign * bezout.d * pk.j)
    x = bezout.d * pk.num4 * (pk.num4 * p2k.j - 2 * sign * p2k.num4 * pk.j)
    return y, x


def s_of_Q(m: int, bezout: BezoutPair | None = None) -> int:
    """The splitting invariant of Q in dimension ``4m``.

    Returns 0 for odd ``m``, after checking ``bezout`` when one is given.
    For ``m = 2k`` both formulas are evaluated with the given Bezout pair
    (the canonical one when omitted) and must agree on an integer; any
    discrepancy raises RuntimeError since it can only come from an
    implementation bug.  The integer itself depends on
    the chosen Bezout representative; only its residue modulo
    ``sigma_m / 8`` is canonical.

    The answer for the canonical pair (omitted or passed) is memoized per m,
    an int of about 2.9 KB at ``m = 600``, and the two formulas are compared on
    its first computation; any other pair is recomputed and checked on every call.
    """
    return _answer(_s_of_Q, _index_from_2, m, 1, bezout)


def _s_of_Q(m: int, ord: int, bezout: BezoutPair | None, arg: None) -> int:
    if m % 2:
        return 0
    k = m // 2
    pk, p2k = profile(k), profile(m)
    y, x = _bezout_terms(k, bezout or p2k.bezout)
    lam2 = lambda_k(k) ** 2
    jk2 = pk.j**2
    t2 = p2k.num4 * jk2
    # -(lam^2 / 8 j_k^2)(sigma_k^2 + a_k^2 sigma_2k y)
    n1, d1 = -lam2 * (pk.sigma**2 + pk.a**2 * p2k.sigma * y), 8 * jk2
    # (lam^2 a_k^2 / 4)(sigma_2k x / (2 num4_2k j_k^2) - T_k^2 / 4)
    n2, d2 = lam2 * pk.a**2 * (2 * p2k.sigma * x - pk.tangent**2 * t2), 16 * t2
    if n1 * d2 != n2 * d1:
        raise RuntimeError(
            f"the two formulas for s(Q) disagree at k={k}: "
            f"{Fraction(n1, d1)} != {Fraction(n2, d2)}"
        )
    return _exact_int(n1, d1, f"s(Q) at k={k}")


def stolz_s(sigma_M: int, S_eval: Fraction | int) -> int:
    """``(sigma(M) - S_eval) / 8`` for an almost closed spin manifold.

    ``S_eval`` is the evaluation of the signature-defect class on the
    fundamental class.  The difference must be divisible by 8; anything
    else means the input data is not consistent and raises ValueError.
    """
    q = (Fraction(sigma_M) - Fraction(S_eval)) / 8
    if q.denominator != 1:
        raise ValueError(
            f"sigma - <S> = {Fraction(sigma_M) - Fraction(S_eval)} is not divisible by 8"
        )
    return q.numerator
