"""Genus coefficients on the two-monomial basis of highly connected manifolds.

On a closed ``(2m-1)``-connected ``4m``-manifold every Pontryagin class
vanishes except the top one ``p_m`` and, when ``m = 2k``, the middle one
``p_k``.  The signature class L, the A-hat class, the reduced Pontryagin
character ph, and the product (A-hat * ph) therefore reduce in degree
``4m`` to linear combinations of ``p_top`` and ``p_half^2``:

    L_m        = s_m p_m                                      (m odd)
               = (1/2)(s_k^2 - s_{2k}) p_k^2 + s_{2k} p_{2k}  (m = 2k)
    Ahat_m     = same shape with shat in place of s
    ph_m       = (-1)^{m+1}/(2m-1)! p_m                       (m odd)
               = p_k^2/(2(4k-1)!) - p_{2k}/(4k-1)!            (m = 2k)
    (Ahat ph)_m = ph_m                                        (m odd)
               = ph_m + (-1)^{k+1} shat_k/(2k-1)! p_k^2       (m = 2k)

with the coefficient constants

    shat_n = -(1/(2n-1)!) |B_{2n}|/4n
    s_n    = -2^{2n+1}(2^{2n-1}-1) shat_n = sigma_n / (a_n (2n-1)! j_n)
           = (2^{2n-1}-1) T_n / ((2n-1)! (2^{2n}-1)),

where ``sigma_n = a_n 2^{2n+1}(2^{2n-1}-1) num(|B_{2n}|/4n)`` is the minimal
positive signature of an almost parallelizable ``4n``-manifold, ``a_n``
is 2 for odd ``n`` and 1 otherwise, and ``T_n`` is the tangent number.
Whenever ``s_n`` is computed, the ``sigma_n`` form and the raw-tangent form
are compared by cross-multiplication.

Each coefficient is built from the profile's integers as one numerator
over one denominator and reduced once, when the ``Fraction`` is made.

The signature-defect combination

    S_m = L_m + (sigma_m/a_m) (c_m Ahat_m + (-1)^m d_m (Ahat ph)_m)

built from a Bezout pair ``c_m num + d_m denom = 1`` for ``|B_{2m}|/4m``
has no ``p_top`` contribution at all; this cancellation is re-checked on
every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .exact import INDEX_MAX, BezoutPair, _require_index
from .plumbing import (
    DimensionProfile,
    _answer,
    _bezout_terms,
    _index_from_1,
    profile,
    sigma_over_a,
)

__all__ = [
    "GENERA",
    "GenusCoefficients",
    "P2kDecomposition",
    "shat",
    "s",
    "genus_coeffs",
    "stolz_class_coeffs",
    "p2k_solve",
]

GENERA = ("L", "Ahat", "Ph", "AhatPh")


@dataclass(frozen=True)
class GenusCoefficients:
    """Degree-``4m`` coefficients on the basis ``{p_top, p_half^2}``.

    ``coeff_p_half_sq`` is zero by convention for odd ``m`` where the
    middle Pontryagin class does not exist.
    """

    degree_m: int
    coeff_p_top: Fraction
    coeff_p_half_sq: Fraction

    def evaluate(self, p_top: int | Fraction, p_half_sq: int | Fraction) -> Fraction:
        return self.coeff_p_top * p_top + self.coeff_p_half_sq * p_half_sq


_ZERO = Fraction(0)


def _s_terms(prof: DimensionProfile) -> tuple[int, int]:
    """``s_n`` as the unreduced ``(sigma_n, a_n (2n-1)! j_n)``, for ``n = prof.m``.

    It is first compared with the raw-tangent form
    ``(2^{2n-1}-1) T_n / ((2n-1)! (2^{2n}-1))`` by cross-multiplication
    (the common ``(2n-1)!`` cancelled); a mismatch means the Bernoulli data
    is corrupted and raises RuntimeError.
    """
    n = prof.m
    lhs = prof.sigma * ((1 << (2 * n)) - 1)
    if lhs != prof.a * prof.j * ((1 << (2 * n - 1)) - 1) * prof.tangent:
        raise RuntimeError(f"the two closed forms of s_{n} disagree")
    return prof.sigma, prof.a * prof.fact * prof.j


def shat(n: int) -> Fraction:
    """``shat_n = -(1/(2n-1)!) |B_{2n}|/4n``; e.g. ``shat(1) == -1/24``."""
    _require_index(n, "n", 1)
    prof = profile(n)
    return Fraction(-prof.num4, prof.j * prof.fact)


def s(n: int) -> Fraction:
    """``s_n``, the ``p_top`` coefficient of L; e.g. ``s(1) == 1/3``.

    Both closed forms are computed exactly and must agree; a mismatch would
    mean the Bernoulli data is corrupted, so it raises RuntimeError.
    """
    _require_index(n, "n", 1)
    return Fraction(*_s_terms(profile(n)))


def genus_coeffs(genus: str, m: int) -> GenusCoefficients:
    """Coefficients of the named genus in degree ``4m``.

    ``genus`` is one of ``"L"``, ``"Ahat"``, ``"Ph"``, ``"AhatPh"``.  Memoized per
    ``(genus, m)``, 3.4 to 5.5 KB at ``m = 600``; the closed forms of ``s_n`` are compared
    on the first computation.  An ``m`` past ``INDEX_MAX`` raises OverflowError at the gate.
    """
    return _answer(_genus_coeffs, _genus_gate, m, 1, None, genus)


def _genus_gate(m: int, ord: int, genus: str) -> int:
    if genus not in GENERA:
        raise ValueError(f"unknown genus {genus!r}; expected one of {GENERA}")
    _require_index(m, "m", 1)
    return ord


def _genus_coeffs(m: int, ord: int, bezout: None, genus: str) -> GenusCoefficients:
    # ph needs no Bernoulli data: its (2m-1)! comes from math, not from a profile
    if genus in ("Ph", "AhatPh"):
        fact = factorial(2 * m - 1)
    if m % 2:
        if genus == "L":
            top = s(m)
        elif genus == "Ahat":
            top = shat(m)
        else:  # Ph and AhatPh coincide in odd degree
            top = Fraction(1, fact)
        return GenusCoefficients(m, top, _ZERO)
    # (2k-1)!^2 divides (4k-1)!, so with q = (4k-1)!/(2k-1)!^2 each half coefficient
    # has a common denominator of the size of (4k-1)! = (2m-1)!, not of (4k-1)! (2k-1)!^2
    k = m // 2
    if genus in ("Ph", "AhatPh"):
        if genus == "Ph":
            return GenusCoefficients(m, Fraction(-1, fact), Fraction(1, 2 * fact))
        # (-1)^{k+1} shat_k / (2k-1)! + 1/(2 (4k-1)!)
        pk = profile(k)
        q = fact // pk.fact**2
        half = Fraction(2 * (-1) ** k * pk.num4 * q + pk.j, 2 * pk.j * fact)
        return GenusCoefficients(m, Fraction(-1, fact), half)
    pm, pk = profile(m), profile(k)
    q = pm.fact // pk.fact**2
    if genus == "L":
        # (s_k^2 - s_{2k}) / 2, with s_k = nk / (a_k (2k-1)! j_k)
        nk, _ = _s_terms(pk)
        nm, dm = _s_terms(pm)
        ajk2 = (pk.a * pk.j) ** 2
        half = Fraction(nk**2 * pm.j * q - nm * ajk2, 2 * ajk2 * dm)
        return GenusCoefficients(m, Fraction(nm, dm), half)
    # (shat_k^2 - shat_{2k}) / 2
    dm = pm.j * pm.fact
    jk2 = pk.j**2
    half = Fraction(pk.num4**2 * pm.j * q + pm.num4 * jk2, 2 * jk2 * dm)
    return GenusCoefficients(m, Fraction(-pm.num4, dm), half)


def stolz_class_coeffs(m: int, bezout: BezoutPair | None = None) -> GenusCoefficients:
    """Coefficients of the signature-defect combination ``S_m``.

    ``bezout`` must be a valid pair for the numerator and denominator of
    ``|B_{2m}|/4m`` (any representative, not necessarily normalized), and
    is the canonical pair when omitted.  The ``p_top`` coefficient always
    cancels to zero; this is asserted and the exact zero is returned.  For
    odd ``m`` the ``p_half^2`` coefficient is zero as well.  For even ``m``
    it depends on the chosen representative.

    The coefficients for the canonical pair (omitted or passed) are memoized
    per m, about 4 KB at ``m = 600``, and the
    cancellation is asserted on their first computation; any other pair is
    checked once, where the answer memo is read, and recomputed on every call.
    """
    return _answer(_stolz_class_coeffs, _index_from_1, m, 1, bezout)


def _stolz_class_coeffs(
    m: int, ord: int, bezout: BezoutPair | None, arg: None
) -> GenusCoefficients:
    prof = profile(m)
    bezout = bezout or prof.bezout
    factor = sigma_over_a(m, prof.num4)
    # p_top over a_m (2m-1)! j_m: s_m from L, c shat_m from Ahat, and
    # (-1)^m d (Ahat ph)_m = -d/(2m-1)! in either parity
    num, den = _s_terms(prof)
    top = num - prof.a * factor * (bezout.c * prof.num4 + bezout.d * prof.j)
    if top:
        raise RuntimeError(f"S_{m} acquired a nonzero p_top coefficient: {Fraction(top, den)}")
    if m % 2:
        return GenusCoefficients(m, _ZERO, _ZERO)
    # the s_{2k} terms of L, Ahat and Ahat ph cancel by c num4 + d j = 1, leaving
    # s_k^2/2 + factor (c shat_k^2/2 + (-1)^k d num4_k / (j_k (2k-1)!^2))
    k = m // 2
    pk = profile(k)
    nk, dk = _s_terms(pk)
    y, _ = _bezout_terms(k, bezout)
    return GenusCoefficients(m, _ZERO, Fraction(nk**2 + pk.a**2 * factor * y, 2 * dk**2))


@dataclass(frozen=True)
class P2kDecomposition:
    """``p_{2k}`` and ``Ahat_{2k}`` expressed over the basis ``{L_{2k}, p_k^2}``."""

    k: int
    p2k_on_L: Fraction
    p2k_on_p_half_sq: Fraction
    ahat_on_L: Fraction
    ahat_on_p_half_sq: Fraction


def p2k_solve(k: int) -> P2kDecomposition:
    """Solve the even-degree L formula for ``p_{2k}`` and rewrite ``Ahat_{2k}``.

    The A-hat coefficients also have closed forms,

        on p_k^2 :  T_k^2 / ((2k-1)!^2 2^{4k+3} (2^{4k-1}-1))
        on L_2k  :  -1 / (2^{4k+1} (2^{4k-1}-1)),

    which are recomputed independently and compared before returning.
    """
    _require_index(k, "k", 1, INDEX_MAX // 2)  # m = 2k is under the ceiling too
    sk, s2k = s(k), s(2 * k)
    hk, h2k = shat(k), shat(2 * k)
    p2k_on_L = 1 / s2k
    p2k_on_sq = -(sk**2 - s2k) / (2 * s2k)
    ahat_on_L = h2k / s2k
    ahat_on_sq = (s2k * hk**2 - h2k * sk**2) / (2 * s2k)
    pw = (1 << (4 * k - 1)) - 1
    closed_L = -Fraction(1, (1 << (4 * k + 1)) * pw)
    pk = profile(k)
    closed_sq = Fraction(pk.tangent**2, pk.fact**2 * (1 << (4 * k + 3)) * pw)
    if ahat_on_L != closed_L or ahat_on_sq != closed_sq:
        raise RuntimeError(f"closed forms for Ahat_{2 * k} over (L, p^2) disagree")
    return P2kDecomposition(k, p2k_on_L, p2k_on_sq, ahat_on_L, ahat_on_sq)
