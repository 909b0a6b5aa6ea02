"""Exact integer and rational primitives.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (always stored reduced, denominator positive).
Everything downstream is built on the operations here: normalized
Bezout pairs for a coprime numerator/denominator, and p-adic valuations.
No rounding happens anywhere in this package.  The one JSON encoding of
those values, and the one setter of the int-to-str digit limit it needs,
live here too, so the CLI's cold path loads no other module for them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "INDEX_MAX",
    "BezoutPair",
    "normalize_bezout",
    "padic_valuation",
    "nu2",
    "gcd_with_square",
]


@dataclass(frozen=True)
class BezoutPair:
    """Coefficients ``c, d`` with ``c*for_numerator + d*for_denominator == 1``.

    The defining identity is checked on construction.  Normalization
    (``0 <= d < for_numerator``) is the contract of :func:`normalize_bezout`,
    not of this constructor, so shifted representatives
    ``(c + t*for_denominator, d - t*for_numerator)`` remain constructible,
    e.g. for robustness tests.
    """

    c: int
    d: int
    for_numerator: int
    for_denominator: int

    def __post_init__(self) -> None:
        if self.for_numerator <= 0 or self.for_denominator <= 0:
            raise ValueError("Bezout moduli must be positive")
        if self.c * self.for_numerator + self.d * self.for_denominator != 1:
            raise ValueError(
                "invalid Bezout pair: c*num + d*denom != 1 for "
                f"(c={self.c}, d={self.d}, num={self.for_numerator}, "
                f"denom={self.for_denominator})"
            )

    def shifted(self, t: int) -> "BezoutPair":
        """The representative ``(c + t*denom, d - t*num)`` of the same pair."""
        return BezoutPair(
            self.c + t * self.for_denominator,
            self.d - t * self.for_numerator,
            self.for_numerator,
            self.for_denominator,
        )


def normalize_bezout(num: int, denom: int) -> BezoutPair:
    """The unique Bezout pair for coprime positive ``(num, denom)`` with
    ``0 <= d < num``; in particular ``d == 0`` and ``c == 1`` when ``num == 1``.

    Raises ValueError if the inputs are not positive and coprime.
    """
    if num <= 0 or denom <= 0:
        raise ValueError("num and denom must be positive")
    g = gcd(num, denom)
    if g != 1:
        raise ValueError(f"inputs not coprime: gcd({num}, {denom}) = {g}")
    d = pow(denom, -1, num)
    c = (1 - d * denom) // num
    return BezoutPair(c, d, num, denom)


# above every published range; a scan's diagonal, a third of column n (13.2 MB at n = 3000,
# growing as n^2.12), is about 7 GB here, and every resume restarts the stream at T_1
INDEX_MAX = 100_000


def _require_index(value: object, name: str, lo: int, hi: int = INDEX_MAX) -> None:
    """The one check of every public index argument, before any work: ValueError unless
    ``value`` is an int, not a bool, and ``>= lo``; OverflowError if it is ``> hi``.  A memo
    read before it requires ``type(value) is int``, as ``6.0`` and ``True`` hash and compare
    equal to ``6`` and ``1`` and would find their entries."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    if value > hi:
        raise OverflowError(f"{name} must be <= {hi}, got {value}")


def allow_big_str() -> None:
    """Raise the int-to-str digit limit, which large scans and queries exceed."""
    if sys.get_int_max_str_digits() < 2_000_000:
        sys.set_int_max_str_digits(2_000_000)


def to_jsonable(obj):
    """Integers become decimal strings and rationals ``{"num": ..., "den": ...}``
    objects, inside dicts, lists and tuples too; anything else passes unchanged."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def padic_valuation(x: int | Fraction, p: int) -> int:
    """Largest ``e`` with ``p**e`` dividing ``x``; negative when ``p`` divides
    the denominator of a rational.

    ``p`` must be prime (only ``p >= 2`` is checked).  Raises ValueError for
    ``x == 0``, whose valuation is undefined.
    """
    if p < 2:
        raise ValueError("p must be a prime, hence >= 2")
    if x == 0:
        raise ValueError("the p-adic valuation of 0 is undefined")
    if isinstance(x, Fraction):
        return padic_valuation(x.numerator, p) - padic_valuation(x.denominator, p)
    n = abs(x)
    if p == 2:
        return (n & -n).bit_length() - 1
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def nu2(x: int | Fraction) -> int:
    """2-adic valuation, the case of :func:`padic_valuation` used throughout."""
    if type(x) is int and x:
        return (x & -x).bit_length() - 1
    return padic_valuation(x, 2)


def gcd_with_square(a: int, b: int) -> tuple[int, int]:
    """``(e, odd)`` with ``gcd(a, b**2) == 2**e * odd``, ``odd`` odd, for nonzero ``a, b``;
    ``e`` is read off the integers and ``b`` is squared only if the odd parts share a factor."""
    nu_a, nu_b = nu2(a), nu2(b)
    a, b = a >> nu_a, b >> nu_b
    odd = gcd(a, b)
    if odd != 1:
        odd = gcd(a, b * b)
    return min(nu_a, 2 * nu_b), odd
