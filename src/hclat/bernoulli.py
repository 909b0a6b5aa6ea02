"""Exact Bernoulli and tangent numbers at large index.

Tangent numbers ``T_n = 2^{2n}(2^{2n}-1)|B_{2n}|/2n`` are integers and are
computed column by column with Brent and Harvey's TangentNumbers recurrence
(arXiv:1108.0286).  Their in-place algorithm has ``h_j[1] = (j-1)!``,
``h_j[k] = (j-k) h_{j-1}[k] + (j-k+2) h_j[k-1]`` for ``2 <= k < j`` and
``T_j = h_j[j] = 2 h_j[j-1]``.  Column ``j`` is stored here as ``u_j[k] =
h_j[k] / ((j-k)! 2^{k-1})``; dividing the recurrence by ``(j-k)! 2^{k-1}``
gives, with ``d = j-k``, ``u_j[1] = 1``, ``u_j[k] = u_{j-1}[k] + C(d+2, 2)
u_j[k-1]`` and ``u_j[j] = u_j[j-1]``, from which ``T_j = u_j[j] << (j-1)``
is read off.  The binomial coefficient ``C(d+2, 2) = (d+1)(d+2)/2`` is an
integer, so by induction on ``j`` and then ``k`` every ``u_j[k]`` is one:
the divisions are exact and never performed.  An entry costs one
multiplication of a big integer by a small one and one addition (``h``
needs two multiplications), and is smaller than ``h_j[k]`` by ``(j-k)!``
and ``k-1`` bits.  Entry ``(j, k)`` needs only ``(j-1, k)`` and ``(j, k-1)``,
so ``T_1..T_n`` cost ``O(n^2)`` such steps, taken by one kernel that sweeps a
strip ``L < j <= limit`` by anti-diagonals ``s = j + k`` from boundary column
``L``: from ``L = 0``, keeping nothing, for scans (:func:`record_range`), which
hold at most ``limit // 2 + 1`` entries, about a third of column ``limit``'s bits,
and one strip at a time for a memo of column ``L``, ``T_1..T_L`` and every record.

From ``T_n`` everything else is a single reduced fraction:

    |B_{2n}|        = 2n * T_n / (2^{2n}(2^{2n}-1))
    |B_{2n}| / 4n   = T_n / (2^{2n+1}(2^{2n}-1))  =  num4 / j   (reduced)

``j = j_n`` is the order of the image of the stable J-homomorphism in
degree ``4n-1``.

The von Staudt-Clausen theorem gives the denominator of ``|B_{2n}|/n`` as
a prime product, evaluated here without any Bernoulli number, and
``j = 4 * vsc_denominator(n)``, whose candidate primes are looked up in one
sieve of ``0 .. 2 INDEX_MAX + 1``, built on first use.  Each record
takes ``j`` from it and is certified rather than reduced by a gcd: writing
``T_n = 2^v t`` and ``j = 2^w j'`` with ``t, j'`` odd, it checks
``v + w = 2n + 1``, divides ``num4 = t j' / (2^{2n}-1)`` with remainder 0,
and checks ``gcd(num4, j) = 1``; the division folds base-``2^{2n}`` digits
and needs no long division.  Then ``num4 / j = T_n / (2^{2n+1}(2^{2n}-1))`` in
lowest terms, so a tangent number whose fraction has any denominator but
the von Staudt-Clausen one (``T_n + 1``, ``2 T_n`` and ``3 T_n`` among
them) fails one of the three checks.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from .exact import INDEX_MAX, _require_index, nu2, padic_valuation

__all__ = [
    "BernoulliRecord",
    "tangent_number",
    "bernoulli_abs",
    "bernoulli_record",
    "record_range",
    "vsc_denominator",
]


@dataclass(frozen=True)
class BernoulliRecord:
    """Index ``n`` together with the reduced ``|B_{2n}|/4n``.

    ``num4 / j`` is ``|B_{2n}|/4n`` in lowest terms; both parts are kept
    because the numerator and the denominator ``j_n`` play independent roles
    downstream.  ``|B_{2n}|`` itself is derived from them on access.
    """

    n: int
    num4: int
    j: int

    @property
    def abs_value(self) -> Fraction:
        """``|B_{2n}| = 4n num4 / j`` as a reduced fraction."""
        return Fraction(4 * self.n * self.num4, self.j)


def _tangents(limit: int, column: list[int] | None = None) -> Iterator[int]:
    """Yield ``T_{L+1} .. T_limit``, sweeping the strip ``L < j <= limit`` by anti-diagonals
    from column ``u_L[1..L]``, ``L = len(column)`` or 0, which ends as column ``limit``."""
    width = len(column or ())
    # u[k] is row k: u_{s-k}[k] on diagonal s, column L's entry until it enters, column
    # limit's once it leaves (0 in a scan); u[0] = u_j[0] = 0, u[1] = u_j[1] = 1, and row j
    # is added as u_{j-1}[j] = 0 above the triangle, so stepping it gives u_j[j] = u_j[j-1]
    u = [0, *(column or [1])]
    for s in range(width + 2, 2 * limit + 1):
        # the top entry stepped is (L+1, s-1-L) while column L enters, then (j, j) or (j+1, j)
        top = s - 1 - width if s <= 2 * width + 1 else s // 2
        if top == len(u):
            u.append(0)
        low = s - limit - 1 if s > limit + 1 else 1  # rows low+1 .. top are stepped
        # from the top down, so u[k-1] is read before it is stepped; c = C(d+2, 2) from
        # the top's d = j - k up, and C(d+4, 2) - C(d+2, 2) = 2d+5
        d = s - 2 * top
        c, step = (d + 1) * (d + 2) // 2, 2 * d + 5
        for k in range(top, low, -1):
            u[k] += c * u[k - 1]
            c += step
            step += 4
        if column is None and s > limit + 1:
            u[low] = 0  # read by u_limit[low+1] just now; a scan keeps no column
        if not d:
            yield u[top] << (top - 1)  # T_j = u_j[j] << (j-1) at j = top
    if column is not None:
        column[:] = u[1:]


def _divmod_mersenne(x: int, bits: int) -> tuple[int, int]:
    """``divmod(x, 2^bits - 1)`` for ``x >= 0``.  Since ``2^bits = 1`` modulo the
    divisor, ``q = sum(x >> (i bits) for i >= 1)`` leaves ``x - q (2^bits - 1)``, the
    sum of x's base-``2^bits`` digits, and one small divmod of that finishes."""
    q, y = 0, x >> bits
    while y:
        q += y
        y >>= bits
    q_small, rem = divmod(x - ((q << bits) - q), (1 << bits) - 1)
    return q + q_small, rem


def _record(n: int, t: int) -> BernoulliRecord:
    """The record of index ``n`` from ``t = T_n``, certified by von Staudt-Clausen;
    raises ValueError when the reduced ``t / (2^{2n+1}(2^{2n}-1))`` has another
    denominator than ``j``."""
    j = 4 * vsc_denominator(n)
    v, w = nu2(t), nu2(j)
    num4, rem = _divmod_mersenne((t >> v) * (j >> w), 2 * n)
    if v + w != 2 * n + 1 or rem or gcd(num4, j) != 1:
        raise ValueError(f"T_{n} fails its von Staudt-Clausen certificate")
    return BernoulliRecord(n=n, num4=num4, j=j)


# The point-query memo: one tuple (column L, [0, T_1..T_L]) and every record read
_lock = threading.Lock()
_memo: tuple[list[int], list[int]] = ([], [0])
_records: dict[int, BernoulliRecord] = {}


def tangent_number(n: int) -> int:
    """The integer ``T_n``; ``T_1, T_2, T_3 = 1, 2, 16``.

    Memoized in ``_memo``, which keeps column ``L`` and ``T_1..T_L`` for the largest
    ``L`` reached.  Under one lock a query past ``L`` sweeps one strip on a copy of the
    column, then stores the new tuple in one assignment, so an interrupt leaves the
    last whole strip; concurrent first requests compute an index once, and cached
    reads are lookups.  Nothing is ever dropped, and the gate at ``INDEX_MAX`` does
    not bound the memo's memory: a cold ``tangent_number(3000)`` peaks at 42.8 MB of
    RSS, against 19.5 MB for draining the scan's stream ``_tangents(3000)``, and a cold
    ``tangent_number(5000)`` at 100 MB; extrapolated, it passes 8 GB near n = 46000.
    """
    global _memo
    _require_index(n, "n", 1)
    if n >= len(_memo[1]):
        with _lock:
            column, tangents = _memo
            if n >= len(tangents):  # no-op if another thread got here first
                column = column.copy()
                _memo = (column, [*tangents, *_tangents(n, column)])
    return _memo[1][n]


def bernoulli_abs(n: int) -> Fraction:
    """``|B_{2n}|`` as an exact fraction, e.g. ``bernoulli_abs(1) == 1/6``."""
    return bernoulli_record(n).abs_value


def bernoulli_record(n: int) -> BernoulliRecord:
    """The full record for index ``n``, memoized in ``_records``."""
    rec = _records.get(n) if type(n) is int else None  # kept only for a gated n
    if rec is None:
        rec = _records.setdefault(n, _record(n, tangent_number(n)))
    return rec


def record_range(limit: int) -> Iterator[BernoulliRecord]:
    """Iterate over the certified records ``n = 1 .. limit`` in order from a stream of
    their own; ``limit`` is checked at the call.  The point-query memo is neither read
    nor filled."""
    _require_index(limit, "limit", 0)
    return (_record(n, t) for n, t in enumerate(_tangents(limit), 1))


@cache
def _sieve() -> bytes:
    """``sieve[q]`` is 1 iff ``q`` is prime, for ``q <= 2 INDEX_MAX + 1``, the largest
    candidate of an index under the ceiling; built on the first call, not at import."""
    size = 2 * INDEX_MAX + 2
    sieve = bytearray(2) + bytearray([1]) * (size - 2)
    for p in range(2, isqrt(size - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, size, p)))
    return bytes(sieve)


def vsc_denominator(n: int) -> int:
    """Denominator of ``|B_{2n}|/n`` from the von Staudt-Clausen theorem.

    Equals ``prod(p^(1 + v_p(n)))`` over primes ``p`` with ``p - 1`` dividing
    ``2n``, found among ``d + 1`` for the divisors ``d`` of ``2n``; no Bernoulli
    number is involved.  The divisors come in pairs ``d, 2n / d`` from trial division
    up to ``isqrt(2n) <= 447``, and each candidate is looked up in :func:`_sieve`.
    """
    _require_index(n, "n", 1)
    two_n, sieve, out = 2 * n, _sieve(), 1
    # a set, so the root of a square 2n gives its candidate once
    divisors = (d for d in range(1, isqrt(two_n) + 1) if not two_n % d)
    for p in {c for d in divisors for c in (d + 1, two_n // d + 1)}:
        if sieve[p]:
            out *= p ** (1 + padic_valuation(n, p)) if n % p == 0 else p
    return out
