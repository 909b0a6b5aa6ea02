"""Independent brute-force oracles used to freeze expected values.

Nothing here touches the package internals: Bernoulli numbers come from
the defining binomial recurrence and tangent numbers from inverting their
definition against those Bernoulli values, or from Seidel's boustrophedon
triangle and Brent and Harvey's unscaled column recurrence, the references
the tangent engine is compared against.  The von Staudt-Clausen denominator
is rebuilt from a sieve of every prime up to ``2n + 1``, and each record
from a gcd of ``T_n`` against ``2^{2n} - 1`` instead of the von
Staudt-Clausen certificate the package uses.  Lattice
spans are compared through a general Hermite normal form, the reference
for the rank-<=2 membership test in ``hclat.lattices``, and Bezout
pairs through the extended Euclidean algorithm, the reference for
``hclat.exact.normalize_bezout``.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import comb, gcd


@lru_cache(maxsize=None)
def bernoulli_first_kind(n: int) -> Fraction:
    """B_n via sum_{k=0}^{m} C(m+1, k) B_k = 0 (convention B_1 = -1/2)."""
    if n == 0:
        return Fraction(1)
    total = sum(comb(n + 1, k) * bernoulli_first_kind(k) for k in range(n))
    return -Fraction(total, n + 1)


def bernoulli_abs_oracle(n: int) -> Fraction:
    """|B_{2n}| for n >= 1."""
    return abs(bernoulli_first_kind(2 * n))


def tangent_oracle(n: int) -> int:
    """T_n = 2^{2n}(2^{2n}-1)|B_{2n}|/2n, checked to be an integer."""
    value = (1 << (2 * n)) * ((1 << (2 * n)) - 1) * bernoulli_abs_oracle(n) / (2 * n)
    assert value.denominator == 1
    return value.numerator


def seidel_tangents(limit: int) -> list[int]:
    """T_1..T_limit from Seidel's boustrophedon triangle.

    Each row holds the alternating partial sums of the previous row read
    backwards; the last entry of row 2n-1 is T_n.
    """
    row, out = [1], []
    while len(out) < limit:
        acc, nxt = 0, [0]
        for x in reversed(row):
            acc += x
            nxt.append(acc)
        row = nxt
        if len(row) % 2 == 0:
            out.append(acc)
    return out


def brent_harvey_columns():
    """Yield ``(T_j, column)`` for ``j = 1, 2, ...`` from Brent and Harvey's
    TangentNumbers recurrence, unscaled: ``column[k-1] = h_j[k]``, with
    ``h_j[1] = (j-1)!`` and ``h_j[k] = (j-k) h_{j-1}[k] + (j-k+2) h_j[k-1]``.

    The same list is updated in place for every ``j``; copy it to keep it.
    """
    column = [1]  # column[k-1] = h_j[k] for the newest j
    yield 1, column
    for j in count(2):
        # entry i is h[k] at k = i+1 with a = j-k; h_j[0] = 0 starts the column
        a = j - 1
        h = 0
        for i, x in enumerate(column):
            h = a * x + (a + 2) * h
            column[i] = h
            a -= 1
        h <<= 1
        column.append(h)
        yield h, column


def brent_harvey_tangents(limit: int) -> list[int]:
    """T_1..T_limit from the unscaled column recurrence."""
    return [t for t, _ in islice(brent_harvey_columns(), limit)]


def gcd_reduction(n: int, t: int) -> tuple[Fraction, int, int]:
    """``(|B_{2n}|, num4, j)`` from ``t = T_n``, with ``num4 / j`` the fraction
    ``T_n / (2^{2n+1}(2^{2n}-1))`` reduced by a gcd against ``2^{2n}-1``."""
    # shift out the power of 2, so only the odd factor 2^{2n}-1 needs a gcd
    v = (t & -t).bit_length() - 1
    t >>= v
    odd = (1 << (2 * n)) - 1
    g = gcd(t, odd)
    num4 = t // g
    j = (odd // g) << (2 * n + 1 - v)
    return Fraction(4 * n * num4, j), num4, j


def _primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vsc_denominator_sieve(n: int) -> int:
    """Denominator of ``|B_{2n}|/n`` as ``prod(p^(1 + v_p(n)))`` over the
    primes ``p <= 2n + 1`` with ``p - 1`` dividing ``2n``, from a full sieve."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = 1
    for p in _primes_upto(2 * n + 1):
        if (2 * n) % (p - 1) == 0:
            out *= p ** (1 + _valuation(n, p))
    return out


def hermite_normal_form(vectors) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form of the span of integer vectors.

    Pivots are positive, entries above a pivot are reduced into
    ``[0, pivot)``, zero rows are dropped.  Two generating sets span the
    same subgroup of Z^n exactly when their normal forms coincide.
    """
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return ()
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("vectors must all have the same length")
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            while rows[i][c]:
                q = rows[r][c] // rows[i][c]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[i])]
                rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r] if any(row))


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``a*x + b*y == g == gcd(|a|, |b|) > 0``.

    Raises ValueError if both arguments are zero.
    """
    if a == 0 and b == 0:
        raise ValueError("extended_gcd(0, 0) is undefined")
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y
