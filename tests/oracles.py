"""Independent brute-force oracles used to freeze expected values.

Nothing here touches the package internals: Bernoulli numbers come from
the defining binomial recurrence and tangent numbers from inverting their
definition against those Bernoulli values, or from Seidel's boustrophedon
triangle, the reference the tangent engine is compared against.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb


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
