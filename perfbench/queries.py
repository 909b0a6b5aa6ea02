"""The ``lib_queries`` workload: a seeded mix of point queries and their checks.

Each session's query list is made here from the seed and the session's
index alone; the session process only executes it.  Each query is ``(op, m, r)``: ``op`` names a public ``hclat``
function, ``m`` is the dimension parameter and ``r`` picks a discrete
argument (the genus or the lattice variant) where the function takes one.

Checks run in the benchmark process, outside any timed interval, and reach
each answer by a route other than the function that produced it.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import factorial, gcd

GENERA = ("L", "Ahat", "Ph", "AhatPh")
VARIANTS = ("full_kernel", "signature_in_4Z")

# m = min(M_CAP, floor(M_MIN * Pareto(ALPHA))): most queries land on small m
# whose Bernoulli records are already memoized, a few reach the cap.
M_MIN = 2
M_CAP = 800
ALPHA = 1.0
ORACLE_MAX = 40  # tests/oracles.py recurrence is quadratic; keep it to small n

OPS = {
    "bernoulli_record": lambda h, m, r: h.bernoulli_record(m),
    "genus_coeffs": lambda h, m, r: h.genus_coeffs(GENERA[r % 4], m),
    "stolz_class_coeffs": lambda h, m, r: h.stolz_class_coeffs(m, h.canonical_bezout(m)),
    "profile": lambda h, m, r: h.profile(m),
    "s_of_Q": lambda h, m, r: h.s_of_Q(m),
    "generator_invariants": lambda h, m, r: h.generator_invariants(m, 1, VARIANTS[r % 2]),
    "minimal_signature": lambda h, m, r: h.minimal_signature(m, 1),
    "divisibility_report": lambda h, m, r: h.divisibility_report(m, 1),
    "kappa_basis": lambda h, m, r: h.kappa_basis(m, 1),
    "pairing_matrix": lambda h, m, r: h.pairing_matrix(m, 1),
}
OP_NAMES = tuple(OPS)


def make_queries(seed: int, session: int, count: int) -> list[tuple[int, int, int]]:
    """``count`` queries ``(op index, m, r)``, the same list for the same seed and session."""
    rng = random.Random(f"lib_queries:{seed}:{session}")
    out = []
    for _ in range(count):
        m = min(M_CAP, int(M_MIN * rng.paretovariate(ALPHA)))
        out.append((rng.randrange(len(OP_NAMES)), m, rng.randrange(4)))
    return out


def describe(queries: list[tuple[int, int, int]]) -> dict:
    """Input properties a memo or caching claim can cite."""
    seen: set[int] = set()
    repeats = 0
    for _, m, _ in queries:
        repeats += m in seen
        seen.add(m)
    mix = Counter(OP_NAMES[op] for op, _, _ in queries)
    return {
        "queries": len(queries),
        "max_m": max(m for _, m, _ in queries),
        "distinct_m": len(seen),
        "m_seen_before_share": repeats / len(queries),
        "mix": {name: mix[name] / len(queries) for name in OP_NAMES},
    }


def _identity(mat) -> bool:
    n = len(mat)
    return all(mat[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def _generators(h, m, variant="full_kernel"):
    return [vec for _, vec in h.generator_invariants(m, 1, variant).generators]


def _genus_fits_generators(h, m, genus, coeffs) -> bool:
    # the L genus must reproduce each generator's signature, A-hat its A-hat genus
    field = "sigma" if genus == "L" else "ahat"
    return all(
        coeffs.evaluate(v.p_top, v.p_half_sq) == getattr(v, field) for v in _generators(h, m)
    )


def _sigma(rec, m: int) -> int:
    a = 2 if m % 2 else 1
    return a * (1 << (2 * m + 1)) * ((1 << (2 * m - 1)) - 1) * rec.num4


def check(h, oracle, op: str, m: int, r: int, res) -> bool:
    """Whether ``res`` is the right answer to query ``(op, m, r)``."""
    if op == "bernoulli_record":
        ok = (
            res.n == m
            and Fraction(res.num4, res.j) == res.abs_value / (4 * m)
            and (res.abs_value / m).denominator == h.vsc_denominator(m)
        )
        return ok and (m > ORACLE_MAX or res.abs_value == oracle.bernoulli_abs_oracle(m))
    if op == "genus_coeffs":
        genus = GENERA[r % 4]
        if genus in ("L", "Ahat"):
            return _genus_fits_generators(h, m, genus, res)
        if m % 2:
            return res.coeff_p_top == Fraction((-1) ** (m + 1), factorial(2 * m - 1)) and (
                res.coeff_p_half_sq == 0
            )
        k = m // 2
        f4k = factorial(4 * k - 1)
        half = Fraction(1, 2 * f4k)
        if genus == "AhatPh":
            rec = h.bernoulli_record(k)
            shat_k = -Fraction(rec.num4, rec.j * factorial(2 * k - 1))
            half += Fraction((-1) ** (k + 1), factorial(2 * k - 1)) * shat_k
        return res.coeff_p_top == -Fraction(1, f4k) and res.coeff_p_half_sq == half
    if op == "stolz_class_coeffs":
        # sigma - <S, [M]> is divisible by 8 on every closed generator
        if res.coeff_p_top != 0 or (m % 2 and res.coeff_p_half_sq != 0):
            return False
        for variant in VARIANTS:
            for v in _generators(h, m, variant):
                try:
                    h.stolz_s(v.sigma, res.evaluate(v.p_top, v.p_half_sq))
                except ValueError:
                    return False
        return True
    if op == "profile":
        rec = h.bernoulli_record(m)
        ok = res.sigma == _sigma(rec, m) and h.nu2(res.sigma) == 2 * m + 1 + h.nu2(res.a)
        if m % 2 == 0:
            b = res.bezout
            ok = ok and b.c * rec.num4 + b.d * rec.j == 1 and 0 <= b.d < rec.num4
        return ok
    if op == "s_of_Q":
        if m % 2:
            return res == 0
        k = m // 2
        rk = h.bernoulli_record(k)
        lam = 2 if k in (1, 2) else 1
        sigma_k = _sigma(rk, k)
        return (rk.j**2 * res + lam**2 * sigma_k**2 // 8) % (_sigma(h.bernoulli_record(m), m) // 8) == 0
    if op == "generator_invariants":
        vecs = [vec for _, vec in res.generators]
        ok = all(
            h.genus_coeffs("L", m).evaluate(v.p_top, v.p_half_sq) == v.sigma
            and h.genus_coeffs("Ahat", m).evaluate(v.p_top, v.p_half_sq) == v.ahat
            for v in vecs
        )
        if m == 2 and VARIANTS[r % 2] == "full_kernel":
            ok = ok and vecs[1].as_tuple() == (1, 0, 7, 4)
        return ok
    if op == "minimal_signature":
        return res[0] == gcd(*(v.sigma for v in _generators(h, m)))
    if op == "divisibility_report":
        ok = res.signature_divisor % 4 == 0
        return ok and res.ahat_divisor == gcd(*(v.ahat for v in _generators(h, m)))
    if op == "kappa_basis":
        vecs = _generators(h, m, "signature_in_4Z")
        return _identity(
            [[e.coeff_p_top * v.p_top + e.coeff_p_half_sq * v.p_half_sq for v in vecs] for e in res]
        )
    if op == "pairing_matrix":
        return _identity(res)
    raise ValueError(f"unknown query op {op!r}")
