"""Independent brute-force oracles used to freeze expected values.

Nothing here touches the package internals: Bernoulli numbers come from
the defining binomial recurrence and tangent numbers from inverting their
definition against those Bernoulli values, or from Seidel's boustrophedon
triangle and Brent and Harvey's unscaled column recurrence, the references
the tangent engine is compared against.  The von Staudt-Clausen denominator
is rebuilt from a sieve of every prime up to ``2n + 1`` and, as a second
reference, by trial division of each candidate ``d + 1``, and each record
from a gcd of ``T_n`` against ``2^{2n} - 1`` instead of the von
Staudt-Clausen certificate the package uses.  Lattice
spans are compared through a general Hermite normal form, the reference
for the rank-<=2 membership test in ``hclat.lattices``, and Bezout
pairs through the extended Euclidean algorithm, the reference for
``hclat.exact.normalize_bezout``.

The last section keeps the per-dimension rational formulas of
``hclat.genera``, ``hclat.lattices``, ``hclat.bundles`` and
``hclat.plumbing`` as chains of ``Fraction`` operations, the reference for
the package's integer kernels.  These are the one exception to the rule
above: they read their integers from ``hclat.plumbing.profile`` and return
the package's own result types, so only the arithmetic is independent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import comb, factorial, gcd, isqrt

from hclat.bundles import KappaExpression
from hclat.genera import GENERA, GenusCoefficients
from hclat.lattices import VARIANTS, InvariantVector, LatticeBasis, _as_ord
from hclat.plumbing import lambda_k, profile, require_bezout_for, sigma_over_a


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


def primes_upto(n: int) -> list[int]:
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
    for p in primes_upto(2 * n + 1):
        if (2 * n) % (p - 1) == 0:
            out *= p ** (1 + _valuation(n, p))
    return out


def vsc_denominator_trial(n: int) -> int:
    """The same denominator with each candidate ``d + 1``, for the divisors ``d`` of
    ``2n``, tested by trial division: the package's earlier ``vsc_denominator``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = 1
    divisors = [d for d in range(1, isqrt(2 * n) + 1) if (2 * n) % d == 0]
    for p in {d + 1 for d in divisors} | {2 * n // d + 1 for d in divisors}:
        if all(p % q for q in range(2, isqrt(p) + 1)):
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


# ------------------------------------------------ Fraction-chain reference formulas


def shat(n: int) -> Fraction:
    """``shat_n = -(1/(2n-1)!) |B_{2n}|/4n``; e.g. ``shat(1) == -1/24``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    prof = profile(n)
    return -Fraction(prof.num4, prof.j * prof.fact)


def s(n: int) -> Fraction:
    """``s_n``, the ``p_top`` coefficient of L; e.g. ``s(1) == 1/3``.

    Both closed forms are computed exactly and must agree; a mismatch would
    mean the Bernoulli data is corrupted, so it raises RuntimeError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    prof = profile(n)
    via_shat = -sigma_over_a(n) * shat(n)
    via_sigma = Fraction(prof.sigma, prof.a * prof.fact * prof.j)
    if via_shat != via_sigma:
        raise RuntimeError(f"the two closed forms of s_{n} disagree")
    return via_shat


def genus_coeffs(genus: str, m: int) -> GenusCoefficients:
    """Coefficients of the named genus in degree ``4m``.

    ``genus`` is one of ``"L"``, ``"Ahat"``, ``"Ph"``, ``"AhatPh"``.
    """
    if genus not in GENERA:
        raise ValueError(f"unknown genus {genus!r}; expected one of {GENERA}")
    if m < 1:
        raise ValueError("m must be >= 1")
    zero = Fraction(0)
    if m % 2:
        if genus == "L":
            top = s(m)
        elif genus == "Ahat":
            top = shat(m)
        else:  # Ph and AhatPh coincide in odd degree
            top = Fraction((-1) ** (m + 1), factorial(2 * m - 1))
        return GenusCoefficients(m, top, zero)
    k = m // 2
    if genus == "L":
        return GenusCoefficients(m, s(2 * k), (s(k) ** 2 - s(2 * k)) / 2)
    if genus == "Ahat":
        return GenusCoefficients(m, shat(2 * k), (shat(k) ** 2 - shat(2 * k)) / 2)
    f4k = factorial(4 * k - 1)
    if genus == "Ph":
        return GenusCoefficients(m, -Fraction(1, f4k), Fraction(1, 2 * f4k))
    half = Fraction((-1) ** (k + 1), profile(k).fact) * shat(k) + Fraction(1, 2 * f4k)
    return GenusCoefficients(m, -Fraction(1, f4k), half)


def stolz_class_coeffs(m: int, bezout: BezoutPair | None = None) -> GenusCoefficients:
    """Coefficients of the signature-defect combination ``S_m``.

    ``bezout`` must be a valid pair for the numerator and denominator of
    ``|B_{2m}|/4m`` (any representative, not necessarily normalized), and
    is the canonical pair when omitted.  The ``p_top`` coefficient always
    cancels to zero; this is asserted and the exact zero is returned.  For
    odd ``m`` the ``p_half^2`` coefficient is zero as well.  For even ``m``
    it depends on the chosen representative.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    bezout = require_bezout_for(m, bezout)
    gl = genus_coeffs("L", m)
    ga = genus_coeffs("Ahat", m)
    gap = genus_coeffs("AhatPh", m)
    factor = sigma_over_a(m, profile(m).num4)
    sign = (-1) ** m
    top = gl.coeff_p_top + factor * (
        bezout.c * ga.coeff_p_top + sign * bezout.d * gap.coeff_p_top
    )
    half = gl.coeff_p_half_sq + factor * (
        bezout.c * ga.coeff_p_half_sq + sign * bezout.d * gap.coeff_p_half_sq
    )
    if top != 0:
        raise RuntimeError(f"S_{m} acquired a nonzero p_top coefficient: {top}")
    return GenusCoefficients(m, top, half)


def _exact_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise RuntimeError(f"{what} is not an integer: {x}")
    return x.numerator


def generator_invariants(
    m: int,
    ord: OrdParameter | int = 1,
    variant: str = "full_kernel",
    bezout: BezoutPair | None = None,
) -> LatticeBasis:
    """Generators of the lattice of realized characteristic numbers.

    Odd ``m``: one generator, the ``sigma_m/8``-fold multiple of the E8
    plumbing.  Even ``m = 2k``: that generator plus a second one built from
    the hyperbolic plumbing (for ``k = 1, 2`` it is the quaternionic or
    octonionic projective plane instead).  In the ``signature_in_4Z``
    variant the second generator is replaced so that all signatures in the
    lattice are divisible by 4 (a factor 4 at ``k = 1, 2``, no change
    otherwise).

    ``bezout`` selects the representative used in the second generator;
    default is the canonical normalized pair.  Different representatives
    give different generators of the same lattice.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    ord = _as_ord(ord, m)
    prof = profile(m)
    if m % 2:
        vec = InvariantVector(
            sigma=prof.sigma,
            ahat=-2 * prof.num4,
            p_top=2 * prof.fact * prof.j,
            p_half_sq=0,
        )
        return LatticeBasis(m, ord, variant, (("(sigma/8)*P", vec),))

    k = m // 2
    pk = profile(k)
    bezout = require_bezout_for(m, bezout)
    c, d = bezout.c, bezout.d
    g1 = InvariantVector(prof.sigma, -prof.num4, prof.fact * prof.j, 0)

    weight = (
        Fraction(ord.value * pk.a**2, lambda_k(k))
        if variant == "full_kernel"
        else Fraction(ord.value * pk.a**2 * lambda_k(k))
    )
    b4k = Fraction(pk.num4, pk.j)  # |B_{2k}| / 4k
    ratio = Fraction(pk.num4 * prof.j, 2 * prof.num4 * pk.j)  # |B_{2k}| / |B_{4k}|
    x = b4k * (ratio + (-1) ** (k + 1))
    sigma2 = weight * (Fraction(pk.tangent**2, 2) - 2 * prof.sigma * d * x)
    ahat2 = 2 * weight * prof.num4 * d * x
    ptop2 = weight * (pk.fact**2 + prof.fact * prof.j * b4k * (c * b4k + 2 * d * (-1) ** k))
    psq2 = 2 * weight * pk.fact**2
    g2 = InvariantVector(
        _exact_int(sigma2, "second generator sigma"),
        _exact_int(ahat2, "second generator ahat"),
        _exact_int(ptop2, "second generator p_top"),
        _exact_int(psq2, "second generator p_half_sq"),
    )
    if k == 1:
        label = "HP2" if variant == "full_kernel" else "4*HP2"
    elif k == 2:
        label = "OP2" if variant == "full_kernel" else "4*OP2"
    else:
        label = "ord*(Q - s(Q)*P)"
    return LatticeBasis(m, ord, variant, (("(sigma/8)*P", g1), (label, g2)))


def pairing(expr: KappaExpression, v: InvariantVector) -> Fraction:
    """Evaluate the expression on a bordism class with the given numbers."""
    return expr.coeff_p_top * v.p_top + expr.coeff_p_half_sq * v.p_half_sq


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


def s_of_Q_formulas(k: int, bezout: BezoutPair | None = None) -> tuple[Fraction, Fraction]:
    """Both closed formulas for the splitting invariant of Q in dimension 8k.

    The first goes through ``sigma_k^2`` and the Bezout pair (checked, and the
    canonical one when omitted), the second through ``T_k`` and ``|B_{2k}|/|B_{4k}|``.
    Either one, for a valid pair, is an integer, but that is not assumed
    here; the raw fractions are returned for cross-checking.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bezout = require_bezout_for(2 * k, bezout)
    pk = profile(k)
    p2k = profile(2 * k)
    lam = lambda_k(k)
    c, d = bezout.c, bezout.d
    first = -Fraction(lam**2, 8 * pk.j**2) * (
        pk.sigma**2
        + pk.a**2 * p2k.sigma * pk.num4 * (c * pk.num4 + 2 * (-1) ** k * d * pk.j)
    )
    b4k = Fraction(pk.num4, pk.j)  # |B_{2k}| / 4k
    ratio = Fraction(pk.num4 * p2k.j, 2 * p2k.num4 * pk.j)  # |B_{2k}| / |B_{4k}|
    second = Fraction(lam**2 * pk.a**2, 4) * (
        p2k.sigma * d * b4k * (ratio + (-1) ** (k + 1)) - Fraction(pk.tangent**2, 4)
    )
    return first, second


def s_of_Q(m: int, bezout: BezoutPair | None = None) -> int:
    """The splitting invariant of Q in dimension ``4m``.

    Returns 0 for odd ``m``.  For ``m = 2k`` both formulas are evaluated
    with the given Bezout pair (the canonical one when omitted) and must
    agree on an integer; any discrepancy raises RuntimeError since it can
    only come from an implementation bug.  The integer itself depends on
    the chosen Bezout representative; only its residue modulo
    ``sigma_m / 8`` is canonical.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if m % 2:
        return 0
    k = m // 2
    first, second = s_of_Q_formulas(k, bezout)
    if first != second:
        raise RuntimeError(
            f"the two formulas for s(Q) disagree at k={k}: {first} != {second}"
        )
    if first.denominator != 1:
        raise RuntimeError(f"s(Q) at k={k} is not an integer: {first}")
    return first.numerator


def outcome(fn, *args) -> str:
    """``repr`` of ``fn(*args)``, or the type and message of the ValueError or
    RuntimeError it raised: equal outcomes mean equal values of equal types."""
    try:
        return repr(fn(*args))
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def ord_candidates(m: int) -> list[int]:
    """``ord`` values to try at ``m``: the divisors of ``j_{m/2}^2`` for even ``m``,
    else ``1..64``; the constructor rejects some of them, which is compared too."""
    if m % 2:
        return list(range(1, 65))
    j2 = profile(m // 2).j ** 2
    return [d for d in range(1, j2 + 1) if j2 % d == 0]
