"""Characteristic-number lattices of closed highly connected 4m-manifolds.

The bordism group of ``(2m-1)``-connected ``4m``-manifolds modulo homotopy
spheres is free of rank 1 for odd ``m`` and rank 2 for even ``m`` (plus a
2-torsion summand in half the odd cases, which carries no characteristic
numbers).  The free part is described by explicit generators whose
signature, A-hat genus, and Pontryagin numbers are computed here, in terms
of one unknown: the order ``ord`` of the boundary sphere of the hyperbolic
plumbing in the cokernel of the J-homomorphism.  The conjectural (and in
low dimensions known) value is 1, which is the default everywhere.

All generator vectors are exact integers and satisfy the signature and
A-hat consistency equations against the genus coefficients, which the
tests enforce.  Two lattices of equal rank are compared by one containment
and their index: if B1 = A B2 with A integral, every maximal minor of B1 is
det(A) times B2's, so the lattices agree exactly when |det(A)| = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exact import BezoutPair, _require_index, gcd_with_square, nu2
from .plumbing import _answer, _bezout_terms, lambda_k, profile

__all__ = [
    "VARIANTS",
    "OrdParameter",
    "InvariantVector",
    "KernelStructure",
    "LatticeBasis",
    "kernel_structure",
    "generator_invariants",
    "minimal_signature",
    "minimal_ahat",
    "signature_divisibility_bound",
    "lattice_span_equal",
]

VARIANTS = ("full_kernel", "signature_in_4Z")


@dataclass(frozen=True)
class OrdParameter:
    """The order of the hyperbolic plumbing's boundary sphere in coker(J).

    Constraints enforced on construction, besides ``type(value) is int``, ``value >= 1``,
    ``type(m) is int`` and ``m >= 1``:

    * ``value == 1`` for odd ``m != 5`` and for ``m in {2, 4}``;
    * ``value`` divides ``j_{m/2}^2`` for even ``m`` not in ``{2, 4}``;
    * ``nu2(value) <= 2 nu2(m) + 4`` (this is the only constraint that is
      not implied by the others, and it only bites at ``m = 5``).

    For ``m = 5`` the order is genuinely unknown, so it must be supplied
    explicitly; the functions taking ``ord`` default to the conjectural 1.
    """

    value: int
    m: int

    def __post_init__(self) -> None:
        _require_index(self.m, "m", 1)
        if type(self.value) is not int or self.value < 1:
            raise ValueError("ord must be a positive integer")
        if self.m % 2 and self.m != 5:
            if self.value != 1:
                raise ValueError(f"ord must be 1 for odd m != 5, got {self.value}")
        elif self.m in (2, 4):
            if self.value != 1:
                raise ValueError(f"ord is known to be 1 for m={self.m}")
        elif self.m % 2 == 0:
            j_half = profile(self.m // 2).j
            if j_half**2 % self.value:
                raise ValueError(
                    f"ord={self.value} does not divide j_{self.m // 2}^2 = {j_half**2}"
                )
        if nu2(self.value) > 2 * nu2(self.m) + 4:
            raise ValueError(
                f"nu2(ord)={nu2(self.value)} exceeds the bound {2 * nu2(self.m) + 4}"
            )


def _as_ord(ord: "OrdParameter | int", m: int) -> OrdParameter:
    """``ord`` checked against the gated ``m``; anything else becomes a new, validated
    ``OrdParameter`` on every call (a kept answer is read before any gate)."""
    if isinstance(ord, OrdParameter):
        if ord.m != m:
            raise ValueError(f"ord parameter is for m={ord.m}, not m={m}")
        return ord
    return OrdParameter(ord, m)


def _ord_gate(m: int, ord: "OrdParameter | int", arg: None) -> OrdParameter:
    _require_index(m, "m", 1)
    return _as_ord(ord, m)


@dataclass(frozen=True)
class InvariantVector:
    """The quadruple (signature, A-hat, p_top, p_half^2) of a bordism class.

    ``p_top`` is ``p_m`` for odd ``m`` and ``p_{2k}`` for ``m = 2k``;
    ``p_half_sq`` is ``p_k^2`` and is zero for odd ``m``.
    """

    sigma: int
    ahat: int
    p_top: int
    p_half_sq: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.sigma, self.ahat, self.p_top, self.p_half_sq)


@dataclass(frozen=True)
class KernelStructure:
    """Isomorphism type: free rank plus torsion orders."""

    free_rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class LatticeBasis:
    m: int
    ord: OrdParameter
    variant: str
    generators: tuple[tuple[str, InvariantVector], ...]


def kernel_structure(m: int, ord: OrdParameter | int = 1) -> KernelStructure:
    """Group structure of highly connected bordism modulo homotopy spheres.

    Rank 1 with a Z/2 summand for ``m = 1 mod 4`` (the Z/2 is present at
    ``m = 5`` exactly when ``ord == 1``), rank 1 for ``m = 3 mod 4``, and
    rank 2 for even ``m``.
    """
    _require_index(m, "m", 2)
    ord = _as_ord(ord, m)
    if m % 2 == 0:
        return KernelStructure(2, ())
    if m % 4 == 3:
        return KernelStructure(1, ())
    if m == 5:
        return KernelStructure(1, (2,)) if ord.value == 1 else KernelStructure(1, ())
    return KernelStructure(1, (2,))


def _exact_int(num: int, den: int, what: str) -> int:
    """``num / den`` for ``den > 0``; RuntimeError unless it is an integer."""
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"{what} is not an integer: {Fraction(num, den)}")
    return q


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
    octonionic projective plane instead).  The ``signature_in_4Z`` basis, in
    which every signature is divisible by 4, is derived from the full one: its
    second generator is scaled by ``lambda_k^2``, which makes it ``4*HP2`` and
    ``4*OP2`` at ``k = 1, 2``; at every other ``m`` it holds the full basis's
    very generators, so the two lattices differ only at ``m = 2, 4``.

    ``bezout`` selects the representative used in the second generator;
    default is the canonical normalized pair.  Different representatives
    give different generators of the same lattice.  A pair is checked
    against ``m`` in every case, once, where the answer memo is read.  The
    basis for the canonical pair (omitted or passed) is memoized per (variant,
    m, ord), about 14 KB at ``m = 600`` for the full one, which is checked
    integral on its first computation and from which the kept
    ``signature_in_4Z`` basis is derived.
    """
    return _answer(_generator_invariants, _variant_gate, m, ord, bezout, variant)


def _variant_gate(m: int, ord: OrdParameter | int, variant: str) -> OrdParameter:
    _require_index(m, "m", 2)
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    return _as_ord(ord, m)


def _basis(m: int, ord: OrdParameter, bezout: BezoutPair | None, variant: str) -> LatticeBasis:
    """The basis for a checked pair, not checked again; the kept one for ``None``."""
    if bezout is None:
        return generator_invariants(m, ord, variant)
    return _generator_invariants(m, _variant_gate(m, ord, variant), bezout, variant)


def _generator_invariants(
    m: int, ord: OrdParameter, bezout: BezoutPair | None, variant: str
) -> LatticeBasis:
    if variant != "full_kernel":
        # the full basis (the kept one for the canonical pair) with its second generator
        # scaled by lambda_k^2: 4 at k = 1, 2, and the very same generators elsewhere
        gens = _basis(m, ord, bezout, "full_kernel").generators
        if m in (2, 4):
            g1, (label, g2) = gens
            gens = (g1, (f"4*{label}", InvariantVector(*(4 * a for a in g2.as_tuple()))))
        return LatticeBasis(m, ord, variant, gens)

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
    g1 = InvariantVector(prof.sigma, -prof.num4, prof.fact * prof.j, 0)

    # the weight is wn / wd; y and x carry the Bezout pair (plumbing._bezout_terms)
    wn, wd = ord.value * pk.a**2, lambda_k(k)
    y, x = _bezout_terms(k, bezout or prof.bezout)
    jk2, fk2 = pk.j**2, pk.fact**2
    t2 = prof.num4 * jk2
    g2 = InvariantVector(
        # weight (T_k^2/2 - sigma_2k x / (num4_2k j_k^2))
        _exact_int(
            wn * (pk.tangent**2 * t2 - 2 * prof.sigma * x), 2 * wd * t2, "second generator sigma"
        ),
        # weight x / j_k^2
        _exact_int(wn * x, wd * jk2, "second generator ahat"),
        # weight ((2k-1)!^2 + (4k-1)! j_2k y / j_k^2)
        _exact_int(
            wn * (fk2 * jk2 + prof.fact * prof.j * y), wd * jk2, "second generator p_top"
        ),
        _exact_int(2 * wn * fk2, wd, "second generator p_half_sq"),
    )
    label = {1: "HP2", 2: "OP2"}.get(k, "ord*(Q - s(Q)*P)")
    return LatticeBasis(m, ord, variant, (("(sigma/8)*P", g1), (label, g2)))


def minimal_signature(m: int, ord: OrdParameter | int = 1) -> tuple[int, int | None]:
    """Minimal positive signature of a closed highly connected 4m-manifold.

    Returns ``(value, exponent)`` where ``exponent`` is the 2-power
    correction ``i_m = min(0, nu2(ord) - 2 nu2(m) - 4 + 2 nu2(a_{m/2}))``
    entering the even case, and None otherwise.  Every occurring signature
    is a multiple of the value.

    The pair is memoized per ``(m, ord)``, about 0.5 KB at ``m = 600`` (at odd
    ``m`` the value is the profile's own ``sigma``), and the integrality of
    ``2^{i_m} gcd(...)`` is checked on its first computation.
    """
    return _answer(_minimal_signature, _ord_gate, m, ord, None)


def _minimal_signature(
    m: int, ord: OrdParameter, bezout: None, arg: None
) -> tuple[int, int | None]:
    if m in (1, 2, 4):
        return 1, None
    if m % 2:
        return profile(m).sigma, None
    half = profile(m // 2)
    i_m = min(0, nu2(ord.value) - 2 * nu2(m) - 4 + 2 * nu2(half.a))
    nu, odd = gcd_with_square(profile(m).sigma, half.sigma)
    if nu + i_m < 0:
        raise RuntimeError(f"2^{i_m} gcd(...) is not an integer at m={m}")
    return odd << (nu + i_m), i_m


def minimal_ahat(m: int) -> int:
    """Minimal positive A-hat genus of a closed highly connected 4m-manifold."""
    _require_index(m, "m", 2)
    if m % 2:
        return 2 * profile(m).num4
    nu, odd = gcd_with_square(profile(m).num4, profile(m // 2).num4)
    return odd << nu


def signature_divisibility_bound(m: int) -> int:
    """Power of 2 dividing every highly connected signature, ``m not in {1,2,4}``."""
    _require_index(m, "m", 1)
    if m in (1, 2, 4):
        raise ValueError(f"no 2-power bound in the exceptional dimension m={m}")
    if m % 2:
        return 1 << (2 * m + 2)
    return 1 << (2 * m - 2 * nu2(m) - 3)


def _minor(gens: list[tuple[int, ...]], idx: tuple[int, ...]) -> int:
    if len(gens) == 1:
        return gens[0][idx[0]]
    (g, h), (i, j) = gens, idx
    return g[i] * h[j] - g[j] * h[i]


def _pivot(gens: list[tuple[int, ...]]) -> tuple[tuple[int, ...], int]:
    """The first coordinates where one or two generators have a nonzero minor, and that minor."""
    if len(gens) not in (1, 2) or not all(map(any, gens)):
        raise ValueError("a basis needs one or two nonzero generators")
    for idx in combinations(range(len(gens[0])), len(gens)):
        det = _minor(gens, idx)
        if det:
            return idx, det
    raise ValueError("the two basis generators are linearly dependent")


def _in_span(
    v: tuple[int, ...], gens: list[tuple[int, ...]], idx: tuple[int, ...], det: int
) -> bool:
    """Whether v is an integer combination of gens, by Cramer's rule on their minor det at idx.

    An integral solution matches v on the coordinates in idx, so only the others are compared.
    """
    solved = [divmod(_minor(gens[:k] + [v] + gens[k + 1 :], idx), det) for k in range(len(gens))]
    if any(r for _, r in solved):
        return False
    return all(
        a == sum(x * w[n] for (x, _), w in zip(solved, gens))
        for n, a in enumerate(v)
        if n not in idx
    )


def _sheared(g: tuple[int, ...], h1: tuple[int, ...], h2: tuple[int, ...]) -> bool:
    """Whether ``h2 = e h1 + q g`` for a sign e and an integer q, for a nonzero g: q is
    read off by one exact divmod at a nonzero coordinate of g, then checked on all."""
    i = next(n for n, a in enumerate(g) if a)
    for e in (1, -1):
        q, r = divmod(h2[i] - e * h1[i], g[i])
        if not r and all(b - e * a == q * c for a, b, c in zip(h1, h2, g)):
            return True
    return False


def lattice_span_equal(b1: LatticeBasis, b2: LatticeBasis) -> bool:
    """Whether two bases generate the same subgroup of integer 4-vectors.

    The bases must belong to the same dimension parameter m.  Comparing the
    two variants is allowed and gives False whenever their lattices differ
    (at m = 2 or 4 the signature_in_4Z lattice has index 4 in the full one).
    Each basis must hold one nonzero generator or two independent ones
    (ValueError otherwise).  Equal means equal rank, b1 in b2's span, and
    |minor_p(b1)| = |minor_p(b2)| at b2's pivot p: b1 = A b2 with A integral
    gives minor_p(b1) = det(A) minor_p(b2), and the spans agree iff |det(A)| = 1.

    Bases (g, h1) and (g, h2) sharing their first generator, as two Bezout
    representatives' do, are first compared in linear time.  If h2 = e h1 + q g with
    e = +-1, then (g, h2) = A (g, h1) for A = [[1, 0], [q, e]] with det(A) = e, so the
    spans agree, and (g, h2) is degenerate exactly when (g, h1) is, which b2's pivot
    checks.  Every other case, every False among them, takes the general test.
    """
    if b1.m != b2.m:
        raise ValueError("bases must share the same m")
    v1 = [vec.as_tuple() for _, vec in b1.generators]
    v2 = [vec.as_tuple() for _, vec in b2.generators]
    p2, det = _pivot(v2)
    if len(v1) == len(v2) == 2 and v1[0] == v2[0] and _sheared(v1[0], v1[1], v2[1]):
        return True
    if len(v1) != len(v2) or abs(_minor(v1, p2)) != abs(det):
        _pivot(v1)  # a degenerate b1 raises rather than comparing unequal
        return False
    # a nonzero minor_p(b1) already shows b1 nondegenerate
    return all(_in_span(v, v2, p2, det) for v in v1)
