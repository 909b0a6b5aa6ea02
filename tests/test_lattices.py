import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

import oracles
from hclat import lattices, plumbing
from hclat.bundles import divisibility_report, kappa_basis
from hclat.exact import INDEX_MAX, nu2, padic_valuation
from hclat.genera import genus_coeffs
from hclat.lattices import (
    VARIANTS,
    InvariantVector,
    LatticeBasis,
    OrdParameter,
    generator_invariants,
    kernel_structure,
    lattice_span_equal,
    minimal_ahat,
    minimal_signature,
    signature_divisibility_bound,
)
from hclat.plumbing import canonical_bezout, profile
from oracles import hermite_normal_form


class TestOrdParameter:
    def test_default_is_one(self):
        assert generator_invariants(6).ord == OrdParameter(1, 6)

    def test_odd_m_must_be_one(self):
        with pytest.raises(ValueError):
            OrdParameter(2, 3)

    def test_known_small_even_cases(self):
        with pytest.raises(ValueError):
            OrdParameter(2, 2)
        with pytest.raises(ValueError):
            OrdParameter(3, 4)

    def test_even_m_divides_j_half_squared(self):
        OrdParameter(3, 6)   # 3 divides 504^2
        OrdParameter(7, 6)   # 7 divides 504^2
        with pytest.raises(ValueError):
            OrdParameter(11, 6)

    def test_m_5_two_adic_bound(self):
        OrdParameter(2, 5)
        OrdParameter(16, 5)
        with pytest.raises(ValueError):
            OrdParameter(32, 5)

    def test_positive(self):
        with pytest.raises(ValueError):
            OrdParameter(0, 6)

    @pytest.mark.parametrize("m", [3, 5, 6])
    @pytest.mark.parametrize("value", [Fraction(1), True, 1.0, "1"], ids=repr)
    def test_value_must_be_an_int(self, value, m):
        # each equals 1 or converts to it, and 1 is a valid ord at every m here
        with pytest.raises(ValueError, match="positive integer"):
            OrdParameter(value, m)
        for build in (generator_invariants, kappa_basis):
            build(m, 1)  # the int's kept answer must not answer for it
            with pytest.raises(ValueError, match="positive integer"):
                build(m, value)


    @pytest.mark.parametrize(
        "call",
        [
            lambda m: OrdParameter(1, m),
            lambda m: generator_invariants(m),
            minimal_signature,
            kappa_basis,
            divisibility_report,
            kernel_structure,
        ],
        ids=["OrdParameter", "generator_invariants", "minimal_signature", "kappa_basis",
             "divisibility_report", "kernel_structure"],
    )
    @pytest.mark.parametrize("m", [INDEX_MAX + 2, 10**12, 10**20])
    def test_too_large_even_m_is_named_itself(self, monkeypatch, call, m):
        # the gate refuses m before j_{m/2} is read, so the error names m, not m/2
        monkeypatch.setattr(plumbing, "factorial", None)  # calling it would raise
        for _ in range(2):  # a raise is not kept
            with pytest.raises(OverflowError) as info:
                call(m)
            assert str(info.value) == f"m must be <= {INDEX_MAX}, got {m}"


class TestKernelStructure:
    @pytest.mark.parametrize(
        "m,ord,expected",
        [
            (3, 1, "Z"),
            (9, 1, "Z + Z/2"),
            (6, 1, "Z + Z"),
            (2, 1, "Z + Z"),
            (5, 1, "Z + Z/2"),
            (5, 2, "Z"),
        ],
    )
    def test_cases(self, m, ord, expected):
        assert str(kernel_structure(m, ord)) == expected

    def test_m_one_rejected(self):
        with pytest.raises(ValueError):
            kernel_structure(1, 1)

    def test_invalid_ord_rejected(self):
        with pytest.raises(ValueError):
            kernel_structure(3, 2)


class TestGeneratorInvariants:
    def test_odd_m_single_generator(self):
        basis = generator_invariants(3, 1)
        assert len(basis.generators) == 1
        _, vec = basis.generators[0]
        assert vec.as_tuple() == (7936, -2, 120960, 0)

    def test_dimension_8_reproduces_projective_plane(self):
        basis = generator_invariants(2, 1, "full_kernel")
        assert basis.generators[1][1].as_tuple() == (1, 0, 7, 4)

    def test_dimension_8_sig4_variant(self):
        basis = generator_invariants(2, 1, "signature_in_4Z")
        assert basis.generators[1][1].as_tuple() == (4, 0, 28, 16)

    def test_first_generator_dimension_8(self):
        basis = generator_invariants(2, 1)
        assert basis.generators[0][1].as_tuple() == (224, -1, 1440, 0)

    def test_octonionic_plane_from_dimension_16(self):
        basis = generator_invariants(4, 1, "full_kernel")
        vec = basis.generators[1][1]
        assert (vec.sigma, vec.ahat, vec.p_half_sq) == (1, 0, 36)

    def test_generator_order_is_p_multiple_first(self):
        for m in (2, 4, 6, 7):
            basis = generator_invariants(m, 1)
            assert basis.generators[0][0] == "(sigma/8)*P"

    def test_sig4_signatures_divisible_by_4(self):
        for m in range(2, 30):
            basis = generator_invariants(m, 1, "signature_in_4Z")
            for _, vec in basis.generators:
                assert vec.sigma % 4 == 0

    def test_hirzebruch_and_ahat_consistency(self):
        for m in range(2, 201):
            gl = genus_coeffs("L", m)
            ga = genus_coeffs("Ahat", m)
            for variant in ("full_kernel", "signature_in_4Z"):
                for _, vec in generator_invariants(m, 1, variant).generators:
                    assert gl.evaluate(vec.p_top, vec.p_half_sq) == vec.sigma
                    assert ga.evaluate(vec.p_top, vec.p_half_sq) == vec.ahat

    def test_consistency_with_nontrivial_ord(self):
        gl = genus_coeffs("L", 6)
        ga = genus_coeffs("Ahat", 6)
        for ord in (1, 2, 3, 4, 7, 504**2):
            for _, vec in generator_invariants(6, ord).generators:
                assert gl.evaluate(vec.p_top, vec.p_half_sq) == vec.sigma
                assert ga.evaluate(vec.p_top, vec.p_half_sq) == vec.ahat

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            generator_invariants(2, 1, "sig4")

    def test_non_integral_entry_raises(self, monkeypatch, fresh_answers):
        # an odd T_4 makes T_4^2/2, hence the second signature at m = 8, a half-integer
        bad = replace(profile(4), tangent=profile(4).tangent + 1)
        monkeypatch.setattr(lattices, "profile", lambda m: bad if m == 4 else profile(m))
        with pytest.raises(RuntimeError, match="second generator sigma is not an integer"):
            generator_invariants(8)


class TestGeneratorsAgainstFractionReference:
    """The integer kernel returns what the Fraction chain in ``oracles`` returns."""

    def test_variants_and_bezout_shifts(self):
        for m in range(1, 301):
            for variant in VARIANTS:
                for pair in [None] + [canonical_bezout(m).shifted(t) for t in range(-2, 3)]:
                    args = (m, 1, variant, pair)
                    assert oracles.outcome(generator_invariants, *args) == oracles.outcome(
                        oracles.generator_invariants, *args
                    )

    @pytest.mark.parametrize("m", [5, 6, 8, 10])
    def test_ord_values(self, m):
        for ord in oracles.ord_candidates(m):
            for variant in VARIANTS:
                assert oracles.outcome(generator_invariants, m, ord, variant) == (
                    oracles.outcome(oracles.generator_invariants, m, ord, variant)
                )


class TestSignatureIn4ZFromFullKernel:
    """The ``signature_in_4Z`` basis is the full one with its second generator scaled by
    ``lambda_k^2``; the Fraction reference above, which gives it its own weight
    ``ord a_k^2 lambda_k``, checks the same bases and Bezout shifts."""

    def test_second_generator_is_the_full_one_times_lambda_squared(self):
        for m in range(2, 301):
            lam2 = plumbing.lambda_k(m // 2) ** 2 if m % 2 == 0 else 1
            for t in (0, -2, -1, 1, 2):
                pair = canonical_bezout(m).shifted(t) if t else None
                full = generator_invariants(m, 1, "full_kernel", pair)
                sig4 = generator_invariants(m, 1, "signature_in_4Z", pair)
                assert sig4.generators[0] == full.generators[0]
                if m % 2:
                    assert len(sig4.generators) == 1
                    continue
                (label4, vec4), (label, vec) = sig4.generators[1], full.generators[1]
                assert vec4.as_tuple() == tuple(lam2 * a for a in vec.as_tuple())
                assert label4 == (f"4*{label}" if lam2 == 4 else label)

    def test_kept_basis_shares_the_full_generators_but_at_m_2_and_4(self):
        for m in range(2, 41):
            full = generator_invariants(m, 1, "full_kernel")
            sig4 = generator_invariants(m, 1, "signature_in_4Z")
            assert (sig4.generators is full.generators) == (m not in (2, 4))
            assert sig4.generators[0] is full.generators[0]


class TestMinimalSignature:
    def test_exceptional_dimensions(self):
        for m in (1, 2, 4):
            assert minimal_signature(m, 1) == (1, None)

    def test_odd(self):
        assert minimal_signature(3, 1) == (7936, None)
        assert minimal_signature(5, 1) == (profile(5).sigma, None)

    def test_m_6(self):
        assert minimal_signature(6, 1) == (512, -4)

    def test_equals_gcd_of_generator_signatures(self):
        for m in range(2, 201):
            value, _ = minimal_signature(m, 1)
            sigmas = [vec.sigma for _, vec in generator_invariants(m, 1).generators]
            assert value == gcd(*sigmas)

    def test_with_nontrivial_ord(self):
        for ord in (2, 4, 7, 28):
            value, _ = minimal_signature(6, ord)
            sigmas = [vec.sigma for _, vec in generator_invariants(6, ord).generators]
            assert value == gcd(*sigmas)

    def test_gcd_valuation_law(self):
        for k in range(1, 151):
            g = gcd(profile(2 * k).sigma, profile(k).sigma ** 2)
            assert nu2(g) == 4 * k + 1


class TestMinimalAhat:
    def test_values(self):
        assert minimal_ahat(3) == 2
        assert minimal_ahat(2) == 1
        assert minimal_ahat(6) == 1

    def test_equals_gcd_of_generator_ahats(self):
        for m in range(2, 201):
            ahats = [vec.ahat for _, vec in generator_invariants(m, 1).generators]
            assert minimal_ahat(m) == gcd(*ahats)


class TestDivisibilityBound:
    def test_values(self):
        assert signature_divisibility_bound(3) == 256
        assert signature_divisibility_bound(6) == 128
        assert signature_divisibility_bound(5) == 4096

    def test_divides_minimal_signature(self):
        for m in list(range(3, 61)):
            if m in (4,):
                continue
            value, _ = minimal_signature(m, 1)
            assert value % signature_divisibility_bound(m) == 0

    def test_exceptional_dimensions_rejected(self):
        for m in (1, 2, 4):
            with pytest.raises(ValueError):
                signature_divisibility_bound(m)

    def test_strictly_below_parallelizable_minimum(self):
        for m in range(10, 201, 2):
            value, _ = minimal_signature(m, 1)
            assert value * (1 << (m - nu2(m) - 8)) < profile(m).sigma


class TestHermiteNormalForm:
    def test_simple(self):
        assert hermite_normal_form([(2, 0), (0, 3)]) == ((2, 0), (0, 3))

    def test_reduction_above_pivot(self):
        assert hermite_normal_form([(1, 5), (0, 3)]) == ((1, 2), (0, 3))

    def test_order_invariance(self):
        a = hermite_normal_form([(4, 6, 1), (2, 3, 5)])
        b = hermite_normal_form([(2, 3, 5), (4, 6, 1)])
        assert a == b

    def test_zero_rows_dropped(self):
        assert hermite_normal_form([(0, 0), (0, 0)]) == ()


class TestLatticeSpanEqual:
    def test_reflexive(self):
        basis = generator_invariants(6, 1)
        assert lattice_span_equal(basis, basis)

    def test_unimodular_change(self):
        basis = generator_invariants(6, 1)
        (l1, g1), (l2, g2) = basis.generators
        changed = LatticeBasis(
            basis.m,
            basis.ord,
            basis.variant,
            (
                (l1, g1),
                (
                    l2,
                    InvariantVector(
                        g2.sigma + 3 * g1.sigma,
                        g2.ahat + 3 * g1.ahat,
                        g2.p_top + 3 * g1.p_top,
                        g2.p_half_sq + 3 * g1.p_half_sq,
                    ),
                ),
            ),
        )
        assert lattice_span_equal(basis, changed)

    def test_variants_differ_at_m_2(self):
        full = generator_invariants(2, 1, "full_kernel")
        sig4 = generator_invariants(2, 1, "signature_in_4Z")
        assert not lattice_span_equal(full, sig4)

    def test_variants_agree_away_from_exceptional_dimensions(self):
        full = generator_invariants(6, 1, "full_kernel")
        sig4 = generator_invariants(6, 1, "signature_in_4Z")
        assert lattice_span_equal(full, sig4)

    def test_mismatched_m_rejected(self):
        with pytest.raises(ValueError):
            lattice_span_equal(
                generator_invariants(2, 1), generator_invariants(4, 1)
            )

    def test_bezout_representatives_span_same_lattice(self):
        rng = random.Random(11)
        for m in (2, 4, 6, 8, 10):
            base = generator_invariants(m, 1)
            for _ in range(3):
                t = rng.randint(-3, 3)
                if t == 0:
                    continue
                shifted = generator_invariants(
                    m, 1, "full_kernel", canonical_bezout(m).shifted(t)
                )
                assert lattice_span_equal(base, shifted)


def _basis(*vectors) -> LatticeBasis:
    return LatticeBasis(
        6,
        OrdParameter(1, 6),
        "full_kernel",
        tuple((f"v{i}", InvariantVector(*v)) for i, v in enumerate(vectors)),
    )


def _random_independent(rng, rank, bound):
    while True:
        vecs = [tuple(rng.randint(-bound, bound) for _ in range(4)) for _ in range(rank)]
        if len(hermite_normal_form(vecs)) == rank:
            return vecs


def _random_change_of_basis(rng, vecs):
    """The vectors under two random shears, a scaling and a shuffle.

    The determinant is the scale factor, so it is +-1 half of the time.
    """
    scale = rng.choice((-2, -1, 1, 1, 2, 3))
    if len(vecs) == 1:
        return [tuple(scale * a for a in vecs[0])]
    g, h = vecs
    k1, k2 = rng.randint(-3, 3), rng.randint(-3, 3)
    h = tuple(y + k1 * x for x, y in zip(g, h))
    g = tuple(x + k2 * y for x, y in zip(g, h))
    out = [g, tuple(scale * y for y in h)]
    rng.shuffle(out)
    return out


class TestSpanEqualAgainstHermiteOracle:
    def test_random_rank_one_and_two_bases(self):
        rng = random.Random(1807_11539)
        outcomes = Counter()
        for _ in range(3000):
            bound = rng.choice((3, 1000, 1 << 200))
            v1 = _random_independent(rng, rng.randint(1, 2), bound)
            if rng.random() < 0.5:
                v2 = _random_change_of_basis(rng, v1)
            else:
                v2 = _random_independent(rng, rng.randint(1, 2), bound)
            expected = hermite_normal_form(v1) == hermite_normal_form(v2)
            assert lattice_span_equal(_basis(*v1), _basis(*v2)) == expected, (v1, v2)
            outcomes[expected] += 1
        assert min(outcomes.values()) > 300, outcomes

    @pytest.mark.parametrize(
        "v1, v2, equal",
        [
            ([(1, 5, 0, 0), (0, 3, 0, 0)], [(1, 2, 0, 0), (0, 3, 0, 0)], True),
            ([(4, 6, 1, 0), (2, 3, 5, 0)], [(2, 3, 5, 0), (4, 6, 1, 0)], True),
            ([(2, 3, 5, 7)], [(-2, -3, -5, -7)], True),
            ([(2, 3, 5, 7), (0, 1, 0, 0)], [(2, 3, 5, 7), (0, -1, 0, 0)], True),
            ([(1, 0, 0, 0), (0, 1, 0, 0)], [(2, 0, 0, 0), (0, 1, 0, 0)], False),
            ([(1, 0, 0, 0), (0, 1, 0, 0)], [(1, 1, 0, 0), (1, -1, 0, 0)], False),
            ([(3, 1, 4, 1)], [(6, 2, 8, 2)], False),
            ([(1, 0, 0, 0)], [(1, 0, 0, 0), (0, 1, 0, 0)], False),
            ([(2, 3, 5, 7), (0, 1, 4, 0)], [(2, 3, 5, 7), (6, 10, 19, 21)], True),
            ([(2, 3, 5, 7), (0, 1, 4, 0)], [(2, 3, 5, 7), (-4, -7, -14, -14)], True),
            ([(2, 3, 5, 7), (0, 1, 4, 0)], [(2, 3, 5, 7), (2, 5, 13, 7)], False),
            ([(0, 0, 3, 1), (1, 0, 0, 0)], [(0, 0, 3, 1), (1, 0, 1, 0)], False),
            ([(0, 0, 3, 1), (1, 2, 0, 0)], [(0, 0, 3, 1), (-1, -2, 3, 1)], True),
        ],
        ids=[
            "reduction_above_pivot",
            "order_invariance",
            "sign_flip_rank_1",
            "sign_flip_rank_2",
            "index_2",
            "index_2_skew",
            "index_2_rank_1",
            "rank_1_against_rank_2",
            "shared_shear",
            "shared_negated_shear",
            "shared_index_2",
            "shared_not_a_shear",
            "shared_first_coordinate_zero",
        ],
    )
    def test_small_cases(self, v1, v2, equal):
        assert (hermite_normal_form(v1) == hermite_normal_form(v2)) == equal
        assert lattice_span_equal(_basis(*v1), _basis(*v2)) == equal
        assert lattice_span_equal(_basis(*v2), _basis(*v1)) == equal

    def test_random_bases_sharing_their_first_generator(self, monkeypatch):
        # (g, h1) against (g, h2) for h2 = +-h1 + q g (equal), 2 h1 + q g (index 2) and a
        # random h2, with entries up to 3, 1000 and 2^200; the equal pairs are decided
        # without the general containment test
        def general(*args):
            raise AssertionError("equal shared-generator bases reached the general test")

        rng = random.Random(2678_34511)
        outcomes = Counter()
        for _ in range(1500):
            bound = rng.choice((3, 1000, 1 << 200))
            g, h1 = _random_independent(rng, 2, bound)
            q = rng.choice((0, rng.randint(-5, 5), rng.randint(-bound, bound)))
            kind = rng.choice(("plus", "minus", "double", "random"))
            if kind == "random":
                h2 = _random_independent(rng, 1, bound)[0]
            else:
                e = {"plus": 1, "minus": -1, "double": 2}[kind]
                h2 = tuple(e * b + q * a for a, b in zip(g, h1))
            expected = hermite_normal_form([g, h1]) == hermite_normal_form([g, h2])
            assert expected == (kind in ("plus", "minus")) or kind == "random", (g, h1, h2)
            degenerate = len(hermite_normal_form([g, h2])) < 2
            for b1, b2 in (([g, h1], [g, h2]), ([g, h2], [g, h1])):
                if degenerate:
                    with pytest.raises(ValueError):
                        lattice_span_equal(_basis(*b1), _basis(*b2))
                    continue
                with monkeypatch.context() as patch:
                    if expected:
                        patch.setattr(lattices, "_in_span", general)
                    assert lattice_span_equal(_basis(*b1), _basis(*b2)) == expected, (b1, b2)
            outcomes[kind, expected] += 1
        assert min(outcomes[k] for k in [("plus", True), ("minus", True), ("double", False)]) > 300
        assert outcomes[("random", False)] > 300

    @pytest.mark.parametrize("k", [0, 1, -3, 1 << 200])
    @pytest.mark.parametrize("g", [(2, 3, 5, 7), (0, 0, 1 << 201, 5)])
    def test_shared_generator_with_a_dependent_second_raises(self, g, k):
        dependent = [g, tuple(k * a for a in g)]
        for other in ([g, (0, 1, 0, 0)], [g, (1, 0, 0, 0)], dependent):
            with pytest.raises(ValueError):
                lattice_span_equal(_basis(*dependent), _basis(*other))
            with pytest.raises(ValueError):
                lattice_span_equal(_basis(*other), _basis(*dependent))

    @pytest.mark.parametrize(
        "bad",
        [
            [(0, 0, 0, 0)],
            [(1, 2, 3, 4), (0, 0, 0, 0)],
            [(1, 2, 3, 4), (-3, -6, -9, -12)],
            [(0, 0, 5, 0), (0, 0, 7, 0)],
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],
        ],
        ids=["zero", "zero_second", "dependent", "dependent_on_one_axis", "three_generators"],
    )
    def test_degenerate_basis_rejected(self, bad):
        # checked before comparing, whatever the other basis's length
        for good in ([(1, 0, 0, 0)], [(1, 0, 0, 0), (0, 1, 0, 0)]):
            with pytest.raises(ValueError):
                lattice_span_equal(_basis(*bad), _basis(*good))
            with pytest.raises(ValueError):
                lattice_span_equal(_basis(*good), _basis(*bad))


class TestOneContainmentPlusIndex:
    """Sublattices where one containment holds, so only the index tells them apart."""

    @pytest.mark.parametrize(
        "full, sub, equal",
        [
            ([(1, 0, 2, 0), (0, 1, 0, 3)], [(2, 0, 4, 0), (0, 1, 0, 3)], False),
            ([(1, 0, 2, 0), (0, 1, 0, 3)], [(1, 1, 2, 3), (0, 3, 0, 9)], False),
            ([(1, 0, 2, 0), (0, 1, 0, 3)], [(1, 2, 2, 6), (1, -1, 2, -3)], False),
            ([(1, 0, 2, 0), (0, 1, 0, 3)], [(1, 0, 2, 0), (0, -1, 0, -3)], True),
            ([(1, 0, 2, 0), (0, 1, 0, 3)], [(0, 1, 0, 3), (1, 0, 2, 0)], True),
            ([(0, 0, 5, 7)], [(0, 0, 10, 14)], False),
            ([(0, 0, 5, 7)], [(0, 0, -15, -21)], False),
            ([(0, 0, 5, 7)], [(0, 0, -5, -7)], True),
            ([(3, 1 << 80, 0, 1)], [(6, 1 << 81, 0, 2)], False),
        ],
        ids=[
            "index_2",
            "index_3",
            "index_3_skew",
            "sign_flip",
            "swap",
            "index_2_rank_1",
            "index_3_rank_1_negated",
            "sign_flip_rank_1",
            "index_2_big",
        ],
    )
    def test_both_argument_orders(self, full, sub, equal):
        assert all(hermite_normal_form(full + [v]) == hermite_normal_form(full) for v in sub)
        assert (hermite_normal_form(full) == hermite_normal_form(sub)) == equal
        assert lattice_span_equal(_basis(*full), _basis(*sub)) == equal
        assert lattice_span_equal(_basis(*sub), _basis(*full)) == equal

    @pytest.mark.parametrize(
        "one, two",
        [
            ([(1, 0, 0, 0)], [(1, 0, 0, 0), (0, 1, 0, 0)]),
            ([(0, 0, 0, 9)], [(0, 0, 1, 0), (0, 0, 0, 9)]),
            ([(2, 4, 6, 8)], [(1, 2, 3, 4), (0, 0, 0, 1)]),
        ],
    )
    def test_rank_one_against_rank_two(self, one, two):
        assert not lattice_span_equal(_basis(*one), _basis(*two))
        assert not lattice_span_equal(_basis(*two), _basis(*one))

    @pytest.mark.parametrize(
        "bad",
        [
            [(0, 0, 0, 0)],
            [(0, 0, 0, 0), (1, 0, 0, 0)],
            [(2, 4, 6, 8), (1, 2, 3, 4)],
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],
            [],
        ],
        ids=["zero", "zero_first", "dependent", "three_generators", "empty"],
    )
    @pytest.mark.parametrize(
        "good",
        [
            [(1, 0, 0, 0)],
            [(3, 0, 0, 0)],
            [(1, 0, 0, 0), (0, 1, 0, 0)],
            [(2, 0, 0, 0), (0, 1, 0, 0)],
            [(2, 4, 6, 8), (0, 0, 0, 1)],
        ],
        ids=["rank_1", "rank_1_index_3", "rank_2", "rank_2_index_2", "rank_2_through_bad"],
    )
    def test_degenerate_basis_raises_where_the_index_test_says_false(self, bad, good):
        with pytest.raises(ValueError):
            lattice_span_equal(_basis(*bad), _basis(*good))
        with pytest.raises(ValueError):
            lattice_span_equal(_basis(*good), _basis(*bad))


class TestOrdCache:
    @pytest.mark.parametrize("ord, m", [(11, 6), (2, 3), (0, 6), (32, 5), (-1, 8)])
    def test_invalid_int_raises_every_time(self, ord, m):
        for _ in range(2):
            with pytest.raises(ValueError):
                lattices._as_ord(ord, m)
        with pytest.raises(ValueError):
            generator_invariants(m, ord)

    def test_parameter_for_another_m_rejected(self):
        lattices._as_ord(1, 6)
        for _ in range(2):
            with pytest.raises(ValueError, match="m=6, not m=8"):
                lattices._as_ord(OrdParameter(1, 6), 8)

    def test_equal_non_int_does_not_replace_the_int(self):
        with pytest.raises(ValueError):
            lattices._as_ord(True, 10)
        assert type(lattices._as_ord(1, 10).value) is int


class TestNu2FastPath:
    def test_agrees_with_padic_valuation(self):
        rng = random.Random(2018)
        values = [1, -1, 2, -2, 12, -12, -(1 << 300), 3 << 1000, -(5 << 4000) * 7, True]
        values += [rng.randint(-(1 << 500), 1 << 500) or 1 for _ in range(200)]
        values += [Fraction(3, 8), Fraction(-40, 3), Fraction(1 << 90, 7), Fraction(-5)]
        for x in values:
            assert nu2(x) == padic_valuation(x, 2), x
            assert type(nu2(x)) is int

    def test_zero_raises(self):
        for zero in (0, Fraction(0), False):
            with pytest.raises(ValueError):
                nu2(zero)
