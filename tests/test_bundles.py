import random
from fractions import Fraction

import pytest

import oracles
from hclat.bundles import (
    KappaExpression,
    bundle_signature_divisor,
    divisibility_report,
    kappa_basis,
    pairing,
    pairing_matrix,
    signature_4_realizable,
)
from hclat.lattices import (
    InvariantVector,
    generator_invariants,
    minimal_ahat,
    signature_divisibility_bound,
)
from hclat.plumbing import canonical_bezout


class TestDivisors:
    def test_signature_divisor_cases(self):
        assert bundle_signature_divisor(1, 1) == 4
        assert bundle_signature_divisor(2, 1) == 4
        assert bundle_signature_divisor(4, 1) == 4
        assert bundle_signature_divisor(3, 1) == 7936
        assert bundle_signature_divisor(6, 1) == 512

    def test_ahat_divisor_cases(self):
        assert minimal_ahat(3) == 2
        assert minimal_ahat(2) == 1
        assert minimal_ahat(6) == 1

    def test_signature_4_realizable_exactly_on_exceptions(self):
        for m in range(1, 21):
            assert signature_4_realizable(m) is (m in (1, 2, 4))

    def test_divisor_always_multiple_of_4(self):
        for m in range(1, 41):
            assert bundle_signature_divisor(m, 1) % 4 == 0

    def test_two_power_bound_divides_divisor(self):
        for m in range(3, 41):
            if m == 4:
                continue
            assert bundle_signature_divisor(m, 1) % signature_divisibility_bound(m) == 0

    def test_report_fields(self):
        report = divisibility_report(3, 1)
        assert report.signature_divisor == 7936
        assert report.ahat_divisor == 2
        assert report.non_admissible_signature_divisor == 3968
        assert report.non_admissible_ahat_divisor == 1
        assert report.realizable_at_genus == "g >= 5"

    def test_report_m_1(self):
        report = divisibility_report(1, 1)
        assert report.signature_divisor == 4
        assert report.ahat_divisor is None
        assert report.realizable_at_genus == "g >= 3"

    def test_report_odd_ahat_divisor_has_no_half(self):
        report = divisibility_report(6, 1)
        assert report.ahat_divisor == 1
        assert report.non_admissible_ahat_divisor is None

    def test_nontrivial_ord(self):
        from hclat.lattices import minimal_signature

        for ord in (2, 4, 7, 28):
            divisor = bundle_signature_divisor(6, ord)
            assert divisor % 4 == 0
            assert divisor == minimal_signature(6, ord)[0]
            assert divisor % signature_divisibility_bound(6) == 0


class TestKappaBasis:
    def test_m_1(self):
        (expr,) = kappa_basis(1, 1)
        assert (expr.coeff_p_top, expr.coeff_p_half_sq) == (Fraction(1, 12), 0)

    def test_m_3(self):
        (expr,) = kappa_basis(3, 1)
        assert (expr.coeff_p_top, expr.coeff_p_half_sq) == (Fraction(1, 120960), 0)

    def test_m_2_expression_values(self):
        mixed, pure = kappa_basis(2, 1)
        assert (pure.coeff_p_top, pure.coeff_p_half_sq) == (0, Fraction(1, 16))
        assert mixed.coeff_p_top == Fraction(2, 2880)
        assert mixed.coeff_p_half_sq == -Fraction(1, 2880) - Fraction(1, 1152)

    def test_pairing_examples_dimension_8(self):
        mixed, pure = kappa_basis(2, 1)
        hp2_quadruple = InvariantVector(4, 0, 28, 16)
        assert pairing(pure, hp2_quadruple) == 1
        assert pairing(mixed, hp2_quadruple) == 0

    def test_pairing_on_zero_vector(self):
        zero = InvariantVector(0, 0, 0, 0)
        for m in (1, 2, 3, 6):
            for expr in kappa_basis(m, 1):
                assert pairing(expr, zero) == 0

    def test_pairing_bilinear(self):
        expr = KappaExpression(Fraction(1, 3), Fraction(-1, 7))
        v = InvariantVector(0, 0, 6, 14)
        assert pairing(expr, v) == 2 - 2


class TestDuality:
    def test_identity_matrix_small_range(self):
        for m in range(2, 41):
            mat = pairing_matrix(m, 1)
            n = len(mat)
            for i in range(n):
                for j in range(n):
                    assert mat[i][j] == (1 if i == j else 0)

    def test_no_lattice_at_m_1(self):
        with pytest.raises(ValueError, match="m must be >= 2"):
            pairing_matrix(1)

    def test_identity_matrix_with_shifted_bezout(self):
        for m in (2, 4, 6, 10):
            shifted = canonical_bezout(m).shifted(2)
            mat = pairing_matrix(m, 1, shifted)
            n = len(mat)
            for i in range(n):
                for j in range(n):
                    assert mat[i][j] == (1 if i == j else 0)

    def test_integer_values_on_lattice(self):
        rng = random.Random(99)
        for m in range(2, 41):
            basis = generator_invariants(m, 1, "signature_in_4Z")
            exprs = kappa_basis(m, 1)
            vecs = [vec for _, vec in basis.generators]
            for _ in range(5):
                coeffs = [rng.randint(-20, 20) for _ in vecs]
                combo = InvariantVector(
                    sum(c * v.sigma for c, v in zip(coeffs, vecs)),
                    sum(c * v.ahat for c, v in zip(coeffs, vecs)),
                    sum(c * v.p_top for c, v in zip(coeffs, vecs)),
                    sum(c * v.p_half_sq for c, v in zip(coeffs, vecs)),
                )
                for expr in exprs:
                    assert pairing(expr, combo).denominator == 1

    def test_wrong_bezout_rejected(self):
        with pytest.raises(ValueError):
            kappa_basis(4, 1, canonical_bezout(2))


KERNELS = [(kappa_basis, oracles.kappa_basis), (pairing_matrix, oracles.pairing_matrix)]


class TestAgainstFractionReference:
    """The integer kernels return what the Fraction chains in ``oracles`` return."""

    @pytest.mark.parametrize("new,ref", KERNELS, ids=["kappa_basis", "pairing_matrix"])
    def test_bezout_shifts(self, new, ref):
        for m in range(1, 301):
            for pair in [None] + [canonical_bezout(m).shifted(t) for t in range(-2, 3)]:
                assert oracles.outcome(new, m, 1, pair) == oracles.outcome(ref, m, 1, pair)

    @pytest.mark.parametrize("m", [1, 5, 6, 8, 10])
    def test_ord_values(self, m):
        for ord in oracles.ord_candidates(m):
            for new, ref in KERNELS:
                assert oracles.outcome(new, m, ord) == oracles.outcome(ref, m, ord)

    def test_pairing(self):
        rng = random.Random(7)
        for m in range(1, 61):
            exprs = kappa_basis(m, 1) + [KappaExpression(Fraction(1, 3), Fraction(-5, 14))]
            for _ in range(3):
                v = InvariantVector(*(rng.randint(-10**6, 10**6) for _ in range(4)))
                for e in exprs:
                    assert oracles.outcome(pairing, e, v) == oracles.outcome(oracles.pairing, e, v)
