from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest

import oracles
from hclat import genera
from hclat.exact import BezoutPair, normalize_bezout
from hclat.genera import GENERA, genus_coeffs, p2k_solve, s, shat, stolz_class_coeffs
from hclat.plumbing import canonical_bezout, profile


class TestCoefficientConstants:
    def test_shat_1(self):
        assert shat(1) == Fraction(-1, 24)

    def test_s_1_and_2(self):
        assert s(1) == Fraction(1, 3)
        assert s(2) == Fraction(7, 45)

    def test_s_3_classical_value(self):
        # p_3 coefficient of the classical degree-12 signature polynomial
        assert s(3) == Fraction(62, 945)

    def test_shat_2_classical_value(self):
        # p_2 coefficient of the classical degree-8 A-hat polynomial
        assert shat(2) == Fraction(-1, 1440)

    def test_closed_forms_agree_up_to_300(self):
        for n in range(1, 301):
            s(n)  # raises if the two closed forms disagree

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_corrupted_tangent_raises(self, n, monkeypatch, fresh_answers):
        # sigma_n is built from num4, so only the raw-tangent form can see T_n drift
        bad = replace(profile(n), tangent=profile(n).tangent + 2)
        monkeypatch.setattr(genera, "profile", lambda m: bad if m == n else profile(m))
        with pytest.raises(RuntimeError, match=f"closed forms of s_{n} disagree"):
            s(n)
        with pytest.raises(RuntimeError, match=f"closed forms of s_{n} disagree"):
            genus_coeffs("L", n)


class TestGenusCoeffs:
    def test_l_2(self):
        g = genus_coeffs("L", 2)
        assert g.coeff_p_top == Fraction(7, 45)
        assert g.coeff_p_half_sq == (s(1) ** 2 - s(2)) / 2 == Fraction(-1, 45)

    def test_ahat_1(self):
        g = genus_coeffs("Ahat", 1)
        assert (g.coeff_p_top, g.coeff_p_half_sq) == (Fraction(-1, 24), 0)

    def test_ahat_2_classical(self):
        g = genus_coeffs("Ahat", 2)
        assert g.coeff_p_top == Fraction(-4, 5760)
        assert g.coeff_p_half_sq == Fraction(7, 5760)

    def test_ph_3(self):
        g = genus_coeffs("Ph", 3)
        assert (g.coeff_p_top, g.coeff_p_half_sq) == (Fraction(1, 120), 0)

    def test_ph_even(self):
        g = genus_coeffs("Ph", 2)
        assert g.coeff_p_top == Fraction(-1, 6)
        assert g.coeff_p_half_sq == Fraction(1, 12)

    def test_ph_builds_no_profile(self, monkeypatch):
        # ph needs no Bernoulli data, so it must not start the tangent stream
        def no_profile(m):
            raise AssertionError(f"profile({m}) built for ph")

        monkeypatch.setattr(genera, "profile", no_profile)
        for m in range(1, 11):
            genus_coeffs("Ph", m)

    def test_odd_m_has_no_half_square_part(self):
        for genus in ("L", "Ahat", "Ph", "AhatPh"):
            for m in (1, 3, 5, 7):
                assert genus_coeffs(genus, m).coeff_p_half_sq == 0

    def test_unknown_genus(self):
        with pytest.raises(ValueError):
            genus_coeffs("X", 2)


class TestStolzClassCoeffs:
    def test_no_p_top_contribution(self):
        for m in range(1, 301):
            g = stolz_class_coeffs(m, canonical_bezout(m))
            assert g.coeff_p_top == 0

    def test_odd_m_vanishes_entirely(self):
        for m in (1, 3, 5, 7, 9):
            g = stolz_class_coeffs(m, canonical_bezout(m))
            assert g.coeff_p_half_sq == 0

    def test_no_p_top_for_shifted_representatives(self):
        for m in (2, 4, 6, 8):
            base = canonical_bezout(m)
            for t in (-2, -1, 1, 2):
                assert stolz_class_coeffs(m, base.shifted(t)).coeff_p_top == 0

    def test_evaluation_on_hyperbolic_plumbing_dimension_8(self):
        g = stolz_class_coeffs(2, canonical_bezout(2))
        assert g.evaluate(0, 32) == 8

    def test_default_pair_is_the_canonical_one(self):
        for m in range(1, 41):
            assert stolz_class_coeffs(m) == stolz_class_coeffs(m, canonical_bezout(m))

    def test_wrong_bezout_pair_rejected(self):
        with pytest.raises(ValueError):
            stolz_class_coeffs(2, normalize_bezout(1, 24))

    @pytest.mark.parametrize("m", [3, 6])
    def test_p_top_left_over_raises(self, m, monkeypatch, fresh_answers):
        # doubling sigma_m and T_m together keeps both forms of s_m equal, but
        # sigma_m no longer matches num4, so the p_top terms stop cancelling
        prof = profile(m)
        bad = replace(prof, sigma=2 * prof.sigma, tangent=2 * prof.tangent)
        monkeypatch.setattr(genera, "profile", lambda n: bad if n == m else profile(n))
        with pytest.raises(RuntimeError, match=f"S_{m} acquired a nonzero p_top coefficient"):
            stolz_class_coeffs(m)
        with pytest.raises(ValueError):
            stolz_class_coeffs(2, BezoutPair(-1, 1, 7, 8))  # valid pair, wrong moduli


class TestP2kSolve:
    def test_k1_closed_forms(self):
        dec = p2k_solve(1)
        assert dec.ahat_on_L == Fraction(-1, 224)
        assert dec.ahat_on_p_half_sq == Fraction(1, 896)

    def test_recombination_reproduces_ahat(self):
        for k in (1, 2, 3, 5):
            dec = p2k_solve(k)
            gl = genus_coeffs("L", 2 * k)
            ga = genus_coeffs("Ahat", 2 * k)
            assert ga.coeff_p_top == dec.ahat_on_L * gl.coeff_p_top
            assert ga.coeff_p_half_sq == dec.ahat_on_L * gl.coeff_p_half_sq + dec.ahat_on_p_half_sq

    def test_p2k_decomposition_is_inverse(self):
        for k in (1, 2, 4):
            dec = p2k_solve(k)
            gl = genus_coeffs("L", 2 * k)
            # substituting L back in must give exactly p_{2k}
            assert dec.p2k_on_L * gl.coeff_p_top == 1
            assert dec.p2k_on_L * gl.coeff_p_half_sq + dec.p2k_on_p_half_sq == 0


class TestProofIdentities:
    def test_half_s_identity(self):
        # (1/2) s_{2k} = sigma_{2k} d/(2(4k-1)!) - sigma_{2k} c shat_{2k}/2
        for k in range(1, 31):
            m = 2 * k
            prof = profile(m)
            c, d = prof.bezout.c, prof.bezout.d
            lhs = s(m) / 2
            rhs = Fraction(prof.sigma * d, 2 * factorial(2 * m - 1)) - Fraction(
                prof.sigma * c
            ) * shat(m) / 2
            assert lhs == rhs

    def test_sigma_c_identity(self):
        # sigma_{2k} c = 2^{4k+1}(2^{4k-1}-1)(1 - j_{2k} d)
        for k in range(1, 31):
            m = 2 * k
            prof = profile(m)
            c, d = prof.bezout.c, prof.bezout.d
            assert prof.sigma * c == (1 << (2 * m + 1)) * ((1 << (2 * m - 1)) - 1) * (
                1 - prof.j * d
            )


class TestAgainstFractionReference:
    """The integer kernels return what the Fraction chains in ``oracles`` return."""

    def test_s_and_shat(self):
        for n in range(0, 301):
            assert oracles.outcome(s, n) == oracles.outcome(oracles.s, n)
            assert oracles.outcome(shat, n) == oracles.outcome(oracles.shat, n)

    def test_genus_coeffs(self):
        for m in range(0, 301):
            for genus in GENERA + ("S",):
                assert oracles.outcome(genus_coeffs, genus, m) == oracles.outcome(
                    oracles.genus_coeffs, genus, m
                )

    def test_stolz_class_coeffs_over_bezout_shifts(self):
        for m in range(1, 301):
            for pair in [None] + [canonical_bezout(m).shifted(t) for t in range(-2, 3)]:
                assert oracles.outcome(stolz_class_coeffs, m, pair) == oracles.outcome(
                    oracles.stolz_class_coeffs, m, pair
                )

    def test_stolz_class_coeffs_rejects_pairs_for_other_m(self):
        for m in range(1, 41):
            pair = canonical_bezout(m + 1)
            expected = oracles.outcome(oracles.stolz_class_coeffs, m, pair)
            assert oracles.outcome(stolz_class_coeffs, m, pair) == expected
