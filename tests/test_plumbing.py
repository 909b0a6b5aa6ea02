from dataclasses import fields, replace
from fractions import Fraction
from math import factorial, gcd

import pytest

import oracles
from hclat import plumbing
from hclat.bernoulli import tangent_number
from hclat.bundles import kappa_basis, pairing_matrix
from hclat.exact import INDEX_MAX, nu2
from hclat.genera import stolz_class_coeffs
from hclat.lattices import generator_invariants
from hclat.plumbing import (
    DimensionProfile,
    bp_order,
    canonical_bezout,
    lambda_k,
    pk2_of_Q,
    profile,
    require_bezout_for,
    s_of_Q,
    stolz_s,
)

from oracles import tangent_oracle


class TestProfile:
    def test_sigma_table(self):
        assert [profile(m).sigma for m in (1, 2, 3, 4)] == [16, 224, 7936, 65024]

    def test_a_parity(self):
        assert profile(3).a == 2
        assert profile(4).a == 1

    def test_fields(self):
        names = [f.name for f in fields(DimensionProfile)]
        assert names == ["m", "a", "sigma", "num4", "j", "bezout", "fact", "tangent"]

    @pytest.mark.parametrize("m", [INDEX_MAX + 1, 10**12, 10**20, 10**20 + 1])
    def test_overflow_is_refused_before_the_tangent_stream(self, monkeypatch, m):
        def unreachable(n):
            raise AssertionError(f"started work toward n={n}")

        monkeypatch.setattr(plumbing, "factorial", unreachable)
        monkeypatch.setattr(plumbing, "bernoulli_record", unreachable)
        monkeypatch.setattr(plumbing, "tangent_number", unreachable)
        for _ in range(2):  # a raise is not kept
            with pytest.raises(OverflowError) as info:
                profile(m)
            assert str(info.value) == f"m must be <= {INDEX_MAX}, got {m}"

    def test_factorial_and_tangent_fields(self):
        for m in range(1, 61):
            prof = profile(m)
            assert prof.fact == factorial(2 * m - 1)
            assert prof.tangent is tangent_number(m)
            assert prof.tangent == tangent_oracle(m)

    @pytest.mark.parametrize("m", [3, 6, 9, 200, 201])
    def test_canonical_bezout_is_the_profile_pair(self, m):
        prof = profile(m)
        assert canonical_bezout(m) is prof.bezout
        assert 0 <= prof.bezout.d < prof.bezout.for_numerator
        assert (prof.bezout.for_numerator, prof.bezout.for_denominator) == (prof.num4, prof.j)

    def test_nu2_law_up_to_300(self):
        for m in range(1, 301):
            prof = profile(m)
            assert nu2(prof.sigma) == 2 * m + 1 + nu2(prof.a)

    def test_sigma_over_a_is_the_product_form(self):
        # two shifts of num4 stand for the product 2^{2m+1}(2^{2m-1}-1) num4
        for m in range(1, 401):
            for num4 in (1, profile(m).num4):
                product = (1 << (2 * m + 1)) * ((1 << (2 * m - 1)) - 1) * num4
                assert plumbing.sigma_over_a(m, num4) == product, (m, num4)
            assert plumbing.sigma_over_a(m) == plumbing.sigma_over_a(m, 1)

    def test_sigma_1_valuation(self):
        assert nu2(profile(1).sigma) == 4

    def test_built_once_per_m(self):
        assert profile(7) is profile(7)


@pytest.mark.parametrize(
    "consumer",
    [
        stolz_class_coeffs,
        s_of_Q,
        lambda m, b: generator_invariants(m, 1, "full_kernel", b),
        lambda m, b: kappa_basis(m, 1, b),
        require_bezout_for,
    ],
    ids=[
        "stolz_class_coeffs",
        "s_of_Q",
        "generator_invariants",
        "kappa_basis",
        "require_bezout_for",
    ],
)
def test_bezout_pair_for_another_m_rejected(consumer):
    with pytest.raises(ValueError) as info:
        consumer(6, canonical_bezout(4))
    assert str(info.value) == (
        f"Bezout pair is for ({profile(4).num4}, {profile(4).j}), "
        f"expected the numerator/denominator ({profile(6).num4}, {profile(6).j}) "
        "of |B_12|/24"
    )


@pytest.mark.parametrize(
    "consumer",
    [
        s_of_Q,
        lambda m, b: generator_invariants(m, 1, "full_kernel", b),
        lambda m, b: kappa_basis(m, 1, b),
        lambda m, b: pairing_matrix(m, 1, b),
    ],
    ids=["s_of_Q", "generator_invariants", "kappa_basis", "pairing_matrix"],
)
def test_bezout_pair_for_another_m_rejected_at_odd_m(consumer):
    # odd m reads no Bezout pair, but a pair given for another m is still an error
    with pytest.raises(ValueError) as expected:
        require_bezout_for(3, canonical_bezout(4))
    with pytest.raises(ValueError) as info:
        consumer(3, canonical_bezout(4))
    assert str(info.value) == str(expected.value)


def test_kappa_basis_rejects_a_pair_for_another_m_at_m_1():
    with pytest.raises(ValueError, match=r"of \|B_2\|/4"):
        kappa_basis(1, 1, canonical_bezout(2))


def test_require_bezout_for_defaults_to_the_profile_pair():
    for m in range(1, 41):
        assert require_bezout_for(m) is profile(m).bezout
        shifted = profile(m).bezout.shifted(3)
        assert require_bezout_for(m, shifted) is shifted


@pytest.mark.parametrize("k,value", [(1, 2), (2, 2), (3, 1), (4, 1)])
def test_lambda_k_table(k, value):
    assert lambda_k(k) == value


class TestBpOrder:
    def test_table(self):
        assert [bp_order(m) for m in (1, 2, 3, 4)] == [2, 28, 992, 8128]


class TestPk2OfQ:
    @pytest.mark.parametrize("k,value", [(1, 32), (2, 288), (3, 115200)])
    def test_values(self, k, value):
        assert pk2_of_Q(k) == value

    @pytest.mark.parametrize("k", [INDEX_MAX + 1, 10**12, 10**20, 10**20 + 1])
    def test_overflow_message_names_k(self, monkeypatch, k):
        monkeypatch.setattr(plumbing, "factorial", None)  # calling it would raise
        with pytest.raises(OverflowError) as info:
            pk2_of_Q(k)
        assert str(info.value) == f"k must be <= {INDEX_MAX}, got {k}"


class TestSofQ:
    def test_minus_one_in_dimensions_8_and_16(self):
        assert s_of_Q(2) == -1
        assert s_of_Q(4) == -1

    def test_both_formulas_equal_minus_one_independently(self):
        for k in (1, 2):
            first, second = oracles.s_of_Q_formulas(k, canonical_bezout(2 * k))
            assert first == second == -1

    def test_vanishes_for_odd_m(self):
        for m in (3, 5, 7, 9):
            assert s_of_Q(m) == 0

    def test_dimension_24_integral(self):
        first, second = oracles.s_of_Q_formulas(3, canonical_bezout(6))
        assert first == second
        assert first.denominator == 1
        assert s_of_Q(6) == first.numerator

    def test_formula_agreement_range(self):
        for k in range(1, 41):
            assert isinstance(s_of_Q(2 * k), int)

    def test_congruence_with_sigma_square(self):
        # j_k^2 s(Q) lands in -lambda_k^2 sigma_k^2/8 + (sigma_{2k}/8) Z,
        # so modulo the order of the boundary-sphere group it is determined
        for k in range(1, 201):
            pk = profile(k)
            s_q = s_of_Q(2 * k)
            lam = 2 if k in (1, 2) else 1
            assert (pk.j**2 * s_q + lam**2 * pk.sigma**2 // 8) % bp_order(2 * k) == 0

    def test_representative_shifts(self):
        for k in (1, 2, 3, 5, 10, 25):
            m = 2 * k
            base = canonical_bezout(m)
            s_base = s_of_Q(m, base)
            order = bp_order(m)
            base_gcd = gcd(profile(m).sigma, 8 * abs(s_base))
            for t in (-2, -1, 1, 2):
                s_t = s_of_Q(m, base.shifted(t))
                assert (s_t - s_base) % order == 0
                assert gcd(profile(m).sigma, 8 * abs(s_t)) == base_gcd

    def test_wrong_bezout_rejected(self):
        with pytest.raises(ValueError):
            s_of_Q(4, canonical_bezout(2))

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            s_of_Q(1)

    def test_formulas_default_to_the_canonical_pair(self):
        for k in (1, 3, 10):
            first, _ = oracles.s_of_Q_formulas(k, canonical_bezout(2 * k))
            assert oracles.s_of_Q_formulas(k) == oracles.s_of_Q_formulas(k, canonical_bezout(2 * k))
            assert s_of_Q(2 * k) == first == s_of_Q(2 * k, canonical_bezout(2 * k))

    def test_pair_is_checked_once(self, monkeypatch, fresh_answers):
        calls = []

        def counting(m, bezout=None):
            calls.append(m)
            return require_bezout_for(m, bezout)

        monkeypatch.setattr(plumbing, "require_bezout_for", counting)
        for pair, checked in ((None, []), (canonical_bezout(6).shifted(1), [6])):
            calls.clear()
            s_of_Q(6, pair)
            assert calls == checked

    def test_disagreeing_formulas_raise(self, monkeypatch, fresh_answers):
        # T_3 enters only the second formula
        bad = replace(profile(3), tangent=profile(3).tangent + 8)
        monkeypatch.setattr(plumbing, "profile", lambda m: bad if m == 3 else profile(m))
        with pytest.raises(RuntimeError, match="the two formulas for s\\(Q\\) disagree at k=3"):
            s_of_Q(6)

    def test_against_fraction_reference(self):
        for m in range(1, 301):
            for pair in [None] + [canonical_bezout(m).shifted(t) for t in range(-2, 3)]:
                assert oracles.outcome(s_of_Q, m, pair) == oracles.outcome(oracles.s_of_Q, m, pair)

    def test_wrong_pair_message_is_the_check_message(self):
        with pytest.raises(ValueError) as expected:
            require_bezout_for(4, canonical_bezout(2))
        with pytest.raises(ValueError) as info:
            s_of_Q(4, canonical_bezout(2))
        assert str(info.value) == str(expected.value)


class TestStolzS:
    def test_hyperbolic_plumbing_chain_dimension_8(self):
        # sigma(Q) = 0 and <S_2(Q)> = 8 give the splitting value -1
        coeffs = stolz_class_coeffs(2, canonical_bezout(2))
        s_eval = coeffs.evaluate(0, 32)
        assert s_eval == 8
        assert stolz_s(0, s_eval) == -1

    def test_e8_like_inputs(self):
        assert stolz_s(8, 8) == 0
        assert stolz_s(8, 0) == 1

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            stolz_s(1, 2)
        with pytest.raises(ValueError):
            stolz_s(8, Fraction(1, 3))
