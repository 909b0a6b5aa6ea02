import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hclat.bernoulli import bernoulli_record
from hclat.exact import (
    BezoutPair,
    gcd_with_square,
    normalize_bezout,
    nu2,
    padic_valuation,
)
from oracles import extended_gcd


class TestExtendedGcd:
    def test_gcd_with_zero(self):
        assert extended_gcd(240, 0) == (240, 1, 0)

    def test_small_pair(self):
        assert extended_gcd(6, 4) == (2, 1, -1)

    def test_bezout_identity_for_bernoulli_pair(self):
        g, x, y = extended_gcd(691, 65520)
        assert g == 1
        assert 691 * x + 65520 * y == 1

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            extended_gcd(0, 0)

    def test_random_512_bit_inputs(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            a = rng.getrandbits(rng.randint(1, 512)) - rng.getrandbits(256)
            b = rng.getrandbits(rng.randint(1, 512)) - rng.getrandbits(256)
            if a == 0 and b == 0:
                continue
            g, x, y = extended_gcd(a, b)
            assert g == math.gcd(a, b) > 0
            assert a * x + b * y == g

    @given(st.integers(), st.integers())
    def test_identity_property(self, a, b):
        if a == 0 and b == 0:
            return
        g, x, y = extended_gcd(a, b)
        assert a * x + b * y == g == math.gcd(a, b)


class TestNormalizeBezout:
    def test_numerator_one_forces_d_zero(self):
        assert normalize_bezout(1, 240) == BezoutPair(1, 0, 1, 240)
        assert normalize_bezout(1, 24) == BezoutPair(1, 0, 1, 24)
        assert normalize_bezout(1, 1) == BezoutPair(1, 0, 1, 1)

    def test_bernoulli_pair_is_in_range(self):
        pair = normalize_bezout(691, 65520)
        assert 0 <= pair.d < 691
        assert pair.c * 691 + pair.d * 65520 == 1
        assert 0 <= pair.d < pair.for_numerator

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            normalize_bezout(6, 4)

    def test_invalid_pair_rejected_on_construction(self):
        with pytest.raises(ValueError):
            BezoutPair(1, 1, 691, 65520)

    def test_shifted_pairs_normalize_back(self):
        pair = normalize_bezout(691, 65520)
        for t in (-3, -1, 1, 2, 5):
            shifted = pair.shifted(t)
            assert shifted.c * 691 + shifted.d * 65520 == 1
            renorm = normalize_bezout(691, 65520)
            assert renorm == pair  # unique normalized representative

    @given(st.integers(1, 10**9), st.integers(1, 10**9))
    def test_uniqueness_property(self, num, denom):
        if math.gcd(num, denom) != 1:
            return
        pair = normalize_bezout(num, denom)
        assert 0 <= pair.d < num
        assert pair.c * num + pair.d * denom == 1


def _oracle_pair(num: int, denom: int) -> BezoutPair:
    """The normalized pair built from the extended Euclidean oracle's ``y``."""
    g, _, y = extended_gcd(num, denom)
    assert g == 1
    d = y % num
    return BezoutPair((1 - d * denom) // num, d, num, denom)


class TestNormalizeBezoutAgainstOracle:
    def test_seeded_inputs(self):
        rng = random.Random(1807)
        coprime = 0
        while coprime < 3000:
            num = rng.getrandbits(rng.randint(1, 400)) + 1
            denom = rng.getrandbits(rng.randint(1, 400)) + 1
            g = extended_gcd(num, denom)[0]
            if g == 1:
                assert normalize_bezout(num, denom) == _oracle_pair(num, denom)
                coprime += 1
            else:
                with pytest.raises(ValueError) as info:
                    normalize_bezout(num, denom)
                assert str(info.value) == f"inputs not coprime: gcd({num}, {denom}) = {g}"

    @pytest.mark.parametrize(
        "num, denom", [(1, 1), (1, 2), (1, 2**300 + 1), (2, 1), (691, 1), (10**40 + 1, 1)]
    )
    def test_unit_inputs(self, num, denom):
        assert normalize_bezout(num, denom) == _oracle_pair(num, denom)

    @pytest.mark.parametrize(
        "num, denom, g", [(6, 4, 2), (4, 6, 2), (7, 7, 7), (2**80 * 3, 2**70 * 5, 2**70)]
    )
    def test_non_coprime_message(self, num, denom, g):
        with pytest.raises(ValueError) as info:
            normalize_bezout(num, denom)
        assert str(info.value) == f"inputs not coprime: gcd({num}, {denom}) = {g}"

    def test_every_bernoulli_pair_up_to_m_300(self):
        for m in range(1, 301):
            rec = bernoulli_record(m)
            assert normalize_bezout(rec.num4, rec.j) == _oracle_pair(rec.num4, rec.j)


class TestPadicValuation:
    def test_plain_integers(self):
        assert padic_valuation(24, 2) == 3
        assert padic_valuation(16, 2) == 4
        assert padic_valuation(24, 3) == 1
        assert padic_valuation(7, 5) == 0

    def test_reciprocal(self):
        assert padic_valuation(Fraction(1, 6), 2) == -1
        assert padic_valuation(Fraction(1, 6), 3) == -1
        assert padic_valuation(Fraction(4, 9), 3) == -2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            padic_valuation(0, 2)
        with pytest.raises(ValueError):
            padic_valuation(Fraction(0), 3)

    def test_bad_prime_rejected(self):
        with pytest.raises(ValueError):
            padic_valuation(8, 1)

    @given(
        st.integers(min_value=-(10**12), max_value=10**12).filter(lambda x: x != 0),
        st.integers(min_value=-(10**12), max_value=10**12).filter(lambda x: x != 0),
        st.sampled_from([2, 3, 5, 7, 11, 13]),
    )
    def test_multiplicative(self, x, y, p):
        assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)

    def test_multiplicative_on_fractions(self):
        rng = random.Random(7)
        for _ in range(500):
            x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            y = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            for p in (2, 3, 5):
                assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)


def test_helpers():
    assert nu2(24) == 3
    assert nu2(-40) == 3


def test_gcd_with_square_matches_full_gcd():
    rng = random.Random(1339)
    seen = set()
    for i in range(600):
        a, b = rng.getrandbits(64) | 1, rng.getrandbits(64) | 1
        p = rng.choice([3, 5, 691, 34511])
        if i % 4 == 1:  # a shared odd factor
            a, b = a * p, b * p
        elif i % 4 == 2:  # a power of p in a that only the square of b reaches
            a, b = a * p ** rng.randint(2, 3), b * p
        a <<= rng.randint(0, 9)
        b <<= rng.randint(0, 5)
        if rng.random() < 0.5:
            a = -a
        e, odd = gcd_with_square(a, b)
        assert odd % 2 == 1
        assert odd << e == math.gcd(a, b * b)
        seen.add((e > 0, odd > 1))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
