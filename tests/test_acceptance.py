"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
lines as they print, and ``--run-long`` for the opt-in full-range scan).
"""

import time
from math import gcd

import pytest

import oracles
from hclat.bernoulli import bernoulli_abs, record_range, vsc_denominator
from hclat.bundles import (
    bundle_signature_divisor,
    kappa_basis,
    pairing_matrix,
    signature_4_realizable,
)
from hclat.exact import nu2
from hclat.genera import s, shat
from hclat.lattices import generator_invariants, lattice_span_equal, minimal_ahat
from hclat.plumbing import bp_order, canonical_bezout, profile, s_of_Q
from hclat.verify import verify_gcd_power_of_two, verify_numerator_coprimality


class _Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.t0 = time.monotonic()

    def check(self) -> float:
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit, f"exceeded {self.limit}s budget: {elapsed:.1f}s"
        return elapsed


def _report(number: int, text: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {text}")


def test_criterion_01_quaternionic_projective_plane():
    budget = _Budget(1.0)
    full = generator_invariants(2, 1, "full_kernel")
    assert full.generators[1][1].as_tuple() == (1, 0, 7, 4)
    sig4 = generator_invariants(2, 1, "signature_in_4Z")
    assert sig4.generators[1][1].as_tuple() == (4, 0, 28, 16)
    _report(1, "second generator at m=2 is (1, 0, 7, 4), scaled (4, 0, 28, 16)", budget.check())


def test_criterion_02_splitting_invariant_small_k():
    budget = _Budget(1.0)
    for k in (1, 2):
        first, second = oracles.s_of_Q_formulas(k, canonical_bezout(2 * k))
        assert first == -1
        assert second == -1
        assert s_of_Q(2 * k) == -1
    _report(2, "s(Q) = -1 at k = 1, 2 via both formulas independently", budget.check())


def test_criterion_03_formula_agreement_up_to_200():
    budget = _Budget(300.0)
    for k in range(1, 201):
        first, second = oracles.s_of_Q_formulas(k, canonical_bezout(2 * k))
        assert first == second
        assert first.denominator == 1
        assert s_of_Q(2 * k) == first.numerator
    _report(3, "both s(Q) formulas agree on an integer for all k <= 200", budget.check())


def test_criterion_04_sigma_table():
    budget = _Budget(1.0)
    assert [profile(m).sigma for m in (1, 2, 3, 4)] == [16, 224, 7936, 65024]
    assert [bp_order(m) for m in (1, 2, 3, 4)] == [2, 28, 992, 8128]
    _report(4, "sigma_1..4 = 16, 224, 7936, 65024; bp orders 2, 28, 992, 8128", budget.check())


def test_criterion_05_kronecker_delta_pairing():
    budget = _Budget(600.0)
    for m in range(2, 151):
        mat = pairing_matrix(m, 1)
        n = len(mat)
        assert n == (1 if m % 2 else 2)
        for i in range(n):
            for j in range(n):
                assert mat[i][j] == (1 if i == j else 0)
    _report(5, "kappa basis pairs to the identity matrix for 2 <= m <= 150", budget.check())


def test_criterion_06_gcd_power_of_two_scan():
    budget = _Budget(600.0)
    report = verify_gcd_power_of_two(300)
    assert report.status == "verified"
    assert report.counterexamples == []
    for m in range(2, 301, 2):
        g = gcd(profile(m).sigma, profile(m // 2).sigma ** 2)
        assert g >> nu2(g) == 1
        assert nu2(g) == 2 * m + 1
    _report(6, "gcd(sigma_m, sigma_{m/2}^2) = 2^(2m+1) for even m <= 300", budget.check())


@pytest.mark.long
def test_criterion_06_full_range_counterexample():
    budget = _Budget(3600.0)
    report = verify_gcd_power_of_two(2678)
    assert report.status == "counterexample"
    odd_parts = [w for w in report.counterexamples if w["kind"] == "odd_part"]
    assert len(odd_parts) == 1 and odd_parts[0]["m"] == 2678
    g = gcd(profile(2678).sigma, profile(1339).sigma ** 2)
    assert g == (1 << (2 * 2678 + 1)) * 34511
    _report(6, "full scan: gcd at m=2678 is exactly 2^5357 * 34511", budget.check())


def test_criterion_07_numerator_coprimality_scan():
    budget = _Budget(600.0)
    report = verify_numerator_coprimality(300)
    assert report.status == "verified"
    assert report.counterexamples == []
    _report(7, "num(|B_2m|/4m) coprime to num(|B_m|/2m)^2 for even m <= 300", budget.check())


def test_criterion_08_valuation_laws_up_to_500():
    budget = _Budget(300.0)
    records = {rec.n: rec for rec in record_range(500)}
    for n in range(1, 501):
        assert nu2(records[n].j) == nu2(n) + 3
        if 2 * n <= 500:
            assert records[2 * n].j % records[n].j == 0
        assert vsc_denominator(n) == (records[n].abs_value / n).denominator
    _report(8, "nu2(j_n) = nu2(n) + 3, j_n | j_2n, von Staudt-Clausen agree to n=500", budget.check())


def test_criterion_09_proof_identities_up_to_200():
    budget = _Budget(300.0)
    from fractions import Fraction
    from math import factorial

    for k in range(1, 201):
        m = 2 * k
        prof = profile(m)
        c, d = prof.bezout.c, prof.bezout.d
        lhs = s(m) / 2
        rhs = Fraction(prof.sigma * d, 2 * factorial(2 * m - 1)) - Fraction(
            prof.sigma * c
        ) * shat(m) / 2
        assert lhs == rhs
        assert prof.sigma * c == (1 << (2 * m + 1)) * ((1 << (2 * m - 1)) - 1) * (
            1 - prof.j * d
        )
    _report(9, "both displayed splitting-proof identities hold for k <= 200", budget.check())


def test_criterion_10_bundle_divisors():
    budget = _Budget(1.0)
    assert bundle_signature_divisor(1, 1) == 4
    assert bundle_signature_divisor(2, 1) == 4
    assert bundle_signature_divisor(4, 1) == 4
    assert bundle_signature_divisor(3, 1) == 7936
    assert bundle_signature_divisor(6, 1) == 512
    assert minimal_ahat(3) == 2
    assert minimal_ahat(2) == 1
    assert minimal_ahat(6) == 1
    for m in range(1, 13):
        assert signature_4_realizable(m) is (m in (1, 2, 4))
    _report(10, "bundle divisors: 4/7936/512 pattern and A-hat 2/1/1; 4 realizable iff m in {1,2,4}", budget.check())


def test_criterion_11_bezout_representative_robustness():
    budget = _Budget(300.0)
    for k in range(1, 51):
        m = 2 * k
        base = canonical_bezout(m)
        s_base = s_of_Q(m, base)
        order = bp_order(m)
        basis = generator_invariants(m, 1)
        basis4 = generator_invariants(m, 1, "signature_in_4Z")
        for t in (-2, -1, 1, 2):
            shifted = base.shifted(t)
            assert (s_of_Q(m, shifted) - s_base) % order == 0
            assert lattice_span_equal(basis, generator_invariants(m, 1, "full_kernel", shifted))
            assert lattice_span_equal(
                basis4, generator_invariants(m, 1, "signature_in_4Z", shifted)
            )
    _report(11, "Bezout shifts move s(Q) by multiples of sigma_2k/8 and preserve the lattices", budget.check())
