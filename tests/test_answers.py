"""The memo of checked per-dimension answers in ``plumbing``.

``s_of_Q``, ``stolz_class_coeffs``, ``genus_coeffs`` (per genus),
``generator_invariants`` (per variant), ``minimal_signature``, ``kappa_basis``,
``divisibility_report`` and ``pairing_matrix`` keep their answer for the canonical
Bezout pair per ``(m, ord)``; other pairs are recomputed.  These tests compare warm
answers with first computations, check that a cache state never changes an
outcome, and that the identity scan keeps no answer of an m it has checked.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

import oracles
from hclat import bundles, genera, lattices, plumbing, verify
from hclat.bernoulli import bernoulli_abs, bernoulli_record, tangent_number
from hclat.bundles import divisibility_report, kappa_basis, pairing_matrix
from hclat.exact import BezoutPair
from hclat.genera import GENERA, genus_coeffs, stolz_class_coeffs
from hclat.lattices import (
    VARIANTS,
    OrdParameter,
    generator_invariants,
    kernel_structure,
    lattice_span_equal,
    minimal_signature,
)
from hclat.plumbing import (
    bp_order,
    canonical_bezout,
    profile,
    require_bezout_for,
    s_of_Q,
)

M_MAX = 60


def _divisors(n: int) -> list[int]:
    out, p = [1], 2
    while n > 1:
        if p * p > n:
            p = n  # what is left is prime
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out = [d * p**i for d in out for i in range(e + 1)]
        p += 1
    return sorted(out)


def valid_ords(m: int, sample_above: int | None = None) -> list[int]:
    """Every valid ``ord`` at ``m``: all divisors of ``j_{m/2}^2`` for even ``m``
    outside {2, 4}, 1 elsewhere, and at ``m = 5``, whose ord is unknown, the
    values 1..64 that the constructor accepts.  With ``sample_above``, the
    divisors past 64 are left out for ``m`` above it, all but ``j_{m/2}^2``."""
    if m == 5:
        candidates = range(1, 65)
    elif m % 2 or m in (2, 4):
        candidates = [1]
    else:
        j2 = profile(m // 2).j ** 2
        candidates = _divisors(j2)
        if sample_above is not None and m > sample_above:
            candidates = [o for o in candidates if o <= 64 or o == j2]
    return [o for o in candidates if oracles.outcome(OrdParameter, o, m).startswith("OrdParameter")]


def test_divisors():
    for n in (1, 2, 12, 97, 360, 2 * 3 * 7 * 7 * 101):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def _answers(m: int, ord: int | None = None) -> list[str]:
    """The six answers at ``m`` that take no ord, or the six at ``(m, ord)``."""
    if ord is None:
        return [oracles.outcome(s_of_Q, m), oracles.outcome(stolz_class_coeffs, m)] + [
            oracles.outcome(genus_coeffs, genus, m) for genus in GENERA
        ]
    by_ord = (minimal_signature, divisibility_report, pairing_matrix, kappa_basis)
    return [oracles.outcome(fn, m, ord) for fn in by_ord] + [
        oracles.outcome(generator_invariants, m, ord, variant) for variant in VARIANTS
    ]


def _warm_answers_equal_first_computations(monkeypatch, sample_above, block=2000):
    warm: dict = {}
    # set once, so the original memo comes back after the test; the swaps below bypass
    # monkeypatch, whose undo list would keep every memo swapped out
    monkeypatch.setattr(plumbing, "_answers", warm)
    total = 0
    # filled and read one m at a time, in blocks of at most ``block`` cases: m = 60 alone
    # has 54675 of the every-ord cases; the memo holds one block and the one before it
    for m in range(1, M_MAX + 1):
        ords = [None, *valid_ords(m, sample_above)]
        for start in range(0, len(ords), block):
            cases = [(m, ord) for ord in ords[start : start + block]]
            held = len(warm)
            plumbing._answers = warm
            for case in cases:
                _answers(*case)
            kept = len(warm)
            assert kept > held
            # each warm answer against the same answer again in a memo of its own; the
            # previous block's answers are still in it, so a key that dropped m or ord
            # would return another case's; only one case's outcomes are held at a time
            for case in cases:
                plumbing._answers = warm
                answer = _answers(*case)
                plumbing._answers = {}
                assert _answers(*case) == answer, case
            assert len(warm) == kept  # every warm read was answered from the swapped memo
            for key in list(warm)[:held]:  # insertion order: the previous block's first
                del warm[key]
            total += len(cases)
    return total


def test_warm_answers_equal_first_computations(monkeypatch):
    # every valid ord up to m = 30, then ords up to 64 and j_{m/2}^2
    assert _warm_answers_equal_first_computations(monkeypatch, sample_above=30) > 5500


@pytest.mark.long
def test_warm_answers_equal_first_computations_every_ord(monkeypatch):
    assert _warm_answers_equal_first_computations(monkeypatch, sample_above=None) > 84000


@pytest.mark.parametrize("m", [2, 3, 5, 6, 12, 40])
def test_repeat_calls_return_the_kept_answer(m):
    assert s_of_Q(m) is s_of_Q(m)
    assert stolz_class_coeffs(m) is stolz_class_coeffs(m)
    assert minimal_signature(m, 1) is minimal_signature(m, 1)
    assert divisibility_report(m, 1) is divisibility_report(m, 1)
    for genus in GENERA:
        assert genus_coeffs(genus, m) is genus_coeffs(genus, m)
    for variant in VARIANTS:
        assert generator_invariants(m, 1, variant) is generator_invariants(m, 1, variant)
    first, second = pairing_matrix(m, 1), pairing_matrix(m, 1)
    assert first is not second and first == second
    assert all(a is b for r1, r2 in zip(first, second) for a, b in zip(r1, r2))
    first, second = kappa_basis(m, 1), kappa_basis(m, 1)
    assert first is not second and first == second
    assert all(a is b for a, b in zip(first, second))


@pytest.mark.parametrize("m", [2, 3, 6, 12, 40])
def test_canonical_pair_passed_explicitly_hits_the_memo(m):
    # perfbench/queries.py asks for stolz_class_coeffs(m, canonical_bezout(m))
    pair = canonical_bezout(m)
    copy = BezoutPair(pair.c, pair.d, pair.for_numerator, pair.for_denominator)
    for given in (pair, copy):
        assert stolz_class_coeffs(m, given) is stolz_class_coeffs(m)
        assert s_of_Q(m, given) is s_of_Q(m)
        assert pairing_matrix(m, 1, given)[0][0] is pairing_matrix(m, 1)[0][0]
        assert kappa_basis(m, 1, given)[0] is kappa_basis(m, 1)[0]
        for variant in VARIANTS:
            assert generator_invariants(m, 1, variant, given) is generator_invariants(m, 1, variant)


@pytest.mark.parametrize("m", [2, 6, 12, 40])
def test_shifted_pair_is_recomputed_and_checked(monkeypatch, m):
    calls = []

    def counting(n, bezout=None):
        calls.append(n)
        return require_bezout_for(n, bezout)

    monkeypatch.setattr(plumbing, "require_bezout_for", counting)
    s_base, coeffs, exprs = s_of_Q(m), stolz_class_coeffs(m), kappa_basis(m, 1)
    bases = {variant: generator_invariants(m, 1, variant) for variant in VARIANTS}
    for t in (-2, -1, 1, 2):
        shifted = canonical_bezout(m).shifted(t)
        for _ in range(2):
            calls.clear()
            s_t = s_of_Q(m, shifted)
            assert calls == [m]
            assert (s_t - s_base) % bp_order(m) == 0
            assert s_t != s_base
            calls.clear()
            assert stolz_class_coeffs(m, shifted) != coeffs
            assert calls == [m]
            calls.clear()
            assert kappa_basis(m, 1, shifted) != exprs
            assert calls == [m]
            for variant, basis in bases.items():
                calls.clear()
                basis_t = generator_invariants(m, 1, variant, shifted)
                assert calls == [m]
                assert basis_t != basis and lattice_span_equal(basis_t, basis)
            calls.clear()
            assert pairing_matrix(m, 1, shifted) == pairing_matrix(m, 1)
            assert calls == [m]
    assert s_of_Q(m) is s_base and stolz_class_coeffs(m) is coeffs
    assert kappa_basis(m, 1) == exprs and kappa_basis(m, 1)[0] is exprs[0]
    assert all(generator_invariants(m, 1, v) is basis for v, basis in bases.items())


WITH_PAIR = [
    ("s_of_Q", lambda m, b: s_of_Q(m, b)),
    ("stolz_class_coeffs", lambda m, b: stolz_class_coeffs(m, b)),
    ("pairing_matrix", lambda m, b: pairing_matrix(m, 1, b)),
    ("kappa_basis", lambda m, b: kappa_basis(m, 1, b)),
] + [
    (f"generator_invariants-{variant}", lambda m, b, v=variant: generator_invariants(m, 1, v, b))
    for variant in VARIANTS
]


# the m = 1 and odd-m branches read no pair; only these two answers start at m = 1
FROM_1 = ("stolz_class_coeffs", "kappa_basis")


@pytest.mark.parametrize("fn,m", [
    pytest.param(fn, m, id=f"{m}-{name}")
    for m in (1, 2, 3, 6) for name, fn in WITH_PAIR if m > 1 or name in FROM_1
])
def test_each_pair_argument_is_checked_once_cold_and_warm(monkeypatch, cold, fn, m):
    calls = []

    def counting(n, bezout=None):
        calls.append(n)
        return require_bezout_for(n, bezout)

    monkeypatch.setattr(plumbing, "require_bezout_for", counting)
    pair = canonical_bezout(m)
    copy = BezoutPair(pair.c, pair.d, pair.for_numerator, pair.for_denominator)
    for _ in range(2):  # cold, then warm
        for given, checked in ((None, []), (pair, []), (copy, []), (pair.shifted(1), [m])):
            calls.clear()
            fn(m, given)
            assert calls == checked


@pytest.mark.parametrize("fn", [f for _, f in WITH_PAIR], ids=[n for n, _ in WITH_PAIR])
@pytest.mark.parametrize("m,other", [(6, 4), (3, 4), (12, 2)])
def test_invalid_pair_raises_cold_and_warm(monkeypatch, fn, m, other):
    wrong = canonical_bezout(other)
    monkeypatch.setattr(plumbing, "_answers", {})
    cold = oracles.outcome(fn, m, wrong)
    assert cold.startswith("ValueError: Bezout pair is for")
    fn(m, None)
    assert oracles.outcome(fn, m, wrong) == cold


@pytest.mark.parametrize("fn", [f for _, f in WITH_PAIR], ids=[n for n, _ in WITH_PAIR])
@pytest.mark.parametrize("m", [3, 6])
@pytest.mark.parametrize("bad", [(1, 2), [1, 2]], ids=repr)
def test_a_pair_of_another_type_raises_cold_and_warm(cold, fn, m, bad):
    expected = f"ValueError: bezout must be a BezoutPair, got {type(bad).__name__}"
    assert oracles.outcome(fn, m, bad) == expected
    fn(m, None)  # warms every answer the canonical pair reaches
    assert oracles.outcome(fn, m, bad) == expected


@pytest.mark.parametrize("m", [3, 6, 12])
def test_a_genus_and_a_variant_never_answer_for_each_other(m):
    for genus in GENERA:
        genus_coeffs(genus, m)
    for variant in VARIANTS:
        generator_invariants(m, 1, variant)
    for name in (*GENERA, *VARIANTS, ["L"], None):
        if name not in GENERA:
            assert oracles.outcome(genus_coeffs, name, m).startswith("ValueError: unknown genus")
        if name not in VARIANTS:
            with pytest.raises(ValueError, match="variant must be one of"):
                generator_invariants(m, 1, name)


def test_mutating_a_returned_matrix_changes_nothing():
    mat = pairing_matrix(6, 1)
    mat[0][0] = Fraction(5)
    mat[1].append(Fraction(7))
    mat.append([])
    assert pairing_matrix(6, 1) == [[1, 0], [0, 1]]


@pytest.mark.parametrize("m", [1, 6])
def test_mutating_a_returned_kappa_basis_changes_nothing(m):
    exprs = kappa_basis(m, 1)
    kept = list(exprs)
    exprs[0] = exprs[-1]
    exprs.append(exprs[0])
    exprs.reverse()
    assert kappa_basis(m, 1) == kept


class TestARaiseIsNotKept:
    def test_argument_errors_raise_again(self):
        for fn, args in [
            (s_of_Q, (1,)),
            (stolz_class_coeffs, (0,)),
            (minimal_signature, (0, 1)),
            (divisibility_report, (0, 1)),
            (pairing_matrix, (1, 1)),
            (genus_coeffs, ("L", 0)),
            (genus_coeffs, ("Ph", 0)),
            (generator_invariants, (1, 1)),
            (generator_invariants, (6, 1, "sig4")),
            (kappa_basis, (0, 1)),
            (kappa_basis, (6, 0)),
        ]:
            first = oracles.outcome(fn, *args)
            assert first.startswith("ValueError")
            assert oracles.outcome(fn, *args) == first

    def test_failed_cross_check_raises_again_then_recovers(self, monkeypatch, fresh_answers):
        good = oracles.s_of_Q(6)
        bad = replace(profile(3), tangent=profile(3).tangent + 8)
        with monkeypatch.context() as patch:
            patch.setattr(plumbing, "profile", lambda m: bad if m == 3 else profile(m))
            for _ in range(2):
                with pytest.raises(RuntimeError, match="the two formulas for s\\(Q\\) disagree"):
                    s_of_Q(6)
        assert s_of_Q(6) == good

    def test_failed_closed_forms_raise_again_then_recover(self, monkeypatch, fresh_answers):
        good = oracles.outcome(oracles.genus_coeffs, "L", 14)
        bad = replace(profile(7), tangent=profile(7).tangent + 2)
        with monkeypatch.context() as patch:
            patch.setattr(genera, "profile", lambda m: bad if m == 7 else profile(m))
            for _ in range(2):
                with pytest.raises(RuntimeError, match="closed forms of s_7 disagree"):
                    genus_coeffs("L", 14)
        assert oracles.outcome(genus_coeffs, "L", 14) == good

    def test_non_integral_generator_raises_again_then_recovers(self, monkeypatch, fresh_answers):
        good = oracles.outcome(oracles.generator_invariants, 8, 1, "full_kernel", None)
        bad = replace(profile(4), tangent=profile(4).tangent + 1)
        with monkeypatch.context() as patch:
            patch.setattr(lattices, "profile", lambda m: bad if m == 4 else profile(m))
            for _ in range(2):
                with pytest.raises(RuntimeError, match="second generator sigma is not an integer"):
                    generator_invariants(8)
        assert oracles.outcome(generator_invariants, 8) == good

    def test_pairing_must_be_the_identity(self, monkeypatch, fresh_answers):
        terms = bundles._kappa_terms

        def doubled(m, ord, bezout):
            return [(2 * tn, 2 * hn, den) for tn, hn, den in terms(m, ord, bezout)]

        with monkeypatch.context() as patch:
            patch.setattr(bundles, "_kappa_terms", doubled)
            for _ in range(2):
                with pytest.raises(RuntimeError, match="does not pair to the identity at m=6"):
                    pairing_matrix(6, 1)
        assert pairing_matrix(6, 1) == [[1, 0], [0, 1]]


def test_identity_scan_keeps_no_answer_of_a_checked_m(fresh_answers):
    for m in (5, 30, 31, 45):
        _answers(m)
        _answers(m, 1)
    assert {key[1] for key in plumbing._answers} == {5, 30, 31, 45}
    assert verify.verify_identity_suite(30).status == "verified"
    assert {key[1] for key in plumbing._answers} == {31, 45}


NOT_INT = [6.0, True, Fraction(6)]
M_FUNCTIONS = [
    ("profile", profile),
    ("s_of_Q", s_of_Q),
    ("stolz_class_coeffs", stolz_class_coeffs),
    ("minimal_signature", minimal_signature),
    ("divisibility_report", divisibility_report),
    ("pairing_matrix", pairing_matrix),
    ("generator_invariants", generator_invariants),
    ("kernel_structure", kernel_structure),
    ("kappa_basis", kappa_basis),
    ("genus_coeffs", lambda m: genus_coeffs("L", m)),
    ("OrdParameter", lambda m: OrdParameter(1, m)),
    ("tangent_number", tangent_number),
    ("bernoulli_record", bernoulli_record),
    ("bernoulli_abs", bernoulli_abs),
]


@pytest.mark.parametrize("fn", [f for _, f in M_FUNCTIONS], ids=[n for n, _ in M_FUNCTIONS])
@pytest.mark.parametrize("bad", NOT_INT, ids=repr)
def test_non_int_m_raises_the_same_cold_and_warm(cold, fn, bad):
    first = oracles.outcome(fn, bad)
    assert " must be an int, got " in first
    oracles.outcome(fn, int(bad))  # warms every memo the int reaches
    assert oracles.outcome(fn, bad) == first


WITH_ORD = [
    kernel_structure,
    generator_invariants,
    minimal_signature,
    bundles.bundle_signature_divisor,
    kappa_basis,
    pairing_matrix,
    divisibility_report,
]


@pytest.mark.parametrize("m", [3, 5, 6, 12])
@pytest.mark.parametrize("bad", [True, 1.0, Fraction(1), "OrdParameter for m + 2"], ids=repr)
def test_non_int_ord_raises_the_same_cold_and_warm(cold, m, bad):
    # each equals 1 or stands for it, and 1 is a valid ord at every m here
    if bad == "OrdParameter for m + 2":
        bad = OrdParameter(1, m + 2)
        expected = f"ValueError: ord parameter is for m={m + 2}, not m={m}"
    else:
        expected = "ValueError: ord must be a positive integer"
    first = [oracles.outcome(fn, m, bad) for fn in WITH_ORD]
    assert first == [expected] * len(WITH_ORD)
    for fn in WITH_ORD:
        fn(m, 1)  # warms every answer the int reaches
    assert [oracles.outcome(fn, m, bad) for fn in WITH_ORD] == first


@pytest.mark.parametrize("bad", NOT_INT, ids=repr)
def test_non_int_m_in_an_ord_parameter(cold, bad):
    # _as_ord trusts the m its callers have gated: a non-int m is refused first, next to
    # an int ord or a parameter built for int(m), however warm the answers at int(m) are
    expected = f"ValueError: m must be an int, got {bad!r}"
    for warm in (False, True):
        for fn in WITH_ORD:
            if warm:
                oracles.outcome(fn, int(bad), 1)
            assert oracles.outcome(fn, bad, 1) == expected
            assert oracles.outcome(fn, bad, OrdParameter(1, int(bad))) == expected
