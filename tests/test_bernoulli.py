import random
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from fractions import Fraction
from functools import cache
from itertools import islice
from math import factorial, isqrt

import pytest

import hclat
from hclat import bernoulli, plumbing
from hclat.bernoulli import (
    BernoulliRecord,
    _divmod_mersenne,
    _record,
    _sieve,
    _tangents,
    bernoulli_abs,
    bernoulli_record,
    record_range,
    tangent_number,
    vsc_denominator,
)
from hclat.exact import INDEX_MAX, nu2
from hclat.verify import FULL_RANGES

from oracles import (
    bernoulli_abs_oracle,
    brent_harvey_columns,
    brent_harvey_tangents,
    gcd_reduction,
    primes_upto,
    seidel_tangents,
    tangent_oracle,
    vsc_denominator_sieve,
    vsc_denominator_trial,
)


def _read(limit: int) -> list[int]:
    """``T_1 .. T_limit`` read from the point-query memo one index at a time."""
    return [tangent_number(n) for n in range(1, limit + 1)]


class TestTangentNumbers:
    def test_first_two(self):
        assert [tangent_number(1), tangent_number(2)] == [1, 2]

    def test_t3_and_t5_against_recurrence_oracle(self):
        assert tangent_number(3) == tangent_oracle(3) == 16
        assert tangent_number(5) == tangent_oracle(5) == 7936

    def test_sequence_against_oracle(self, fresh_memo):
        assert _read(30) == [tangent_oracle(n) for n in range(1, 31)]

    def test_even_from_index_two(self, fresh_memo):
        for n, t in enumerate(_read(500), start=1):
            if n >= 2:
                assert t % 2 == 0

    def test_empty_and_invalid(self):
        assert list(_tangents(0)) == []
        with pytest.raises(ValueError):
            tangent_number(0)


class TestBernoulliAbs:
    def test_known_small_values(self):
        assert bernoulli_abs(1) == Fraction(1, 6)
        assert bernoulli_abs(2) == Fraction(1, 30)
        assert bernoulli_abs(6) == Fraction(691, 2730)

    def test_num_of_b4_over_8(self):
        assert (bernoulli_abs(2) / 8).numerator == 1

    def test_agrees_with_defining_recurrence(self):
        for n in range(1, 51):
            assert bernoulli_abs(n) == bernoulli_abs_oracle(n)


class TestVscDenominator:
    def test_small_values(self):
        assert vsc_denominator(1) == 6
        assert vsc_denominator(2) == 60

    def test_two_adic_exponent(self):
        assert nu2(vsc_denominator(6)) == 1 + nu2(6)

    def test_agrees_with_bernoulli_denominator_up_to_500(self):
        for n in range(1, 501):
            assert vsc_denominator(n) == (bernoulli_abs(n) / n).denominator

    def test_invalid(self):
        with pytest.raises(ValueError):
            vsc_denominator(0)

    def test_agrees_with_the_sieve(self):
        for n in [*range(1, 3001), 21000, 42000]:
            assert vsc_denominator(n) == vsc_denominator_sieve(n), n

    def test_agrees_with_trial_division(self):
        rng = random.Random(24)
        sample = [rng.randint(1, INDEX_MAX) for _ in range(200)]
        for n in [*range(1, 3001), *sample, INDEX_MAX]:
            assert vsc_denominator(n) == vsc_denominator_trial(n), n


    @pytest.mark.parametrize("k", [1, 2, 3, 9, 50, 221])  # 2k + 1 prime, 2k^2 <= INDEX_MAX
    def test_square_two_n_counts_its_root_once(self, k):
        # n = 2k^2 makes 2n = (2k)^2, whose root 2k pairs with itself as a divisor and
        # gives the prime candidate 2k + 1 from both sides of the pair
        n = 2 * k * k
        assert vsc_denominator(n) == vsc_denominator_sieve(n) == vsc_denominator_trial(n)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_the_cofactor_candidate_at_the_top_of_the_range(self, d):
        # the largest n <= INDEX_MAX whose candidate 2n/d + 1 is prime: it lies near the
        # sieve's end and comes only from the cofactor side of a divisor pair
        def prime(p):
            return all(p % q for q in range(2, isqrt(p) + 1))

        n = next(n for n in range(INDEX_MAX, 0, -1) if not 2 * n % d and prime(2 * n // d + 1))
        assert n > INDEX_MAX - 100
        assert vsc_denominator(n) % (2 * n // d + 1) == 0
        assert vsc_denominator(n) == vsc_denominator_trial(n)

    @pytest.mark.parametrize("n", [0, -1, -(10**20)])
    def test_below_one_refused_before_the_sieve(self, monkeypatch, n):
        def unreachable(*args):
            raise AssertionError(f"started work toward n={n}")

        monkeypatch.setattr(bernoulli, "_sieve", unreachable)
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            vsc_denominator(n)


class TestIndexCeiling:
    @pytest.mark.parametrize(
        "call,n",
        [
            (call, n)
            for call in (
                tangent_number, bernoulli_record, bernoulli_abs, record_range, vsc_denominator
            )
            for n in (INDEX_MAX + 1, 10**12, 10**20)  # the least refused, and more
        ],
        ids=lambda x: getattr(x, "__name__", str(x)),
    )
    def test_refused_before_any_sweep_or_sieve(self, monkeypatch, call, n):
        def unreachable(*args):
            raise AssertionError(f"started work toward n={n}")

        monkeypatch.setattr(bernoulli, "_tangents", unreachable)
        monkeypatch.setattr(bernoulli, "_sieve", unreachable)
        name = "limit" if call is record_range else "n"
        with pytest.raises(OverflowError) as info:
            call(n)
        assert str(info.value) == f"{name} must be <= {INDEX_MAX}, got {n}"

    def test_the_ceiling_covers_every_published_range(self):
        assert INDEX_MAX >= max(FULL_RANGES.values())


def _fresh_table(monkeypatch):
    monkeypatch.setattr(bernoulli, "_sieve", cache(_sieve.__wrapped__))


class TestPrimeTable:
    def test_descending_fill_gives_the_ascending_values(self, monkeypatch):
        _fresh_table(monkeypatch)
        ascending = [vsc_denominator(n) for n in range(1, 3001)]
        _fresh_table(monkeypatch)
        descending = [vsc_denominator(n) for n in range(3000, 0, -1)]
        assert descending[::-1] == ascending

    def test_table_matches_a_sieve(self):
        sieve = _sieve()
        assert len(sieve) == 2 * INDEX_MAX + 2
        assert [p for p in range(len(sieve)) if sieve[p]] == primes_upto(2 * INDEX_MAX + 1)

    def test_built_once_as_immutable_bytes(self, monkeypatch):
        _fresh_table(monkeypatch)
        assert bernoulli._sieve.cache_info().currsize == 0
        vsc_denominator(1)
        sieve = bernoulli._sieve()
        assert type(sieve) is bytes
        vsc_denominator(INDEX_MAX)
        assert bernoulli._sieve() is sieve
        assert bernoulli._sieve.cache_info().currsize == 1

    def test_agrees_with_trial_division_at_highly_composite_n(self):
        # 2n highly composite, so most candidates d + 1 are large
        for n in (55440, 83160, 98280, INDEX_MAX):
            assert vsc_denominator(n) == vsc_denominator_trial(n), n

    def test_concurrent_first_calls_agree_with_the_oracle(self, monkeypatch):
        # threads that each start from an empty memo: every reader gets one whole
        # sieve, whichever call builds it
        _fresh_table(monkeypatch)
        ns = [n for k in range(1, 6) for n in (10**k // 3, 7 * 10**k // 9)] * 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(vsc_denominator, ns, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [vsc_denominator_trial(n) for n in ns]


class TestRecords:
    @pytest.mark.parametrize(
        "n,j,num4",
        [(1, 24, 1), (4, 480, 1), (6, 65520, 691)],
    )
    def test_record_values(self, n, j, num4):
        rec = bernoulli_record(n)
        assert rec.j == j
        assert rec.num4 == num4
        assert Fraction(rec.num4, rec.j) == rec.abs_value / (4 * n)

    def test_record_stores_only_n_num4_and_j(self):
        assert [f.name for f in fields(BernoulliRecord)] == ["n", "num4", "j"]
        for rec in record_range(300):
            assert rec.abs_value == Fraction(4 * rec.n * rec.num4, rec.j)
        with pytest.raises(AttributeError):
            rec.abs_value = Fraction(1)

    def test_range_singleton(self):
        recs = list(record_range(1))
        assert len(recs) == 1 and recs[0].n == 1

    def test_range_j_values(self):
        assert [r.j for r in record_range(6)] == [24, 240, 504, 480, 264, 65520]

    def test_range_empty(self):
        assert list(record_range(0)) == []

    def test_j_valuation_law(self):
        for rec in record_range(500):
            assert nu2(rec.j) == nu2(rec.n) + 3

    def test_j_divides_j_of_double(self):
        js = {rec.n: rec.j for rec in record_range(500)}
        for n in range(1, 251):
            assert js[2 * n] % js[n] == 0


class TestEngineAgainstSeidelTriangle:
    def test_fresh_engine_matches_triangle_to_600(self, fresh_memo):
        assert _read(600) == seidel_tangents(600)

    def test_extending_in_steps_matches_one_call(self, monkeypatch, fresh_memo):
        for n in (1, 2, 17, 300, 301, 600):
            tangent_number(n)
        stepped = bernoulli._memo
        monkeypatch.setattr(bernoulli, "_memo", ([], [0]))
        tangent_number(600)
        assert bernoulli._memo == stepped and len(stepped[1]) == 601

    def test_records_match_full_fraction_reduction(self, fresh_memo):
        for n, t in enumerate(seidel_tangents(300), start=1):
            ratio4 = Fraction(t, (1 << (2 * n + 1)) * ((1 << (2 * n)) - 1))
            rec = bernoulli_record(n)
            assert (rec.num4, rec.j) == (ratio4.numerator, ratio4.denominator)
            assert rec.abs_value == ratio4 * (4 * n)

    def test_interrupted_extension_leaves_later_values_exact(self, fresh_memo):
        previous = signal.signal(signal.SIGALRM, signal.default_int_handler)
        try:
            # T_3000 takes many seconds, so the alarm lands inside its strip
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(KeyboardInterrupt):
                tangent_number(3000)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # the one strip to 3000 never finished, so the memo is still the empty one
        assert bernoulli._memo == ([], [0])
        assert _read(20) == seidel_tangents(20)

    @pytest.mark.long
    def test_fresh_engine_matches_triangle_to_3000(self, fresh_memo):
        assert _read(3000) == seidel_tangents(3000)


class TestScaledColumns:
    def test_stream_matches_unscaled_recurrence_to_1000(self):
        assert list(_tangents(1000)) == brent_harvey_tangents(1000)

    @pytest.mark.long
    def test_fresh_engine_matches_unscaled_recurrence_to_4000(self, fresh_memo):
        # past the triangle's 3000, so the overlap with an independent kernel goes on;
        # the bounded sweep is held to the same kernel
        expected = brent_harvey_tangents(4000)
        assert _read(4000) == expected
        assert list(_tangents(4000)) == expected


class TestDiagonalSweep:
    @pytest.mark.parametrize("limit", [*range(65), 1000])
    def test_sweep_matches_the_engine(self, fresh_memo, limit):
        # small limits cover every clip edge of the triangle and the first dropped entry
        assert list(_tangents(limit)) == _read(limit)

    def test_sweep_holds_one_short_diagonal_and_keeps_no_column(self):
        limit = 600
        column: list[int] = []
        list(_tangents(limit, column))
        column_bits = sum(u.bit_length() for u in column)
        sweep = _tangents(limit)
        lengths, bits = [], []
        for j, _ in enumerate(sweep, start=1):
            # the suspended generator's frame holds its whole state: one entry per row k,
            # zero outside the live diagonal, so no entry of a finished column is kept
            state = sweep.gi_frame.f_locals
            assert state["column"] is None and len(state["u"]) == j + 1
            rows = [k for k, u in enumerate(state["u"]) if u]
            assert rows == list(range(rows[0], j + 1)), j
            lengths.append(len(rows))
            bits.append(sum(u.bit_length() for u in state["u"]))
        # at T_j, diagonal s = 2j clipped to j <= limit: k from max(1, 2j - limit) to j
        assert lengths == [j - max(1, 2 * j - limit) + 1 for j in range(1, limit + 1)]
        assert max(lengths) <= limit // 2 + 1
        # 0.323 of the column at limit 600
        assert max(bits) <= 0.4 * column_bits


class _InterruptOnFirstAdd(int):
    """An int whose first ``+`` raises KeyboardInterrupt, as a signal landing there would."""

    fired = False

    def __add__(self, other):
        if not _InterruptOnFirstAdd.fired:
            _InterruptOnFirstAdd.fired = True
            raise KeyboardInterrupt
        return int(self) + other


def _log_strips(monkeypatch) -> list[tuple[int, int]]:
    """Make the point-query memo sweep through a wrapper of ``_tangents``; returns its
    ``(L, limit)`` log, one entry per strip."""
    calls = []

    def logged(limit, column=None):
        calls.append((len(column), limit))
        return _tangents(limit, column)

    monkeypatch.setattr(bernoulli, "_tangents", logged)
    return calls


def _assert_chained_strips(limit, seed):
    """Strips of random widths, each swept from the column the last one left, yield
    ``T_1 .. T_limit`` and end on the unscaled recurrence's columns: ``u_j[k] (j-k)!
    2^{k-1} = h_j[k]``."""
    rng = random.Random(seed)
    facts = [factorial(d) for d in range(limit)]
    oracle = brent_harvey_columns()
    column: list[int] = []
    while len(column) < limit:
        start = len(column)
        end = min(limit, start + rng.choice([1, 1, 2, 3, 7, 50, 123]))
        stretch = list(islice(oracle, end - start))
        assert list(_tangents(end, column)) == [t for t, _ in stretch], (start, end)
        unscaled = stretch[-1][1]  # the oracle's one list, now column ``end``
        assert len(column) == len(unscaled) == end
        for k, (u, h) in enumerate(zip(column, unscaled), start=1):
            assert u * (facts[end - k] << (k - 1)) == h, (end, k)


class TestStripMemo:
    @pytest.mark.parametrize("seed", range(3))
    def test_chained_strips_of_random_widths_match_the_oracle(self, seed):
        _assert_chained_strips(600, seed)

    @pytest.mark.long
    def test_chained_strips_of_random_widths_match_the_oracle_to_3000(self):
        _assert_chained_strips(3000, 0)

    def test_interrupt_mid_strip_resumes_from_the_last_whole_strip(self, monkeypatch, fresh_memo):
        tangent_number(50)
        memo = bernoulli._memo
        whole = (memo[0].copy(), memo[1].copy())
        _InterruptOnFirstAdd.fired = False
        memo[0][25] = _InterruptOnFirstAdd(whole[0][25])
        with pytest.raises(KeyboardInterrupt):
            tangent_number(80)
        # the strip ran on a copy: the memo still holds column 50 and T_1..T_50
        assert _InterruptOnFirstAdd.fired
        assert bernoulli._memo is memo and memo == whole
        calls = _log_strips(monkeypatch)
        assert tangent_number(90) == brent_harvey_tangents(90)[-1]
        # one strip, from column 50 on: nothing is replayed from column 0
        assert calls == [(50, 90)]
        assert _read(90) == brent_harvey_tangents(90)

    @pytest.mark.parametrize("after", [0, 1, 17, 30, None])
    def test_interrupt_between_yields_keeps_the_last_whole_strip(
        self, monkeypatch, fresh_memo, after
    ):
        # 30 is past the strip's last T, before its column is replaced; None lets the
        # sweep end, so the copy already holds column 80 when the interrupt lands
        tangent_number(50)
        memo = bernoulli._memo
        whole = (memo[0].copy(), memo[1].copy())

        def interrupted(limit, column=None):
            yield from islice(_tangents(limit, column), after)
            raise KeyboardInterrupt

        monkeypatch.setattr(bernoulli, "_tangents", interrupted)
        with pytest.raises(KeyboardInterrupt):
            tangent_number(80)
        assert bernoulli._memo is memo and memo == whole
        calls = _log_strips(monkeypatch)
        assert _read(80) == brent_harvey_tangents(80)
        assert calls[0] == (50, 51)

    def test_threads_switching_mid_strip_sweep_each_index_once(self, monkeypatch, fresh_memo):
        expected = brent_harvey_tangents(200)
        calls = _log_strips(monkeypatch)
        start = threading.Barrier(8)

        def walk(_):
            start.wait(timeout=60)
            # every thread asks for every new index, so each strip is contended
            return _read(200)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(walk, i) for i in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8
        # each strip starts where the last ended: no index was swept twice or skipped
        assert [a for a, _ in calls] == [0, *(b for _, b in calls[:-1])]
        assert calls[-1][1] == 200
        column, tangents = bernoulli._memo
        assert len(column) == 200 and tangents == [0, *expected]

    def test_point_queries_share_one_memo(self, monkeypatch, cold):
        calls = _log_strips(monkeypatch)
        t = tangent_number(40)
        assert calls == [(0, 40)]
        rec = bernoulli_record(40)
        assert bernoulli_abs(40) == rec.abs_value
        assert plumbing.profile(40).tangent is t
        # the record, |B_80| and the profile all read T_40 from the one memo
        assert calls == [(0, 40)]
        assert bernoulli_record(40) is rec and bernoulli._records == {40: rec}
        assert not hasattr(hclat, "SeidelEngine") and "SeidelEngine" not in hclat.__all__


def _assert_records_match_gcd_reduction(limit):
    for n, t in enumerate(_tangents(limit), start=1):
        rec = _record(n, t)
        assert (rec.abs_value, rec.num4, rec.j) == gcd_reduction(n, t), n


class TestCertifiedRecords:
    def test_records_match_gcd_reduction_to_1000(self):
        _assert_records_match_gcd_reduction(1000)

    @pytest.mark.long
    def test_records_match_gcd_reduction_to_4000(self):
        _assert_records_match_gcd_reduction(4000)

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 41, 300])
    @pytest.mark.parametrize(
        "corrupt",
        # the last keeps the 2-adic valuation and leaves a remainder
        [lambda t: t + 1, lambda t: 3 * t, lambda t: 2 * t, lambda t: t + 2 * (t & -t)],
        ids=["plus1", "times3", "times2", "odd_part_plus2"],
    )
    def test_wrong_tangent_number_fails_the_certificate(self, n, corrupt):
        with pytest.raises(ValueError, match=f"T_{n} fails"):
            _record(n, corrupt(tangent_number(n)))

    @pytest.mark.parametrize("bits", [2, 3, 63, 64, 65, 1000, 5356, 84000])
    def test_mersenne_division_is_divmod(self, bits):
        # 84000 = 2n at n = 42000, the end of the published coprimality range
        rng = random.Random(bits)
        d = (1 << bits) - 1
        assert _divmod_mersenne(0, bits) == (0, 0)
        for size in (1, bits - 1, bits, bits + 1, 2 * bits, rng.randint(1, 13 * bits)):
            q = rng.getrandbits(size) | 1
            for x in (
                q * d, q * d + rng.randrange(1, d), q * d + d - 1, rng.getrandbits(size + bits)
            ):
                assert _divmod_mersenne(x, bits) == divmod(x, d), (bits, size)


def test_engine_is_consistent_under_threads(fresh_memo):
    expected = {rec.n: rec for rec in record_range(80)}
    order = list(range(1, 81)) * 4
    random.Random(5).shuffle(order)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(bernoulli_record, order))
    for n, rec in zip(order, results):
        assert rec == expected[n]
