import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import random
from collections import Counter
from math import gcd

import pytest

from hclat import bernoulli, lattices, plumbing, verify
from hclat.bernoulli import bernoulli_abs
from hclat.cli import main
from hclat.plumbing import sigma_m
from hclat.verify import (
    verify_gcd_power_of_two,
    verify_identity_suite,
    verify_numerator_coprimality,
)


class TestGcdPowerOfTwo:
    def test_desk_range_verified(self):
        report = verify_gcd_power_of_two(300)
        assert report.status == "verified"
        assert report.counterexamples == []
        assert report.cursor == 300
        assert report.exit_code == 0

    def test_smallest_range(self):
        report = verify_gcd_power_of_two(2)
        assert report.status == "verified"
        # gcd(sigma_2, sigma_1^2) = gcd(224, 256) = 32 = 2^5
        assert gcd(224, 16**2) == 32

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            verify_gcd_power_of_two(1)

    @pytest.mark.parametrize(
        "payload,odd",
        [
            ((4, 35, 3), 7),  # 7 = 2^3 - 1, sigma_{m/2}'s Mersenne factor, divides num4_m
            ((4, 5, 381), 127),  # 127 = 2^7 - 1, sigma_m's Mersenne factor, divides num4_{m/2}
            ((4, 55, 33), 11),  # a prime both numerators share
        ],
    )
    def test_each_gcd_that_is_not_1_falls_back_to_the_full_gcd(self, monkeypatch, payload, odd):
        calls = []
        full = verify.gcd_with_square
        monkeypatch.setattr(verify, "gcd_with_square", lambda a, b: calls.append(1) or full(a, b))
        witness = {"m": 4, "kind": "odd_part", "gcd_nu2": 9, "gcd_odd_part": odd}
        assert verify._check_gcd_power_of_two(payload) == (4, [witness])
        assert calls == [1]

    def test_records_to_300_never_need_the_full_gcd(self, monkeypatch):
        monkeypatch.setattr(verify, "gcd_with_square", None)  # calling it would raise
        for payload in verify._even_m_payloads(300):
            assert verify._check_gcd_power_of_two(payload) == (payload[0], [])

    def test_synthetic_payloads_match_full_gcd(self):
        # shared odd factors (some only in the square) and broken 2-adic laws,
        # each checked against the full gcd(sigma_m, sigma_{m/2}^2)
        def full_gcd_witnesses(m, num4_m, num4_half):
            g = gcd(sigma_m(m, num4_m), sigma_m(m // 2, num4_half) ** 2)
            nu = (g & -g).bit_length() - 1
            found = []
            if g >> nu != 1:
                found.append({"m": m, "kind": "odd_part", "gcd_nu2": nu, "gcd_odd_part": g >> nu})
            if nu != 2 * m + 1:
                found.append({"m": m, "kind": "nu2_law", "gcd_nu2": nu, "expected_nu2": 2 * m + 1})
            return found

        rng = random.Random(2678)
        kinds = set()
        for i in range(150):
            m = 2 * rng.randint(1, 200)
            num4_m, num4_half = rng.getrandbits(80) | 1, rng.getrandbits(80) | 1
            if i % 3 != 1:
                p = rng.choice([3, 5, 7, 691, 34511])
                num4_m *= p ** rng.randint(1, 3)
                num4_half *= p
            if i % 3 != 0:
                if rng.random() < 0.5:
                    num4_m <<= rng.randint(1, 5)
                else:
                    num4_half <<= rng.randint(1, 5)
            expected = full_gcd_witnesses(m, num4_m, num4_half)
            assert verify._check_gcd_power_of_two((m, num4_m, num4_half)) == (m, expected)
            kinds.update(w["kind"] for w in expected)
        assert kinds == {"odd_part", "nu2_law"}


class TestNumeratorCoprimality:
    def test_desk_range_verified(self):
        report = verify_numerator_coprimality(300)
        assert report.status == "verified"
        assert report.counterexamples == []

    def test_m_12_example(self):
        num_24 = (bernoulli_abs(12) / 48).numerator
        num_12 = (bernoulli_abs(6) / 24).numerator
        assert num_12 == 691
        assert gcd(num_24, num_12**2) == 1

    def test_trivial_case(self):
        report = verify_numerator_coprimality(2)
        assert report.status == "verified"


class TestIdentitySuite:
    def test_desk_range_verified(self):
        report = verify_identity_suite(50)
        assert report.status == "verified"
        assert report.counterexamples == []

    def test_empty_range_is_partial(self):
        report = verify_identity_suite(1)
        assert report.status == "partial"
        assert report.counterexamples == []

    def test_cold_scan_sweeps_its_tangents_in_one_strip(self, monkeypatch, tmp_path, cold):
        strips, parent = [], os.getpid()
        sweep = bernoulli._tangents

        def logged(limit, column=None):
            # a forked pool worker that sweeps fails its check, or changes the report
            assert os.getpid() == parent, "a pool worker swept tangents of its own"
            strips.append((len(column or ()), limit))
            return sweep(limit, column)

        monkeypatch.setattr(bernoulli, "_tangents", logged)
        # a bad checkpoint path fails before the sweep
        with pytest.raises(OSError):
            verify_identity_suite(60, checkpoint_path=tmp_path / "missing" / "ident.json")
        assert strips == []
        serial = verify_identity_suite(60)
        assert serial.status == "verified"
        assert strips == [(0, 60)]  # not one strip per index, from T_2 on
        # cold again: the pool's workers, forked at its first submit, inherit the swept memo
        # (a worker started by spawn or forkserver runs an unpatched sweep of its own)
        monkeypatch.setattr(bernoulli, "_memo", ([], [0]))
        monkeypatch.setattr(bernoulli, "_records", {})
        monkeypatch.setattr(plumbing, "_profiles", {})
        monkeypatch.setattr(plumbing, "_answers", {})
        parallel = verify_identity_suite(60, workers=2)
        assert strips == [(0, 60), (0, 60)]
        assert parallel.to_json(include_wall_time=False) == serial.to_json(
            include_wall_time=False
        )


class TestDistinctLattices:
    """The suite compares the signature_in_4Z basis only where it differs from the full one."""

    def test_sig4_is_compared_at_m_2_and_4_only(self, monkeypatch):
        compared = []
        span_equal = lattices.lattice_span_equal

        def recording(b1, b2):
            compared.append((b1.m, b1.variant))
            return span_equal(b1, b2)

        monkeypatch.setattr(lattices, "lattice_span_equal", recording)
        for m in range(2, 13):
            assert verify._check_identities((m,)) == (m, [])
        shifts = {m: Counter(v for mm, v in compared if mm == m) for m in range(2, 13)}
        for m in (2, 4):
            assert shifts[m] == {"full_kernel": 4, "signature_in_4Z": 4}
        for m in (6, 8, 10, 12):
            assert shifts[m] == {"full_kernel": 4}
        assert not any(shifts[m] for m in range(3, 13, 2))

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize(
        "shifted,kind", [(False, "generator_consistency"), (True, "bezout_robustness")]
    )
    def test_a_wrong_sig4_basis_fails_where_it_differs(self, monkeypatch, m, shifted, kind):
        build = lattices.generator_invariants

        def corrupted(m_, ord=1, variant="full_kernel", bezout=None):
            basis = build(m_, ord, variant, bezout)
            if variant == "full_kernel" or m_ != m or (bezout is not None) != shifted:
                return basis
            g1, (label, g2) = basis.generators
            if shifted:  # a lattice of index 2 in the canonical one
                g2 = lattices.InvariantVector(*(2 * a for a in g2.as_tuple()))
            else:  # a signature the L-genus does not give
                g2 = dataclasses.replace(g2, sigma=g2.sigma + 1)
            return dataclasses.replace(basis, generators=(g1, (label, g2)))

        monkeypatch.setattr(lattices, "generator_invariants", corrupted)
        _, found = verify._check_identities((m,))
        assert kind in {w["kind"] for w in found}


class TestReportMechanics:
    @pytest.mark.parametrize(
        "status, witnesses, code",
        [
            ("verified", [], 0),
            ("counterexample", [{"m": 4}], 2),
            ("partial", [{"m": 4}], 2),
            ("partial", [], 1),
        ],
    )
    def test_exit_code(self, status, witnesses, code):
        report = verify.VerificationReport("gcd-power-of-two", 2, 8, status, witnesses, 4, {})
        assert report.exit_code == code

    def test_determinism(self):
        a = verify_gcd_power_of_two(60)
        b = verify_gcd_power_of_two(60)
        assert a.to_json(include_wall_time=False) == b.to_json(include_wall_time=False)

    def test_json_fields_are_strings(self):
        report = verify_gcd_power_of_two(20)
        data = json.loads(report.to_json())
        assert data["range"] == {"m_min": "2", "m_max": "20"}
        assert data["cursor"] == "20"
        assert isinstance(data["wall_time_seconds"], float)

    def test_parallel_soundness(self):
        serial = verify_gcd_power_of_two(80)
        for workers in (2, 3):
            parallel = verify_gcd_power_of_two(80, workers=workers)
            assert parallel.to_json(include_wall_time=False) == serial.to_json(
                include_wall_time=False
            )

    def test_parallel_identity_suite(self):
        serial = verify_identity_suite(12)
        parallel = verify_identity_suite(12, workers=2)
        assert parallel.to_json(include_wall_time=False) == serial.to_json(
            include_wall_time=False
        )

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        requested = []

        class SerialPool:
            def __init__(self, max_workers, initializer=None):
                # the initializer is not run: it would change this process's signal handlers
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        report = verify_identity_suite(12, workers=os.cpu_count() + 1)
        assert requested == [2]
        assert report.to_json(include_wall_time=False) == verify_identity_suite(12).to_json(
            include_wall_time=False
        )

    @pytest.mark.parametrize("scan", [verify_gcd_power_of_two, verify_numerator_coprimality])
    def test_prefix_scans_start_no_pool(self, monkeypatch, scan):
        def no_pool(*args, **kwargs):
            raise AssertionError("a prefix scan started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert scan(80, workers=2).to_json(include_wall_time=False) == scan(80).to_json(
            include_wall_time=False
        )

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        for scan in verify.CLAIMS.values():
            with pytest.raises(ValueError):
                scan(40, workers=workers)

    def test_interrupt_leaves_last_cursor_on_disk(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "scan.json"
        check = verify._check_gcd_power_of_two

        def interrupted_at_40(payload):
            if payload[0] == 40:
                raise KeyboardInterrupt
            return check(payload)

        monkeypatch.setattr(verify, "_check_gcd_power_of_two", interrupted_at_40)
        with pytest.raises(KeyboardInterrupt):
            verify_gcd_power_of_two(100, workers=1, checkpoint_path=ckpt)
        assert json.loads(ckpt.read_text())["cursor"] == 38
        monkeypatch.undo()
        resumed = verify_gcd_power_of_two(100, checkpoint_path=ckpt)
        assert resumed.to_json(include_wall_time=False) == verify_gcd_power_of_two(
            100
        ).to_json(include_wall_time=False)

    def test_pool_interrupt_in_record_stream_leaves_cursor_on_disk(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "scan.json"
        records = verify.record_range

        def interrupted_at_600(m_max):
            for rec in records(m_max):
                if rec.n == 600:
                    raise KeyboardInterrupt
                yield rec

        monkeypatch.setattr(verify, "record_range", interrupted_at_600)
        with pytest.raises(KeyboardInterrupt):
            verify_numerator_coprimality(1200, workers=2, checkpoint_path=ckpt)
        # the records are checked in the parent as they stream, whatever workers says,
        # so the last even index before the interrupted record is on disk
        assert json.loads(ckpt.read_text())["cursor"] == 598
        monkeypatch.undo()
        resumed = verify_numerator_coprimality(1200, workers=2, checkpoint_path=ckpt)
        assert resumed.to_json(include_wall_time=False) == verify_numerator_coprimality(
            1200
        ).to_json(include_wall_time=False)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two workers")
    def test_pool_interrupt_at_periodic_save_leaves_no_worker(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "ident.json"
        save = verify._Checkpoint.save
        saved = []

        def interrupted_first_periodic_save(self, cursor, counterexamples):
            save(self, cursor, counterexamples)
            saved.append(cursor)
            # the first call is the early save, the second the first periodic one
            if len(saved) == 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(verify, "_SAVE_EVERY", 5)
        monkeypatch.setattr(verify._Checkpoint, "save", interrupted_first_periodic_save)
        with pytest.raises(KeyboardInterrupt):
            verify_identity_suite(120, workers=2, checkpoint_path=ckpt)
        # the pool was shut down on the way out, and the last save kept the cursor
        assert multiprocessing.active_children() == []
        assert saved == [0, 6, 6]
        assert json.loads(ckpt.read_text())["cursor"] == 6
        monkeypatch.undo()
        resumed = verify_identity_suite(120, workers=2, checkpoint_path=ckpt)
        assert resumed.to_json(include_wall_time=False) == verify_identity_suite(120).to_json(
            include_wall_time=False
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_save_cadence(self, tmp_path, monkeypatch, workers):
        saved = []
        save = verify._Checkpoint.save

        def recording_save(self, cursor, counterexamples):
            saved.append(cursor)
            save(self, cursor, counterexamples)

        monkeypatch.setattr(verify._Checkpoint, "save", recording_save)
        verify_gcd_power_of_two(300, workers=workers, checkpoint_path=tmp_path / "scan.json")
        # 150 even indices: the early save, one per 50 checked, and the final one
        assert saved == [0, 100, 200, 300, 300]
        saved.clear()
        # with two workers the only scan that checks in a pool
        verify_identity_suite(101, workers=workers, checkpoint_path=tmp_path / "ident.json")
        assert saved == [0, 51, 101, 101]

    @pytest.mark.parametrize("claim", sorted(verify.CLAIMS))
    def test_empty_checkpoint_path_rejected(self, claim):
        # Path("") would be the current directory
        with pytest.raises(ValueError, match="checkpoint path is empty"):
            verify.CLAIMS[claim](10, checkpoint_path="")

    def test_resuming_finished_scan_is_stable(self, tmp_path):
        ckpt = tmp_path / "scan.json"
        first = verify_gcd_power_of_two(40, checkpoint_path=ckpt)
        again = verify_gcd_power_of_two(40, checkpoint_path=ckpt)
        assert first.to_json(include_wall_time=False) == again.to_json(
            include_wall_time=False
        )

    @pytest.mark.parametrize(
        "claim,m_max",
        [("identity-suite", 60), ("gcd-power-of-two", 40), ("numerator-coprimality", 41)],
    )
    def test_resumed_finished_scan_sweeps_nothing(self, monkeypatch, tmp_path, cold, claim, m_max):
        ckpt = tmp_path / "scan.json"
        first = verify.CLAIMS[claim](m_max, checkpoint_path=ckpt)
        monkeypatch.setattr(bernoulli, "_memo", ([], [0]))
        monkeypatch.setattr(bernoulli, "_records", {})
        monkeypatch.setattr(bernoulli, "_tangents", None)  # calling it would raise
        again = verify.CLAIMS[claim](m_max, checkpoint_path=ckpt)
        assert again.to_json(include_wall_time=False) == first.to_json(include_wall_time=False)

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        ckpt = tmp_path / "scan.json"
        verify_gcd_power_of_two(40, checkpoint_path=ckpt)
        with pytest.raises(ValueError):
            verify_gcd_power_of_two(60, checkpoint_path=ckpt)
        with pytest.raises(ValueError):
            verify_numerator_coprimality(40, checkpoint_path=ckpt)


@pytest.mark.long
def test_full_gcd_scan_reproduces_published_counterexample():
    report = verify_gcd_power_of_two(2678, workers=2)
    assert report.status == "counterexample"
    assert report.exit_code == 2
    odd_parts = [w for w in report.counterexamples if w["kind"] == "odd_part"]
    assert len(odd_parts) == 1
    w = odd_parts[0]
    assert w["m"] == 2678
    assert w["gcd_odd_part"] == 34511
    assert w["gcd_nu2"] == 2 * 2678 + 1
    # witness re-verifies in isolation
    from hclat.plumbing import profile

    g = gcd(profile(2678).sigma, profile(1339).sigma ** 2)
    assert g == (1 << (2 * 2678 + 1)) * 34511


@pytest.mark.long
def test_identity_suite_to_1000():
    report = verify_identity_suite(1000)
    assert report.status == "verified"
    assert report.counterexamples == []


def test_scans_leave_the_engine_memo_alone(capsys, fresh_memo):
    memo, records = bernoulli._memo, bernoulli._records
    assert verify_gcd_power_of_two(200).status == "verified"
    assert verify_numerator_coprimality(200, workers=2).status == "verified"
    assert main(["bernoulli", "--n", "50", "--range"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 50
    assert bernoulli._memo is memo and memo == ([], [0])
    assert bernoulli._records is records and records == {}


class TestPrefixStream:
    @pytest.mark.parametrize("m_max", [600, 601])
    def test_certifies_every_record_and_keeps_a_short_window(self, monkeypatch, m_max):
        expected = [
            (r.n, r.num4, bernoulli.bernoulli_record(r.n // 2).num4)
            for r in bernoulli.record_range(m_max)
            if r.n % 2 == 0
        ]
        certified, sizes = [], []
        record = bernoulli._record

        def counting_record(n, t):
            certified.append(n)
            sizes.append(len(payloads.gi_frame.f_locals["window"]))
            return record(n, t)

        monkeypatch.setattr(bernoulli, "_record", counting_record)
        payloads = verify._even_m_payloads(m_max)
        got = []
        for payload in payloads:
            got.append(payload)
            sizes.append(len(payloads.gi_frame.f_locals["window"]))
        assert got == expected
        assert certified == list(range(1, m_max + 1))
        assert max(sizes) <= m_max // 4 + 1
        # the last payload took the last value the window held
        assert sizes[-1] == 0

    @pytest.mark.parametrize("m_max", [200, 201])
    @pytest.mark.parametrize("cursor", [2, 37, 100, 198])
    def test_resumed_stream_yields_only_past_the_cursor(self, m_max, cursor):
        full = list(verify._even_m_payloads(m_max))
        payloads = verify._even_m_payloads(m_max, cursor)
        assert list(payloads) == [p for p in full if p[0] > cursor]

    @pytest.mark.parametrize(
        "bad, corrupt",
        # 61 is odd and above 100/2, so no check reads its record, yet it is certified
        [(40, lambda t: t + 1), (40, lambda t: 3 * t), (61, lambda t: t + 1), (61, lambda t: 3 * t)],
        ids=["plus1", "times3", "plus1_at_61", "times3_at_61"],
    )
    def test_wrong_tangent_number_stops_the_scan(self, monkeypatch, capsys, bad, corrupt):
        stream = bernoulli._tangents

        def corrupted(limit):
            for n, t in enumerate(stream(limit), start=1):
                yield corrupt(t) if n == bad else t

        monkeypatch.setattr(bernoulli, "_tangents", corrupted)
        with pytest.raises(ValueError, match=f"T_{bad} fails"):
            verify_gcd_power_of_two(100)
        assert main(["verify", "numerator-coprimality", "--max", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: T_{bad} fails its von Staudt-Clausen certificate"
        ]
