"""Long-range verification scans with checkpointing and a worker pool.

Three claims are scanned over ranges of the dimension parameter m:

* ``gcd-power-of-two``: for even m, gcd(sigma_m, sigma_{m/2}^2) is a power
  of 2 (its 2-adic valuation must always be 2m + 1; a nontrivial odd part
  is the interesting kind of counterexample, first occurring at m = 2678
  with odd part 34511).  The valuation is read off both numerators; the
  odd part is 1 iff three gcds are: of the two numerators' odd parts, and of
  each against the other sigma's Mersenne factor, taken from its residue
  (the two Mersenne factors are coprime).  Only a gcd that is not 1 sends
  the check to the full gcd for the witness.
* ``numerator-coprimality``: for even m, num(|B_{2m}|/4m) and
  num(|B_m|/2m)^2 are coprime.
* ``identity-suite``: every cross-module identity of the library, per m.
  Each distinct lattice basis is checked once: the ``signature_in_4Z`` basis is
  derived from the full one and differs from it only at m = 2, 4, the only
  indices where the generator and Bezout checks compare it too.

Failures are report entries, never exceptions; only a tangent number that
fails its record's certificate raises.  The Bernoulli stream is produced
once by the parent from ``bernoulli.record_range``, which holds one
diagonal, not the library's memo, and certifies every record it yields.  The
scan keeps num4_n only while 2n <= m_max and m = 2n is not yet checked: at
most m_max/4 + 1 values at any time, and none at the end.  The two prefix
scans check each record in the parent as it streams: their cost is the
serial stream, which a pool of checkers cannot shorten, so they only
validate ``workers``.  ``identity-suite`` has no stream: drawing its first
payload, after the checkpoint is loaded and saved, sweeps T_1..T_{m_max} into
the library's memo in one strip, and a pool's workers, which start at its
first submit, inherit that memo when forked.  With ``workers`` above 1 it
owns a process pool of that many processes, at most the CPU count, and hands
the pool's ``map`` to the shared scan driver, which knows cursors,
checkpoints and reports but no processes.  Each scan imports what it
runs: the prefix scans load ``exact``, ``bernoulli``, ``plumbing`` and this
module only; the identity suite's per-index check imports ``genera``,
``lattices`` and ``bundles``; and only its pool imports ``concurrent.futures``,
so no other scan or query loads ``multiprocessing`` and the modules it pulls
in.  No report content depends on ``workers``.  Checkpoints persist the
scan cursor and the counterexamples found so far, not Bernoulli data, every
50 checked indices and on exit; a resumed run recomputes the stream from T_1
if an index is left past its cursor, else nothing, and skips the check work
done.  The stream's whole state is one diagonal, 3.4 MB at n = 2678, but the
re-sweep to the cursor takes about 28 s at M = 4000 (ROADMAP item 21).
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from pathlib import Path

from . import plumbing
from .bernoulli import _divmod_mersenne, record_range, tangent_number
from .exact import _require_index, allow_big_str, gcd_with_square, nu2, to_jsonable

__all__ = [
    "VerificationReport",
    "verify_gcd_power_of_two",
    "verify_numerator_coprimality",
    "verify_identity_suite",
    "CLAIMS",
    "DESK_RANGES",
    "FULL_RANGES",
]

# desk-scale defaults and the opt-in full ranges per claim
DESK_RANGES = {"gcd-power-of-two": 300, "numerator-coprimality": 300, "identity-suite": 50}
FULL_RANGES = {"gcd-power-of-two": 2678, "numerator-coprimality": 42000, "identity-suite": 200}


@dataclass
class VerificationReport:
    claim: str
    m_min: int
    m_max: int
    status: str  # verified | counterexample | partial
    counterexamples: list[dict]
    cursor: int
    params: dict
    wall_time_seconds: float = 0.0

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "claim": self.claim,
            "range": {"m_min": str(self.m_min), "m_max": str(self.m_max)},
            "status": self.status,
            "counterexamples": to_jsonable(self.counterexamples),
            "cursor": str(self.cursor),
            "params": to_jsonable(self.params),
        }
        if include_wall_time:
            out["wall_time_seconds"] = round(self.wall_time_seconds, 3)
        return out

    def to_json(self, include_wall_time: bool = True) -> str:
        allow_big_str()
        return json.dumps(self.to_dict(include_wall_time), indent=2)

    @property
    def exit_code(self) -> int:
        """2 when counterexamples were found, 0 when verified, 1 otherwise."""
        if self.counterexamples:
            return 2
        return 0 if self.status == "verified" else 1


# checked indices between two periodic checkpoint saves
_SAVE_EVERY = 50


class _Checkpoint:
    """Cursor-plus-counterexamples state persisted as JSON under a run header."""

    def __init__(self, path: str | Path, header: dict):
        # Path("") is the current directory, which no save can replace
        if path == "":
            raise ValueError("checkpoint path is empty")
        self.path = Path(path)
        self.header = header

    def load(self) -> tuple[int, list[dict]]:
        """The saved ``(cursor, counterexamples)``; ``(0, [])`` when there is no file."""
        if not self.path.exists():
            return 0, []
        allow_big_str()
        try:
            data = json.loads(self.path.read_text())
        except RecursionError:
            raise ValueError(f"checkpoint {self.path} nests JSON too deeply to be read") from None
        if not isinstance(data, dict):
            raise ValueError(f"checkpoint {self.path} does not hold a JSON object")
        if data.get("header") != self.header:
            raise ValueError(
                f"checkpoint {self.path} was written for different parameters; "
                "delete it or use a different checkpoint path"
            )
        cursor, found = data.get("cursor"), data.get("counterexamples")
        # type(), not isinstance(): JSON true is a bool, and bool is an int
        if type(cursor) is not int or not isinstance(found, list) or not all(
            isinstance(w, dict) for w in found
        ):
            raise ValueError(f"checkpoint {self.path} needs an int cursor and a list of objects")
        m_max = self.header["m_max"]
        # every index is >= 2, so a scan saves no cursor of 1
        if not (cursor == 0 or 2 <= cursor <= m_max):
            raise ValueError(f"checkpoint {self.path} has cursor {cursor}, not 0 or in 2..{m_max}")
        # every witness a check yields has an index the cursor has passed, a kind, and
        # only int and str values, so no nesting can overflow the report's encoder
        if not all(
            type(w.get("m")) is int
            and 2 <= w["m"] <= cursor
            and isinstance(w.get("kind"), str)
            and all(isinstance(v, (int, str)) for v in w.values())
            for w in found
        ):
            raise ValueError(
                f"checkpoint {self.path} has a counterexample without an int m in "
                f"2..{cursor}, a str kind and only int and str values"
            )
        return cursor, found

    def save(self, cursor: int, counterexamples: list[dict]) -> None:
        allow_big_str()
        payload = {
            "header": self.header,
            "cursor": cursor,
            "counterexamples": counterexamples,
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(self.path)


def _worker_count(workers: int) -> int:
    """``workers``, rejected below 1 and capped at the CPU count, since a process
    pool starts every worker it is asked for at once."""
    _require_index(workers, "workers", 1)
    return min(workers, os.cpu_count() or 1)


def _leave_interrupts_to_the_parent() -> None:
    # Ctrl-C and a group SIGTERM reach the workers too: what the parent turns into
    # KeyboardInterrupt is its alone to act on, what kills it must kill them as well
    for sig in (signal.SIGINT, signal.SIGTERM):
        if signal.getsignal(sig) is signal.default_int_handler:
            signal.signal(sig, signal.SIG_IGN)


def _run_scan(
    claim: str,
    m_max: int,
    payloads: Callable[[int], Iterable[tuple]],
    check: Callable[[tuple], tuple[int, list[dict]]],
    params: dict,
    checkpoint_path: str | Path | None = None,
    mapper: Callable = map,
) -> VerificationReport:
    """Ordered scan loop shared by all claims, which all start at m = 2.

    ``payloads(cursor)`` yields tuples whose first entry is an index m > cursor (and >= 2),
    in increasing order; ``check`` maps a payload to ``(m, witnesses)``, and
    ``mapper(check, payloads(cursor))`` yields those results in order, as ``map`` and
    ``Executor.map`` do.  It is called once the checkpoint is loaded and saved,
    so a bad path fails before a pool starts a worker at its first submit.
    """
    t0 = time.monotonic()
    header = {"claim": claim, "m_min": 2, "m_max": m_max, "params": to_jsonable(params)}
    ckpt = _Checkpoint(checkpoint_path, header) if checkpoint_path is not None else None
    cursor, witnesses = ckpt.load() if ckpt else (0, [])
    if ckpt:
        # fail on an unwritable path now, not after the whole scan
        ckpt.save(cursor, witnesses)

    try:
        # an interrupt closes the mapper's iterator; a pool's then cancels the queued tasks
        for checked, (m, found) in enumerate(mapper(check, payloads(cursor)), 1):
            # one statement, so an interrupt cannot split a cursor from its witnesses
            cursor, witnesses = m, witnesses + found
            if ckpt and checked % _SAVE_EVERY == 0:
                ckpt.save(cursor, witnesses)
    finally:
        # also on KeyboardInterrupt, so a resumed scan skips the work already done
        if ckpt:
            ckpt.save(cursor, witnesses)

    witnesses.sort(key=lambda w: (w["m"], w["kind"]))
    # every index is >= 2, so cursor 0 means nothing was checked
    if cursor == 0:
        status = "partial"
    else:
        status = "counterexample" if witnesses else "verified"
    return VerificationReport(
        claim=claim,
        m_min=2,
        m_max=m_max,
        status=status,
        counterexamples=witnesses,
        cursor=cursor,
        params=params,
        wall_time_seconds=time.monotonic() - t0,
    )


def _even_m_payloads(m_max: int, cursor: int = 0) -> Iterator[tuple[int, int, int]]:
    """Stream (m, num4_m, num4_{m/2}) for even m past ``cursor`` from every certified record,
    or nothing if no such m is left; an odd record above m_max/2 is read by no check."""
    if m_max - m_max % 2 <= cursor:
        return
    window: dict[int, int] = {}  # num4_n for cursor < 2n <= m_max, until m = 2n is checked
    for rec in record_range(m_max):
        if cursor < 2 * rec.n <= m_max:
            window[rec.n] = rec.num4
        if rec.n % 2 == 0 and rec.n > cursor:
            yield (rec.n, rec.num4, window.pop(rec.n // 2))


def _check_gcd_power_of_two(payload: tuple[int, int, int]) -> tuple[int, list[dict]]:
    m, num4_m, num4_half = payload
    # sigma_m = 2^{2m+1} M_{2m-1} num4_m and sigma_{m/2} = a_{m/2} 2^{m+1} M_{m-1} num4_half,
    # with M_b = 2^b - 1; gcd(M_{2m-1}, M_{m-1}) = M_{gcd(2m-1, m-1)} = M_1 = 1
    v_m, v_half = nu2(num4_m), nu2(num4_half)
    odd_m, odd_half = num4_m >> v_m, num4_half >> v_half
    nu, odd = min(2 * m + 1 + v_m, 2 * (m + 1 + nu2(plumbing.a_m(m // 2)) + v_half)), 1
    if (
        gcd(odd_m, odd_half) != 1
        or gcd(_divmod_mersenne(odd_m, m - 1)[1], (1 << (m - 1)) - 1) != 1
        or gcd(_divmod_mersenne(odd_half, 2 * m - 1)[1], (1 << (2 * m - 1)) - 1) != 1
    ):
        nu, odd = gcd_with_square(
            plumbing.sigma_m(m, num4_m), plumbing.sigma_m(m // 2, num4_half)
        )
    found = []
    if odd != 1:
        found.append({"m": m, "kind": "odd_part", "gcd_nu2": nu, "gcd_odd_part": odd})
    if nu != 2 * m + 1:
        found.append({"m": m, "kind": "nu2_law", "gcd_nu2": nu, "expected_nu2": 2 * m + 1})
    return m, found


def _check_numerator_coprimality(payload: tuple[int, int, int]) -> tuple[int, list[dict]]:
    m, num4_m, num4_half = payload
    nu, odd = gcd_with_square(num4_m, num4_half)
    g = odd << nu
    return m, [] if g == 1 else [{"m": m, "kind": "common_factor", "gcd": g}]


def _prefix_scan(
    claim: str, m_max: int, check: Callable, workers: int, checkpoint_path: str | Path | None
) -> VerificationReport:
    """One of the two scans over even m that check each record as it streams."""
    _require_index(m_max, "m_max", 2)
    # a pool of checkers cannot shorten the serial stream, so ``workers`` is only validated
    _worker_count(workers)
    params = {"ord_policy": "not-involved"}
    return _run_scan(claim, m_max, partial(_even_m_payloads, m_max), check, params, checkpoint_path)


def verify_gcd_power_of_two(
    m_max: int,
    workers: int = 1,
    checkpoint_path: str | Path | None = None,
) -> VerificationReport:
    """Check that gcd(sigma_m, sigma_{m/2}^2) is a power of 2 for even m <= m_max."""
    return _prefix_scan(
        "gcd-power-of-two", m_max, _check_gcd_power_of_two, workers, checkpoint_path
    )


def verify_numerator_coprimality(
    m_max: int,
    workers: int = 1,
    checkpoint_path: str | Path | None = None,
) -> VerificationReport:
    """Check gcd(num(|B_{2m}|/4m), num(|B_m|/2m)^2) = 1 for even m <= m_max."""
    return _prefix_scan(
        "numerator-coprimality", m_max, _check_numerator_coprimality, workers, checkpoint_path
    )


def _check_identities(payload: tuple[int]) -> tuple[int, list[dict]]:
    """Every cross-module identity at one index m (>= 2)."""
    # imported here, where the suite runs: the prefix scans need none of these layers
    from . import bundles, genera, lattices

    (m,) = payload
    out: list[dict] = []
    prof = plumbing.profile(m)

    def run(kind: str, fn: Callable[[], object]) -> object:
        # an identity "fails" either by returning False or by raising; its value
        # goes back to the caller, None when it raised
        value = None
        try:
            value = fn()
            detail = "identity evaluated to False" if value is False else None
        except Exception as exc:  # noqa: BLE001 - failures become report entries
            detail = f"raised {type(exc).__name__}: {exc}"
        if detail:
            out.append({"m": m, "kind": kind, "detail": detail})
        return value

    run("nu2_sigma_law", lambda: nu2(prof.sigma) == 2 * m + 1 + nu2(prof.a))
    run("s_closed_forms", lambda: genera.s(m) is not None)
    run("stolz_no_p_top", lambda: genera.stolz_class_coeffs(m).coeff_p_top == 0)
    if m % 2:
        run("stolz_odd_vanishes", lambda: genera.stolz_class_coeffs(m).coeff_p_half_sq == 0)

    def distinct_variants() -> tuple[str, ...]:
        # the signature_in_4Z basis is derived from the full one; where it holds the same
        # generators, checking it would only repeat the full basis's checks
        full, sig4 = (lattices.generator_invariants(m, 1, v).generators for v in lattices.VARIANTS)
        return lattices.VARIANTS if sig4 != full else lattices.VARIANTS[:1]

    def generators_consistent() -> bool:
        gl = genera.genus_coeffs("L", m)
        ga = genera.genus_coeffs("Ahat", m)
        for variant in distinct_variants():
            basis = lattices.generator_invariants(m, 1, variant)
            for _, vec in basis.generators:
                if gl.evaluate(vec.p_top, vec.p_half_sq) != vec.sigma:
                    return False
                if ga.evaluate(vec.p_top, vec.p_half_sq) != vec.ahat:
                    return False
        return True

    run("generator_consistency", generators_consistent)

    def full_kernel_gcd(field: str) -> int:
        basis = lattices.generator_invariants(m, 1, "full_kernel")
        return gcd(*(getattr(vec, field) for _, vec in basis.generators))

    run(
        "minimal_signature_is_gcd",
        lambda: full_kernel_gcd("sigma") == lattices.minimal_signature(m, 1)[0],
    )
    run("minimal_ahat_is_gcd", lambda: full_kernel_gcd("ahat") == lattices.minimal_ahat(m))

    def kappa_duality() -> bool:
        mat = bundles.pairing_matrix(m, 1)
        n = len(mat)
        return all(mat[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))

    run("kappa_duality_identity", kappa_duality)

    def kappa_integrality() -> bool:
        import random

        basis = lattices.generator_invariants(m, 1, "signature_in_4Z")
        exprs = bundles.kappa_basis(m, 1)
        rng = random.Random(0xC0FFEE ^ m)
        vecs = [vec for _, vec in basis.generators]
        for _ in range(3):
            coeffs = [rng.randint(-9, 9) for _ in vecs]
            combo = lattices.InvariantVector(
                sum(c * v.sigma for c, v in zip(coeffs, vecs)),
                sum(c * v.ahat for c, v in zip(coeffs, vecs)),
                sum(c * v.p_top for c, v in zip(coeffs, vecs)),
                sum(c * v.p_half_sq for c, v in zip(coeffs, vecs)),
            )
            if any(bundles.pairing(e, combo).denominator != 1 for e in exprs):
                return False
        return True

    run("kappa_integrality", kappa_integrality)

    run("bundle_divisor_mod_4", lambda: bundles.bundle_signature_divisor(m, 1) % 4 == 0)
    if m not in (1, 2, 4):
        run(
            "two_power_bound_divides",
            lambda: bundles.bundle_signature_divisor(m, 1)
            % lattices.signature_divisibility_bound(m)
            == 0,
        )

    if m % 2 == 0:
        k = m // 2
        prof_k = plumbing.profile(k)
        s_q = run("s_of_Q_both_formulas", lambda: plumbing.s_of_Q(m))
        if s_q is not None:
            # j_k^2 s(Q) + lambda_k^2 sigma_k^2/8 is the representative term,
            # an exact integer multiple of sigma_{2k}/8
            run(
                "j2_s_congruence",
                lambda: (prof_k.j**2 * s_q + plumbing.lambda_k(k) ** 2 * prof_k.sigma**2 // 8)
                % (prof.sigma // 8)
                == 0,
            )

            def bezout_robustness() -> bool:
                order = plumbing.bp_order(m)
                base_gcd = gcd(prof.sigma, 8 * abs(s_q))
                variants = distinct_variants()
                for t in (-2, -1, 1, 2):
                    shifted = prof.bezout.shifted(t)
                    s_t = plumbing.s_of_Q(m, shifted)
                    if (s_t - s_q) % order:
                        return False
                    if gcd(prof.sigma, 8 * abs(s_t)) != base_gcd:
                        return False
                    for variant in variants:
                        if not lattices.lattice_span_equal(
                            lattices.generator_invariants(m, 1, variant),
                            lattices.generator_invariants(m, 1, variant, shifted),
                        ):
                            return False
                return True

            run("bezout_robustness", bezout_robustness)

        def proof_identity_first() -> bool:
            c, d = prof.bezout.c, prof.bezout.d
            lhs = genera.s(m) / 2
            rhs = Fraction(prof.sigma * d, 2 * prof.fact) - prof.sigma * c * genera.shat(m) / 2
            return lhs == rhs

        run("half_s_identity", proof_identity_first)

        def proof_identity_second() -> bool:
            c, d = prof.bezout.c, prof.bezout.d
            return prof.sigma * c == plumbing.sigma_over_a(m) * (1 - prof.j * d)

        run("sigma_c_identity", proof_identity_second)

        run("p2k_closed_forms", lambda: genera.p2k_solve(k) is not None)

        if m >= 10:

            def strictly_below_parallelizable() -> bool:
                value, _ = lattices.minimal_signature(m, 1)
                shift = m - nu2(m) - 8
                return (value << shift) < prof.sigma if shift >= 0 else value < (
                    prof.sigma << -shift
                )

            run("minimal_below_parallelizable", strictly_below_parallelizable)

    plumbing._drop_answers(m)  # read while m is checked, and by nothing after
    return m, out


def _identity_payloads(m_max: int, cursor: int = 0) -> Iterator[tuple[int]]:
    """Yield (m,) for 2 <= m <= m_max past ``cursor``, once T_1..T_{m_max} are in the
    point-query memo; a finished scan sweeps nothing."""
    if cursor < m_max:
        tangent_number(m_max)  # one strip, not one per index as each m's first profile sweeps
    for m in range(max(cursor + 1, 2), m_max + 1):
        yield (m,)


def verify_identity_suite(
    m_max: int,
    workers: int = 1,
    checkpoint_path: str | Path | None = None,
) -> VerificationReport:
    """Run every cross-module identity for 2 <= m <= m_max.

    ``m_max = 1`` gives an empty "partial" report since the identities
    need m >= 2.
    """
    _require_index(m_max, "m_max", 1)
    workers = _worker_count(workers)
    params = {"ord_policy": "conjectural-1"}
    args = ("identity-suite", m_max, partial(_identity_payloads, m_max), _check_identities, params)
    if workers == 1:
        return _run_scan(*args, checkpoint_path)
    # imported here, where the one pool opens: no other hclat process needs multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the workers start at the scan's first submit, after its checkpoint is loaded and saved
    with ProcessPoolExecutor(workers, initializer=_leave_interrupts_to_the_parent) as pool:
        return _run_scan(*args, checkpoint_path, partial(pool.map, chunksize=8))


CLAIMS = {
    "gcd-power-of-two": verify_gcd_power_of_two,
    "numerator-coprimality": verify_numerator_coprimality,
    "identity-suite": verify_identity_suite,
}
