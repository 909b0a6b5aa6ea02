"""hclat benchmark: four workloads, end-to-end metrics, and a per-module trace.

    python3 perfbench/run.py                       # every workload, end-to-end metrics
    python3 perfbench/run.py --workload gcd_full --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload identity_scan --trace 1   # per-module trace

Every timed pass runs in a fresh interpreter with ``PYTHONPATH=src``, since
the Bernoulli memo inside ``hclat`` would make any repeat in one process
nearly free.  A run repeats passes while the next one, judged by the last,
still fits in ``--seconds``, and always makes at least one.  Outputs are
checked after each pass has ended, outside its timed interval.  Every
time is corrected for the speed of the shared host by ``speed.py``, which
pauses each pass every 0.2 s to run a calibration loop on the pass's CPUs;
the uncorrected figures are printed beside the corrected ones.

The three scans take no random input: ``--seed`` changes nothing they
compute, so a rerun of a scan with another seed measures the same work
again.  Only ``lib_queries`` draws its queries from the seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric lines before
it give each value by name with its unit.  With ``--trace 1`` the metrics
are the per-module ones of a traced pass; spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import queries  # noqa: E402
import speed  # noqa: E402

SETUP_LAUNCHES = 21
SETUP_ARGV = ["bernoulli", "--n", "6"]
SETUP_EXPECT = {"n": "6", "abs_num": "691", "abs_den": "2730", "num4": "691", "j": "65520"}
PASS_TIMEOUT_S = 170
QUERIES_PER_SESSION = 50_000
CHECKED_PER_SESSION = 60
ALL_CPUS = sorted(os.sched_getaffinity(0))
POOL_WORKERS = min(2, len(ALL_CPUS))
# The CPUs a pass runs on, shared with the calibration loop (see speed.py):
# one for the serial workloads, one per worker for the pool scan.
CPUS = ALL_CPUS[:1]
CHECKPOINT = OUT / "work" / "pool_scan.ckpt"

WORKLOADS = {
    "gcd_full": {
        "why": "published full gcd-power-of-two range; one serial tangent stream is ~90% of "
        "it and m=2678 gives the known counterexample 2^5357*34511",
        "argv": ["verify", "gcd-power-of-two", "--max", "2678"],
    },
    "identity_scan": {
        "why": "identity suite past its published m<=200; hermite_normal_form dominates and "
        "bernoulli barely shows, so a tangent-engine change must leave it alone",
        "argv": ["verify", "identity-suite", "--max", "240"],
    },
    "pool_scan": {
        "why": "cheapest check on the same tangent stream, fed through the process pool and "
        "the checkpoint writer; exposes pool transfer cost and a real --workers gain",
        "argv": [
            "verify", "numerator-coprimality", "--max", "1200",
            "--workers", str(POOL_WORKERS), "--checkpoint", str(CHECKPOINT),
        ],
        "cpus": POOL_WORKERS,
    },
    "lib_queries": {
        "why": "seeded point queries through ten public functions with heavy-tailed m<=800; "
        "random access to the bernoulli memo, where profile memoization would pay",
    },
}

END_TO_END = {
    "setup_s": "s",
    "scan_s": "s",
    "peak_rss_mb": "MB",
    "queries_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
}


class PassFailed(Exception):
    pass


def _env() -> dict:
    # an installed package has its bytecode cached, so let the first pass write it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(cmd: list[str], data: bytes | None, pause: bool = True) -> tuple[speed.Timed, bytes, bytes]:
    """Run ``cmd`` to completion, timed by ``speed.run``; returns its timing, stdout, stderr.

    Standard streams go through files in ``OUT/work``, so the benchmark
    process can stop and resume the child while it runs.
    """
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    (work / "pass.in").write_bytes(data or b"")
    with open(work / "pass.in", "rb") as fin, open(work / "pass.out", "wb+") as fout, open(
        work / "pass.err", "wb+"
    ) as ferr:
        try:
            timed = speed.run(
                cmd, CPUS, PASS_TIMEOUT_S, pause, stdin=fin, stdout=fout, stderr=ferr,
                env=_env(), cwd=ROOT,
            )
        except speed.Timeout as exc:
            raise PassFailed(str(exc)) from None
        fout.seek(0)
        ferr.seek(0)
        return timed, fout.read(), ferr.read()


def run_pass(request: dict, pause: bool) -> tuple[speed.Timed, dict]:
    timed, out, err = _spawn([sys.executable, str(HERE / "passrun.py")], pickle.dumps(request), pause)
    if timed.returncode != 0:
        raise PassFailed(err.decode(errors="replace")[-2000:])
    return timed, pickle.loads(out)


def measure_setup() -> tuple[list[float], list[float], int]:
    """Cold starts of ``hclat bernoulli --n 6``; returns their corrected and raw times and failures."""
    norms, walls, failed = [], [], 0
    for _ in range(SETUP_LAUNCHES):
        timed, out, _ = _spawn([sys.executable, "-m", "hclat.cli", *SETUP_ARGV], None)
        norms.append(timed.norm_s)
        walls.append(timed.run_s)
        try:
            ok = timed.returncode == 0 and json.loads(out) == SETUP_EXPECT
        except ValueError:
            ok = False
        failed += not ok
    return norms, walls, failed


# ---------------------------------------------------------------- scans


def _clear_checkpoint() -> None:
    for path in (CHECKPOINT, CHECKPOINT.with_suffix(CHECKPOINT.suffix + ".tmp")):
        path.unlink(missing_ok=True)


def check_scan(name: str, res: dict) -> list[str]:
    """Problems with one scan's output; empty when it is right."""
    argv = WORKLOADS[name]["argv"]
    m_max = int(argv[argv.index("--max") + 1])
    try:
        report = json.loads(res["stdout"])
    except ValueError:
        return ["report is not JSON"]
    problems = []
    if report.get("claim") != argv[1] or report.get("range", {}).get("m_max") != str(m_max):
        problems.append("report is for another claim or range")
    if report.get("cursor") != str(m_max):
        problems.append(f"cursor {report.get('cursor')} != range end {m_max}")
    if name == "gcd_full" and m_max >= 2678:
        expect = [{"m": "2678", "kind": "odd_part", "gcd_nu2": "5357", "gcd_odd_part": "34511"}]
        if (report.get("status"), report.get("counterexamples"), res["rc"]) != (
            "counterexample", expect, 2
        ):
            problems.append("m=2678 witness 2^5357*34511 missing or not alone")
    elif (report.get("status"), report.get("counterexamples"), res["rc"]) != ("verified", [], 0):
        problems.append(f"status {report.get('status')} with exit code {res['rc']}")
    if name == "pool_scan":
        try:
            ckpt_cursor = json.loads(CHECKPOINT.read_text())["cursor"]
        except (OSError, ValueError, KeyError):
            ckpt_cursor = None
        if str(ckpt_cursor) != report.get("cursor"):
            problems.append(f"checkpoint cursor {ckpt_cursor} != report cursor")
    return problems


def scan_pass(
    name: str, pause: bool, trace: bool = False, untraced_s: float = 0.0
) -> tuple[speed.Timed, dict, list]:
    _clear_checkpoint()
    request = {"argv": WORKLOADS[name]["argv"], "trace": trace}
    if trace:
        request.update(spans_path=str(OUT / f"{name}.spans.pickle"), untraced_s=untraced_s)
    timed, res = run_pass(request, pause)
    problems = check_scan(name, res)
    _clear_checkpoint()
    return timed, res, problems


# ---------------------------------------------------------------- queries


class QueryChecker:
    """Checks sampled query results in this process, by an independent route."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        sys.path.insert(0, str(ROOT / "tests"))
        import hclat
        import oracles

        self.hclat, self.oracle = hclat, oracles

    def failures(self, qs: list, kept: dict) -> list[str]:
        bad = []
        for i, res in kept.items():
            op, m, r = qs[i]
            name = queries.OP_NAMES[op]
            if not queries.check(self.hclat, self.oracle, name, m, r, res):
                bad.append(f"query {i}: {name}(m={m}, r={r})")
        return bad


def query_pass(
    seed: int, session: int, pause: bool, trace: bool = False, untraced_s: float = 0.0
) -> tuple[speed.Timed, dict, list]:
    """One session on its own query list; returns its timing, result, the list."""
    qs = queries.make_queries(seed, session, QUERIES_PER_SESSION)
    rng = random.Random(f"lib_queries-check:{seed}:{session}")
    request = {"queries": qs, "keep": rng.sample(range(len(qs)), CHECKED_PER_SESSION), "trace": trace}
    if trace:
        request.update(spans_path=str(OUT / "lib_queries.spans.pickle"), untraced_s=untraced_s)
    timed, res = run_pass(request, pause)
    return timed, res, qs


# ---------------------------------------------------------------- runs


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload; returns its record, also written to ``OUT``."""
    global CPUS
    CPUS = ALL_CPUS[: WORKLOADS[name].get("cpus", 1)]
    os.sched_setaffinity(0, {CPUS[0]})
    OUT.mkdir(parents=True, exist_ok=True)
    CHECKPOINT.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name,
        "why": WORKLOADS[name]["why"],
        "seed": seed,
        "seed_used": name == "lib_queries",
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus": CPUS,
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
    }
    attempted = failed = 0
    problems: list[str] = []
    metrics: dict[str, float] = {}
    is_scan = name != "lib_queries"
    if not is_scan:
        record["inputs"] = queries.describe(queries.make_queries(seed, 0, QUERIES_PER_SESSION))
        checker = QueryChecker()

    # Timed runs pause their passes to calibrate (speed.py).  A traced run
    # pauses neither pass, so that its spans, and the untraced pass that
    # trace.overhead_ratio compares them with, hold no pauses.
    pause = not trace

    def one_pass(session: int, traced: bool = False, untraced_s: float = 0.0):
        nonlocal attempted, failed
        if is_scan:
            attempted += 1
            timed, res, bad = scan_pass(name, pause, traced, untraced_s)
            failed += bool(bad)
        else:
            attempted += QUERIES_PER_SESSION
            timed, res, qs = query_pass(seed, session, pause, traced, untraced_s)
            bad = checker.failures(qs, res.pop("kept"))
            failed += len(bad)
        problems.extend(bad)
        return timed, res

    if trace:
        _, plain = one_pass(0)
        _, traced = one_pass(0, True, plain["work_s"])
        metrics = traced["layers"]
        record["untraced_work_s"] = plain["work_s"]
        record["traced_work_s"] = traced["work_s"]
    else:
        setup_norms, setup_walls, setup_failed = measure_setup()
        attempted += len(setup_norms)
        failed += setup_failed
        if setup_failed:
            problems.append(f"{setup_failed} cold starts printed a wrong record")
        timings, results = [], []
        t0 = time.perf_counter()
        while not timings or time.perf_counter() - t0 + timings[-1].wall_s <= seconds:
            timed, res = one_pass(len(timings))
            timings.append(timed)
            results.append(res)
        # `raw` holds the same figures from uncorrected clocks, for reference
        raw = {"setup_s": statistics.median(setup_walls)}
        metrics["setup_s"] = statistics.median(setup_norms)
        metrics["scan_s"] = statistics.median(t.norm_s for t in timings)
        raw["scan_s"] = statistics.median(t.run_s for t in timings)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
        if is_scan:
            # A scan is one query, the whole `hclat verify` run, and it does the
            # same work every time: its latency has no tail of its own, only
            # machine noise, so both percentiles are the median scan.
            for out in (metrics, raw):
                out["queries_per_s"] = 1 / out["scan_s"]
                out["query_p50_us"] = out["query_p99_us"] = out["scan_s"] * 1e6
            record["samples"] = len(timings)
        else:
            loops = [t.norm_between(*r["loop_ns"]) for t, r in zip(timings, results)]
            metrics["queries_per_s"] = QUERIES_PER_SESSION / statistics.median(loops)
            lat_us = [
                x * 1e6
                for t, r in zip(timings, results)
                for x in t.norm_spans(r["start_ns"], r["lat_ns"])
            ]
            metrics["query_p50_us"] = _percentile(lat_us, 0.50)
            metrics["query_p99_us"] = _percentile(lat_us, 0.99)
            raw["queries_per_s"] = QUERIES_PER_SESSION / statistics.median(
                t.norm_between(*r["loop_ns"], scaled=False) for t, r in zip(timings, results)
            )
            raw_us = [ns / 1e3 for r in results for ns in r["lat_ns"]]
            raw["query_p50_us"] = _percentile(raw_us, 0.50)
            raw["query_p99_us"] = _percentile(raw_us, 0.99)
            record["samples"] = len(lat_us)
        record["raw_metrics"] = raw
        record["setup_s"] = {"corrected": setup_norms, "raw": setup_walls}
        record["passes"] = [
            {"corrected_s": t.norm_s, "raw_s": t.run_s, "wall_s": t.wall_s, "pauses": len(t.stretches) - 1}
            for t in timings
        ]
        record["pass_rss_mb"] = [r["peak_rss_mb"] for r in results]
    record.update(attempted=attempted, failed=failed, problems=problems[:20])
    record["failed_share"] = failed / attempted
    record["metrics"] = metrics
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return record


def _unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith(".calls"):
        return "count"
    return "ratio" if metric.endswith(("_ratio", "_share")) else "s"


def _report(record: dict) -> None:
    print(f"== {record['workload']}: {record['why']}")
    meta = {k: record[k] for k in ("seed", "seed_used", "python", "nproc", "git_revision", "src_sha256")}
    print("   " + json.dumps(meta))
    if "inputs" in record:
        print("   inputs " + json.dumps(record["inputs"]))
    raw = record.get("raw_metrics", {})
    for metric, value in record["metrics"].items():
        note = f"   (uncorrected {raw[metric]:.6g})" if metric in raw else ""
        print(f"   {metric:34s} {value:.6g} {_unit(metric)}{note}")
    extra = f", samples {record['samples']}" if "samples" in record else ""
    print(f"   failed_share {record['failed_share']:.6g} ({record['failed']}/{record['attempted']}{extra})")
    for problem in record["problems"]:
        print(f"   FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # end on SIGTERM through the normal exit path, which stops a running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hclat" / "cli.py").is_file():
        print(f"error: no hclat sources under {SRC}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except PassFailed as exc:
            print(f"error: {name} pass failed: {exc}", file=sys.stderr)
            return 1
        _report(record)
        records.append(record)
    single = len(records) == 1
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (k if single else f"{r['workload']}.{k}"): {"value": v, "unit": _unit(k)}
            for r in records
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
