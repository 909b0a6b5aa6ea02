"""One workload pass in a fresh interpreter.

Reads a pickled request on stdin and writes a pickled result on stdout.
A request is either a CLI argument list, run through ``hclat.cli.main`` as
the ``hclat`` entry point would, or a query list for a library session.
``work_s`` covers importing ``hclat`` and the work itself, so traced and
untraced passes compare like for like; with ``trace`` set, the spans are
written to ``spans_path`` and summarized after ``work_s`` is taken.
"""

from __future__ import annotations

import contextlib
import io
import pickle
import resource
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import queries  # noqa: E402
import layertrace  # noqa: E402


def _peak_rss_mb() -> float:
    # The pass itself plus the largest child it waited for (a pool worker).
    # The pass's own peak is VmHWM: ru_maxrss of RUSAGE_SELF also keeps the
    # peak from before exec, the benchmark process's size at the fork.
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def _run_cli(argv: list[str]) -> dict:
    from hclat import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def _run_queries(qs: list[tuple[int, int, int]], keep: list[int]) -> dict:
    import hclat

    ops = [queries.OPS[name] for name in queries.OP_NAMES]
    wanted = set(keep)
    kept = {}
    start_ns, lat_ns = array("q"), array("q")
    # CLOCK_MONOTONIC, the clock the benchmark process marks its pauses with
    clock = time.monotonic_ns
    loop_start = clock()
    for i, (op, m, r) in enumerate(qs):
        fn = ops[op]
        t = clock()
        res = fn(hclat, m, r)
        lat_ns.append(clock() - t)
        start_ns.append(t)
        if i in wanted:
            kept[i] = res
    return {
        "loop_ns": (loop_start, clock()),
        "start_ns": start_ns,
        "lat_ns": lat_ns,
        "kept": kept,
    }


def main() -> None:
    req = pickle.load(sys.stdin.buffer)
    tracer = layertrace.Tracer() if req["trace"] else None
    t0 = time.perf_counter()
    if tracer:
        idx = tracer.open(tracer.intern("cli.import"))
        import hclat.cli  # noqa: F401
        tracer.close(idx)
        layertrace.install(tracer)
    else:
        import hclat.cli  # noqa: F401
    if "argv" in req:
        out = _run_cli(req["argv"])
    else:
        out = _run_queries(req["queries"], req["keep"])
    out["work_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer:
        spans = tracer.spans()
        with open(req["spans_path"], "wb") as fh:
            pickle.dump(spans, fh)
        out["layers"] = layertrace.summarize(spans, out["work_s"], req["untraced_s"])
    sys.stdout.buffer.write(pickle.dumps(out))


if __name__ == "__main__":
    main()
