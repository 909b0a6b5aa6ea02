"""Times child processes on a shared host, corrected for the host's speed.

The benchmark's host is a few vCPUs of a shared machine, and a vCPU's speed
drifts by a third or more over seconds as its neighbours come and go; two
vCPUs drift independently.  A wall time alone therefore measures the host as
much as the program.  So every timed child runs on a known CPU set, and every
``INTERVAL_S`` seconds its whole process group is stopped while a fixed
calibration loop runs on those CPUs, then resumed.  The stopped time is not
counted.  Each stretch of running time between two calibrations is scaled
by ``REF_S`` over the mean of the two calibrations around it: the reported
time is what the child would have taken at the speed at which the loop takes
``REF_S`` seconds.  A slower program still takes longer against the loop; a
slower host slows both.
"""

from __future__ import annotations

import bisect
import os
import select
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field

INTERVAL_S = 0.2
# One calibration loop at the reference speed: about the fast state of a
# 2-vCPU Xeon (family 6, model 207) guest under CPython 3.11.
REF_S = 0.004


def _loop() -> int:
    # Interpreter work on small ints.  Measured against hclat's scans on the
    # shared host, it tracks their slowdowns more closely than
    # multi-thousand-digit integer arithmetic or memory walks do.
    x = 0
    for i in range(50000):
        x += i * i % 7
    return x


def calibrate(cpus: list[int]) -> float:
    """Seconds one calibration loop takes now, averaged over ``cpus``.

    Moves the calling process onto each CPU in turn and leaves it on the
    first.
    """
    took = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t = time.perf_counter()
        _loop()
        took.append(time.perf_counter() - t)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[0]})
    return statistics.fmean(took)


@dataclass
class Timed:
    """One child run: its exit code and how long it ran, raw and corrected."""

    returncode: int
    wall_s: float  # start to exit, stopped time included
    run_s: float  # start to exit, stopped time left out
    norm_s: float  # run_s at the reference speed
    # running stretches as (start_ns, end_ns, scale), CLOCK_MONOTONIC
    stretches: list[tuple[int, int, float]] = field(default_factory=list)

    def norm_between(self, start_ns: int, end_ns: int, scaled: bool = True) -> float:
        """Running time within ``[start_ns, end_ns]`` in seconds, at the reference speed if ``scaled``."""
        total = 0.0
        for a, b, scale in self.stretches:
            lo, hi = max(a, start_ns), min(b, end_ns)
            if hi > lo:
                total += (hi - lo) * (scale if scaled else 1.0)
        return total / 1e9

    def norm_spans(self, starts_ns, lengths_ns) -> list[float]:
        """Each span's running time at the reference speed, in seconds.

        A span that a pause falls inside loses the paused time.
        """
        starts = [a for a, _, _ in self.stretches]
        out = []
        for t, n in zip(starts_ns, lengths_ns):
            a, b, scale = self.stretches[max(0, bisect.bisect_right(starts, t) - 1)]
            out.append(n * scale / 1e9 if t + n <= b else self.norm_between(t, t + n))
        return out


class Timeout(Exception):
    pass


def run(cmd: list[str], cpus: list[int], timeout_s: float, pause: bool = True, **popen) -> Timed:
    """Runs ``cmd`` to its end on ``cpus`` and times it; see the module docstring.

    The child gets its own process group, so that a stop, and a kill on
    timeout, reach every process it starts.  With ``pause`` false the child
    is never stopped (a traced pass, whose spans must hold no stops) and
    only the calibrations before and after it scale its time.  The caller
    must be on ``cpus[0]`` alone.
    """
    child_cpus = set(cpus)

    def pin() -> None:
        os.sched_setaffinity(0, child_cpus)

    calib = [calibrate(cpus)]
    edges = []  # (stop_ns, cont_ns) for each pause
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd, start_new_session=True, preexec_fn=pin, **popen)
    try:
        # a pidfd turns readable when the child exits, so the exit is seen at once
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            while not poller.poll(INTERVAL_S * 1e3):
                if time.monotonic_ns() - t0 > timeout_s * 1e9:
                    raise Timeout(f"timed out after {timeout_s}s: {cmd}")
                if not pause:
                    continue
                stop = time.monotonic_ns()
                os.killpg(proc.pid, signal.SIGSTOP)
                calib.append(calibrate(cpus))
                os.killpg(proc.pid, signal.SIGCONT)
                edges.append((stop, time.monotonic_ns()))
        finally:
            os.close(pidfd)
        t1 = time.monotonic_ns()
        proc.wait()
    except BaseException:
        try:
            # SIGKILL ends a stopped process too
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    calib.append(calibrate(cpus))
    bounds = [t0, *[x for edge in edges for x in edge], t1]
    stretches = [
        (bounds[2 * i], bounds[2 * i + 1], 2 * REF_S / (calib[i] + calib[i + 1]))
        for i in range(len(edges) + 1)
    ]
    run_ns = sum(b - a for a, b, _ in stretches)
    norm_ns = sum((b - a) * s for a, b, s in stretches)
    return Timed(proc.returncode, (t1 - t0) / 1e9, run_ns / 1e9, norm_ns / 1e9, stretches)
