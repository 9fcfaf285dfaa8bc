"""Machine-speed calibration for runs on a host whose speed drifts.

The machine this benchmark was tuned on (2 vCPUs shared with other
tenants) runs the same code up to ~1.5x slower for stretches of seconds.
Runs therefore interleave a calibration made of three kernels that never
touch slucas, and report times at the reference speed:

    time at reference = measured time * speed(calibrations)

Each kernel tracks a different kind of work: a 1024-bit ``pow`` (big-int
arithmetic, like the Lucas ladder), a small-int interpreter loop (like
trial division and the Jacobi symbol), and a bare interpreter start (like
set-up and the cold CLI items).  ``speed`` uses the geometric mean of the
three kernels, each taken as its mean over the calibrations.  A mean, not
a median: the ops' time is a sum over the run, so the share of the run
spent in the slow state must weigh in linearly.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import threading
from time import perf_counter_ns

_MODULUS = (1 << 1023) + 1155
# the kernels' times, in ns, at the reference speed (fast state of a
# 2-vCPU Intel Xeon VM, Python 3.11)
REFERENCE_NS = (3_500_000, 2_000_000, 42_000_000)


def run_child(cmd: list[str], timeout_s: float, env=None,
              capture: bool = False) -> subprocess.CompletedProcess:
    """Run cmd to completion, killing it after timeout_s.

    Not subprocess.run(timeout=...): its wait polls with sleeps that grow to
    50 ms, which would round every child's wall time up to that grid.
    """
    out = subprocess.PIPE if capture else subprocess.DEVNULL
    proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=out,
                            text=True)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        timer.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def calibrate() -> tuple[int, int, int]:
    """Wall ns of (pow, interpreter loop, interpreter start)."""
    t0 = perf_counter_ns()
    pow(3, _MODULUS - 1, _MODULUS)
    t1 = perf_counter_ns()
    a = r = 0
    for i in range(20000):
        a = (a * 31 + i) % 1000003
        r ^= a & 7
    t2 = perf_counter_ns()
    run_child([sys.executable, "-c", "pass"], 60).check_returncode()
    t3 = perf_counter_ns()
    return t1 - t0, t2 - t1, t3 - t2


def speed(samples: list[tuple[int, int, int]]) -> float:
    """Speed relative to the reference: > 1 means the machine was faster."""
    logs = [math.log(ref / statistics.fmean(col))
            for ref, col in zip(REFERENCE_NS, zip(*samples))]
    return math.exp(sum(logs) / len(logs))
