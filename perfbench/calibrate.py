"""Host-speed calibration: wall times expressed at a fixed reference speed.

On a host whose cores and disks are shared with other tenants, the same run
can take 40% longer for minutes at a time, and its CPU time grows with it:
the core is slower, the process is not descheduled.  No run length averages
that away.  Fixed reference loops slow by the same share, so every timed
operation is bracketed by the loops its workload needs, and its wall time
is reported in reference seconds:

    wall_s / slowness,   slowness = prod over loops of (loop_s / REFERENCE_S) ** weight

over the workload's loops, whose weights sum to 1 and give the share of the
operation that runs at each loop's kind of speed; each loop time is the mean
of its two passes around the operation.  The loops are the benchmark's own code; a change to
the program cannot move them.  ``run.py`` prints the raw wall medians and
the median slowness beside the scaled figures.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

PYTHON_ITERATIONS = 200_000
STORAGE_WRITES = 20


def python_loop() -> None:
    """Interpreter speed: a fixed pure-Python integer loop."""
    acc = 0
    for i in range(PYTHON_ITERATIONS):
        acc += i * i % 7


def storage_loop(scratch: Path) -> None:
    """Storage latency: small fsynced writes, each renamed into place."""
    scratch.mkdir(parents=True, exist_ok=True)
    tmp, target = scratch / "calibrate.tmp", scratch / "calibrate.json"
    for i in range(STORAGE_WRITES):
        with open(tmp, "wb") as fh:
            fh.write(b"%d" % i * 64)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    target.unlink()


#: each loop's wall time at the reference speed: one unloaded core of a
#: Xeon host running CPython 3.11, and that host's local disk
REFERENCE_S = {"python": 0.020, "storage": 0.0035}


def loop_times(kinds, scratch: Path) -> dict[str, float]:
    """Wall time of one pass of each named loop."""
    times = {}
    for kind in kinds:
        t0 = time.perf_counter()
        if kind == "storage":
            storage_loop(scratch)
        else:
            python_loop()
        times[kind] = time.perf_counter() - t0
    return times


def slowness(weights: dict[str, float], before: dict[str, float], after: dict[str, float]) -> float:
    """How much slower than the reference the host ran, from loops around an operation."""
    return math.exp(sum(
        w * math.log((before[k] + after[k]) / 2 / REFERENCE_S[k]) for k, w in weights.items()
    ))
