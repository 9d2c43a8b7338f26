"""Fresh-process probes: set-up time and peak heap of one workload.

A set-up in a fresh interpreter pays what a user's new process pays: the
first load of the compiled kernels and any check made at load time.  The
heap peak is taken in its own process too, so the timed runs never carry
``tracemalloc``'s cost.  ``run.py`` starts these; by hand:

    PYTHONPATH=.:src python3 -m perfbench.probe setup clamr-amr 0 .perfbench/probe

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from pathlib import Path

from repro.clamr import backends

from perfbench.calibrate import loop_times, slowness
from perfbench.workloads import WORKLOADS


def setup_probe(workload, inputs: dict, scratch: str) -> dict:
    calibrate = Path(scratch).parent / "calibrate"
    before = loop_times(workload.reference_loops, calibrate)
    t0 = time.perf_counter()
    prepared = workload.setup(inputs, scratch)
    t1 = time.perf_counter()
    workload.warm_up(prepared)
    t2 = time.perf_counter()
    after = loop_times(workload.reference_loops, calibrate)
    workload.teardown(prepared)
    return {
        "setup_s": t2 - t0,
        "warmup_s": t2 - t1,
        "slowness": slowness(workload.reference_loops, before, after),
    }


def memory_probe(workload, inputs: dict, scratch: str) -> dict:
    tracemalloc.start()
    try:
        prepared = workload.setup(inputs, scratch)
        workload.warm_up(prepared)
        result = workload.run(prepared)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outcome = workload.check(prepared, result)
    workload.teardown(prepared)
    return {"peak_bytes": peak, "problems": outcome.problems}


PROBES = {"setup": setup_probe, "memory": memory_probe}


def main(argv: list[str]) -> int:
    mode, name, seed, scratch = argv
    workload = WORKLOADS[name]
    with backends.kernel_backend(workload.backend):
        doc = PROBES[mode](workload, workload.inputs(int(seed)), scratch)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
