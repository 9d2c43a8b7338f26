"""Whole-run benchmark: end-to-end and per-layer metrics of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload clamr-amr --seed 0 --seconds 15 --trace 0

``--trace 0`` measures with the program untouched and reports the
end-to-end metrics; ``--trace 1`` alternates untraced repetitions with
traced ones (wrappers around each layer's public functions, see
``trace.py``) and reports the per-layer metrics.  Both check every output.
End-to-end times are in reference seconds: each timed operation is
bracketed by fixed loops that measure the host's speed at that moment
(see ``calibrate.py``); the raw wall medians are printed beside them.
A human-readable report goes to standard output; its last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Everything the benchmark writes (compiled kernels, queues, ledgers, the
temporary directory) stays under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
#: set-ups timed per invocation, each in a fresh interpreter
SETUP_PROBES = 5
MIN_REPS = 5
MAX_REPS = 1000
TELEMETRY_PAIRS = 20
PROBE_TIMEOUT_S = 120


def _environment() -> None:
    """Keep every file the program writes inside the checkout; one BLAS thread."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ.update(
        {
            "REPRO_CEXT_CACHE": str(WORK / "cext"),
            "TMPDIR": str(tmp),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            # the ledger asks git for the commit; never look above the checkout
            "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
            "PYTHONPATH": os.pathsep.join([str(ROOT), str(ROOT / "src")]),
        }
    )
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]


@dataclass
class Rep:
    run_s: float
    outcome: object
    layers: dict = field(default_factory=dict)
    #: the host's slowness around the timed run, from the reference loops
    slowness: float = 1.0

    @property
    def scaled_s(self) -> float:
        """``run_s`` in reference seconds."""
        return self.run_s / self.slowness


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempts: int, failures: int, problems: list[str], where: str) -> None:
        self.attempted += attempts
        self.failed += failures
        self.problems.extend(f"{where}: {p}" for p in problems)


def repetition(workload, inputs: dict, scratch: Path, tracer=None) -> Rep:
    """Set up, run and check once; with a tracer, per-layer metrics too."""
    from perfbench.calibrate import loop_times, slowness
    from perfbench.trace import delta
    from perfbench.workloads import TARGETS, Outcome, layer_metrics

    try:
        if tracer is not None:
            tracer.install(TARGETS)
            s0 = tracer.snapshot()
        prepared = workload.setup(inputs, scratch)
        workload.warm_up(prepared)
        # the previous repetition's reference cycles are collected here,
        # not inside the timed run
        gc.collect()
        if tracer is not None:
            s1 = tracer.snapshot()
        calibrate = Path(scratch).parent / "calibrate"
        before = loop_times(workload.reference_loops, calibrate)
        t0 = time.perf_counter()
        result = workload.run(prepared)
        t1 = time.perf_counter()
        after = loop_times(workload.reference_loops, calibrate)
        if tracer is not None:
            s2 = tracer.snapshot()
            tracer.uninstall()
        outcome = workload.check(prepared, result)
        workload.teardown(prepared)
    except Exception:  # noqa: BLE001 — a raising run is a failed operation
        if tracer is not None:
            tracer.uninstall()
        n = workload.attempts(inputs)
        detail = traceback.format_exc().strip().splitlines()[-1]
        return Rep(0.0, Outcome(n, n, 0.0, {}, problems=[f"raised {detail}"]))
    layers = {}
    if tracer is not None:
        layers = layer_metrics(delta(s0, s1), delta(s1, s2), t1 - t0, outcome.counts)
    return Rep(t1 - t0, outcome, layers, slowness(workload.reference_loops, before, after))


def probe(mode: str, name: str, seed: int, scratch: Path) -> dict | None:
    """Run one fresh-process probe; None when it failed."""
    cmd = [sys.executable, "-m", "perfbench.probe", mode, name, str(seed), str(scratch)]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
        print(f"  {mode} probe failed: {' '.join(tail)}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload, inputs, scratch, seconds, tally, traced: bool) -> tuple[list[Rep], list[Rep]]:
    """Timed repetitions for ``seconds``; with ``traced``, alternate plain and traced."""
    from perfbench.trace import LayerTracer

    plain: list[Rep] = []
    with_trace: list[Rep] = []
    tracer = LayerTracer() if traced else None
    start = time.perf_counter()
    while len(plain) < MAX_REPS:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(plain) >= MIN_REPS or elapsed >= 2 * seconds:
            break
        for reps, t in ((plain, None), (with_trace, tracer)):
            if reps is with_trace and tracer is None:
                continue
            rep = repetition(workload, inputs, scratch, t)
            o = rep.outcome
            tally.add(o.attempts, o.failures, o.problems, f"rep {len(reps)}")
            if not o.problems:
                reps.append(rep)
    return plain, with_trace


def check_digests(reps: list[Rep], reference: dict, tally: Tally) -> None:
    """Every repetition must be bit-identical to the first."""
    for i, rep in enumerate(reps):
        if rep.outcome.digest != reference:
            tally.add(1, 1, ["output differs from the first repetition"], f"rep {i}")


def check_pin(name: str, reference: dict, tally: Tally) -> None:
    """At the default seed the output must equal the digest pinned in ``digests.json``."""
    pins = json.loads((Path(__file__).parent / "digests.json").read_text())
    pinned = pins.get(name)
    if reference != pinned:
        tally.add(1, 1, [f"digest {reference} != pinned {pinned}"], "default seed")


def exact_counts(reps: list[Rep], tally: Tally) -> None:
    """Work counts must repeat exactly across repetitions."""
    for rep in reps[1:]:
        if rep.outcome.counts != reps[0].outcome.counts:
            tally.add(1, 1, ["work counts differ between repetitions"], "counts")
            return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    _environment()
    from repro.clamr import backends

    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    scratch = WORK / "runs" / f"{os.getpid()}"
    tally = Tally()

    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    print(f"  inputs: {json.dumps(inputs)}")
    with backends.kernel_backend(workload.backend):
        # untimed first repetition: builds the compiled kernels, fills lazy caches
        first = repetition(workload, inputs, scratch / "main")
        o = first.outcome
        tally.add(o.attempts, o.failures, o.problems, "warm-up rep")
        setups = []
        for i in range(SETUP_PROBES):
            doc = probe("setup", workload.name, args.seed, scratch / f"setup{i}")
            tally.add(1, 0 if doc else 1, [] if doc else ["setup probe failed"], "setup")
            if doc:
                setups.append(doc)
        memory = None
        if not args.trace:
            memory = probe("memory", workload.name, args.seed, scratch / "memory")
            problems = ["memory probe failed"] if memory is None else memory["problems"]
            tally.add(1, 1 if problems else 0, problems, "memory pass")
        plain, traced = measure(
            workload, inputs, scratch / "main", args.seconds, tally, bool(args.trace)
        )
        telemetry_overhead = 0.0
        if args.trace and hasattr(workload, "telemetry_overhead"):
            telemetry_overhead = workload.telemetry_overhead(TELEMETRY_PAIRS)

    reference = o.digest
    check_digests(plain + traced, reference, tally)
    if args.seed == DEFAULT_SEED:
        check_pin(workload.name, reference, tally)
    exact_counts(plain + traced, tally)
    if workload.backend != "numpy":
        with backends.kernel_backend("numpy"):
            oracle = repetition(workload, inputs, scratch / "oracle")
        problems = list(oracle.outcome.problems)
        if oracle.outcome.digest != reference:
            problems.append(f"numpy oracle digest {oracle.outcome.digest} != {reference}")
        tally.add(1, 1 if problems else 0, problems, "oracle run")
    print(f"  digest: {json.dumps(reference)}")

    metrics: dict[str, tuple[float, str]] = {}
    if not plain or (args.trace and not traced):
        tally.add(1, 1, ["no repetition passed its checks"], "measure")
    elif not args.trace:
        run_q = quartiles([r.scaled_s for r in plain])
        rate_q = quartiles([r.outcome.work / r.scaled_s for r in plain])
        setup_q = (
            quartiles([d["setup_s"] / d["slowness"] for d in setups])
            if setups else (0.0,) * 3
        )
        metrics["setup_s"] = (setup_q[1], "s")
        metrics["run_s"] = (run_q[1], "s")
        metrics["work_per_s"] = (rate_q[1], "work/s")
        if memory is not None:
            metrics["peak_mem_mb"] = (memory["peak_bytes"] / 2**20, "MiB")
        print(f"  setup_s     {setup_q[1]:.6f} s  q1 {setup_q[0]:.6f} q3 {setup_q[2]:.6f} "
              f"n {len(setups)} (fresh-process set-up incl. backend warm-up)")
        print(f"  run_s       {run_q[1]:.6f} s  q1 {run_q[0]:.6f} q3 {run_q[2]:.6f} "
              f"n {len(plain)}")
        raw_setup = statistics.median(d["setup_s"] for d in setups) if setups else 0.0
        slow = statistics.median([r.slowness for r in plain] + [d["slowness"] for d in setups])
        print(f"  (reference seconds; raw wall medians: setup {raw_setup:.6f} s, run "
              f"{statistics.median(r.run_s for r in plain):.6f} s; host slowness "
              f"{slow:.3f} from the {'+'.join(workload.reference_loops)} loops)")
        print(f"  work_per_s  {rate_q[1]:.1f} {workload.work_unit}/s  "
              f"q1 {rate_q[0]:.1f} q3 {rate_q[2]:.1f}")
        if memory is not None:
            print(f"  peak_mem_mb {metrics['peak_mem_mb'][0]:.3f} MiB (tracemalloc, set-up + run)")
    else:
        metrics.update(layer_report(workload, plain, traced, setups, telemetry_overhead))
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  error_rate  {error_rate:.6f} ({tally.failed} failed of {tally.attempted} operations)")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")

    shutil.rmtree(scratch, ignore_errors=True)
    correct = tally.failed == 0 and bool(plain)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_report(workload, plain, traced, setups, telemetry_overhead) -> dict:
    """Medians of the per-layer metrics over the traced repetitions, printed by layer."""
    from perfbench.workloads import per_layer_units

    units = per_layer_units()
    values = {n: statistics.median(r.layers[n] for r in traced) for n in traced[0].layers}
    untraced_run = statistics.median(r.run_s for r in plain)
    traced_run = statistics.median(r.run_s for r in traced)
    values["bench.trace_overhead_frac"] = traced_run / untraced_run - 1.0
    values["clamr.backends.warmup_s"] = (
        statistics.median(d["warmup_s"] for d in setups) if setups else 0.0
    )
    values["telemetry.overhead_frac"] = telemetry_overhead
    print(f"  traced run_s {traced_run:.6f} s vs untraced {untraced_run:.6f} s "
          f"(n {len(traced)} / {len(plain)}): overhead "
          f"{values['bench.trace_overhead_frac']:+.1%}")
    shares = sorted(
        ((v, n) for n, v in values.items() if n.endswith((".self_s", ".unattributed_s"))),
        reverse=True,
    )
    print("  layer self time per run (share of traced run_s):")
    for v, n in shares:
        if v > 0:
            print(f"    {n:42s} {v:.6f} s {v / traced_run:6.1%}")
    print("  exact-repeat counts per run:")
    for n in sorted(values):
        if units[n] in ("count", "pixel", "flop", "byte_computed") and values[n]:
            print(f"    {n:42s} {values[n]:.0f} {units[n]}")
    return {n: (float(values[n]), units[n]) for n in units}


if __name__ == "__main__":
    sys.exit(main())
