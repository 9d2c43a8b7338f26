"""The benchmark's four workloads: seeded inputs, set-up, timed operation, output check.

Each workload loads a different layer of the program (see README.md):

``clamr-amr``           regrid path (mesh hash, refinement, regrid) and the
                        double-double mass sum; numpy oracle kernels.
``clamr-uniform-cext``  the compiled kernel backend; no regrid, two mass sums.
``self-bubble``         SELF's RHS contractions and modal filter; no CLAMR code.
``sweep-service``       the service's fixed per-job costs: queue renames, cache
                        digests, fsynced ledger appends, record building.

The seed sets only the physical inputs (dam-break column, bubble centre and
amplitude) and which sweep jobs are duplicated, in which order; sizes, steps and
precisions are fixed so that every seed does the same amount of work within
a few percent.  The program receives only the generated inputs.
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.ledger.runner  # noqa: F401  (loaded before wrappers are installed)
from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr import backends
from repro.self_ import SelfSimulation, ThermalBubbleConfig
from repro.self_.equations import RHO
from repro.service import JobQueue, JobSpec, WorkerOptions
from repro.service import worker as service_worker
from repro.sums.doubledouble import dd_sum
from repro.telemetry import Telemetry

from perfbench.trace import Target

DEFAULT_SEED = 0

#: relative mass drift allowed over one CLAMR run: conservative fluxes move
#: mass only by rounding at the state dtype
MASS_DRIFT_TOL = 1e-5


@dataclass
class Outcome:
    """What one timed operation did and whether its outputs were right.

    ``attempts``/``failures`` count operations (one simulation run, or one
    sweep job); ``counts`` are work counts that repeat exactly for
    identical inputs; ``problems`` lists failed output checks.
    """

    attempts: int
    failures: int
    work: float
    digest: dict
    counts: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _sha256(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


# -- CLAMR ----------------------------------------------------------------


@dataclass(frozen=True)
class ClamrWorkload:
    name: str
    why: str
    nx: int
    max_level: int
    policy: str
    backend: str
    steps: int
    work_unit: str = "cell-steps"
    #: the calibration loops that measure the host's speed, with the share
    #: of the timed operation each one stands for (calibrate.py)
    reference_loops: dict = field(default_factory=lambda: {"python": 1.0})

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        return {
            "column_height": rng.uniform(1.75, 1.85),
            "column_radius_fraction": rng.uniform(0.145, 0.155),
        }

    def config(self, inputs: dict) -> DamBreakConfig:
        return DamBreakConfig(
            nx=self.nx, ny=self.nx, max_level=self.max_level, **inputs
        )

    def attempts(self, inputs: dict) -> int:
        return 1

    def setup(self, inputs: dict, scratch: Path):
        """Mesh, pre-refinement and initial condition."""
        return ClamrSimulation(self.config(inputs), policy=self.policy)

    def warm_up(self, sim) -> None:
        """Load (and on first use build) the compiled kernels, as ``run`` would."""
        backends.warmup(sim.policy.compute_dtype)

    def run(self, sim):
        return sim.run(self.steps)

    def check(self, sim, result) -> Outcome:
        problems = []
        state = sim.state
        fields = (state.H, state.U, state.V)
        if result.steps != self.steps:
            problems.append(f"ran {result.steps} steps, expected {self.steps}")
        if not all(np.isfinite(f).all() for f in fields):
            problems.append("non-finite H/U/V")
        elif not (state.H > 0).all():
            problems.append("non-positive depth")
        if not result.mass_drift <= MASS_DRIFT_TOL:
            problems.append(f"mass drift {result.mass_drift:.3e} > {MASS_DRIFT_TOL:.0e}")
        requested = backends.active_backend()
        ran = backends.resolved_backend(sim.policy.compute_dtype)
        if ran != requested:
            problems.append(f"kernels ran on {ran}, not {requested} (silent fallback)")
        profile = result.profile
        return Outcome(
            attempts=1,
            failures=1 if problems else 0,
            work=float(_cell_steps(result.ncells_history, self.steps, sim.config)),
            digest={
                "state_sha256": _sha256(*fields),
                "mass_hex": result.mass_history[-1].hex(),
            },
            counts={
                "clamr.kernels.flops": int(profile.flops),
                "clamr.kernels.state_bytes": int(profile.state_bytes),
            },
            problems=problems,
        )

    def teardown(self, sim) -> None:
        pass


def _cell_steps(ncells_history: list[int], steps: int, cfg: DamBreakConfig) -> int:
    """Cells updated over ``steps`` steps of a fresh run.

    ``ncells_history`` holds the cell count at the start and after every
    regrid (every ``regrid_interval`` steps); step ``s`` runs on the mesh
    of the last regrid before it.
    """
    if cfg.max_level == 0:
        return ncells_history[0] * steps
    last = len(ncells_history) - 1
    return sum(
        ncells_history[min((s - 1) // cfg.regrid_interval, last)]
        for s in range(1, steps + 1)
    )


# -- SELF -----------------------------------------------------------------


@dataclass(frozen=True)
class SelfWorkload:
    name: str
    why: str
    elems: int
    order: int
    precision: str
    steps: int
    backend: str = "numpy"
    work_unit: str = "DOF-steps"
    reference_loops: dict = field(default_factory=lambda: {"python": 1.0})

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        return {
            "bubble_center": (
                500.0 + rng.uniform(-25.0, 25.0),
                500.0 + rng.uniform(-25.0, 25.0),
                350.0 + rng.uniform(-25.0, 25.0),
            ),
            "bubble_amplitude": rng.uniform(0.45, 0.55),
        }

    def attempts(self, inputs: dict) -> int:
        return 1

    def setup(self, inputs: dict, scratch: Path):
        e = self.elems
        cfg = ThermalBubbleConfig(nex=e, ney=e, nez=e, order=self.order, **inputs)
        return SelfSimulation(cfg, precision=self.precision)

    def warm_up(self, sim) -> None:
        pass

    def run(self, sim):
        return sim.run(self.steps)

    def check(self, sim, result) -> Outcome:
        problems = []
        if result.steps != self.steps:
            problems.append(f"ran {result.steps} steps, expected {self.steps}")
        if not np.isfinite(sim.U).all():
            problems.append("non-finite state")
        elif not result.max_vertical_velocity > 0.0:
            problems.append("the bubble did not move")
        mass = float(dd_sum(sim.U[:, RHO].astype(np.float64).ravel()))
        return Outcome(
            attempts=1,
            failures=1 if problems else 0,
            work=float(sim.mesh.ndof * self.steps),
            digest={"state_sha256": _sha256(sim.U), "mass_hex": mass.hex()},
            counts={
                "self_.flops": int(result.profile.flops),
                "self_.state_bytes": int(result.profile.state_bytes),
            },
            problems=problems,
        )

    def teardown(self, sim) -> None:
        pass


# -- sweep service --------------------------------------------------------


@dataclass
class SweepRun:
    root: Path
    options: WorkerOptions
    specs: list[JobSpec]


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    why: str
    clamr_steps: int
    self_steps: int
    duplicates: int
    backend: str = "numpy"
    work_unit: str = "jobs"
    #: a third of a drain waits on fsynced writes and renames; the rest is
    #: Python-level work in the queue, cache, ledger and the tiny jobs
    reference_loops: dict = field(
        default_factory=lambda: {"python": 0.7, "storage": 0.3}
    )

    def uniques(self) -> list[JobSpec]:
        """16 tiny jobs: CLAMR nx 8-20 L1 x min/mixed/full, SELF e2 o2/o3 x single/double."""
        clamr = [
            JobSpec(workload="clamr", nx=nx, max_level=1, policy=policy, steps=self.clamr_steps)
            for nx in (8, 12, 16, 20)
            for policy in ("min", "mixed", "full")
        ]
        self_ = [
            JobSpec(workload="self", elems=2, order=order, precision=precision, steps=self.self_steps)
            for order in (2, 3)
            for precision in ("single", "double")
        ]
        return clamr + self_

    def inputs(self, seed: int) -> dict:
        """Every unique job in a fixed order, then the seeded duplicates in a seeded order.

        The worker's peak heap depends on which garbage is still uncollected
        when the largest job runs, so a seeded order of the unique jobs
        would move ``peak_mem_mb`` by ±15% from seed to seed; duplicates are
        cache hits and allocate little.
        """
        rng = random.Random(f"{self.name}/{seed}")
        n = len(self.uniques())
        duplicated = rng.sample(range(n), self.duplicates)
        return {"submissions": list(range(n)) + duplicated}

    def attempts(self, inputs: dict) -> int:
        return len(inputs["submissions"])

    def setup(self, inputs: dict, scratch: Path) -> SweepRun:
        """A fresh queue, ledger and cache, and every submission."""
        root = Path(scratch)
        if root.exists():
            shutil.rmtree(root)
        uniques = self.uniques()
        specs = [uniques[i] for i in inputs["submissions"]]
        queue = JobQueue(root / "queue").ensure()
        for spec in specs:
            queue.submit(spec)
        options = WorkerOptions(
            queue=root / "queue", ledger=root / "ledger.jsonl", cache=root / "cache", drain=True
        )
        return SweepRun(root=root, options=options, specs=specs)

    def warm_up(self, sweep: SweepRun) -> None:
        pass

    def run(self, sweep: SweepRun):
        # through the module, so the traced run sees the wrapped function
        return service_worker.run_worker(sweep.options)

    def check(self, sweep: SweepRun, report) -> Outcome:
        problems = []
        n_jobs = len(sweep.specs)
        n_unique = len({spec.workload_key() for spec in sweep.specs})
        queue = JobQueue(sweep.options.queue)
        counts = queue.counts()
        done = queue.jobs("done")
        lost_jobs = n_jobs - counts.get("done", 0)
        job_failures = report.failed + report.retried + report.lost
        job_failures += counts.get("quarantine", 0) + counts.get("failed", 0)
        if report.computed != n_unique:
            problems.append(f"computed {report.computed} jobs, expected {n_unique}")
        if report.cache_hits != n_jobs - n_unique:
            problems.append(f"{report.cache_hits} cache hits, expected {n_jobs - n_unique}")
        if lost_jobs:
            problems.append(f"{lost_jobs} of {n_jobs} jobs did not end done")
        ledger = Path(sweep.options.ledger)
        lines = ledger.read_text(encoding="utf-8").splitlines() if ledger.exists() else []
        if len(lines) != n_unique:
            problems.append(f"{len(lines)} ledger lines, expected one per unique job ({n_unique})")
        results = sorted(
            {f"{job.workload_key} {job.doc['result']['conservation_last_hex']}" for job in done}
        )
        if len(results) != n_unique:
            problems.append(f"{len(results)} distinct job results, expected {n_unique}")
        digest = hashlib.sha256("\n".join(results).encode()).hexdigest()
        return Outcome(
            attempts=n_jobs,
            failures=n_jobs if problems else min(job_failures, n_jobs),
            work=float(report.completed),
            digest={"results_sha256": digest},
            counts={"service.cache.hits": int(report.cache_hits)},
            problems=problems,
        )

    def teardown(self, sweep: SweepRun) -> None:
        shutil.rmtree(sweep.root, ignore_errors=True)

    def telemetry_overhead(self, pairs: int) -> float:
        """Traced over untraced wall of the largest CLAMR job's simulation, minus one.

        The service runs every job with telemetry on (as the ledger
        records it); this is what that costs on the job sizes the sweep
        uses.  Medians over ``pairs`` alternating runs.
        """
        spec = max(
            (s for s in self.uniques() if s.workload == "clamr" and s.policy == "mixed"),
            key=lambda s: s.nx,
        )
        cfg = DamBreakConfig(nx=spec.nx, ny=spec.nx, max_level=spec.max_level)
        traced, bare = [], []
        for _ in range(pairs):
            for samples, tel in ((bare, None), (traced, Telemetry(watch_stride=spec.watch_stride))):
                sim = ClamrSimulation(cfg, policy=spec.policy, telemetry=tel)
                samples.append(sim.run(spec.steps).elapsed_s)
        return statistics.median(traced) / statistics.median(bare) - 1.0


WORKLOADS = {
    w.name: w
    for w in (
        ClamrWorkload(
            name="clamr-amr",
            why="dam break 128^2 L2 mixed on the numpy oracle: regrid, mesh hash and mass sum dominate",
            nx=128,
            max_level=2,
            policy="mixed",
            backend="numpy",
            steps=40,
        ),
        ClamrWorkload(
            name="clamr-uniform-cext",
            why="256^2 uniform min on the cext backend: compiled kernel dominates, hash and sums bypassed",
            nx=256,
            max_level=0,
            policy="min",
            backend="cext",
            steps=120,
        ),
        SelfWorkload(
            name="self-bubble",
            why="SELF thermal bubble 6^3 x order 4 single: RHS contractions and filter, no CLAMR code",
            elems=6,
            order=4,
            precision="single",
            steps=12,
        ),
        SweepWorkload(
            name="sweep-service",
            why="24 tiny jobs (16 unique, 8 duplicates) drained by one worker: queue, cache and ledger costs",
            clamr_steps=8,
            self_steps=3,
            duplicates=8,
        ),
    )
}


# -- per-layer tracing -----------------------------------------------------


def _hash_pixels(args, result) -> dict:
    mesh = args[0]
    return {"clamr.mesh.hash_pixels": mesh.nxf * mesh.nyf}


def _summands(args, result) -> dict:
    return {"sums.summands": int(args[0].H.size)}


def _cache_lookup(args, result) -> dict:
    return {"service.cache.gets": 1, "service.cache.hits": int(result is not None)}


#: the public functions of every layer; the layer name is the module path
#: under ``repro`` plus the function
TARGETS = [
    Target("clamr.mesh.build_hash", "repro.clamr.mesh", "build_hash", "AmrMesh", _hash_pixels),
    Target("clamr.mesh.rebuild_neighbors", "repro.clamr.mesh", "rebuild_neighbors", "AmrMesh"),
    Target("clamr.mesh.sample_to_uniform", "repro.clamr.mesh", "sample_to_uniform", "AmrMesh"),
    Target("clamr.mesh.init", "repro.clamr.mesh", "__post_init__", "AmrMesh"),
    Target("clamr.amr.refinement_flags", "repro.clamr.amr", "refinement_flags"),
    Target("clamr.amr.regrid", "repro.clamr.amr", "regrid"),
    Target("sums.total_mass", "repro.clamr.state", "total_mass", "ShallowWaterState", _summands),
    Target("clamr.kernels.finite_diff", "repro.clamr.kernels", "finite_diff_vectorized"),
    Target("clamr.kernels.compute_timestep", "repro.clamr.kernels", "compute_timestep"),
    Target("clamr.kernels.face_lists", "repro.clamr.kernels", "from_mesh", "FaceLists"),
    Target("clamr.simulation", "repro.clamr.simulation", "run", "ClamrSimulation"),
    Target("self_.equations.rhs", "repro.self_.equations", "rhs", "CompressibleEuler"),
    Target("self_.equations.stable_dt", "repro.self_.equations", "stable_dt", "CompressibleEuler"),
    Target("self_.filter.apply_filter_3d", "repro.self_.filter", "apply_filter_3d"),
    Target("self_.timeint.step", "repro.self_.timeint", "step", "LowStorageRK3"),
    Target("self_.simulation", "repro.self_.simulation", "run", "SelfSimulation"),
    Target("service.queue.submit", "repro.service.queue", "submit", "JobQueue"),
    Target("service.queue.claim", "repro.service.queue", "claim", "JobQueue"),
    Target("service.queue.start", "repro.service.queue", "start", "JobQueue"),
    Target("service.queue.finish", "repro.service.queue", "finish", "JobQueue"),
    Target("service.queue.reclaim_stale", "repro.service.queue", "reclaim_stale", "JobQueue"),
    Target("service.cache.get", "repro.service.cache", "get", "ResultCache", _cache_lookup),
    Target("service.cache.put", "repro.service.cache", "put", "ResultCache"),
    Target("ledger.append", "repro.ledger.store", "append", "Ledger"),
    Target("ledger.record", "repro.ledger.record", "record_from_clamr"),
    Target("ledger.record", "repro.ledger.record", "record_from_self"),
    Target("service.worker", "repro.service.worker", "run_worker"),
]

#: outermost layers: their self time is the remainder, the wall time of the
#: timed operation that no wrapped layer covers
OUTER_LAYERS = ("clamr.simulation", "self_.simulation", "service.worker")

#: layers that only run while the workload is set up; their metrics come
#: from the set-up phase of a traced repetition
SETUP_LAYERS = ("service.queue.submit",)


#: layers whose call count is reported
CALL_LAYERS = (
    "clamr.mesh.build_hash",
    "clamr.amr.regrid",
    "sums.total_mass",
    "self_.equations.rhs",
    "service.queue.claim",
)

#: work counts that repeat exactly for identical inputs; bytes are
#: computed from array sizes, not measured
COUNTS = {
    "clamr.mesh.hash_pixels": "pixel",
    "sums.summands": "count",
    "clamr.kernels.flops": "flop",
    "clamr.kernels.state_bytes": "byte_computed",
    "self_.flops": "flop",
    "self_.state_bytes": "byte_computed",
    "service.cache.hits": "count",
}

#: metrics measured outside one traced repetition (see run.py)
EXTRA = {
    "clamr.backends.warmup_s": "s",
    "telemetry.overhead_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for t in TARGETS:
        suffix = "unattributed_s" if t.layer in OUTER_LAYERS else "self_s"
        units[f"{t.layer}.{suffix}"] = "s"
    units.update({f"{layer}.calls": "count" for layer in CALL_LAYERS})
    units.update(COUNTS)
    units["clamr.kernels.flops_per_byte"] = "flop/byte"
    units["service.cache.hit_ratio"] = "ratio"
    units["bench.unattributed_frac"] = "ratio"
    units.update(EXTRA)
    return units


def layer_metrics(setup: dict, run: dict, wall_s: float, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (set-up and run phase deltas).

    ``counts`` adds the work counts the program itself reports (the
    kernels' modelled flops and bytes).
    """
    self_s = dict(run["self_s"])
    for layer in SETUP_LAYERS:
        self_s[layer] = setup["self_s"].get(layer, 0.0)
    n = {**run["counts"], **counts}
    out = {}
    for t in TARGETS:
        suffix = "unattributed_s" if t.layer in OUTER_LAYERS else "self_s"
        out[f"{t.layer}.{suffix}"] = self_s.get(t.layer, 0.0)
    out.update({f"{layer}.calls": run["calls"].get(layer, 0) for layer in CALL_LAYERS})
    out.update({name: n.get(name, 0) for name in COUNTS})
    kernel_bytes = n.get("clamr.kernels.state_bytes", 0)
    out["clamr.kernels.flops_per_byte"] = (
        n.get("clamr.kernels.flops", 0) / kernel_bytes if kernel_bytes else 0.0
    )
    gets = n.get("service.cache.gets", 0)
    out["service.cache.hit_ratio"] = n.get("service.cache.hits", 0) / gets if gets else 0.0
    unattributed = sum(self_s.get(layer, 0.0) for layer in OUTER_LAYERS)
    out["bench.unattributed_frac"] = unattributed / wall_s if wall_s > 0 else math.nan
    return out
