"""Tests of the benchmark itself: self-time arithmetic, wrapper removal, seeded inputs.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import trace  # noqa: E402
from perfbench.trace import LayerTracer, Target, delta  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    TARGETS,
    WORKLOADS,
    ClamrWorkload,
    _cell_steps,
    layer_metrics,
    per_layer_units,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(trace.time, "perf_counter", fake)
    return fake


def test_self_time_subtracts_nested_wrapped_calls(clock):
    tracer = LayerTracer()

    def inner():
        clock.now += 3.0

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 2.0
        inner()
        inner()
        clock.now += 1.0

    outer = tracer.wrap("outer", outer)
    outer()
    assert tracer.self_s == {"inner": 6.0, "outer": 3.0}
    assert tracer.calls == {"inner": 2, "outer": 1}
    # the self times of one call tree add up to the outermost wall time
    assert sum(tracer.self_s.values()) == clock.now == 9.0


def test_self_time_is_booked_when_the_call_raises(clock):
    tracer = LayerTracer()

    def failing():
        clock.now += 4.0
        raise ValueError("boom")

    failing = tracer.wrap("failing", failing)

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            failing()

    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"failing": 4.0, "outer": 1.0}
    assert tracer._child_s == []


def test_count_hook_and_snapshot_delta(clock):
    tracer = LayerTracer()
    f = tracer.wrap("f", lambda x: x, count=lambda args, result: {"items": args[0]})
    f(2)
    before = tracer.snapshot()
    f(5)
    d = delta(before, tracer.snapshot())
    assert d["counts"] == {"items": 5}
    assert d["calls"] == {"f": 1}


def _wrapped_objects() -> list[str]:
    """Every wrapper left in a loaded ``repro`` module or class."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("repro"):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "__wrapped_layer__"):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                for key, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if hasattr(fn, "__wrapped_layer__"):
                        found.append(f"{name}.{attr}.{key}")
    return found


def test_traced_run_removes_every_wrapper():
    from repro.clamr import ClamrSimulation, DamBreakConfig
    from repro.clamr import simulation as clamr_simulation
    from repro.clamr.amr import regrid
    from repro.clamr.mesh import AmrMesh

    original_build_hash = AmrMesh.__dict__["build_hash"]
    original_regrid = clamr_simulation.regrid
    tracer = LayerTracer()
    tracer.install(TARGETS)
    try:
        assert AmrMesh.__dict__["build_hash"] is not original_build_hash
        # a function imported by name into another module is wrapped there too
        assert clamr_simulation.regrid is not regrid
        assert _wrapped_objects()
        sim = ClamrSimulation(DamBreakConfig(nx=8, ny=8, max_level=1), policy="mixed")
        sim.run(4)
    finally:
        tracer.uninstall()
    assert tracer.calls["clamr.mesh.build_hash"] > 0
    assert tracer.calls["clamr.simulation"] == 1
    assert _wrapped_objects() == []
    assert AmrMesh.__dict__["build_hash"] is original_build_hash
    assert clamr_simulation.regrid is original_regrid is regrid


def test_traced_sweep_repetition_reports_layers_and_leaves_no_wrapper(tmp_path):
    from perfbench.run import repetition

    workload = WORKLOADS["sweep-service"]
    tracer = LayerTracer()
    rep = repetition(workload, workload.inputs(1), tmp_path / "sweep", tracer)
    assert rep.outcome.problems == []
    assert rep.outcome.failures == 0 and rep.outcome.attempts == 24
    assert rep.layers["service.queue.submit.self_s"] > 0  # set-up phase
    assert rep.layers["service.cache.hits"] == workload.duplicates
    assert rep.layers["service.cache.hit_ratio"] == workload.duplicates / 24
    assert rep.layers["service.queue.claim.calls"] == 25  # 24 jobs + the empty poll
    assert rep.layers["service.worker.unattributed_s"] > 0
    assert _wrapped_objects() == []


def test_failed_install_removes_what_it_installed():
    from repro.clamr.mesh import AmrMesh

    original = AmrMesh.__dict__["build_hash"]
    tracer = LayerTracer()
    bad = Target("missing", "repro.clamr.mesh", "no_such_method", "AmrMesh")
    with pytest.raises(KeyError):
        tracer.install([TARGETS[0], bad])
    assert AmrMesh.__dict__["build_hash"] is original
    assert _wrapped_objects() == []


def test_classmethod_targets_stay_classmethods():
    from repro.clamr.kernels import FaceLists
    from repro.clamr.mesh import AmrMesh

    tracer = LayerTracer()
    tracer.install([t for t in TARGETS if t.attr == "from_mesh"])
    try:
        assert isinstance(FaceLists.__dict__["from_mesh"], classmethod)
        faces = FaceLists.from_mesh(AmrMesh.uniform(4, 4))
    finally:
        tracer.uninstall()
    assert faces.nfaces > 0
    assert tracer.calls == {"clamr.kernels.face_lists": 1}


def test_layer_metrics_split_outer_and_setup_layers():
    run = {
        "self_s": {"clamr.simulation": 0.5, "clamr.mesh.build_hash": 2.0},
        "calls": {"clamr.mesh.build_hash": 3},
        "counts": {"clamr.mesh.hash_pixels": 12},
    }
    setup = {"self_s": {"service.queue.submit": 0.25}, "calls": {}, "counts": {}}
    out = layer_metrics(setup, run, wall_s=2.5, counts={"clamr.kernels.flops": 10,
                                                        "clamr.kernels.state_bytes": 4})
    assert out["clamr.simulation.unattributed_s"] == 0.5
    assert "clamr.simulation.self_s" not in out
    assert out["clamr.mesh.build_hash.self_s"] == 2.0
    assert out["clamr.mesh.build_hash.calls"] == 3
    assert out["clamr.mesh.hash_pixels"] == 12
    assert out["service.queue.submit.self_s"] == 0.25
    assert out["clamr.kernels.flops_per_byte"] == 2.5
    assert out["bench.unattributed_frac"] == 0.2
    assert set(out) | set(["clamr.backends.warmup_s", "telemetry.overhead_frac",
                           "bench.trace_overhead_frac"]) == set(per_layer_units())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    workload = WORKLOADS[name]
    assert workload.inputs(7) == workload.inputs(7)
    assert workload.inputs(7) != workload.inputs(8)
    # the same in a fresh interpreter with another hash seed
    code = (
        "import json, sys; from perfbench.workloads import WORKLOADS; "
        f"print(json.dumps(WORKLOADS[{name!r}].inputs(7)))"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == json.loads(json.dumps(workload.inputs(7)))


def test_sweep_inputs_duplicate_the_stated_number_of_jobs():
    workload = WORKLOADS["sweep-service"]
    uniques = workload.uniques()
    subs = workload.inputs(3)["submissions"]
    assert len(uniques) == 16 and len({u.workload_key() for u in uniques}) == 16
    assert sorted(set(subs)) == list(range(16))
    assert len(subs) == 16 + workload.duplicates
    assert subs[:16] == list(range(16))  # unique jobs in a fixed order


def test_slowness_is_the_weighted_geometric_mean_of_the_loop_ratios():
    from perfbench.calibrate import REFERENCE_S, slowness

    before = {"python": 1.5 * REFERENCE_S["python"], "storage": 7.0 * REFERENCE_S["storage"]}
    after = {"python": 2.5 * REFERENCE_S["python"], "storage": 9.0 * REFERENCE_S["storage"]}
    assert slowness({"python": 0.5, "storage": 0.5}, before, after) == pytest.approx(4.0)
    assert slowness({"python": 0.7, "storage": 0.3}, before, after) == pytest.approx(
        2.0**0.7 * 8.0**0.3
    )
    at_reference = {"python": REFERENCE_S["python"]}
    assert slowness({"python": 1.0}, at_reference, at_reference) == 1.0


def test_storage_loop_leaves_no_file(tmp_path):
    from perfbench.calibrate import loop_times

    times = loop_times(("python", "storage"), tmp_path / "calibrate")
    assert set(times) == {"python", "storage"} and min(times.values()) > 0
    assert list((tmp_path / "calibrate").iterdir()) == []


def test_cell_steps_follow_the_regrid_schedule():
    cfg = ClamrWorkload("x", "", nx=8, max_level=1, policy="mixed", backend="numpy",
                        steps=10).config({})
    # regrid every 4 steps: steps 1-4 on mesh 0, 5-8 on mesh 1, 9-10 on mesh 2
    assert _cell_steps([100, 200, 300, 400], 10, cfg) == 4 * 100 + 4 * 200 + 2 * 300
    uniform = ClamrWorkload("x", "", nx=8, max_level=0, policy="min", backend="numpy",
                            steps=3).config({})
    assert _cell_steps([64, 64], 3, uniform) == 192


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer_units()
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "run_s", "work_per_s", "peak_mem_mb"
    ]


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clamr-amr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
