"""Run one workload under telemetry and reduce it to a :class:`RunRecord`.

The single entry point every ``--ledger`` wire uses — the ``repro ledger
record`` CLI, the sweep service's jobs, and the harness runners — so a
record means the same thing no matter which door the run came through.
"""

from __future__ import annotations

from repro.ledger.record import record_from_run, workload_label
from repro.parallel.executor import TelemetrySpec
from repro.scenarios.runner import build_config

__all__ = ["run_workload"]


def run_workload(
    workload: str,
    *,
    seed: int = 0,
    watch_stride: int = 4,
    flight_stride: int = 0,
    flight_capacity: int = 512,
    label: str = "",
    # clamr knobs
    nx: int = 24,
    steps: int = 40,
    max_level: int = 1,
    policy: str = "mixed",
    scheme: str = "rusanov",
    # self knobs
    elems: int = 3,
    order: int = 3,
    precision: str = "double",
):
    """Run ``"clamr"`` or ``"self"`` traced, return ``(record, telemetry)``.

    Defaults are the ledger smoke workload: a few seconds end to end, big
    enough that the hot kernels clear the gate's ``min_kernel_s`` floor.
    ``flight_stride > 0`` attaches a flight recorder (sampling every that
    many steps), which folds its digest into the record's fidelity.
    """
    built = build_config(workload, nx=nx, max_level=max_level, elems=elems, order=order)
    tel = TelemetrySpec(
        label=label or workload_label(
            workload, steps=steps, nx=nx, policy=policy, scheme=scheme,
            elems=elems, order=order, precision=precision,
        ),
        watch_stride=watch_stride,
        flight_stride=flight_stride,
        flight_capacity=flight_capacity,
    ).build()
    mode = policy if workload == "clamr" else precision
    result = built.simulation(mode, scheme=scheme, telemetry=tel).run(steps)
    record = record_from_run(workload, result, tel, built.identity(), seed=seed, label=tel.label)
    return record, tel
