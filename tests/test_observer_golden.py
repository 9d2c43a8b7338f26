"""What the drivers' observers record, pinned against committed values.

Both mini-apps feed three per-step observers: the state-hash ladder
(sites and fields, in order), the flight recorder (signals, in order)
and the numerics watch (events).  Re-run determinism tests compare a run
with itself, so a reordered site, a renamed field or a dropped signal
would still pass them; these goldens do not.  The values are bitwise:
regenerate them only for an intended change to what is observed, with::

    PYTHONPATH=src python tests/test_observer_golden.py
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.diverge.ladder import StateHashLadder
from repro.scenarios.runner import build_config
from repro.telemetry import Telemetry
from repro.telemetry.flight import FlightRecorder

SIGNALS = [
    "dt", "cfl", "ncells", "state_bits", "compute_bits", "cancellation_digits",
    "conservation_drift", "headroom_bits", "subnormal_fraction", "nan_count",
    "inf_count",
]


def _seed_faults(sim) -> None:
    """Float32-subnormal velocities and one near-overflow cell, so the watch fires."""
    sim.state.U[:] = 1e-39
    sim.state.V[:] = 1e-39
    sim.state.V[7] = 1e37


#: name -> (workload, mode, steps, build_config kwargs, simulation kwargs, seed faults)
RUNS = {
    "clamr-rusanov": ("clamr", "mixed", 12, {"nx": 12, "max_level": 1}, {}, False),
    "clamr-muscl-breach": (
        "clamr", "min", 12,
        {"scenario": "clamr/partial-breach", "nx": 12}, {"scheme": "muscl"}, False,
    ),
    "self": ("self", "single", 6, {"elems": 2, "order": 2}, {}, False),
    "clamr-rusanov-faulted": ("clamr", "mixed", 12, {"nx": 12, "max_level": 1}, {}, True),
}

GOLDEN = {
    "clamr-rusanov": {
        "root": "2e7f0e3bce0a63c6",
        "flight_hash": "e82c5c9ed70131f9",
        "signals": SIGNALS,
        "events": [],
    },
    "clamr-muscl-breach": {
        "root": "54e64e705cdd0c59",
        "flight_hash": "deb0090e0b53a2c7",
        "signals": SIGNALS,
        "events": [],
    },
    "self": {
        "root": "858976046f14e2fd",
        "flight_hash": "bc74babf652448c3",
        "signals": SIGNALS,
        "events": [],
    },
    # Steps 4, 8 and 12 regrid.  The watch scans the state a step ends
    # with, after its regrid: the same arrays the flight samples, so the
    # step-4 subnormal fractions equal the flight's subnormal_fraction.
    "clamr-rusanov-faulted": {
        "root": "37edc4b8db249f24",
        "flight_hash": "303267954dac5d8a",
        "signals": SIGNALS,
        "events": [
            (2, 'overflow_risk', 'V', '1.7642026243336275'),
            (2, 'subnormal', 'U', '0.5833333333333334'),
            (2, 'subnormal', 'V', '0.5643939393939394'),
            (4, 'overflow_risk', 'V', '1.8301831555091752'),
            (4, 'subnormal', 'U', '0.4948453608247423'),
            (4, 'subnormal', 'V', '0.422680412371134'),
            (6, 'overflow_risk', 'V', '1.8149938569730892'),
            (6, 'subnormal', 'U', '0.44329896907216493'),
            (6, 'subnormal', 'V', '0.41924398625429554'),
            (8, 'overflow_risk', 'V', '1.793486614904971'),
            (8, 'subnormal', 'U', '0.4329896907216495'),
            (8, 'subnormal', 'V', '0.41580756013745707'),
            (10, 'overflow_risk', 'V', '1.779665888027175'),
            (10, 'subnormal', 'U', '0.422680412371134'),
            (10, 'subnormal', 'V', '0.4020618556701031'),
            (12, 'overflow_risk', 'V', '1.7815120532319355'),
            (12, 'subnormal', 'U', '0.40893470790378006'),
            (12, 'subnormal', 'V', '0.38831615120274915'),
        ],
    },
}


def observe(name: str) -> dict:
    """Run one pinned case with ladder, flight and watch all at stride 2."""
    workload, mode, steps, config_kwargs, sim_kwargs, faulted = RUNS[name]
    tel = Telemetry(
        label=name,
        watch_stride=2,
        flight=FlightRecorder(stride=2, label=name),
        ladder=StateHashLadder(stride=2, label=name),
    )
    sim = build_config(workload, **config_kwargs).simulation(mode, telemetry=tel, **sim_kwargs)
    if faulted:
        _seed_faults(sim)
    with np.errstate(all="ignore"):
        sim.run(steps)
    return {
        "root": tel.ladder.root(),
        "flight_hash": tel.flight.digest()["hash"],
        "signals": tel.flight.signal_names,
        # sorted: pins which events fire with which values, not how the
        # field scans and the mass sum's cancellation check interleave
        "events": sorted(
            (e.step, e.kind, e.array, repr(e.value)) for e in tel.numerics.events
        ),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_observer_output_matches_golden(name):
    assert observe(name) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import json

    print(json.dumps({name: observe(name) for name in RUNS}, indent=2))
