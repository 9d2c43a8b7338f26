"""Build, run, validate, fingerprint and gate workloads and scenarios.

:func:`build_config` is the one decoder of a workload request —
(workload, size knobs, scenario) → config dataclass, scenario hooks and
identity payload (:class:`WorkloadConfig`).  Every door that starts a
run (the CLI commands, the ledger runner, the sweep service's job specs,
the harness sweeps, the resilience campaign, the divergence recorder)
goes through it.  On top of it, the one place that knows how to turn a
:class:`Scenario` into a live simulation and back into evidence:

* :func:`run_scenario` — build the family driver with the scenario's
  hooks and advance it one scale's worth of steps.
* :func:`validate_scenario` — run, then apply the scenario's acceptance
  checks (the physics contract).
* :func:`record_scenario` — run under telemetry and mint a ledger
  :class:`~repro.ledger.record.RunRecord` whose config carries the
  scenario name, so every scenario owns a distinct ``workload_key``.
* :func:`gate_scenarios` — re-run each scenario and compare its fresh
  identity + bitwise conservation digests against the committed golden
  records; any drift (or a missing golden) fails the gate.

Golden comparisons use only machine-independent fields: the
``workload_key`` (workload identity) and the ``conservation_*_hex``
digests (bitwise fidelity).  Fingerprints proper include the machine
spec and git sha and are deliberately *not* gated on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.scenarios.registry import Scenario, get_scenario, scenario_names

if TYPE_CHECKING:  # the harness package imports this module's builder
    from repro.harness.paper import ShapeCheck

__all__ = [
    "GOLDEN_SCALE",
    "ScenarioRun",
    "WorkloadConfig",
    "build_config",
    "build_simulation",
    "run_scenario",
    "validate_scenario",
    "record_scenario",
    "load_golden_records",
    "gate_scenarios",
    "self_precision_of",
]

#: The scale golden ledger records are minted at (and gated against).
GOLDEN_SCALE = "quick"


def self_precision_of(policy: str) -> str:
    """Map a CLAMR-style policy name onto SELF's single/double axis."""
    return "single" if policy in ("min", "single", "half", "mixed") else "double"


@dataclass(frozen=True)
class WorkloadConfig:
    """One decoded workload request: config, scenario hooks, identity.

    ``scenario`` is the registered case's *name* ("" for the workload's
    seed case); its hooks are looked up when a driver is built, so a
    ``WorkloadConfig`` pickles into sweep workers by value.
    """

    workload: str
    config: Any
    scenario: str = ""

    @property
    def hooks(self) -> dict:
        """The scenario's driver hooks (``ic``, CLAMR ``bathymetry``)."""
        if not self.scenario:
            return {}
        sc = get_scenario(self.scenario)
        if self.workload == "clamr":
            return {"ic": sc.ic, "bathymetry": sc.bathymetry}
        return {"ic": sc.ic}

    def identity(self) -> dict:
        """The config payload a run record hashes: the scenario name joins it."""
        from dataclasses import asdict

        cfg = asdict(self.config)
        if self.scenario:
            cfg["scenario"] = self.scenario
        return cfg

    def simulation(
        self,
        mode: str,
        *,
        scheme: str | None = None,
        vectorized: bool = True,
        telemetry=None,
    ):
        """A ready-to-run driver: ``mode`` is the CLAMR policy or SELF precision.

        ``scheme`` defaults to the scenario's (else Rusanov); SELF has no
        flux scheme or scalar path, so it ignores both knobs.
        """
        if self.workload == "clamr":
            from repro.clamr import ClamrSimulation

            if scheme is None:
                scheme = get_scenario(self.scenario).scheme if self.scenario else "rusanov"
            return ClamrSimulation(
                self.config, policy=mode, vectorized=vectorized, scheme=scheme,
                telemetry=telemetry, **self.hooks,
            )
        from repro.self_ import SelfSimulation

        return SelfSimulation(self.config, precision=mode, telemetry=telemetry, **self.hooks)


def build_config(
    workload: str,
    *,
    scenario: str = "",
    nx: int | None = None,
    max_level: int | None = None,
    elems: int | None = None,
    order: int | None = None,
    **fields: Any,
) -> WorkloadConfig:
    """Decode a workload request into its :class:`WorkloadConfig`.

    The size knobs of ``workload``'s family apply (``nx`` sets both CLAMR
    axes, ``elems`` all three SELF axes); the other family's knobs are
    ignored and a knob left ``None`` keeps the config dataclass default.
    ``fields`` set further config fields.  A registered ``scenario``'s
    config overrides apply last; a scenario of the other family is
    refused.
    """
    if workload == "clamr":
        from repro.clamr import DamBreakConfig as config_type

        knobs = {"nx": nx, "ny": nx, "max_level": max_level}
    elif workload == "self":
        from repro.self_ import ThermalBubbleConfig as config_type

        knobs = {"nex": elems, "ney": elems, "nez": elems, "order": order}
    else:
        raise ValueError(f"unknown workload {workload!r}; use 'clamr' or 'self'")
    kwargs = {key: value for key, value in knobs.items() if value is not None}
    kwargs.update(fields)
    if scenario:
        sc = get_scenario(scenario)
        if sc.family != workload:
            raise ValueError(
                f"scenario {scenario!r} belongs to workload {sc.family!r}, not {workload!r}"
            )
        kwargs.update(sc.config)
    return WorkloadConfig(workload, config_type(**kwargs), scenario)


@dataclass
class ScenarioRun:
    """One executed scenario: everything acceptance checks need."""

    scenario: Scenario
    scale: str
    policy: str
    config: Any
    steps: int
    sim: Any
    result: Any


def _resolve(scenario: str | Scenario) -> Scenario:
    return scenario if isinstance(scenario, Scenario) else get_scenario(scenario)


def build_simulation(
    scenario: str | Scenario,
    scale: str = GOLDEN_SCALE,
    policy: str | None = None,
    telemetry=None,
    vectorized: bool = True,
):
    """A ready-to-run driver with the scenario's hooks installed."""
    sc = _resolve(scenario)
    policy = policy or sc.fingerprint_policy
    size = sc.scale(scale)
    built = build_config(
        sc.family, scenario=sc.name, nx=size.get("nx"), elems=size.get("elems"),
        order=size.get("order"),
    )
    mode = policy if sc.family == "clamr" else self_precision_of(policy)
    sim = built.simulation(mode, vectorized=vectorized, telemetry=telemetry)
    return sim, built.config, int(size["steps"]), policy


def run_scenario(
    scenario: str | Scenario,
    scale: str = GOLDEN_SCALE,
    policy: str | None = None,
    telemetry=None,
    vectorized: bool = True,
) -> ScenarioRun:
    sc = _resolve(scenario)
    sim, cfg, steps, policy = build_simulation(
        sc, scale=scale, policy=policy, telemetry=telemetry, vectorized=vectorized
    )
    return ScenarioRun(
        scenario=sc, scale=scale, policy=policy, config=cfg, steps=steps, sim=sim,
        result=sim.run(steps),
    )


def validate_scenario(
    scenario: str | Scenario,
    scale: str = GOLDEN_SCALE,
    policy: str | None = None,
    vectorized: bool = True,
) -> tuple[ScenarioRun, list[ShapeCheck]]:
    """Run the scenario and apply its acceptance contract."""
    run = run_scenario(scenario, scale=scale, policy=policy, vectorized=vectorized)
    acceptance = run.scenario.acceptance
    checks = list(acceptance(run)) if acceptance is not None else []
    return run, checks


def record_scenario(
    scenario: str | Scenario,
    scale: str = GOLDEN_SCALE,
    policy: str | None = None,
    seed: int = 0,
):
    """Run under telemetry and reduce to a ledger record.

    The scenario name joins the config payload, so the ``workload_key``
    of e.g. ``clamr/lake-at-rest`` can never collide with the seed dam
    break at the same grid size.  (The scale itself is not part of the
    identity — the sizes it resolves to already are.)
    """
    from repro.ledger.record import record_from_run
    from repro.parallel.executor import TelemetrySpec

    sc = _resolve(scenario)
    label = f"scenario/{sc.name}/{scale}"
    tel = TelemetrySpec(label=label).build()
    run = run_scenario(sc, scale=scale, policy=policy, telemetry=tel)
    identity = WorkloadConfig(sc.family, run.config, sc.name).identity()
    return record_from_run(sc.family, run.result, tel, identity, seed=seed, label=label)


#: Machine-independent fidelity digests gated bitwise against the goldens.
_GOLDEN_HEXES = ("conservation_first_hex", "conservation_last_hex")


def load_golden_records(path) -> dict[str, Any]:
    """Scenario-name → committed golden record, from a ledger jsonl file."""
    from repro.ledger.record import RunRecord

    goldens: dict[str, Any] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = RunRecord.from_json(line)
            name = record.config.get("scenario")
            if name:
                # last record per scenario wins, matching ledger append semantics
                goldens[name] = record
    return goldens


def gate_scenarios(
    baseline_path,
    names: Iterable[str] | None = None,
    scale: str = GOLDEN_SCALE,
) -> list[ShapeCheck]:
    """Fresh-run every scenario and diff identity + fidelity vs the goldens."""
    from repro.harness.paper import ShapeCheck

    goldens = load_golden_records(baseline_path)
    out: list[ShapeCheck] = []
    for name in names if names is not None else scenario_names():
        golden = goldens.get(name)
        if golden is None:
            out.append(
                ShapeCheck(
                    name=f"{name}/golden",
                    claim="a committed golden record exists",
                    passed=False,
                    evidence=f"no golden record for {name!r} in {baseline_path}",
                )
            )
            continue
        fresh = record_scenario(name, scale=scale)
        identity_ok = fresh.workload_key == golden.workload_key
        out.append(
            ShapeCheck(
                name=f"{name}/identity",
                claim="workload identity matches the committed golden",
                passed=identity_ok,
                evidence=f"fresh {fresh.workload_key} vs golden {golden.workload_key}",
            )
        )
        for key in _GOLDEN_HEXES:
            fresh_hex = fresh.fidelity.get(key)
            golden_hex = golden.fidelity.get(key)
            out.append(
                ShapeCheck(
                    name=f"{name}/{key.replace('_hex', '')}",
                    claim="conservation digest is bit-identical to the golden",
                    passed=fresh_hex == golden_hex,
                    evidence=f"fresh {fresh_hex} vs golden {golden_hex}",
                )
            )
    return out
