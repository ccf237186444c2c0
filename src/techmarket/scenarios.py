"""Scenario presets and the scenario runner.

Each preset bundles the ensembles behind one reference experiment:

- fig1: free market baseline (q=0), 600 sweeps.
- fig2/fig3/fig4: egalitarian / low-tech / medium-tech rescue policies over
  q in {0.3, 0.9, 0.99}, 600 sweeps.
- fig5: catch-up time vs q curve on a dense grid, 3000 sweeps.
- fig6: passive vs active post-rescue variants at q=0.99, 2000 sweeps.
- fig7: active-variant firm count at q=0.99, 2000 sweeps.
- custom: a single ensemble from the resolved parameters.

Presets force q, policy, and variant per cell; explicitly set tmax and
replicas are honored, otherwise the preset's values apply (400 replicas).
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from . import __version__
from .config import RunControls
from .errors import ConfigError
from .ensemble import (
    EnsembleStats,
    aggregate,
    run_trajectories,
    tc_vs_q,
)
from .output import (
    atomic_write,
    emit_run_metadata,
    emit_tc_curve_csv,
    emit_timeseries_csv,
)
from .params import PolicyKind, SimParams, VariantKind

EGAL = PolicyKind.EGALITARIAN
PASSIVE = VariantKind.PASSIVE_AFTER_RESCUE
ACTIVE = VariantKind.ACTIVE_AFTER_RESCUE

#: q grid for the catch-up time curve; dense tail near 1 where the time
#: diverges.
TC_Q_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


@dataclass(frozen=True)
class CellSpec:
    q: float
    policy: PolicyKind
    variant: VariantKind

    @property
    def label(self) -> str:
        return f"q{self.q:g}_{self.policy.value}_{self.variant.value}"


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    kind: str                      # "timeseries" or "tc_curve"
    t_max: int
    cells: tuple[CellSpec, ...] = ()
    q_grid: tuple[float, ...] = ()
    replicas: int = 400


def _policy_sweep(policy: PolicyKind) -> tuple[CellSpec, ...]:
    return tuple(CellSpec(q, policy, PASSIVE) for q in (0.3, 0.9, 0.99))


SCENARIOS: dict[str, ScenarioSpec] = {
    "fig1": ScenarioSpec("fig1", "timeseries", 600,
                         cells=(CellSpec(0.0, EGAL, PASSIVE),)),
    "fig2": ScenarioSpec("fig2", "timeseries", 600, cells=_policy_sweep(EGAL)),
    "fig3": ScenarioSpec("fig3", "timeseries", 600,
                         cells=_policy_sweep(PolicyKind.LOW_TECH)),
    "fig4": ScenarioSpec("fig4", "timeseries", 600,
                         cells=_policy_sweep(PolicyKind.MEDIUM_TECH)),
    "fig5": ScenarioSpec("fig5", "tc_curve", 3000, q_grid=TC_Q_GRID),
    "fig6": ScenarioSpec("fig6", "timeseries", 2000,
                         cells=(CellSpec(0.99, EGAL, PASSIVE),
                                CellSpec(0.99, EGAL, ACTIVE))),
    "fig7": ScenarioSpec("fig7", "timeseries", 2000,
                         cells=(CellSpec(0.99, EGAL, ACTIVE),)),
}


@dataclass(slots=True)
class ScenarioResult:
    name: str
    written: list[Path]
    max_renorm_error: float


def resolve_cells(name: str, base: SimParams,
                  controls: RunControls) -> tuple[list[tuple[str, SimParams]], int]:
    """Concrete (label, params) cells for a scenario plus the replica count."""
    if name == "custom":
        cell = CellSpec(base.q, base.policy, base.variant)
        return [(cell.label, base)], controls.replicas
    spec = SCENARIOS[name]
    t_max = base.t_max if "tmax" in controls.explicit else spec.t_max
    replicas = controls.replicas if "replicas" in controls.explicit else spec.replicas
    cells = [
        (cell.label,
         replace(base, q=cell.q, policy=cell.policy, variant=cell.variant,
                 t_max=t_max))
        for cell in spec.cells
    ]
    return cells, replicas


def run_scenario(name: str, base: SimParams, controls: RunControls,
                 ) -> ScenarioResult:
    """Run every ensemble of a scenario and write its CSVs plus one
    metadata record into the output directory; with ``controls.events``,
    each cell's event log is streamed to its JSONL file replica by replica."""
    if name == "fig5" and controls.events:
        raise ConfigError(
            "events (--events) is not supported by fig5, whose q-grid "
            "ensembles keep no per-replica event lists")
    out_dir = Path(controls.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    notes: list[str] = []
    max_err = 0.0

    if name == "fig5":
        spec = SCENARIOS[name]
        t_max = base.t_max if "tmax" in controls.explicit else spec.t_max
        replicas = (controls.replicas if "replicas" in controls.explicit
                    else spec.replicas)
        curve_params = replace(base, t_max=t_max)
        curve = tc_vs_q(curve_params, spec.q_grid, replicas, jobs=controls.jobs)
        written.append(emit_tc_curve_csv(curve, out_dir / "fig5_tc_curve.csv"))
        notes.append("cells: q grid " + ",".join(f"{q:g}" for q in curve.q))
        notes.extend(
            f"tc_of_mean[q={q:g}]="
            + ("none" if tc is None else str(tc))
            for q, tc in zip(curve.q, curve.tc_of_mean))
        meta_params = replace(curve_params,
                              variant=VariantKind.PASSIVE_AFTER_RESCUE)
        written.append(emit_run_metadata(
            out_dir / "fig5_metadata.txt", meta_params, name, replicas,
            __version__, curve.max_renorm_error, notes))
        return ScenarioResult(name, written, curve.max_renorm_error)

    cells, replicas = resolve_cells(name, base, controls)
    if name != "custom":
        notes.append("preset cells override q/policy/variant below:")
        notes.extend(f"cell {label}" for label, _ in cells)
    for label, cell_params in cells:
        log_path = out_dir / f"{name}_{label}_events.jsonl"
        with (atomic_write(log_path) if controls.events
              else nullcontext()) as event_log:
            trajectories = run_trajectories(
                cell_params, replicas, jobs=controls.jobs, event_log=event_log)
        stats: EnsembleStats = aggregate(trajectories)
        max_err = max(max_err, stats.max_renorm_error)
        written.append(emit_timeseries_csv(
            stats, out_dir / f"{name}_{label}.csv"))
        if controls.events:
            written.append(log_path)
        tc = stats.tc_of_mean
        notes.append(
            f"{label}: tc_of_mean={'none' if tc is None else tc} "
            f"tc_mean={stats.tc_mean:g} fraction_reached={stats.fraction_reached:g}")
    written.append(emit_run_metadata(
        out_dir / f"{name}_metadata.txt", cells[0][1] if name == "custom" else base,
        name, replicas, __version__, max_err, notes))
    return ScenarioResult(name, written, max_err)
