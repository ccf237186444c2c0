"""Scenario presets and the scenario runner.

Each preset is a list of cells, one ensemble each, behind one reference
experiment:

- fig1: free market baseline (q=0), 600 sweeps.
- fig2/fig3/fig4: egalitarian / low-tech / medium-tech rescue policies over
  q in {0.3, 0.9, 0.99}, 600 sweeps.
- fig5: catch-up time vs q curve on a dense grid, 3000 sweeps, with the
  caller's policy and the passive variant.
- fig6: passive vs active post-rescue variants at q=0.99, 2000 sweeps.
- fig7: active-variant firm count at q=0.99, 2000 sweeps.
- custom: a single ensemble from the resolved parameters.

Presets force q, variant and (except fig5) policy per cell and keep an
explicitly set tmax; every scenario runs the caller's replica count. All
cells run through one loop, optionally streaming each cell's event log; only
the emitted CSVs depend on the kind: one time series per cell, or one
catch-up curve over all cells.

Cells without an event log go through the process's ensemble store
(``ensemble.stored_ensemble``), so scenarios run in one process share
trajectories. With the same seed and replicas, and fig5 at its default
egalitarian policy, fig1 and fig2 seed the fig5 cells at the same q, fig6's
passive cell is a prefix of fig5's q=0.99 cell, and fig7 is fig6's active
cell. A cell with an event log always simulates. Each scenario call starts
at most one process pool, when its first cell simulates with jobs > 1, and
reaps its workers before it returns or raises.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from . import __version__, compiled
from .dynamics import ROW_BYTES
from .ensemble import (
    EnsembleStats,
    LazyPool,
    aggregate,
    run_trajectories,
    stored_ensemble,
    tc_curve,
)
from .output import (
    atomic_write,
    emit_run_metadata,
    emit_tc_curve_csv,
    emit_timeseries_csv,
)
from .errors import ConfigError
from .params import PolicyKind, SimParams, VariantKind

if TYPE_CHECKING:  # config imports this module to check scenario names
    from .config import RunControls

EGAL = PolicyKind.EGALITARIAN
PASSIVE = VariantKind.PASSIVE_AFTER_RESCUE
ACTIVE = VariantKind.ACTIVE_AFTER_RESCUE

#: q grid for the catch-up time curve; dense tail near 1 where the time
#: diverges.
TC_Q_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


@dataclass(frozen=True)
class CellSpec:
    q: float
    policy: PolicyKind | None      # None keeps the caller's policy
    variant: VariantKind


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str                      # "timeseries" or "tc_curve"
    t_max: int
    cells: tuple[CellSpec, ...]


def _policy_sweep(policy: PolicyKind) -> tuple[CellSpec, ...]:
    return tuple(CellSpec(q, policy, PASSIVE) for q in (0.3, 0.9, 0.99))


SCENARIOS: dict[str, ScenarioSpec] = {
    "fig1": ScenarioSpec("timeseries", 600,
                         cells=(CellSpec(0.0, EGAL, PASSIVE),)),
    "fig2": ScenarioSpec("timeseries", 600, cells=_policy_sweep(EGAL)),
    "fig3": ScenarioSpec("timeseries", 600,
                         cells=_policy_sweep(PolicyKind.LOW_TECH)),
    "fig4": ScenarioSpec("timeseries", 600,
                         cells=_policy_sweep(PolicyKind.MEDIUM_TECH)),
    "fig5": ScenarioSpec("tc_curve", 3000,
                         cells=tuple(CellSpec(q, None, PASSIVE)
                                     for q in TC_Q_GRID)),
    "fig6": ScenarioSpec("timeseries", 2000,
                         cells=(CellSpec(0.99, EGAL, PASSIVE),
                                CellSpec(0.99, EGAL, ACTIVE))),
    "fig7": ScenarioSpec("timeseries", 2000,
                         cells=(CellSpec(0.99, EGAL, ACTIVE),)),
}


@dataclass(slots=True)
class ScenarioResult:
    written: list[Path]
    max_renorm_error: float


def _cell_label(params: SimParams) -> str:
    return f"q{params.q:g}_{params.policy.value}_{params.variant.value}"


def resolve_cells(name: str, base: SimParams,
                  controls: RunControls) -> list[tuple[str, SimParams]]:
    """Concrete (label, params) cells for a scenario."""
    if name == "custom":
        return [(_cell_label(base), base)]
    spec = SCENARIOS[name]
    t_max = base.t_max if "tmax" in controls.explicit else spec.t_max
    cells = [
        replace(base, q=cell.q, variant=cell.variant, t_max=t_max,
                policy=base.policy if cell.policy is None else cell.policy)
        for cell in spec.cells
    ]
    return [(_cell_label(p), p) for p in cells]


def run_scenario(name: str, base: SimParams, controls: RunControls,
                 ) -> ScenarioResult:
    """Run every ensemble of a scenario and write its CSVs plus one
    metadata record into the output directory; with ``controls.events``,
    each cell's event log is streamed to its JSONL file replica by replica.

    The metadata records the caller's parameters with the resolved tmax, so
    feeding it back as a config file reruns the scenario exactly."""
    cells = resolve_cells(name, base, controls)
    replicas = controls.replicas
    # a cell's trajectories are all held at once until they are aggregated
    t_max = cells[0][1].t_max
    need = replicas * (t_max + 1) * ROW_BYTES
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"replicas={replicas} and tmax={t_max} need {need / 2**30:,.1f} "
            f"GiB of trajectories, more than the {have / 2**30:,.1f} GiB of "
            f"physical memory")
    kind = "timeseries" if name == "custom" else SCENARIOS[name].kind
    out_dir = Path(controls.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def run_cells(pool: LazyPool) -> Iterator[EnsembleStats]:
        for label, cell_params in cells:
            if controls.events:
                log_path = out_dir / f"{name}_{label}_events.jsonl"
                with atomic_write(log_path) as event_log:
                    stats = aggregate(run_trajectories(
                        cell_params, replicas, pool, event_log))
            else:
                stats = stored_ensemble(cell_params, replicas, pool)
            if kind == "timeseries":
                written.append(emit_timeseries_csv(
                    stats, out_dir / f"{name}_{label}.csv"))
            if controls.events:
                written.append(log_path)
            yield stats

    # one cell's time series at a time: the curve keeps only its scalars
    with LazyPool(controls.jobs) as pool:
        curve = tc_curve([p.q for _, p in cells], run_cells(pool))
    notes: list[str] = []
    if kind == "tc_curve":
        written.append(emit_tc_curve_csv(curve, out_dir / f"{name}_tc_curve.csv"))
        notes.append("cells: q grid " + ",".join(f"{q:g}" for q in curve.q))
        notes.extend(f"tc_of_mean[q={q:g}]={'none' if tc is None else tc}"
                     for q, tc in zip(curve.q, curve.tc_of_mean))
    else:
        if name != "custom":
            notes.append("preset cells override q/policy/variant below:")
            notes.extend(f"cell {label}" for label, _ in cells)
        notes.extend(
            f"{label}: tc_of_mean={'none' if tc is None else tc} "
            f"tc_mean={tc_mean:g} fraction_reached={fraction:g}"
            for (label, _), tc, tc_mean, fraction in zip(
                cells, curve.tc_of_mean, curve.tc_mean, curve.fraction_reached))
    notes.append(f"kernel={compiled.kernel().note}")
    written.append(emit_run_metadata(
        out_dir / f"{name}_metadata.txt",
        replace(base, t_max=t_max), name, replicas, __version__,
        curve.max_renorm_error, notes))
    return ScenarioResult(written, curve.max_renorm_error)
