"""The scenario runner: one ensemble per cell of a preset or custom run.

The presets (``params.SCENARIOS``) fix each cell's q, variant and (except
fig5) policy behind one reference experiment:

- fig1: free market baseline (q=0), 600 sweeps.
- fig2/fig3/fig4: egalitarian / low-tech / medium-tech rescue policies over
  q in {0.3, 0.9, 0.99}, 600 sweeps.
- fig5: catch-up time vs q curve on a dense grid, 3000 sweeps, with the
  caller's policy and the passive variant.
- fig6: passive vs active post-rescue variants at q=0.99, 2000 sweeps.
- fig7: active-variant firm count at q=0.99, 2000 sweeps.
- custom: a single ensemble from the resolved parameters.

Presets keep an explicitly set tmax; every scenario runs the caller's
replica count. ``run_scenario`` runs the cells in one loop, optionally
streaming each cell's event log. A finished cell writes its time-series CSV,
or adds its row to the catch-up curve that fig5 writes after its last cell,
and adds its note to the metadata.

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

from . import __version__, compiled
from .config import RunControls
from .dynamics import ROW_BYTES
from .ensemble import LazyPool, aggregate, run_trajectories, stored_ensemble
from .errors import ConfigError
from .output import (
    atomic_write,
    emit_run_metadata,
    emit_tc_curve_csv,
    emit_timeseries_csv,
)
from .params import SCENARIOS, SimParams


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
    curve = name != "custom" and SCENARIOS[name].kind == "tc_curve"
    out_dir = Path(controls.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    curve_rows: list[tuple[float, float, float, float]] = []
    max_renorm_error = 0.0
    if curve:
        notes = ["cells: q grid " + ",".join(f"{p.q:g}" for _, p in cells)]
    elif name != "custom":
        notes = ["preset cells override q/policy/variant below:",
                 *(f"cell {label}" for label, _ in cells)]
    else:
        notes = []
    with LazyPool(controls.jobs) as pool:
        for label, cell_params in cells:
            if controls.events:
                log_path = out_dir / f"{name}_{label}_events.jsonl"
                with atomic_write(log_path) as event_log:
                    stats = aggregate(run_trajectories(
                        cell_params, replicas, pool, event_log))
            else:
                stats = stored_ensemble(cell_params, replicas, pool)
            tc = "none" if stats.tc_of_mean is None else stats.tc_of_mean
            if curve:
                q = cell_params.q
                curve_rows.append((q, stats.tc_mean, stats.tc_sd,
                                   stats.fraction_reached))
                notes.append(f"tc_of_mean[q={q:g}]={tc}")
            else:
                written.append(emit_timeseries_csv(
                    stats, out_dir / f"{name}_{label}.csv"))
                notes.append(f"{label}: tc_of_mean={tc} "
                             f"tc_mean={stats.tc_mean:g} "
                             f"fraction_reached={stats.fraction_reached:g}")
            if controls.events:
                written.append(log_path)
            max_renorm_error = max(max_renorm_error, stats.max_renorm_error)
    if curve:
        written.append(emit_tc_curve_csv(
            curve_rows, out_dir / f"{name}_tc_curve.csv"))
    notes.append(f"kernel={compiled.kernel().note}")
    written.append(emit_run_metadata(
        out_dir / f"{name}_metadata.txt",
        replace(base, t_max=t_max), name, replicas, __version__,
        max_renorm_error, notes))
    return ScenarioResult(written, max_renorm_error)
