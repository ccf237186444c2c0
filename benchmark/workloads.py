"""The benchmark's workloads: what each round runs and what it must write.

A round is one pass over a workload's operations. An operation is one
``run_scenario`` call, the unit a user starts with one ``techmarket``
command. Every model constant the output checks rely on is passed
explicitly, so the inputs do not depend on the package's defaults.
"""
from __future__ import annotations

from dataclasses import dataclass

#: Model constants shared by every workload (the package's reference
#: configuration, stated here so that the checks can rely on them).
MODEL = {"sigma": 0.01, "c": 0.8, "lx": 10, "ly": 10}

#: Replicas per ensemble in one round of each workload.
BUNDLE_REPLICAS = 2
DENSE_REPLICAS = 4
EVENT_REPLICAS = 10


@dataclass(frozen=True)
class Op:
    """One ``run_scenario`` call and the files it must write."""

    scenario: str
    flags: tuple[tuple[str, object], ...]  # resolve_config flags besides seed/out/jobs
    replicas: int
    t_max: int
    cells: int                             # ensembles the call runs
    series: tuple[str, ...] = ()           # time-series CSVs it writes
    curves: tuple[str, ...] = ()           # catch-up curve CSVs it writes
    events: tuple[str, ...] = ()           # JSONL event logs it writes

    @property
    def replica_sweeps(self) -> int:
        return self.replicas * self.t_max * self.cells


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    ops: tuple[Op, ...]

    @property
    def replica_sweeps(self) -> int:
        return sum(op.replica_sweeps for op in self.ops)


def _preset(name: str, t_max: int, cells: int, series: tuple[str, ...] = (),
            curves: tuple[str, ...] = ()) -> Op:
    return Op(name, (("scenario", name), ("replicas", BUNDLE_REPLICAS)),
              BUNDLE_REPLICAS, t_max, cells,
              series=tuple(f"{name}_{label}.csv" for label in series),
              curves=curves)


def _policy_cells(policy: str) -> tuple[str, ...]:
    return tuple(f"q{q}_{policy}_passive" for q in ("0.3", "0.9", "0.99"))


WORKLOADS = {
    w.name: w for w in (
        Workload("bundle", 2, (
            _preset("fig1", 600, 1, ("q0_egalitarian_passive",)),
            _preset("fig2", 600, 3, _policy_cells("egalitarian")),
            _preset("fig3", 600, 3, _policy_cells("lowtech")),
            _preset("fig4", 600, 3, _policy_cells("mediumtech")),
            _preset("fig5", 3000, 12, curves=("fig5_tc_curve.csv",)),
            _preset("fig6", 2000, 2, ("q0.99_egalitarian_passive",
                                      "q0.99_egalitarian_active")),
            _preset("fig7", 2000, 1, ("q0.99_egalitarian_active",)),
        )),
        Workload("dense-active", 2, (
            Op("custom", (("q", 0.99), ("policy", "egalitarian"),
                          ("variant", "active"), ("tmax", 2000),
                          ("replicas", DENSE_REPLICAS)),
               DENSE_REPLICAS, 2000, 1,
               series=("custom_q0.99_egalitarian_active.csv",)),
        )),
        Workload("event-log", 1, (
            Op("custom", (("q", 0.9), ("policy", "mediumtech"),
                          ("variant", "passive"), ("tmax", 600),
                          ("replicas", EVENT_REPLICAS), ("events", True)),
               EVENT_REPLICAS, 600, 1,
               series=("custom_q0.9_mediumtech_passive.csv",),
               events=("custom_q0.9_mediumtech_passive_events.jsonl",)),
        )),
    )
}


def op_flags(op: Op, seed: int, jobs: int, out: str) -> dict[str, object]:
    """The flag dict ``resolve_config`` receives for one operation."""
    flags = dict(MODEL)
    flags.update(op.flags)
    flags.update(seed=seed, jobs=jobs, out=out)
    return {key: str(value) for key, value in flags.items()}
