"""Replica orchestration, deterministic seeding, and ensemble statistics.

A replica is one full simulation of the market for t_max sweeps; an ensemble
is n_replicas of them run from seeds derived as ``derive_seed(base_seed, k)``
for replica k. Replicas are independent, so they may run serially or on a
process pool; the aggregated statistics and event logs are identical either
way.

Across-replica spread is reported as the population standard deviation
(divide by n), matching descriptive +-1 SD bands.
"""
from __future__ import annotations

import io
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from .dynamics import EventKind, EventRecord, sweep
from .market import init_market
from .output import emit_event_log
from .params import SimParams
from .rng import derive_seed

#: Threshold the mean technology must reach to end the catch-up phase; the
#: frontier value at t=0.
TC_THRESHOLD = 1.0


@dataclass(slots=True)
class Trajectory:
    """Per-sweep time series of one replica, for t = 0 .. t_max."""

    replica_seed: int
    t: np.ndarray           # sweep index
    n_firms: np.ndarray     # N(t) at sweep start
    mean_tech: np.ndarray   # weighted mean technology at sweep start
    ratio: np.ndarray       # mean_tech / frontier(t)
    rescued: np.ndarray     # rescues fired during sweep t (0 in the last row)
    bankrupted: np.ndarray  # bankruptcies during sweep t (0 in the last row)
    max_renorm_error: float
    events: Optional[list[EventRecord]] = None


@dataclass(slots=True)
class EnsembleStats:
    """Across-replica mean and population SD per sweep, plus catch-up times."""

    n_replicas: int
    t: np.ndarray
    n_mean: np.ndarray
    n_sd: np.ndarray
    a_mean: np.ndarray
    a_sd: np.ndarray
    ratio_mean: np.ndarray
    ratio_sd: np.ndarray
    rescued_sum: np.ndarray     # total rescues per sweep over all replicas
    bankrupted_sum: np.ndarray  # total bankruptcies per sweep over all replicas
    tc_values: np.ndarray       # per-replica crossing sweep (nan if never)
    tc_mean: float              # mean over replicas that crossed (nan if none)
    tc_sd: float                # population SD over replicas that crossed
    fraction_reached: float     # share of replicas that crossed within t_max
    tc_of_mean: Optional[int]   # crossing sweep of the ensemble-mean series
    max_renorm_error: float


@dataclass(slots=True)
class TcCurve:
    """Catch-up time statistics on a grid of intervention probabilities."""

    q: np.ndarray
    tc_mean: np.ndarray
    tc_sd: np.ndarray
    fraction_reached: np.ndarray
    tc_of_mean: list[Optional[int]]
    max_renorm_error: float


def run_replica(params: SimParams, replica_seed: int,
                collect_events: bool = False) -> Trajectory:
    """Simulate one replica for t_max sweeps from the given stream seed.

    N, the mean technology and the mean-to-frontier ratio are recorded at
    the beginning of every sweep, plus one final snapshot at t = t_max.
    """
    rng = random.Random(replica_seed)
    market = init_market(params, rng)
    t_max = params.t_max
    n_arr = np.empty(t_max + 1, dtype=np.int64)
    a_arr = np.empty(t_max + 1, dtype=np.float64)
    r_arr = np.empty(t_max + 1, dtype=np.float64)
    rescued = np.zeros(t_max + 1, dtype=np.int64)
    bankrupted = np.zeros(t_max + 1, dtype=np.int64)
    events: Optional[list[EventRecord]] = [] if collect_events else None
    max_err = 0.0
    for t in range(t_max):
        stats = sweep(market, params, rng, events)
        n_arr[t] = stats.n_firms
        a_arr[t] = stats.mean_tech
        r_arr[t] = stats.ratio
        rescued[t] = stats.rescued
        bankrupted[t] = stats.counts[EventKind.BANKRUPTED]
        if stats.renorm_error > max_err:
            max_err = stats.renorm_error
    market.resync_sums()
    n_arr[t_max] = len(market.firms)
    a_arr[t_max] = market.weighted_sum
    r_arr[t_max] = market.weighted_sum / market.frontier_value
    return Trajectory(
        replica_seed=replica_seed,
        t=np.arange(t_max + 1, dtype=np.int64),
        n_firms=n_arr,
        mean_tech=a_arr,
        ratio=r_arr,
        rescued=rescued,
        bankrupted=bankrupted,
        max_renorm_error=max_err,
        events=events,
    )


def estimate_tc(mean_tech_series: Sequence[float],
                threshold: float = TC_THRESHOLD) -> Optional[int]:
    """First sweep at which the series reaches the threshold, or None."""
    hits = np.nonzero(np.asarray(mean_tech_series) >= threshold)[0]
    return int(hits[0]) if hits.size else None


def replica_seeds(base_seed: int, n_replicas: int) -> list[int]:
    return [derive_seed(base_seed, k) for k in range(n_replicas)]


def _replica_task(args: tuple[SimParams, int, int, bool],
                  ) -> tuple[Trajectory, Optional[str]]:
    """Replica k of an ensemble, plus its event log as JSONL text when
    ``log_events`` is set; the records themselves are not kept."""
    params, k, seed, log_events = args
    trajectory = run_replica(params, seed, log_events)
    if not log_events:
        return trajectory, None
    text = io.StringIO()
    emit_event_log(text, k, trajectory.events)
    trajectory.events = None
    return trajectory, text.getvalue()


def run_trajectories(params: SimParams, n_replicas: int,
                     base_seed: Optional[int] = None, jobs: int = 1,
                     event_log: Optional[TextIO] = None) -> list[Trajectory]:
    """All replica trajectories of an ensemble, ordered by replica index.

    With ``event_log``, each replica renders its events to JSON lines in the
    process that ran it, and the text is written to the stream in replica
    order as soon as that replica and every earlier one have finished. Serial
    and pool runs share one task function and give the same bytes. A
    replica's exception propagates unchanged, with a note naming its seed.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    base = params.seed if base_seed is None else base_seed
    seeds = replica_seeds(base, n_replicas)
    tasks = [(params, k, seed, event_log is not None)
             for k, seed in enumerate(seeds)]
    out = []
    with ExitStack() as stack:
        if jobs <= 1 or n_replicas == 1:
            results = map(_replica_task, tasks)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            results = pool.map(_replica_task, tasks)
        for seed in seeds:
            try:
                trajectory, text = next(results)
            except Exception as exc:
                exc.add_note(f"replica seed {seed}")
                raise
            if text is not None:
                event_log.write(text)
            out.append(trajectory)
    return out


def aggregate(trajectories: Sequence[Trajectory]) -> EnsembleStats:
    """Across-replica mean/SD per sweep; order of the input is fixed by
    replica index, so results do not depend on completion order."""
    n = len(trajectories)
    n_mat = np.vstack([tr.n_firms for tr in trajectories]).astype(np.float64)
    a_mat = np.vstack([tr.mean_tech for tr in trajectories])
    r_mat = np.vstack([tr.ratio for tr in trajectories])
    rescued = np.vstack([tr.rescued for tr in trajectories]).sum(axis=0)
    bankrupted = np.vstack([tr.bankrupted for tr in trajectories]).sum(axis=0)
    tc_vals = np.array(
        [float(tc) if (tc := estimate_tc(tr.mean_tech)) is not None else np.nan
         for tr in trajectories])
    crossed = ~np.isnan(tc_vals)
    a_mean = a_mat.mean(axis=0)
    return EnsembleStats(
        n_replicas=n,
        t=trajectories[0].t.copy(),
        n_mean=n_mat.mean(axis=0),
        n_sd=n_mat.std(axis=0),
        a_mean=a_mean,
        a_sd=a_mat.std(axis=0),
        ratio_mean=r_mat.mean(axis=0),
        ratio_sd=r_mat.std(axis=0),
        rescued_sum=rescued,
        bankrupted_sum=bankrupted,
        tc_values=tc_vals,
        tc_mean=float(tc_vals[crossed].mean()) if crossed.any() else float("nan"),
        tc_sd=float(tc_vals[crossed].std()) if crossed.any() else float("nan"),
        fraction_reached=float(crossed.mean()),
        tc_of_mean=estimate_tc(a_mean),
        max_renorm_error=max(tr.max_renorm_error for tr in trajectories),
    )


def run_ensemble(params: SimParams, n_replicas: int,
                 base_seed: Optional[int] = None, jobs: int = 1) -> EnsembleStats:
    """Run an ensemble and aggregate it; base_seed defaults to params.seed."""
    return aggregate(run_trajectories(params, n_replicas, base_seed, jobs))


def tc_curve(q_values: Sequence[float],
             ensembles: Iterable[EnsembleStats]) -> TcCurve:
    """Catch-up time statistics of ensembles run at the given q values,
    one ensemble per q, in the order given. ``ensembles`` is read once and
    only its scalar statistics are kept, so it may be a generator that
    produces one ensemble at a time."""
    rows = [(st.tc_mean, st.tc_sd, st.fraction_reached, st.tc_of_mean,
             st.max_renorm_error) for st in ensembles]
    tc_mean, tc_sd, fraction, tc_of_mean, errors = zip(*rows)
    return TcCurve(
        q=np.asarray(q_values, dtype=np.float64),
        tc_mean=np.array(tc_mean),
        tc_sd=np.array(tc_sd),
        fraction_reached=np.array(fraction),
        tc_of_mean=list(tc_of_mean),
        max_renorm_error=max(errors),
    )
