"""Replica orchestration, deterministic seeding, ensemble statistics, and
the ensemble store.

A replica is one full simulation of the market for t_max sweeps; an ensemble
is n_replicas of them run from seeds derived as ``derive_seed(params.seed,
k)`` for replica k. Replicas are independent, so they may run in the calling
process or on a process pool; the aggregated statistics and event logs are
identical either way. A replica hands back its end state, from which a later
run carries on with exactly the draws and states of one uninterrupted run.
A replica runs all of its sweeps in one call of a kernel entry, the
compiled kernel's when this machine can build it (see ``compiled``) and
the Python kernel's otherwise; both write the same trajectory bits and the
same event rows.

Across-replica spread is reported as the population standard deviation
(divide by n), matching descriptive +-1 SD bands.

The ensemble store (``stored_ensemble``) shares ensembles between the cells
of every scenario run in one process. Per parameter set other than t_max
and per replica count it keeps the aggregates up to the longest horizon run
so far, each replica's first crossing sweep and each replica's pickled end
state. A request up to that horizon is answered by slicing the aggregates:
a column-wise mean or SD over replicas depends only on that sweep's values,
so the slice is bit-identical to a fresh run. A longer request resumes every
replica from its end state and aggregates only the new sweeps. The store
costs memory: about 3.8 kB per replica end state at the n_min floor (the
stream packed into 2.6 kB) and 72 bytes per aggregate row, kept until the
process ends or ``clear_store`` is called.
"""
from __future__ import annotations

import io
import pickle
import random
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence, TextIO

import numpy as np

from . import compiled
from .dynamics import Trajectory, run_sweeps
from .market import init_market
from .output import emit_event_log
from .params import SimParams
from .rng import derive_seed, pack_stream, unpack_stream

#: Threshold the mean technology must reach to end the catch-up phase; the
#: frontier value at t=0.
TC_THRESHOLD = 1.0


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
    renorm_error: np.ndarray    # largest renormalization error per sweep
    tc_values: np.ndarray       # per-replica crossing sweep (nan if never)
    tc_mean: float              # mean over replicas that crossed (nan if none)
    tc_sd: float                # population SD over replicas that crossed
    fraction_reached: float     # share of replicas that crossed within t_max
    tc_of_mean: Optional[int]   # crossing sweep of the ensemble-mean series
    max_renorm_error: float


#: EnsembleStats fields with one value per sweep.
_ROW_FIELDS = ("t", "n_mean", "n_sd", "a_mean", "a_sd", "ratio_mean",
               "ratio_sd", "rescued_sum", "renorm_error")


def run_replica(params: SimParams, replica_seed: int,
                events: Optional[array] = None,
                start: Optional[bytes] = None) -> Trajectory:
    """Simulate one replica up to sweep t_max from the given stream seed,
    or from ``start``, the ``end_state`` of an earlier run of the same
    replica with the same parameters and a horizon of at most t_max.
    Every step's event row is appended to ``events`` when a sink is given.

    The trajectory is allocated here and written by one kernel entry,
    ``compiled.run_sweeps`` when this machine can build the kernel and
    ``dynamics.run_sweeps`` otherwise: a row per sweep from the start
    state on, plus one final snapshot at t = t_max.
    """
    if start is None:
        rng = random.Random(replica_seed)
        market = init_market(params, rng)
    else:
        market, words = pickle.loads(start)
        rng = unpack_stream(words)
    if market.sweep > params.t_max:
        raise ValueError(f"start state at sweep {market.sweep} is past "
                         f"tmax={params.t_max}")
    trajectory = Trajectory.empty(market.sweep, params.t_max)
    lib = compiled.kernel().lib
    if lib is None:
        run_sweeps(market, params, rng, trajectory, events)
    else:
        compiled.run_sweeps(lib, market, params, rng, trajectory, events)
    trajectory.end_state = pickle.dumps((market, pack_stream(rng)),
                                        pickle.HIGHEST_PROTOCOL)
    return trajectory


def estimate_tc(mean_tech_series: Sequence[float],
                threshold: float = TC_THRESHOLD) -> Optional[int]:
    """First sweep at which the series reaches the threshold, or None."""
    hits = np.nonzero(np.asarray(mean_tech_series) >= threshold)[0]
    return int(hits[0]) if hits.size else None


def replica_seeds(base_seed: int, n_replicas: int) -> list[int]:
    return [derive_seed(base_seed, k) for k in range(n_replicas)]


def _replica_task(args: tuple[SimParams, int, int, bool, Optional[bytes]],
                  ) -> tuple[Trajectory, Optional[str]]:
    """Replica k of an ensemble, plus its event log as JSONL text when
    ``log_events`` is set; the rows themselves are not kept."""
    params, k, seed, log_events, start = args
    if not log_events:
        return run_replica(params, seed, None, start), None
    events = array("q")
    trajectory = run_replica(params, seed, events, start)
    text = io.StringIO()
    emit_event_log(text, k, events)
    return trajectory, text.getvalue()


class LazyPool:
    """Up to ``jobs`` worker processes that run the replicas of ensembles.

    ``map`` runs in the calling process when jobs <= 1 or when it is given
    a single task, and never starts a worker then. Otherwise the workers
    start at the first ``map`` call, at most one per task of that call;
    leaving the ``with`` block shuts them down and reaps them, cancelling
    queued tasks when the block raised."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self._executor: Optional[ProcessPoolExecutor] = None

    def map(self, fn: Callable, tasks: Sequence) -> Iterator:
        if self.jobs <= 1 or len(tasks) == 1:
            return map(fn, tasks)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(tasks)))
        return self._executor.map(fn, tasks)

    def __enter__(self) -> LazyPool:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=exc_type is not None)
            self._executor = None


def run_trajectories(params: SimParams, n_replicas: int, pool: LazyPool,
                     event_log: Optional[TextIO] = None,
                     starts: Optional[Sequence[bytes]] = None,
                     ) -> list[Trajectory]:
    """All replica trajectories of an ensemble, ordered by replica index,
    run through ``pool``.

    With ``event_log``, each replica renders its events to JSON lines in the
    process that ran it, and the text is written to the stream in replica
    order as soon as that replica and every earlier one have finished. Runs
    in the calling process and on workers share one task function and give
    the same bytes. A replica's exception propagates unchanged, with a note
    naming its seed.

    ``starts`` gives each replica an end state to resume from.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    compiled.kernel()  # built and loaded here, before any worker forks
    seeds = replica_seeds(params.seed, n_replicas)
    starts = [None] * n_replicas if starts is None else starts
    tasks = [(params, k, seed, event_log is not None, start)
             for k, (seed, start) in enumerate(zip(seeds, starts))]
    results = pool.map(_replica_task, tasks)
    out = []
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
    replica index, so results do not depend on completion order. Crossing
    sweeps count from the trajectories' first row."""
    n_mat = np.vstack([tr.n_firms for tr in trajectories]).astype(np.float64)
    a_mat = np.vstack([tr.mean_tech for tr in trajectories])
    r_mat = np.vstack([tr.ratio for tr in trajectories])
    tc_vals = np.array(
        [float(tc) if (tc := estimate_tc(tr.mean_tech)) is not None else np.nan
         for tr in trajectories])
    return _stats({
        "t": trajectories[0].t.copy(),
        "n_mean": n_mat.mean(axis=0),
        "n_sd": n_mat.std(axis=0),
        "a_mean": a_mat.mean(axis=0),
        "a_sd": a_mat.std(axis=0),
        "ratio_mean": r_mat.mean(axis=0),
        "ratio_sd": r_mat.std(axis=0),
        "rescued_sum": np.vstack([tr.rescued for tr in trajectories]).sum(axis=0),
        "renorm_error": np.vstack(
            [tr.renorm_error for tr in trajectories]).max(axis=0),
    }, tc_vals)


def _stats(rows: dict[str, np.ndarray], tc_vals: np.ndarray) -> EnsembleStats:
    """EnsembleStats from its per-sweep rows and per-replica crossings."""
    crossed = ~np.isnan(tc_vals)
    return EnsembleStats(
        n_replicas=len(tc_vals),
        **rows,
        tc_values=tc_vals,
        tc_mean=float(tc_vals[crossed].mean()) if crossed.any() else float("nan"),
        tc_sd=float(tc_vals[crossed].std()) if crossed.any() else float("nan"),
        fraction_reached=float(crossed.mean()),
        tc_of_mean=estimate_tc(rows["a_mean"]),
        max_renorm_error=float(rows["renorm_error"].max()),
    )


def _slice(stats: EnsembleStats, t_max: int) -> EnsembleStats:
    """The statistics of the same ensemble run only to sweep t_max."""
    rows = {name: getattr(stats, name)[:t_max + 1].copy()
            for name in _ROW_FIELDS}
    rows["rescued_sum"][t_max] = 0  # a run's last row has no sweep after it
    rows["renorm_error"][t_max] = 0.0
    tc_vals = np.where(stats.tc_values <= t_max, stats.tc_values, np.nan)
    return _stats(rows, tc_vals)


def _join(head: EnsembleStats, tail: EnsembleStats) -> EnsembleStats:
    """One ensemble's statistics from its run to some sweep and the run
    resumed from there: head's rows before tail's first sweep, then tail's
    rows. A replica keeps its crossing in head, if any."""
    t_start = int(tail.t[0])
    rows = {name: np.concatenate((getattr(head, name)[:t_start],
                                  getattr(tail, name)))
            for name in _ROW_FIELDS}
    tc_vals = np.where(np.isnan(head.tc_values), tail.tc_values + t_start,
                       head.tc_values)
    return _stats(rows, tc_vals)


def run_ensemble(params: SimParams, n_replicas: int,
                 jobs: int = 1) -> EnsembleStats:
    """Run an ensemble from base seed ``params.seed`` on ``jobs`` worker
    processes of its own, and aggregate it."""
    with LazyPool(jobs) as pool:
        return aggregate(run_trajectories(params, n_replicas, pool))


@dataclass(slots=True)
class _Stored:
    stats: EnsembleStats    # up to the longest horizon run so far
    end_states: list[bytes]  # each replica's end state at that horizon


#: Ensembles run in this process, keyed by (params with t_max=0, replicas);
#: params.seed is the base seed.
_STORE: dict[tuple[SimParams, int], _Stored] = {}


def stored_ensemble(params: SimParams, n_replicas: int,
                    pool: LazyPool) -> EnsembleStats:
    """``run_ensemble(params, n_replicas)``, bit for bit, through the store:
    sliced from a stored run at least as long, resumed from the end states
    of a shorter one, and simulated otherwise. Runs that simulate use
    ``run_trajectories`` on ``pool``."""
    key = (replace(params, t_max=0), n_replicas)
    entry = _STORE.get(key)
    if entry is None or entry.stats.t[-1] < params.t_max:
        trajectories = run_trajectories(
            params, n_replicas, pool,
            starts=None if entry is None else entry.end_states)
        stats = aggregate(trajectories)
        entry = _STORE[key] = _Stored(
            stats if entry is None else _join(entry.stats, stats),
            [tr.end_state for tr in trajectories])
    return _slice(entry.stats, params.t_max)


def clear_store() -> None:
    """Forget every stored ensemble."""
    _STORE.clear()

