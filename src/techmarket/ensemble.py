"""Replica orchestration, deterministic seeding, ensemble statistics, and
the ensemble store.

A replica is one full simulation of the market for t_max sweeps; an ensemble
is n_replicas of them run from seeds derived as ``derive_seed(params.seed,
k)`` for replica k. A replica starts from its seed and runs all of its
sweeps in the compiled kernel (see ``compiled``). Replicas are independent
and the kernel's C calls release the GIL, so they may run on threads of the
ensemble's own (see ``run_trajectories``). No replica leaves the process,
and the statistics and event logs are identical at any thread count.

Across-replica spread is reported as the population standard deviation
(divide by n), matching descriptive +-1 SD bands. The statistics are
summed in the order numpy's ``mean`` and ``std`` sum, so they have numpy's
bits without importing it: a (replicas x sweeps) matrix with two or more
sweeps row by row in the compiled kernel (``compiled.folder`` and
``compiled.column_stats``), and a vector, which is the catch-up times or
a single sweep, pairwise by ``_vector_stats``. Per-sweep statistics are
``array`` objects: 'q' for t and rescued_sum, 'd' for the rest;
``numpy.asarray`` views them without a copy.

The ensemble store (``stored_ensemble``) shares ensembles between the cells
of every scenario run in one process. Per parameter set other than t_max
and per replica count it keeps the statistics of the longest horizon run so
far. A request up to that horizon is answered by slicing them: a
column-wise mean or SD over replicas depends only on that sweep's values,
so the slice is bit-identical to a fresh run. A longer request simulates
every replica from sweep 0 and replaces the entry. A t_max=0 request is
simulated and not stored: its single sweep is a vector, summed pairwise,
so a slice of a longer run, summed replica by replica, has other bits
from 8 replicas on; zero sweeps cost only each replica's set-up. The
store costs 72 bytes per aggregate row plus one crossing per replica,
kept until the process ends.
"""
from __future__ import annotations

import io
import math
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence, TextIO

from . import compiled
from .dynamics import Trajectory
from .output import emit_event_log
from .params import SimParams
from .rng import derive_seed

#: Threshold the mean technology must reach to end the catch-up phase; the
#: frontier value at t=0.
TC_THRESHOLD = 1.0


@dataclass(slots=True)
class EnsembleStats:
    """Across-replica mean and population SD per sweep, plus catch-up times."""

    n_replicas: int
    t: array
    n_mean: array
    n_sd: array
    a_mean: array
    a_sd: array
    ratio_mean: array
    ratio_sd: array
    rescued_sum: array          # total rescues per sweep over all replicas
    renorm_error: array         # largest renormalization error per sweep
    tc_values: array            # per-replica crossing sweep (nan if never)
    tc_mean: float              # mean over replicas that crossed (nan if none)
    tc_sd: float                # population SD over replicas that crossed
    fraction_reached: float     # share of replicas that crossed within t_max
    tc_of_mean: Optional[int]   # crossing sweep of the ensemble-mean series
    max_renorm_error: float


#: EnsembleStats fields with one value per sweep.
_ROW_FIELDS = ("t", "n_mean", "n_sd", "a_mean", "a_sd", "ratio_mean",
               "ratio_sd", "rescued_sum", "renorm_error")


def run_replica(params: SimParams, replica_seed: int,
                events: Optional[array] = None) -> Trajectory:
    """Simulate one replica from sweep 0 to sweep t_max from the given
    stream seed. Every step's event row is appended to ``events`` when a
    sink is given.

    The trajectory is allocated here and written by the compiled kernel,
    which seeds the stream, draws the initial market and runs the sweeps in
    a State of its own: a row per sweep, plus one final snapshot at
    t = t_max.
    """
    trajectory = Trajectory.empty(params.t_max + 1)
    state = compiled.new_state(params, trajectory, events is not None)
    compiled.start(state, params, replica_seed)
    compiled.run_sweeps(state, events)
    return trajectory


def estimate_tc(mean_tech_series: Sequence[float]) -> Optional[int]:
    """First sweep at which the series reaches TC_THRESHOLD, or None."""
    return next((t for t, a in enumerate(mean_tech_series)
                 if a >= TC_THRESHOLD), None)


def replica_seeds(base_seed: int, n_replicas: int) -> list[int]:
    return [derive_seed(base_seed, k) for k in range(n_replicas)]


def run_trajectories(params: SimParams, n_replicas: int, jobs: int = 1,
                     event_log: Optional[TextIO] = None) -> EnsembleStats:
    """The statistics of an ensemble from base seed ``params.seed``, whose
    replicas run ``jobs`` at a time. In replica order, each replica is
    folded in by the kernel: its N, mean technology and ratio rows are
    copied into (replicas x sweeps) matrices, 24 bytes per replica and
    sweep, and its other reductions updated; then its trajectory is
    dropped.

    When min(jobs, n_replicas) > 1, the replicas run on a thread executor
    of the call's own, as the kernel's C calls release the GIL. It is shut
    down before this returns or raises, and a failure cancels the replicas
    still queued. Otherwise they run one after another in the calling
    thread.

    With ``event_log``, each replica renders its events to JSON lines in the
    thread that ran it, and the text is written to the stream in replica
    order as soon as that replica and every earlier one have finished.
    Serial and threaded runs give the same bytes. A replica's exception
    propagates unchanged, with a note naming its seed.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    # built and loaded here, before any worker starts: threads share the
    # pid that names the build's temporary file
    compiled.kernel()
    seeds = replica_seeds(params.seed, n_replicas)

    def replica(k: int, seed: int) -> tuple[Trajectory, Optional[str]]:
        """Replica k, plus its event log as JSONL text when one is kept;
        the rows themselves are not kept."""
        if event_log is None:
            return run_replica(params, seed), None
        events = array("q")
        trajectory = run_replica(params, seed, events)
        text = io.StringIO()
        emit_event_log(text, k, events)
        return trajectory, text.getvalue()

    rows = params.t_max + 1
    n_mat, a_mat, r_mat = (array("d", [0.0]) * (n_replicas * rows)
                           for _ in range(3))
    rescued_sum = array("q", [0]) * rows
    renorm_error = array("d", [0.0]) * rows
    tc_vals = array("d", [math.nan]) * n_replicas
    fold = compiled.folder(n_mat, a_mat, r_mat, rescued_sum, renorm_error,
                           TC_THRESHOLD)
    workers = min(jobs, n_replicas)
    executor = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        results = (executor.map if executor else map)(
            replica, range(n_replicas), seeds)
        for k, seed in enumerate(seeds):
            try:
                trajectory, text = next(results)
            except Exception as exc:
                exc.add_note(f"replica seed {seed}")
                raise
            if text is not None:
                event_log.write(text)
            tc = fold(trajectory, k)
            if tc is not None:
                tc_vals[k] = tc
            # not held while the next replica runs (the text is: freeing it
            # lets malloc trim pages that the next replica's text faults in)
            del trajectory
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)
    n_mean, n_sd = _column_stats(n_mat, rows)
    a_mean, a_sd = _column_stats(a_mat, rows)
    ratio_mean, ratio_sd = _column_stats(r_mat, rows)
    return _stats({
        "t": array("q", range(rows)),
        "n_mean": n_mean, "n_sd": n_sd,
        "a_mean": a_mean, "a_sd": a_sd,
        "ratio_mean": ratio_mean, "ratio_sd": ratio_sd,
        "rescued_sum": rescued_sum,
        "renorm_error": renorm_error,
    }, tc_vals)


def _pairwise_sum(x: Sequence[float]) -> float:
    """numpy's sum of a float64 vector: in order below 8 values, in 8
    interleaved accumulators up to 128, and above that the sums of two
    halves split at a multiple of 8."""
    n = len(x)
    if n < 8:
        total = 0.0
        for v in x:
            total += v
        return total
    if n <= 128:
        r = list(x[:8])
        for i in range(8, n - n % 8, 8):
            for j in range(8):
                r[j] += x[i + j]
        total = (((r[0] + r[1]) + (r[2] + r[3]))
                 + ((r[4] + r[5]) + (r[6] + r[7])))
        for v in x[n - n % 8:]:
            total += v
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


def _vector_stats(x: Sequence[float]) -> tuple[float, float]:
    """numpy's mean and std of a non-empty float64 vector."""
    mean = _pairwise_sum(x) / len(x)
    return mean, math.sqrt(_pairwise_sum([(v - mean) * (v - mean)
                                          for v in x]) / len(x))


def _column_stats(matrix: array, cols: int) -> tuple[array, array]:
    """numpy's mean and std over axis 0 of a (replicas x cols) matrix,
    which sums a single column as a vector."""
    if cols > 1:
        return compiled.column_stats(matrix, cols)
    mean, sd = _vector_stats(matrix)
    return array("d", [mean]), array("d", [sd])


def _stats(rows: dict[str, array], tc_vals: array) -> EnsembleStats:
    """EnsembleStats from its per-sweep rows and per-replica crossings."""
    crossed = [tc for tc in tc_vals if not math.isnan(tc)]
    tc_mean, tc_sd = (_vector_stats(crossed) if crossed
                      else (math.nan, math.nan))
    return EnsembleStats(
        n_replicas=len(tc_vals),
        **rows,
        tc_values=tc_vals,
        tc_mean=tc_mean,
        tc_sd=tc_sd,
        fraction_reached=len(crossed) / len(tc_vals),
        tc_of_mean=estimate_tc(rows["a_mean"]),
        max_renorm_error=max(rows["renorm_error"]),
    )


def _slice(stats: EnsembleStats, t_max: int) -> EnsembleStats:
    """The statistics of the same ensemble run only to sweep t_max."""
    rows = {name: getattr(stats, name)[:t_max + 1] for name in _ROW_FIELDS}
    rows["rescued_sum"][t_max] = 0  # a run's last row has no sweep after it
    rows["renorm_error"][t_max] = 0.0
    tc_vals = array("d", (tc if tc <= t_max else math.nan
                          for tc in stats.tc_values))
    return _stats(rows, tc_vals)


#: The package root's name for ``run_trajectories``.
run_ensemble = run_trajectories


#: Ensembles run in this process, keyed by (params with t_max=0, replicas);
#: params.seed is the base seed. Each holds the longest horizon run so far.
_STORE: dict[tuple[SimParams, int], EnsembleStats] = {}


def stored_ensemble(params: SimParams, n_replicas: int,
                    jobs: int) -> EnsembleStats:
    """``run_trajectories(params, n_replicas)``, bit for bit, through the
    store: sliced from a stored run at least as long, and otherwise
    simulated from sweep 0 at ``jobs`` and stored in place of the shorter
    run. A t_max=0 request is simulated and leaves the store as it is."""
    if params.t_max == 0:
        return run_trajectories(params, n_replicas, jobs)
    key = (replace(params, t_max=0), n_replicas)
    stats = _STORE.get(key)
    if stats is None or stats.t[-1] < params.t_max:
        stats = _STORE[key] = run_trajectories(params, n_replicas, jobs)
    return _slice(stats, params.t_max)
