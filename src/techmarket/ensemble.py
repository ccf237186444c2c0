"""Replica orchestration, deterministic seeding, ensemble statistics, and
the ensemble store.

A replica is one full simulation of the market for t_max sweeps; an ensemble
is n_replicas of them run from seeds derived as ``derive_seed(params.seed,
k)`` for replica k. An ensemble's replicas run in one call of the
compiled kernel (``compiled.run_replicas``), each from its seed through
all of its sweeps, on threads that the call starts and joins; each writes
its rows straight into the ensemble's buffers, which the call allocates
and returns, so no replica keeps a trajectory of its own and Python does
nothing per replica. No replica leaves the process, and the statistics
and event logs are identical at any thread count. ``bytes_needed`` is the
memory guard's count of what a run holds.

Across-replica spread is reported as the population standard deviation
(divide by n), matching descriptive +-1 SD bands. Every mean and SD over
replicas is summed replica by replica in the compiled kernel
(``compiled.column_stats``): a (replicas x sweeps) matrix, a single sweep
and the catch-up times alike. A matrix of two or more sweeps so has the
bits of numpy's ``mean`` and ``std`` over axis 0; a vector does not, as
numpy sums one pairwise. The per-sweep rescue sum and renormalization
error maximum are order-free, so the replicas add to them as they run.
Per-sweep statistics are ``array`` objects: 'q' for t and rescued_sum,
'd' for the rest; ``numpy.asarray`` views them without a copy.

The ensemble store (``stored_ensemble``) shares ensembles between the cells
of every scenario run in one process. Per parameter set other than t_max
and per replica count it keeps the statistics of the longest horizon run so
far. A request up to that horizon is answered by slicing them: a
column-wise mean or SD over replicas depends only on that sweep's values,
so the slice is bit-identical to a fresh run, t_max=0 included. A
request at the stored horizon gets the stored statistics themselves. A
longer request simulates every replica from sweep 0 and replaces the
entry. The store costs 72 bytes per aggregate row plus one crossing per
replica, kept until the process ends.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import BinaryIO, Optional, Sequence

from . import compiled
from .dynamics import TC_THRESHOLD
from .params import SimParams
from .rng import derive_seed


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


def estimate_tc(mean_tech_series: Sequence[float]) -> Optional[int]:
    """First sweep at which the series reaches TC_THRESHOLD, or None."""
    return next((t for t, a in enumerate(mean_tech_series)
                 if a >= TC_THRESHOLD), None)


def replica_seeds(base_seed: int, n_replicas: int) -> array:
    """The replicas' seeds, an array('Q') the kernel reads in place."""
    return array("Q", (derive_seed(base_seed, k) for k in range(n_replicas)))


def run_trajectories(params: SimParams, n_replicas: int, jobs: int = 1,
                     event_log: Optional[BinaryIO] = None) -> EnsembleStats:
    """The statistics of an ensemble from base seed ``params.seed``, whose
    replicas run ``jobs`` at a time. Each replica's kernel run writes its N,
    mean technology and ratio rows into (replicas x sweeps) matrices, and
    adds its rescues and renormalization errors to the per-sweep sum and
    maximum, which ``compiled.run_replicas`` allocates and returns.

    Every replica runs in one kernel call (``compiled.run_replicas``), on
    min(jobs, n_replicas) workers: the calling thread and threads that the
    call starts and joins, so none is left when this returns or raises. A
    failing replica stops the claiming of further ones.

    With ``event_log``, a binary stream, the kernel writes the replicas'
    event logs as JSON lines, one replica after another on one worker
    whatever ``jobs`` is, and each call's text goes from the kernel's
    buffer straight to the stream: the log holds the replicas in order, the
    same bytes at any ``jobs``. A
    replica's renormalization failure raises IntegrityError with a note
    naming its seed.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    rows = params.t_max + 1
    out = compiled.run_replicas(
        params, replica_seeds(params.seed, n_replicas), jobs,
        None if event_log is None else event_log.write)
    n_mean, n_sd = compiled.column_stats(out.n_firms, rows)
    a_mean, a_sd = compiled.column_stats(out.mean_tech, rows)
    ratio_mean, ratio_sd = compiled.column_stats(out.ratio, rows)
    return _stats({
        "t": array("q", range(rows)),
        "n_mean": n_mean, "n_sd": n_sd,
        "a_mean": a_mean, "a_sd": a_sd,
        "ratio_mean": ratio_mean, "ratio_sd": ratio_sd,
        "rescued_sum": out.rescued,
        "renorm_error": out.renorm_error,
    }, out.tc_vals)


def bytes_needed(params: SimParams, n_replicas: int, jobs: int,
                 logged: bool, cells: int = 1) -> int:
    """The most bytes a scenario of ``cells`` cells like ``params`` holds
    while ``run_trajectories(params, n_replicas, jobs)`` runs one, with an
    event log when ``logged``, and ``stored_ensemble`` stores it:
    ``compiled.kernel_bytes``; the replicas' seeds and crossings, 8 bytes a
    replica each; the statistics' seven other rows, 56 bytes a row; up to
    a sixteenth more of the seeds, crossings and t, arrays that grow as
    they are built; and 3 KB for each ctypes array type that the run's
    views and States make, at most 15, one for each length, which ctypes
    keeps. A scenario of two or more cells adds for each cell a store
    entry, 72 bytes a row and 8 a replica: the entries of the others, and
    a curve cell's entry of its previous horizon, held while it runs the
    next. A request at the stored horizon gets the entry itself, not a
    copy. Entries left by earlier scenarios are not counted."""
    rows = params.t_max + 1
    held = cells if cells > 1 else 0
    return (compiled.kernel_bytes(params, n_replicas, jobs, logged)
            + (17 + 8 * held) * n_replicas + (57 + 72 * held) * rows
            + 15 * 3 * 2**10)


def _stats(rows: dict[str, array], tc_vals: array) -> EnsembleStats:
    """EnsembleStats from its per-sweep rows and per-replica crossings."""
    crossed = array("d", (tc for tc in tc_vals if not math.isnan(tc)))
    tc_mean, tc_sd = ([v[0] for v in compiled.column_stats(crossed, 1)]
                      if crossed else (math.nan, math.nan))
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
    """The statistics of the same ensemble run only to sweep t_max: at its
    own horizon ``stats`` itself, which no caller changes."""
    if t_max == stats.t[-1]:
        return stats
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
    run."""
    key = (replace(params, t_max=0), n_replicas)
    stats = _STORE.get(key)
    if stats is None or stats.t[-1] < params.t_max:
        stats = _STORE[key] = run_trajectories(params, n_replicas, jobs)
    return _slice(stats, params.t_max)
