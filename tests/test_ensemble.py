"""Replica runs, deterministic seeding, ensemble statistics, catch-up
times, and the ensemble store."""
import dataclasses
import io
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from techmarket import (
    EnsembleStats,
    IntegrityError,
    PolicyKind,
    SimParams,
    VariantKind,
    compiled,
    run_ensemble,
)
from techmarket.dynamics import renorm_failure
from techmarket.ensemble import (
    bytes_needed,
    estimate_tc,
    replica_seeds,
    stored_ensemble,
)
from techmarket.rng import derive_seed

from conftest import (
    assert_no_worker_left,
    live_threads,
    lowest_failing,
    record_workers,
)
from oracle import SHARED_ROWS, kernel_replica


SRC = Path(__file__).parents[1] / "src"


def small_params(**kw):
    defaults = dict(t_max=60, seed=99)
    defaults.update(kw)
    return SimParams(**defaults)


class TestRunReplica:
    def test_zero_horizon_single_record(self):
        p = small_params(t_max=0)
        tr = kernel_replica(p, derive_seed(p.seed, 0))
        assert len(tr.n_firms) == 1
        assert tr.n_firms[0] == 80
        assert tr.ratio[0] == tr.mean_tech[0]  # frontier(0) = 1

    def test_series_length_and_clock(self):
        p = small_params(t_max=25)
        tr = kernel_replica(p, derive_seed(p.seed, 0))
        assert all(len(getattr(tr, name)) == 26 for name in SHARED_ROWS)

    def test_bit_identical_reruns(self):
        p = small_params(t_max=40)
        a = kernel_replica(p, derive_seed(p.seed, 3))
        b = kernel_replica(p, derive_seed(p.seed, 3))
        assert np.array_equal(a.mean_tech, b.mean_tech)
        assert np.array_equal(a.n_firms, b.n_firms)
        assert np.array_equal(a.ratio, b.ratio)

    def test_ratio_identity(self):
        p = small_params(t_max=50, sigma=0.01)
        tr = kernel_replica(p, derive_seed(p.seed, 1))
        recon = tr.ratio * np.exp(0.01 * np.arange(51))
        assert np.allclose(recon, tr.mean_tech, rtol=1e-12, atol=0.0)

    def test_free_market_plateau_near_floor(self):
        p = SimParams(q=0.0, t_max=600, seed=42)
        tr = kernel_replica(p, derive_seed(42, 0))
        assert 8 <= tr.n_firms[600] <= 20

    def test_variants_identical_without_intervention(self):
        p_passive = small_params(t_max=80, q=0.0,
                                 variant=VariantKind.PASSIVE_AFTER_RESCUE)
        p_active = small_params(t_max=80, q=0.0,
                                variant=VariantKind.ACTIVE_AFTER_RESCUE)
        a = kernel_replica(p_passive, derive_seed(99, 5))
        b = kernel_replica(p_active, derive_seed(99, 5))
        assert np.array_equal(a.mean_tech, b.mean_tech)
        assert np.array_equal(a.n_firms, b.n_firms)


class TestEstimateTc:
    def test_simple_crossing(self):
        assert estimate_tc([0.8, 0.9, 1.0, 1.1]) == 2

    def test_never_reached(self):
        assert estimate_tc([0.8, 0.9, 0.95]) is None

    def test_immediate_crossing(self):
        assert estimate_tc([1.0, 0.9, 0.8]) == 0



class TestSeeding:
    def test_replica_seed_is_pure_function(self):
        assert replica_seeds(12345, 5) == replica_seeds(12345, 5)
        assert replica_seeds(12345, 3) == replica_seeds(12345, 5)[:3]

    def test_distinct_across_replicas_and_bases(self):
        seeds = replica_seeds(7, 100) + replica_seeds(8, 100)
        assert len(set(seeds)) == 200

    @settings(max_examples=300, deadline=None)
    @given(base=st.integers(0, 2**100),
           path=st.lists(st.integers(0, 2**70), max_size=3))
    def test_derive_seed_matches_numpy_seed_sequence(self, base, path):
        oracle = np.random.SeedSequence(entropy=base, spawn_key=tuple(path))
        assert derive_seed(base, *path) == int(
            oracle.generate_state(1, dtype=np.uint64)[0])

    def test_derive_seed_rejects_negative_words(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0)
        with pytest.raises(ValueError):
            derive_seed(1, -1)


def write_rows(out, k, n_firms, mean_tech, ratio, rescued, renorm_error):
    """What replica k's kernel run writes into the ensemble's buffers
    ``out``: its rows of the matrices, then its rescues and renormalization
    errors added to the per-row sum and maximum."""
    rows = len(out.rescued)
    for matrix, values in ((out.n_firms, n_firms), (out.mean_tech, mean_tech),
                           (out.ratio, ratio)):
        matrix[k * rows:(k + 1) * rows] = array("d", values)
    for t in range(rows):
        out.rescued[t] += rescued[t]
        out.renorm_error[t] = max(out.renorm_error[t], renorm_error[t])


class TestRunEnsemble:
    def test_single_replica_degenerate_sd(self):
        p = small_params(t_max=30)
        st = run_ensemble(p, 1)
        tr = kernel_replica(p, derive_seed(p.seed, 0))
        assert np.array_equal(st.a_mean, tr.mean_tech)
        assert np.all(np.asarray(st.a_sd) == 0.0)
        assert np.all(np.asarray(st.n_sd) == 0.0)

    def test_parallel_matches_serial(self):
        p = small_params(t_max=40)
        serial = run_ensemble(p, 6, jobs=1)
        parallel = run_ensemble(p, 6, jobs=2)
        assert np.array_equal(serial.a_mean, parallel.a_mean)
        assert np.array_equal(serial.a_sd, parallel.a_sd)
        assert np.array_equal(serial.ratio_mean, parallel.ratio_mean)
        assert serial.tc_mean == parallel.tc_mean or (
            math.isnan(serial.tc_mean) and math.isnan(parallel.tc_mean))

    def test_more_threads_than_cores_match_serial(self, monkeypatch):
        """8 workers on 8 replicas, switching Python threads as often as
        the interpreter allows: the statistics equal a serial run's. With an
        event log the replicas run on one worker at any jobs, and the log
        and statistics equal the serial run's too."""
        import techmarket.ensemble as ens

        p = small_params(t_max=40, q=0.9, policy=PolicyKind.MEDIUM_TECH)
        serial_log, parallel_log = io.BytesIO(), io.BytesIO()
        serial = ens.run_trajectories(p, 8, 1, serial_log)
        made = record_workers(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = ens.run_trajectories(p, 8, 8)
            logged = ens.run_trajectories(p, 8, 8, parallel_log)
        finally:
            sys.setswitchinterval(interval)
        assert made == [8, 1]
        assert_same_stats(parallel, serial)
        assert_same_stats(logged, serial)
        assert parallel_log.getvalue() == serial_log.getvalue()

    def test_constant_synthetic_ensemble(self, monkeypatch):
        import techmarket.ensemble as ens

        def synthetic(params, seeds, jobs, events=None):
            out = compiled.new_buffers(params, len(seeds))
            for k in range(len(seeds)):
                write_rows(out, k, [7] * 5, [3.0] * 5, [3.0] * 5, [0] * 5,
                           [0.0] * 5)
                out.tc_vals[k] = 0
            return out

        monkeypatch.setattr(compiled, "run_replicas", synthetic)
        st = ens.run_trajectories(small_params(t_max=4), 4)
        assert np.all(np.asarray(st.a_mean) == 3.0)
        assert np.all(np.asarray(st.a_sd) == 0.0)
        assert np.all(np.asarray(st.n_mean) == 7.0)
        assert np.all(np.asarray(st.n_sd) == 0.0)
        assert st.tc_of_mean == 0  # constant 3.0 >= 1 from the start
        assert st.fraction_reached == 1.0

    @settings(max_examples=80, deadline=None)
    @given(n_replicas=st.integers(1, 300), rows=st.integers(1, 6),
           data_seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 1e-3, 1e6]))
    @example(n_replicas=1, rows=1, data_seed=0, scale=1.0)
    @example(n_replicas=8, rows=1, data_seed=1, scale=1.0)
    @example(n_replicas=129, rows=1, data_seed=2, scale=1e6)
    @example(n_replicas=300, rows=1, data_seed=3, scale=1.0)
    @example(n_replicas=300, rows=6, data_seed=4, scale=1e-3)
    def test_statistics_match_numpy_bit_for_bit(self, n_replicas, rows,
                                                data_seed, scale):
        """Synthetic replica rows through run_trajectories: every statistic
        has the bits of numpy's mean, std(axis=0), sum and max, and a
        vector's, a single sweep's or the catch-up times', those of numpy's
        sum in replica order, with rows == 1 and replicas that never cross
        among the cases. The synthetic replicas add to the sum and maximum
        themselves, as the kernel does; the threaded-reduction test checks
        the kernel's own."""
        import techmarket.ensemble as ens

        gen = np.random.default_rng(data_seed)
        n_firms = gen.integers(1, 100, (n_replicas, rows))
        mean_tech = gen.uniform(0.0, 1.2, (n_replicas, rows))
        ratio = gen.uniform(0.0, 1.0, (n_replicas, rows)) * scale
        rescued = gen.integers(0, 50, (n_replicas, rows))
        renorm = gen.uniform(0.0, 1e-12, (n_replicas, rows))
        params = small_params(t_max=rows - 1)

        def synthetic(params, seeds, jobs, events=None):
            assert seeds == replica_seeds(params.seed, n_replicas)
            out = compiled.new_buffers(params, n_replicas)
            for k in range(n_replicas):
                write_rows(out, k, n_firms[k].tolist(),
                           mean_tech[k].tolist(), ratio[k].tolist(),
                           rescued[k].tolist(), renorm[k].tolist())
                hits = np.flatnonzero(mean_tech[k] >= 1.0)
                if hits.size:
                    out.tc_vals[k] = hits[0]
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiled, "run_replicas", synthetic)
            stats = ens.run_trajectories(params, n_replicas)

        n_mat = n_firms.astype(float)
        crossing = [np.flatnonzero(row >= 1.0) for row in mean_tech]
        tc_values = np.array([c[0] if c.size else np.nan for c in crossing],
                             dtype=float)
        crossed = tc_values[~np.isnan(tc_values)]

        def in_order(x):
            """Mean and population SD of the vector x, summed in order."""
            mean = np.cumsum(x)[-1] / x.size
            d = x - mean
            return mean, np.sqrt(np.cumsum(d * d)[-1] / x.size)

        def column_stats(matrix):
            if rows > 1:
                return matrix.mean(axis=0), matrix.std(axis=0)
            return tuple(np.array([v]) for v in in_order(matrix[:, 0]))

        (n_mean, n_sd), (a_mean, a_sd), (ratio_mean, ratio_sd) = (
            column_stats(m) for m in (n_mat, mean_tech, ratio))
        want = {
            "t": np.arange(rows), "n_mean": n_mean, "n_sd": n_sd,
            "a_mean": a_mean, "a_sd": a_sd, "ratio_mean": ratio_mean,
            "ratio_sd": ratio_sd, "rescued_sum": rescued.sum(axis=0),
            "renorm_error": renorm.max(axis=0), "tc_values": tc_values,
        }
        for name, value in want.items():
            got = getattr(stats, name)
            assert got.typecode == ("d" if value.dtype.kind == "f" else "q")
            assert np.asarray(got).tobytes() == value.tobytes(), name
        tc_mean, tc_sd = in_order(crossed) if crossed.size \
            else (np.nan, np.nan)
        scalars = {
            "tc_mean": tc_mean, "tc_sd": tc_sd,
            "fraction_reached": (~np.isnan(tc_values)).mean(),
            "max_renorm_error": renorm.max(),
        }
        for name, value in scalars.items():
            assert np.float64(getattr(stats, name)).tobytes() \
                == np.float64(value).tobytes(), name
        hits = np.flatnonzero(a_mean >= 1.0)
        assert stats.tc_of_mean == (int(hits[0]) if hits.size else None)

    @pytest.mark.parametrize("params,jobs", [
        (small_params(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE,
                      t_max=600), jobs)
        for jobs in (4, 1)
    ] + [
        (small_params(q=0.9, policy=PolicyKind.MEDIUM_TECH, t_max=150), jobs)
        for jobs in (4, 1)
    ], ids=["active", "active_jobs1", "mediumtech", "mediumtech_jobs1"])
    def test_threaded_reductions_equal_the_replicas(self, params, jobs):
        """16 replicas on ``jobs`` workers, three times over: each
        replica's rows, the per-sweep rescue sum and renormalization error
        maximum, which the replicas' kernel runs update as they go, and the
        crossings are those of each replica run alone, and the statistics
        the serial run's. At jobs 1 one State runs all 16 replicas one after
        another, so this checks that a reused State starts each replica as
        a new one would. The active q=0.99 cell rescues about 85 firms a
        sweep and crosses never; the medium-tech one crosses at sweeps
        60..133. On a machine of few cores few updates race, so this checks
        the results, not that the updates are atomic."""
        seeds = replica_seeds(params.seed, 16)
        alone = [kernel_replica(params, seed) for seed in seeds]
        crossings = [estimate_tc(run.mean_tech) for run in alone]
        want = {
            "rescued_sum": np.sum([run.rescued for run in alone], axis=0),
            "renorm_error": np.max([run.renorm_error for run in alone],
                                   axis=0),
            "tc_values": [math.nan if tc is None else tc for tc in crossings],
        }
        assert want["rescued_sum"].any()
        serial = run_ensemble(params, 16, 1)
        rows = params.t_max + 1
        for _ in range(3):
            out = compiled.run_replicas(params, seeds, jobs)
            for name, matrix in zip(("n_firms", "mean_tech", "ratio"), out):
                for k, run in enumerate(alone):
                    assert matrix[k * rows:(k + 1) * rows] \
                        == getattr(run, name), (name, k)
            threaded = run_ensemble(params, 16, jobs)
            assert_same_stats(threaded, serial)
            for name, value in want.items():
                assert np.array_equal(getattr(threaded, name), value,
                                      equal_nan=True), name

    def test_free_market_always_crosses(self):
        stats = run_ensemble(small_params(t_max=250), 4)
        assert stats.fraction_reached == 1.0
        assert math.isfinite(stats.tc_mean)
        assert stats.tc_of_mean is not None

    def test_peak_memory_below_holding_every_trajectory(self):
        """Replicas write straight into the ensemble's buffers: the traced
        peak of a 40-replica ensemble, serial or on threads, is below what
        the memory guard counts: the buffers, the statistics' rows (57
        bytes a row) and the array types of the ctypes views (45 KB). Whole
        trajectories (48 bytes a row each) would add 3.8 MB."""
        params = SimParams(t_max=2000, seed=3)
        run_ensemble(params, 1)  # the kernel is loaded before tracing
        for jobs in (1, 2):
            tracemalloc.start()
            try:
                run_ensemble(params, 40, jobs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bytes_needed(params, 40, jobs, False), jobs

    def test_many_replicas_peak_below_the_memory_guard(self):
        """The guard counts what an ensemble holds per replica: its seed,
        an array('Q') the kernel reads in place, its crossing, and the
        array of the crossings, here empty at t_max 0. 20,000 replicas peak
        at about 0.84 MB, of which the matrices, seeds and crossings take
        0.8 MB."""
        params = SimParams(t_max=0, seed=3)
        run_ensemble(params, 1)  # the kernel is loaded before tracing
        tracemalloc.start()
        try:
            run_ensemble(params, 20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bytes_needed(params, 20_000, 1, False)

    def test_logged_replica_holds_little_beyond_its_text(self, tmp_path):
        """A logged replica keeps only its rendered text, not its rows: the
        traced peak of an active q=0.99 replica, about 98 steps a sweep,
        stays below 1.25 times the JSONL it writes."""
        params = SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE,
                           t_max=2000, seed=4)
        log = tmp_path / "events.jsonl"
        with log.open("wb") as fh:
            tracemalloc.start()
            try:
                run_ensemble(params, 1, 1, fh)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 1.25 * log.stat().st_size

    def test_logged_peak_does_not_grow_with_tmax(self, tmp_path):
        """A logged replica's text goes to the log at every pause of the
        kernel, so the traced peak of a long active q=0.99 replica grows
        with tmax only by its rows (97 bytes a row in the memory guard's
        count): 4,500 more sweeps add about 3 MB of JSONL and less than
        0.8 MB of peak."""
        peaks, sizes = {}, {}
        for t_max in (500, 5000):
            params = SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE,
                               t_max=t_max, seed=4)
            log = tmp_path / f"{t_max}.jsonl"
            with log.open("wb") as fh:
                tracemalloc.start()
                try:
                    run_ensemble(params, 1, 1, fh)
                    _, peaks[t_max] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            sizes[t_max] = log.stat().st_size
            assert peaks[t_max] < bytes_needed(params, 1, 1, True)
        rows_growth = 97 * 4500
        assert peaks[5000] - peaks[500] < rows_growth + 2**16
        assert sizes[5000] - sizes[500] > 4 * rows_growth

    def test_invalid_replica_count(self):
        with pytest.raises(ValueError):
            run_ensemble(small_params(), 0)

    def test_replica_failure_names_the_seed(self, monkeypatch):
        """With RENORM_TOLERANCE between the renormalization errors of the
        replicas, the lowest failing replica is named, at every jobs."""
        params = small_params(t_max=5)
        bad, tolerance = lowest_failing(params, 6)
        bad_seed = replica_seeds(params.seed, 6)[bad]
        monkeypatch.setattr(compiled, "RENORM_TOLERANCE", tolerance)
        for jobs in (1, 2, 4):
            with pytest.raises(IntegrityError, match=str(bad_seed)):
                run_ensemble(params, 6, jobs)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_every_replica_failing_names_replica_0(self, monkeypatch, jobs):
        """Every replica fails its first renormalization: the error is
        replica 0's, whichever worker failed first, and no worker is
        left."""
        threads = live_threads()
        seed = replica_seeds(99, 8)[0]
        error = kernel_replica(small_params(t_max=5), seed).renorm_error[0]
        assert error > 0.0
        monkeypatch.setattr(compiled, "RENORM_TOLERANCE", -1.0)
        with pytest.raises(IntegrityError) as info:
            run_ensemble(small_params(t_max=5), 8, jobs)
        assert info.value.args == renorm_failure(error, 0).args
        assert info.value.__notes__ == [f"replica seed {seed}"]
        assert_no_worker_left(threads)


class TestReplicaFailure:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["1", "2"])
    def test_exception_type_and_fields_kept(self, monkeypatch, jobs):
        """The failing replica's error is the one its serial run raises:
        renorm_failure's IntegrityError for its first sweep above the
        tolerance, with one note naming its seed."""
        params = small_params(t_max=5, seed=3)
        bad, tolerance = lowest_failing(params, 3)
        bad_seed = replica_seeds(3, 3)[bad]
        errors = kernel_replica(params, bad_seed).renorm_error
        sweep = next(t for t, err in enumerate(errors) if err > tolerance)
        monkeypatch.setattr(compiled, "RENORM_TOLERANCE", tolerance)
        with pytest.raises(IntegrityError) as info:
            run_ensemble(params, 3, jobs)
        assert type(info.value) is IntegrityError
        assert info.value.args == renorm_failure(errors[sweep], sweep).args
        assert info.value.__notes__ == [f"replica seed {bad_seed}"]

    def test_failure_cancels_the_queued_replicas(self, monkeypatch):
        """Every replica of 64 fails its first sweep, or the write of the
        event log does: at jobs 2, fewer than 64 replicas start (write their
        first row), and no worker is left. A logged ensemble runs on one
        worker."""

        class FullDisk(io.BytesIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

            writelines = write

        threads = live_threads()
        real = compiled.new_buffers
        allocated = []

        def recording(params, n_replicas):
            allocated.append(real(params, n_replicas))
            return allocated[-1]

        monkeypatch.setattr(compiled, "new_buffers", recording)
        made = record_workers(monkeypatch)
        for error, event_log, tolerance in (
                (IntegrityError, None, -1.0),
                (OSError, FullDisk(), compiled.RENORM_TOLERANCE)):
            monkeypatch.setattr(compiled, "RENORM_TOLERANCE", tolerance)
            with pytest.raises(error):
                run_ensemble(small_params(t_max=5), 64, 2, event_log)
            out = allocated.pop()
            rows = len(out.rescued)
            assert 0 < sum(out.n_firms[k * rows] > 0 for k in range(64)) < 64
            assert_no_worker_left(threads)
        assert made == [2, 1]


#: A child's run of one ensemble serially, then at 4 jobs with its address
#: space capped at its size plus ``room`` bytes: prints the workers of the
#: capped run and whether its rows and crossings equal the serial run's.
CAPPED_CHILD = """
import resource, sys
from techmarket import SimParams, compiled
from techmarket.ensemble import replica_seeds

params = SimParams(t_max=50, q=0.9, seed=5)
seeds = replica_seeds(params.seed, 6)

def run(jobs):
    return [a.tobytes() for a in compiled.run_replicas(params, seeds, jobs)]

serial = run(1)
lib, made = compiled.kernel(), []
real = lib.tm_run_ensemble

def recording(ensemble_ref):
    status = real(ensemble_ref)
    made.append(ensemble_ref._obj.workers)
    return status

lib.tm_run_ensemble = recording
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) * 1024 for line in status
                if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]),
                                        resource.RLIM_INFINITY))
same = run(4) == serial
print(made[0], same)
"""


@pytest.mark.skipif(not os.path.isfile("/proc/self/status"),
                    reason="reads the address space's size from /proc")
@pytest.mark.parametrize("threads", [0, 1])
def test_threads_that_cannot_start_leave_their_replicas_to_the_others(
        threads):
    """In a child whose thread stacks are 64 MiB and whose address space
    has room for ``threads`` of them, an ensemble at 4 jobs runs on the
    calling thread and the threads that did start, and gives the rows and
    crossings of a serial run."""
    stack = 64 * 2**20
    compiled.kernel()  # built into the cache the child reads

    def big_stacks():
        hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
        resource.setrlimit(resource.RLIMIT_STACK, (stack, hard))

    room = threads * (stack + 2**20) + 16 * 2**20
    run = subprocess.run(
        [sys.executable, "-c", CAPPED_CHILD, str(room)], check=True,
        capture_output=True, text=True, preexec_fn=big_stacks,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert run.stdout.split() == [str(1 + threads), "True"]


def assert_same_stats(got: EnsembleStats, want: EnsembleStats) -> None:
    """Every field equal, arrays in typecode and value, nan where nan."""
    for field in dataclasses.fields(EnsembleStats):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, array):
            assert a.typecode == b.typecode, field.name
            assert np.array_equal(a, b, equal_nan=True), field.name
        elif isinstance(b, float) and math.isnan(b):
            assert math.isnan(a), field.name
        else:
            assert a == b, field.name


# crossings at sweeps 78..133 for seed 99 and 4 replicas
MEDIUM_Q09 = small_params(q=0.9, policy=PolicyKind.MEDIUM_TECH, t_max=150)
# jobs that run every replica in the calling thread, starting no worker
SERIAL = 1


class TestEnsembleStore:
    def test_slice_equals_fresh_run(self):
        full = stored_ensemble(MEDIUM_Q09, 4, SERIAL)
        assert_same_stats(full, run_ensemble(MEDIUM_Q09, 4))
        short = replace(MEDIUM_Q09, t_max=100)
        sliced = stored_ensemble(short, 4, SERIAL)
        assert_same_stats(sliced, run_ensemble(short, 4))
        # the slice drops crossings after its horizon and zeroes the rows
        # of the sweep after it
        assert np.isnan(sliced.tc_values).any()
        assert not np.isnan(sliced.tc_values).all()
        assert full.rescued_sum[100] > 0 and sliced.rescued_sum[100] == 0
        assert sliced.renorm_error[100] == 0.0

    def test_slice_served_without_simulating(self, monkeypatch):
        stored_ensemble(small_params(t_max=40), 2, SERIAL)
        monkeypatch.setattr(compiled, "run_replicas", None)  # any call fails
        st = stored_ensemble(small_params(t_max=25), 2, SERIAL)
        assert len(st.t) == 26

    def test_zero_horizon_is_served_from_a_longer_run(self, monkeypatch):
        """A single sweep's statistics are summed replica by replica, as a
        longer run's are: a t_max=0 request is sliced from the stored
        longer run, with the bits of a fresh run at 8 replicas and more."""
        params = SimParams(t_max=5, seed=1)
        zero = replace(params, t_max=0)
        fresh = run_ensemble(zero, 40)
        stored_ensemble(params, 40, SERIAL)
        monkeypatch.setattr(compiled, "run_replicas", None)  # any call fails
        assert_same_stats(stored_ensemble(zero, 40, SERIAL), fresh)

    def test_stored_horizon_is_served_without_a_copy(self):
        """A request at the stored horizon gets the stored statistics
        themselves: a simulated cell and the CSV written from it hold its
        rows once. A copy would add 72 bytes a row, 7.2 MB at 100,000
        sweeps."""
        stored = stored_ensemble(MEDIUM_Q09, 4, SERIAL)
        assert stored_ensemble(MEDIUM_Q09, 4, SERIAL) is stored

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("params", [
        small_params(q=0.5, t_max=90),
        small_params(q=0.9, t_max=90, variant=VariantKind.ACTIVE_AFTER_RESCUE),
        MEDIUM_Q09,
    ], ids=["passive", "active", "mediumtech"])
    def test_longer_request_equals_fresh_run(self, monkeypatch, params,
                                             jobs):
        """A request longer than the stored one simulates every replica
        from sweep 0 and equals a fresh run."""
        real = compiled.run_replicas
        runs = []

        def spy(params, seeds, *rest):
            out = real(params, seeds, *rest)
            # the rows each replica writes, but the last
            runs.extend([len(out.rescued) - 1] * len(seeds))
            return out

        monkeypatch.setattr(compiled, "run_replicas", spy)
        first = replace(params, t_max=params.t_max * 2 // 3)
        middle = replace(params, t_max=params.t_max * 5 // 6)
        assert_same_stats(stored_ensemble(first, 4, jobs),
                          run_ensemble(first, 4))
        assert_same_stats(stored_ensemble(params, 4, jobs),
                          run_ensemble(params, 4))
        assert_same_stats(stored_ensemble(middle, 4, jobs),
                          run_ensemble(middle, 4))
        # the store runs 4 replicas to each horizon from sweep 0, then 4
        # again, then none for the middle slice; each run_ensemble call
        # runs 4
        assert runs == [first.t_max] * 8 + [params.t_max] * 8 \
            + [middle.t_max] * 4

    def test_key_separates_seed_replicas_and_params(self):
        a = stored_ensemble(small_params(t_max=20), 2, SERIAL)
        for other, n in ((small_params(t_max=20, seed=100), 2),
                         (small_params(t_max=20), 3),
                         (small_params(t_max=20, q=0.3), 2)):
            st = stored_ensemble(other, n, SERIAL)
            assert_same_stats(st, run_ensemble(other, n))
            assert not np.array_equal(st.a_mean, a.a_mean)
