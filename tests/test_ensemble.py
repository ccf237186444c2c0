"""Replica runs, deterministic seeding, ensemble statistics, catch-up
times, and the ensemble store."""
import dataclasses
import io
import math
import sys
import threading
import time
import tracemalloc
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from techmarket import (
    EnsembleStats,
    PolicyKind,
    SimParams,
    VariantKind,
    run_ensemble,
)
from techmarket.dynamics import ROW_BYTES
from techmarket.ensemble import (
    Trajectory,
    estimate_tc,
    replica_seeds,
    run_replica,
    stored_ensemble,
)
from techmarket.rng import derive_seed

from conftest import assert_no_worker_left, record_executors


def small_params(**kw):
    defaults = dict(t_max=60, seed=99)
    defaults.update(kw)
    return SimParams(**defaults)


class TestRunReplica:
    def test_zero_horizon_single_record(self):
        p = small_params(t_max=0)
        tr = run_replica(p, derive_seed(p.seed, 0))
        assert len(tr.n_firms) == 1
        assert tr.n_firms[0] == 80
        assert tr.ratio[0] == tr.mean_tech[0]  # frontier(0) = 1

    def test_series_length_and_clock(self):
        p = small_params(t_max=25)
        tr = run_replica(p, derive_seed(p.seed, 0))
        assert all(len(getattr(tr, field.name)) == 26
                   for field in dataclasses.fields(Trajectory))

    def test_bit_identical_reruns(self):
        p = small_params(t_max=40)
        a = run_replica(p, derive_seed(p.seed, 3))
        b = run_replica(p, derive_seed(p.seed, 3))
        assert np.array_equal(a.mean_tech, b.mean_tech)
        assert np.array_equal(a.n_firms, b.n_firms)
        assert np.array_equal(a.ratio, b.ratio)

    def test_ratio_identity(self):
        p = small_params(t_max=50, sigma=0.01)
        tr = run_replica(p, derive_seed(p.seed, 1))
        recon = tr.ratio * np.exp(0.01 * np.arange(51))
        assert np.allclose(recon, tr.mean_tech, rtol=1e-12, atol=0.0)

    def test_free_market_plateau_near_floor(self):
        p = SimParams(q=0.0, t_max=600, seed=42)
        tr = run_replica(p, derive_seed(42, 0))
        assert 8 <= tr.n_firms[600] <= 20

    def test_variants_identical_without_intervention(self):
        p_passive = small_params(t_max=80, q=0.0,
                                 variant=VariantKind.PASSIVE_AFTER_RESCUE)
        p_active = small_params(t_max=80, q=0.0,
                                variant=VariantKind.ACTIVE_AFTER_RESCUE)
        a = run_replica(p_passive, derive_seed(99, 5))
        b = run_replica(p_active, derive_seed(99, 5))
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


class TestRunEnsemble:
    def test_single_replica_degenerate_sd(self):
        p = small_params(t_max=30)
        st = run_ensemble(p, 1)
        tr = run_replica(p, derive_seed(p.seed, 0))
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

    def test_more_threads_than_cores_match_serial(self):
        """8 worker threads, switching threads as often as the interpreter
        allows: the statistics and the event log equal a serial run's."""
        import techmarket.ensemble as ens

        p = small_params(t_max=40, q=0.9, policy=PolicyKind.MEDIUM_TECH)
        serial_log, parallel_log = io.StringIO(), io.StringIO()
        serial = ens.run_trajectories(p, 8, 1, serial_log)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = ens.run_trajectories(p, 8, 8, parallel_log)
        finally:
            sys.setswitchinterval(interval)
        assert_same_stats(parallel, serial)
        assert parallel_log.getvalue() == serial_log.getvalue()

    def test_constant_synthetic_ensemble(self, monkeypatch):
        import techmarket.ensemble as ens

        def synthetic(params, seed, events=None):
            return Trajectory(array("q", [7] * 5), array("d", [3.0] * 5),
                              array("d", [3.0] * 5), array("q", [0] * 5),
                              array("q", [0] * 5), array("d", [0.0] * 5))

        monkeypatch.setattr(ens, "run_replica", synthetic)
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
        """Synthetic trajectories through run_trajectories: every statistic
        has the bits of numpy's mean, std(axis=0), sum, max and 1-D
        mean/std, with rows == 1 (a vector to numpy, summed pairwise) and
        replicas that never cross among the cases."""
        import techmarket.ensemble as ens

        gen = np.random.default_rng(data_seed)
        n_firms = gen.integers(1, 100, (n_replicas, rows))
        mean_tech = gen.uniform(0.0, 1.2, (n_replicas, rows))
        ratio = gen.uniform(0.0, 1.0, (n_replicas, rows)) * scale
        rescued = gen.integers(0, 50, (n_replicas, rows))
        renorm = gen.uniform(0.0, 1e-12, (n_replicas, rows))
        params = small_params(t_max=rows - 1)
        index = {seed: k for k, seed in
                 enumerate(replica_seeds(params.seed, n_replicas))}

        def synthetic(params, seed, events=None):
            k = index[seed]
            return Trajectory(
                array("q", n_firms[k].tolist()),
                array("d", mean_tech[k].tolist()),
                array("d", ratio[k].tolist()),
                array("q", rescued[k].tolist()), array("q", [0] * rows),
                array("d", renorm[k].tolist()))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ens, "run_replica", synthetic)
            stats = ens.run_trajectories(params, n_replicas)

        n_mat = n_firms.astype(float)
        crossing = [np.flatnonzero(row >= 1.0) for row in mean_tech]
        tc_values = np.array([c[0] if c.size else np.nan for c in crossing],
                             dtype=float)
        crossed = tc_values[~np.isnan(tc_values)]
        a_mean = mean_tech.mean(axis=0)
        want = {
            "t": np.arange(rows), "n_mean": n_mat.mean(axis=0),
            "n_sd": n_mat.std(axis=0), "a_mean": a_mean,
            "a_sd": mean_tech.std(axis=0), "ratio_mean": ratio.mean(axis=0),
            "ratio_sd": ratio.std(axis=0), "rescued_sum": rescued.sum(axis=0),
            "renorm_error": renorm.max(axis=0), "tc_values": tc_values,
        }
        for name, value in want.items():
            got = getattr(stats, name)
            assert got.typecode == ("d" if value.dtype.kind == "f" else "q")
            assert np.asarray(got).tobytes() == value.tobytes(), name
        scalars = {
            "tc_mean": crossed.mean() if crossed.size else np.nan,
            "tc_sd": crossed.std() if crossed.size else np.nan,
            "fraction_reached": (~np.isnan(tc_values)).mean(),
            "max_renorm_error": renorm.max(),
        }
        for name, value in scalars.items():
            assert np.float64(getattr(stats, name)).tobytes() \
                == np.float64(value).tobytes(), name
        hits = np.flatnonzero(a_mean >= 1.0)
        assert stats.tc_of_mean == (int(hits[0]) if hits.size else None)

    def test_free_market_always_crosses(self):
        stats = run_ensemble(small_params(t_max=250), 4)
        assert stats.fraction_reached == 1.0
        assert math.isfinite(stats.tc_mean)
        assert stats.tc_of_mean is not None

    def test_peak_memory_below_holding_every_trajectory(self):
        """Replicas stream into the statistics: the traced peak of a serial
        40-replica ensemble stays below what its trajectories would hold."""
        params = SimParams(t_max=2000, seed=3)
        tracemalloc.start()
        try:
            run_ensemble(params, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * (params.t_max + 1) * ROW_BYTES

    def test_invalid_replica_count(self):
        with pytest.raises(ValueError):
            run_ensemble(small_params(), 0)

    def test_replica_failure_names_the_seed(self, monkeypatch):
        import techmarket.ensemble as ens

        bad_seed = replica_seeds(99, 3)[2]

        def sabotaged(params, seed, events=None):
            if seed == bad_seed:
                raise ValueError("boom")
            return real(params, seed, events)

        real = ens.run_replica
        monkeypatch.setattr(ens, "run_replica", sabotaged)
        with pytest.raises(ValueError, match=str(bad_seed)):
            ens.run_trajectories(small_params(t_max=5), 3)


class TwoArgError(Exception):
    """An exception whose constructor takes two arguments."""

    def __init__(self, code, detail):
        super().__init__(code, detail)
        self.code = code


class TestReplicaFailure:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["1", "2"])
    def test_exception_type_and_fields_kept(self, monkeypatch, jobs):
        import techmarket.ensemble as ens

        bad_seed = replica_seeds(99, 3)[1]
        real = ens.run_replica

        def sabotaged(params, seed, events=None):
            if seed == bad_seed:
                raise TwoArgError(7, "boom")
            return real(params, seed, events)

        monkeypatch.setattr(ens, "run_replica", sabotaged)
        with pytest.raises(TwoArgError) as info:
            ens.run_trajectories(small_params(t_max=5), 3, jobs)
        assert info.value.code == 7
        assert info.value.__notes__ == [f"replica seed {bad_seed}"]

    def test_failure_cancels_the_queued_replicas(self, monkeypatch):
        """Replica 0 of 64 raises, or the write of its event log does: at
        jobs 2, fewer than 64 replicas start, and no worker is left."""
        import techmarket.ensemble as ens

        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        threads = threading.enumerate()
        bad_seed = replica_seeds(99, 64)[0]
        started = [0]
        lock = threading.Lock()

        def sabotaged(params, seed, events=None):
            with lock:
                started[0] += 1
            if seed == bad_seed and events is None:
                raise TwoArgError(7, "boom")
            time.sleep(0.05)
            return Trajectory.empty(params.t_max + 1)

        monkeypatch.setattr(ens, "run_replica", sabotaged)
        made = record_executors(monkeypatch)
        for error, event_log in ((TwoArgError, None),
                                 (OSError, FullDisk())):
            started[0] = 0
            with pytest.raises(error):
                ens.run_trajectories(small_params(t_max=5), 64, 2,
                                     event_log)
            assert started[0] < 64
            assert_no_worker_left(threads)
        assert made == [2, 2]


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
        import techmarket.ensemble as ens

        stored_ensemble(small_params(t_max=40), 2, SERIAL)
        monkeypatch.setattr(ens, "run_replica", None)  # any call fails
        st = stored_ensemble(small_params(t_max=25), 2, SERIAL)
        assert len(st.t) == 26

    def test_zero_horizon_is_simulated_and_keeps_the_entry(self,
                                                           monkeypatch):
        """A single sweep's statistics are a vector's, summed pairwise, so a
        slice of a longer run, summed replica by replica, has other bits
        from 8 replicas on: a t_max=0 request is simulated, and the longer
        run stays stored."""
        import techmarket.ensemble as ens

        params = SimParams(t_max=5, seed=1)
        longer = stored_ensemble(params, 40, SERIAL)
        zero = replace(params, t_max=0)
        assert_same_stats(stored_ensemble(zero, 40, SERIAL),
                          run_ensemble(zero, 40))
        monkeypatch.setattr(ens, "run_replica", None)  # any call fails
        assert_same_stats(stored_ensemble(params, 40, SERIAL), longer)

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
        import techmarket.ensemble as ens

        real = ens.run_replica
        runs = []

        def spy(params, seed, events=None):
            trajectory = real(params, seed, events)
            runs.append(len(trajectory.n_firms) - 1)
            return trajectory

        monkeypatch.setattr(ens, "run_replica", spy)
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
