"""Replica runs, deterministic seeding, aggregation, catch-up times, and
the ensemble store."""
import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from techmarket import (
    EnsembleStats,
    PolicyKind,
    SimParams,
    VariantKind,
    run_ensemble,
)
from techmarket.ensemble import (
    LazyPool,
    Trajectory,
    aggregate,
    estimate_tc,
    replica_seeds,
    run_replica,
    stored_ensemble,
)
from techmarket.rng import derive_seed


def small_params(**kw):
    defaults = dict(t_max=60, seed=99)
    defaults.update(kw)
    return SimParams(**defaults)


class TestRunReplica:
    def test_zero_horizon_single_record(self):
        p = small_params(t_max=0)
        tr = run_replica(p, derive_seed(p.seed, 0))
        assert len(tr.t) == 1
        assert tr.n_firms[0] == 80
        assert tr.ratio[0] == tr.mean_tech[0]  # frontier(0) = 1

    def test_series_length_and_clock(self):
        p = small_params(t_max=25)
        tr = run_replica(p, derive_seed(p.seed, 0))
        assert len(tr.t) == 26
        assert list(tr.t) == list(range(26))

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
        recon = tr.ratio * np.exp(0.01 * tr.t)
        assert np.allclose(recon, tr.mean_tech, rtol=1e-12, atol=0.0)

    def test_free_market_plateau_near_floor(self):
        p = SimParams(q=0.0, t_max=600, seed=42)
        tr = run_replica(p, derive_seed(42, 0))
        assert 8 <= tr.n_firms[600] <= 20

    def test_resumed_replica_continues_the_run(self):
        p = small_params(t_max=70, q=0.9, policy=PolicyKind.MEDIUM_TECH)
        seed = derive_seed(p.seed, 2)
        whole = run_replica(p, seed)
        head = run_replica(replace(p, t_max=30), seed)
        tail = run_replica(p, seed, start=head.end_state)
        assert list(tail.t) == list(range(30, 71))
        assert tail.end_state == whole.end_state
        for name in ("n_firms", "mean_tech", "ratio"):
            joined = np.concatenate((getattr(head, name)[:30],
                                     getattr(tail, name)))
            assert np.array_equal(joined, getattr(whole, name)), name
        # the short run's last row has no sweep after it; the resumed one
        # records sweep 30's rescues, bankruptcies and renorm error
        for name in ("rescued", "bankrupted", "renorm_error"):
            assert getattr(head, name)[30] == 0
            assert np.array_equal(getattr(tail, name),
                                  getattr(whole, name)[30:]), name
        assert whole.rescued[30:].sum() > 0

    def test_start_past_the_horizon_rejected(self):
        p = small_params(t_max=20)
        end = run_replica(p, derive_seed(p.seed, 0)).end_state
        with pytest.raises(ValueError, match="past"):
            run_replica(replace(p, t_max=10), derive_seed(p.seed, 0),
                        start=end)

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
        assert estimate_tc([0.8, 0.9, 1.0, 1.1], 1.0) == 2

    def test_never_reached(self):
        assert estimate_tc([0.8, 0.9, 0.95], 1.0) is None

    def test_immediate_crossing(self):
        assert estimate_tc([1.0, 0.9, 0.8], 1.0) == 0

    def test_monotone_in_threshold(self):
        series = [0.2, 0.5, 0.4, 0.9, 1.1, 1.0, 1.4]
        last = -1
        for threshold in (0.1, 0.4, 0.9, 1.05, 1.3):
            tc = estimate_tc(series, threshold)
            assert tc is not None and tc >= last
            last = tc


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
        assert np.all(st.a_sd == 0.0)
        assert np.all(st.n_sd == 0.0)

    def test_parallel_matches_serial(self):
        p = small_params(t_max=40)
        serial = run_ensemble(p, 6, jobs=1)
        parallel = run_ensemble(p, 6, jobs=2)
        assert np.array_equal(serial.a_mean, parallel.a_mean)
        assert np.array_equal(serial.a_sd, parallel.a_sd)
        assert np.array_equal(serial.ratio_mean, parallel.ratio_mean)
        assert serial.tc_mean == parallel.tc_mean or (
            math.isnan(serial.tc_mean) and math.isnan(parallel.tc_mean))

    def test_constant_synthetic_ensemble(self):
        t = np.arange(5)
        row = np.full(5, 3.0)
        trs = [
            Trajectory(t.copy(), np.full(5, 7), row.copy(), row.copy(),
                       np.zeros(5, int), np.zeros(5, int), np.zeros(5))
            for _ in range(4)
        ]
        st = aggregate(trs)
        assert np.all(st.a_mean == 3.0) and np.all(st.a_sd == 0.0)
        assert np.all(st.n_mean == 7.0) and np.all(st.n_sd == 0.0)
        assert st.tc_of_mean == 0  # constant 3.0 >= 1 from the start
        assert st.fraction_reached == 1.0

    def test_free_market_always_crosses(self):
        stats = run_ensemble(small_params(t_max=250), 4)
        assert stats.fraction_reached == 1.0
        assert math.isfinite(stats.tc_mean)
        assert stats.tc_of_mean is not None

    def test_invalid_replica_count(self):
        with pytest.raises(ValueError):
            run_ensemble(small_params(), 0)

    def test_replica_failure_names_the_seed(self, monkeypatch):
        import techmarket.ensemble as ens

        bad_seed = replica_seeds(99, 3)[2]

        def sabotaged(params, seed, events=None, start=None):
            if seed == bad_seed:
                raise ValueError("boom")
            return real(params, seed, events, start)

        real = ens.run_replica
        monkeypatch.setattr(ens, "run_replica", sabotaged)
        with pytest.raises(ValueError, match=str(bad_seed)):
            ens.run_trajectories(small_params(t_max=5), 3, LazyPool(1))


class TwoArgError(Exception):
    """An exception whose constructor takes two arguments."""

    def __init__(self, code, detail):
        super().__init__(code, detail)
        self.code = code


class TestReplicaFailure:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exception_type_and_fields_kept(self, monkeypatch, jobs):
        import techmarket.ensemble as ens

        bad_seed = replica_seeds(99, 3)[1]
        real = ens.run_replica

        def sabotaged(params, seed, events=None, start=None):
            if seed == bad_seed:
                raise TwoArgError(7, "boom")
            return real(params, seed, events, start)

        monkeypatch.setattr(ens, "run_replica", sabotaged)
        with pytest.raises(TwoArgError) as info, LazyPool(jobs) as pool:
            ens.run_trajectories(small_params(t_max=5), 3, pool)
        assert info.value.code == 7
        assert info.value.__notes__ == [f"replica seed {bad_seed}"]


def assert_same_stats(got: EnsembleStats, want: EnsembleStats) -> None:
    """Every field equal, arrays in dtype and value, nan where nan."""
    for field in dataclasses.fields(EnsembleStats):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a, b, equal_nan=True), field.name
        elif isinstance(b, float) and math.isnan(b):
            assert math.isnan(a), field.name
        else:
            assert a == b, field.name


# crossings at sweeps 78..133 for seed 99 and 4 replicas
MEDIUM_Q09 = small_params(q=0.9, policy=PolicyKind.MEDIUM_TECH, t_max=150)
# runs every replica in the calling process and never starts a worker
SERIAL = LazyPool(1)


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

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("params", [
        small_params(q=0.5, t_max=90),
        small_params(q=0.9, t_max=90, variant=VariantKind.ACTIVE_AFTER_RESCUE),
        MEDIUM_Q09,
    ], ids=["passive", "active", "mediumtech"])
    def test_resume_equals_fresh_run(self, monkeypatch, params, jobs):
        import techmarket.ensemble as ens

        real = ens.run_replica
        starts = []

        def spy(params, seed, events=None, start=None):
            starts.append(start is not None)
            return real(params, seed, events, start)

        monkeypatch.setattr(ens, "run_replica", spy)
        first = replace(params, t_max=params.t_max * 2 // 3)
        middle = replace(params, t_max=params.t_max * 5 // 6)
        with LazyPool(jobs) as pool:
            assert_same_stats(stored_ensemble(first, 4, pool),
                              run_ensemble(first, 4))
            resumed = stored_ensemble(params, 4, pool)
            assert_same_stats(resumed, run_ensemble(params, 4))
            assert_same_stats(stored_ensemble(middle, 4, pool),
                              run_ensemble(middle, 4))
        if jobs == 1:  # pool workers do not report back
            # 4 fresh, then 4 resumed, then the two run_ensemble calls
            assert starts == [False] * 8 + [True] * 4 + [False] * 8

    def test_key_separates_seed_replicas_and_params(self):
        a = stored_ensemble(small_params(t_max=20), 2, SERIAL)
        for other, n in ((small_params(t_max=20, seed=100), 2),
                         (small_params(t_max=20), 3),
                         (small_params(t_max=20, q=0.3), 2)):
            st = stored_ensemble(other, n, SERIAL)
            assert_same_stats(st, run_ensemble(other, n))
            assert not np.array_equal(st.a_mean, a.a_mean)
