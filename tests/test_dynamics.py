"""Engine behavior on the Python oracle (``oracle.py``), which the compiled
kernel matches bit for bit: events, conservation, ordering, policies,
variants."""
import copy
import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from techmarket import IntegrityError, PolicyKind, SimParams, VariantKind
from techmarket.rng import derive_seed

from conftest import build_market, random_market, site_index, step
from oracle import (
    EVENT_FIELDS,
    EventKind,
    Trajectory,
    external_diffusion,
    init_market,
    interact,
    redistribute_shares_equal,
    renormalize_shares,
    run_sweeps,
    shuffle_in_place,
    survival_probability,
)


def total_share(market):
    return sum(f.share for f in market.firms.values())


def run(market, params, rng, sweeps, events=None):
    """The trajectory of ``sweeps`` sweeps of the market on the oracle; row
    k is the market's k-th sweep from now."""
    trajectory = Trajectory.empty(sweeps + 1)
    run_sweeps(market, params, rng, trajectory, events)
    return trajectory


class TestExternalDiffusion:
    def test_small_noise_keeps_tech(self):
        assert external_diffusion(0.5, 2.0, 1e-15) == pytest.approx(0.5, abs=1e-12)

    def test_full_noise_reaches_frontier(self):
        assert external_diffusion(0.5, 2.0, 1.0 - 1e-16) == pytest.approx(2.0, rel=1e-12)

    def test_direct_value(self):
        assert external_diffusion(0.5, 2.0, 0.25) == pytest.approx(0.875, abs=1e-15)

    @given(tech=st.floats(0.0, 0.99), f=st.floats(1.0, 10.0),
           r2=st.floats(1e-9, 1.0, exclude_max=True))
    def test_strictly_between(self, tech, f, r2):
        out = external_diffusion(tech, f, r2)
        assert tech < out < f


class TestRedistributeShares:
    def test_three_way_symmetry(self):
        m = build_market(firms=[((0, 0), 0.1, 1 / 3), ((1, 0), 0.2, 1 / 3),
                                ((2, 0), 0.3, 1 / 3)])
        gone = m.firms[0]
        m.remove_firm(gone)
        redistribute_shares_equal(m, gone.share)
        assert [f.share for f in m.firms.values()] == pytest.approx([0.5, 0.5])

    def test_zero_departing_share(self):
        m = build_market(firms=[((0, 0), 0.1, 0.4), ((1, 0), 0.2, 0.6)])
        redistribute_shares_equal(m, 0.0)
        assert [f.share for f in m.firms.values()] == [0.4, 0.6]

    def test_single_survivor_takes_all(self):
        m = build_market(firms=[((0, 0), 0.1, 0.7), ((1, 0), 0.2, 0.3)])
        gone = m.firms[1]
        m.remove_firm(gone)
        redistribute_shares_equal(m, gone.share)
        assert m.firms[0].share == pytest.approx(1.0, abs=1e-15)

    def test_no_survivors_rejected(self):
        m = build_market(firms=[((0, 0), 0.1, 1.0)])
        gone = m.firms[0]
        m.remove_firm(gone)
        with pytest.raises(ValueError):
            redistribute_shares_equal(m, gone.share)


class TestRenormalizeShares:
    def test_already_normalized(self):
        m = build_market(firms=[((0, 0), 0.1, 0.5), ((1, 0), 0.2, 0.5)])
        err = renormalize_shares(m)
        assert err == 0.0
        assert [f.share for f in m.firms.values()] == pytest.approx([0.5, 0.5],
                                                                    abs=1e-15)

    def test_small_drift_corrected(self):
        m = build_market(firms=[((0, 0), 0.1, 0.5), ((1, 0), 0.2, 0.505)])
        err = renormalize_shares(m)
        assert err == pytest.approx(0.005, abs=1e-12)
        assert m.firms[0].share == pytest.approx(0.5 / 1.005, rel=1e-14)
        assert m.firms[1].share == pytest.approx(0.505 / 1.005, rel=1e-14)
        assert total_share(m) == pytest.approx(1.0, abs=1e-15)

    def test_large_drift_is_integrity_failure(self):
        m = build_market(firms=[((0, 0), 0.1, 0.3), ((1, 0), 0.2, 0.8)])
        with pytest.raises(IntegrityError):
            renormalize_shares(m)


class TestInteract:
    def params(self, **kw):
        defaults = dict(n_min=1, lx=6, ly=6)
        defaults.update(kw)
        return SimParams(**defaults)

    def test_merge_takes_max_and_pools_shares(self):
        m = build_market(firms=[((2, 2), 0.4, 0.2), ((3, 2), 0.7, 0.3),
                                ((0, 0), 0.5, 0.5)])
        kind = interact(m, 0, 1, self.params(b=1.0), random.Random(0))
        assert kind is EventKind.MERGED
        assert 1 not in m.firms
        assert m.firms[0].tech == 0.7
        assert m.firms[0].share == pytest.approx(0.5, abs=1e-15)
        assert m.lattice.occupancy[site_index(m.lattice, (3, 2))] == -1

    def test_spin_off_share_split(self):
        m = build_market(firms=[((2, 2), 0.4, 0.2), ((3, 2), 0.7, 0.3),
                                ((0, 0), 0.5, 0.5)])
        before = total_share(m)
        kind = interact(m, 0, 1, self.params(b=0.0, omega_s=0.1), random.Random(1))
        assert kind is EventKind.SPIN_OFF
        child = m.firms[m.next_id - 1]
        assert child.tech == 0.7
        assert child.share == pytest.approx(0.05, abs=1e-15)
        assert m.firms[0].share == pytest.approx(0.18, abs=1e-15)
        assert m.firms[1].share == pytest.approx(0.27, abs=1e-15)
        assert total_share(m) == pytest.approx(before, abs=1e-15)

    def test_blocked_spin_off_changes_nothing(self):
        # all 8 Moore sites of the actor occupied
        firms = [((x, y), 0.1 * (x + 1) + 0.01 * y, 1.0 / 9.0)
                 for x in (1, 2, 3) for y in (1, 2, 3)]
        m = build_market(firms=firms)
        actor = m.lattice.occupancy[site_index(m.lattice, (2, 2))]
        partner = m.lattice.occupancy[site_index(m.lattice, (3, 2))]
        snapshot = {fid: (f.tech, f.share, f.site) for fid, f in m.firms.items()}
        kind = interact(m, actor, partner, self.params(b=0.0), random.Random(2))
        assert kind is EventKind.SPIN_OFF_BLOCKED
        assert {fid: (f.tech, f.share, f.site) for fid, f in m.firms.items()} == snapshot

    def test_self_interaction_rejected(self):
        m = build_market(firms=[((2, 2), 0.4, 1.0)])
        with pytest.raises(ValueError):
            interact(m, 0, 0, self.params(), random.Random(0))


class TestAttemptBankruptcy:
    """The survival roll and the rescue, each checked on one firm's update
    cycle; n_min=1 keeps the roll on for these small markets."""

    def safe_market(self):
        # single dominant firm at the mean: everyone at/above mean*frontier
        return build_market(firms=[((0, 0), 0.5, 0.5), ((1, 0), 0.5, 0.5)])

    def test_safe_firm_always_survives(self):
        p = SimParams(q=0.0, n_min=1)
        rng = random.Random(9)
        for _ in range(200):
            kind, *_, rescued = step(self.safe_market(), 0, p, rng)
            assert kind != EventKind.BANKRUPTED and not rescued

    def test_certain_rescue_never_bankrupts(self):
        p = SimParams(q=1.0, n_min=1)
        rng = random.Random(10)
        for _ in range(200):
            m = build_market(firms=[((0, 0), 0.0, 0.1), ((1, 0), 0.9, 0.9)])
            assert step(m, 0, p, rng)[0] != EventKind.BANKRUPTED

    def test_rescue_frequency_matches_product(self):
        # P(rescued) = (1 - p_survive) * q, checked by brute-force frequency
        q = 0.8
        params = SimParams(q=q, n_min=1)
        tech = 0.9 - math.log(2.0)
        anchor_share = (0.99 - 0.9) / (0.99 - tech)
        firms = [((0, 0), tech, anchor_share), ((3, 3), 0.99, 1.0 - anchor_share)]
        probe = build_market(firms=firms)
        p_survive = survival_probability(tech, probe.weighted_sum, 1.0, 1.0)
        expected = (1.0 - p_survive) * q
        rng = random.Random(77)
        trials = 20000
        rescued = 0
        for _ in range(trials):
            m = build_market(firms=firms)
            if step(m, 0, params, rng)[0] == EventKind.RESCUED:
                rescued += 1
        freq = rescued / trials
        se = math.sqrt(expected * (1.0 - expected) / trials)
        assert abs(freq - expected) < 3.0 * se

    def test_bankruptcy_removes_and_redistributes(self):
        params = SimParams(q=0.0, n_min=1)
        rng = random.Random(11)
        while True:
            m = build_market(firms=[((0, 0), 0.0, 0.2), ((1, 0), 0.9, 0.4),
                                    ((2, 0), 0.8, 0.4)])
            if step(m, 0, params, rng)[0] == EventKind.BANKRUPTED:
                break
        assert 0 not in m.firms
        assert m.lattice.occupancy[0] == -1
        assert [f.share for f in m.firms.values()] == pytest.approx([0.5, 0.5])

    def test_policy_gates_rescue_by_segment(self):
        # low firm far below mean - sigma_g, high firm far above; q = 1
        firms = [((0, 0), 0.01, 0.05), ((3, 3), 0.95, 0.9), ((5, 5), 0.90, 0.05)]
        low = SimParams(q=1.0, policy=PolicyKind.LOW_TECH, n_min=1)
        high = SimParams(q=1.0, policy=PolicyKind.HIGH_TECH, n_min=1)
        rng = random.Random(13)
        rescued_low = bankrupted_high = 0
        for _ in range(300):
            m = build_market(firms=firms)
            kind = step(m, 0, low, rng)[0]
            assert kind != EventKind.BANKRUPTED  # covered, q=1
            if kind == EventKind.RESCUED:
                rescued_low += 1
            m = build_market(firms=firms)
            kind, *_, rescued = step(m, 0, high, rng)
            assert not rescued  # low firm not covered
            if kind == EventKind.BANKRUPTED:
                bankrupted_high += 1
        assert rescued_low > 0
        assert bankrupted_high > 0


class TestFirmUpdate:
    def test_surrounded_firm_never_moves(self):
        firms = [((2, 2), 0.9, 0.2), ((1, 2), 0.8, 0.2), ((3, 2), 0.8, 0.2),
                 ((2, 1), 0.8, 0.2), ((2, 3), 0.8, 0.2)]
        params = SimParams(q=0.0, n_min=5, lx=6, ly=6)
        rng = random.Random(5)
        for _ in range(100):
            m = build_market(firms=firms)
            actor = m.lattice.occupancy[site_index(m.lattice, (2, 2))]
            kind = step(m, actor, params, rng)[0]
            assert kind in (EventKind.MERGED, EventKind.SPIN_OFF,
                            EventKind.SPIN_OFF_BLOCKED)
            if actor in m.firms:
                assert m.firms[actor].site == site_index(m.lattice, (2, 2))

    def test_isolated_mover_copies_frontier(self):
        params = SimParams(q=0.0, n_min=2, lx=9, ly=9)
        rng = random.Random(6)
        for _ in range(50):
            m = build_market(
                firms=[((4, 4), 0.5, 0.5), ((0, 0), 0.5, 0.5)], sweep=10)
            kind = step(m, 0, params, rng)[0]
            assert kind == EventKind.MOVED_COPIED_FRONTIER
            assert m.firms[0].tech > 0.5
            assert m.firms[0].tech < m.frontier_value

    def test_mover_meets_neighbor_only_by_chance(self):
        # mover ends next to one firm: the random look finds it 1/8 of the
        # time; otherwise the step ends without diffusion or interaction
        params = SimParams(q=0.0, b=0.0, n_min=2, lx=9, ly=9)
        rng = random.Random(16)
        met = missed = 0
        for _ in range(400):
            m = build_market(
                lx=9, ly=9,
                firms=[((4, 4), 0.5, 0.4), ((4, 6), 0.8, 0.6)], sweep=5)
            kind, _, _, partner, _, _ = step(m, 0, params, rng)
            if kind == EventKind.MOVED_NO_DIFFUSION:
                missed += 1
                assert m.firms[0].tech == 0.5  # nothing else changed
                assert len(m.firms) == 2
            elif kind in (EventKind.SPIN_OFF, EventKind.SPIN_OFF_BLOCKED):
                assert partner == 1
                met += 1
        assert met > 0 and missed > 0
        assert missed > met  # a single neighbor is found 1/8 of the time

    def test_no_rescues_without_intervention(self):
        params = SimParams(q=0.0, lx=6, ly=6, n_min=2)
        rng = random.Random(8)
        m = random_market(random.Random(4), n_min=8, n_max=12)
        events = array("q")
        run(m, params, rng, 30, events)
        kinds, rescued = events[0::EVENT_FIELDS], events[5::EVENT_FIELDS]
        assert all(kind != EventKind.RESCUED for kind in kinds)
        assert all(not flag for flag in rescued)


class TestSweep:
    def test_certain_rescue_and_no_merges_never_shrinks(self):
        params = SimParams(q=1.0, b=0.0, lx=6, ly=6, n_min=2)
        rng = random.Random(21)
        m = random_market(random.Random(2), n_min=6, n_max=10)
        n_start = len(m.firms)
        tr = run(m, params, rng, 40)
        assert not np.asarray(tr.bankrupted).any()
        assert tr.n_firms[0] == n_start and (np.diff(tr.n_firms) >= 0).all()

    def test_no_bankruptcies_at_firm_floor(self):
        # full lattice so no mid-sweep spin-off can lift N back above the floor
        params = SimParams(q=0.0, c=1.0, lx=4, ly=4, n_min=16, b=0.0)
        rng = random.Random(22)
        firms = [((x, y), random.Random(30 + x + 4 * y).random(), 1.0 / 16.0)
                 for x in range(4) for y in range(4)]
        m = build_market(lx=4, ly=4, firms=firms)
        tr = run(m, params, rng, 20)
        assert not np.asarray(tr.bankrupted).any()
        assert not np.asarray(tr.rescued).any()  # check skipped entirely

    def test_bankruptcies_resume_above_floor(self):
        params = SimParams(q=0.0, lx=6, ly=6, n_min=2)
        rng = random.Random(29)
        bankrupted = 0
        for trial in range(40):
            m = random_market(random.Random(trial), n_min=8, n_max=16)
            bankrupted += run(m, params, rng, 1).bankrupted[0]
        assert bankrupted > 0

    def test_shares_exactly_normalized_after_sweep(self):
        params = SimParams(q=0.3, lx=6, ly=6, n_min=2)
        rng = random.Random(23)
        m = random_market(random.Random(5), n_min=10, n_max=16)
        for _ in range(25):
            tr = run(m, params, rng, 1)
            assert abs(total_share(m) - 1.0) <= 1e-12
            assert tr.renorm_error[0] <= 1e-2

    def test_stats_measure_sweep_start(self):
        m = build_market(firms=[((0, 0), 0.2, 0.5), ((1, 0), 0.4, 0.5)], sweep=0)
        params = SimParams(q=0.0, lx=6, ly=6, n_min=1)
        tr = run(m, params, random.Random(24), 1)
        assert tr.n_firms[0] == 2
        assert tr.mean_tech[0] == pytest.approx(0.3, abs=1e-15)
        assert tr.ratio[0] == pytest.approx(0.3, abs=1e-15)
        assert m.sweep == 1
        assert m.frontier_value == pytest.approx(math.exp(0.01), rel=1e-15)

    def test_occupancy_bijection_preserved(self):
        params = SimParams(q=0.2, lx=6, ly=6, n_min=2)
        rng = random.Random(25)
        m = random_market(random.Random(6), n_min=10, n_max=18)
        for _ in range(30):
            run(m, params, rng, 1)
            occupied = {i for i, fid in enumerate(m.lattice.occupancy) if fid >= 0}
            assert occupied == {f.site for f in m.firms.values()}
            for f in m.firms.values():
                assert m.lattice.occupancy[f.site] == f.id

    def test_monotone_tech_for_survivors(self):
        params = SimParams(q=0.1, lx=6, ly=6, n_min=2)
        rng = random.Random(26)
        m = random_market(random.Random(7), n_min=10, n_max=18)
        for _ in range(30):
            before = {fid: f.tech for fid, f in m.firms.items()}
            run(m, params, rng, 1)
            for fid, f in m.firms.items():
                if fid in before:
                    assert f.tech >= before[fid]

    def test_running_sums_track_exact_recomputation(self):
        # mid-sweep survival and segment decisions read these sums
        params = SimParams(q=0.5, t_max=0, seed=9,
                           policy=PolicyKind.MEDIUM_TECH)
        rng = random.Random(derive_seed(9, 0))

        m = init_market(params, rng)
        for _ in range(60):
            m.resync_sums()
            order = list(m.firms)
            shuffle_in_place(order, rng)
            for fid in order:
                if fid not in m.firms:
                    continue
                step(m, fid, params, rng)
                exact = sum(f.share * f.tech for f in m.firms.values())
                assert abs(exact - m.weighted_sum) <= 1e-12
                assert abs(sum(f.tech for f in m.firms.values())
                           - m.tech_sum) <= 1e-9
            renormalize_shares(m)
            m.sweep += 1
            m.frontier_value = math.exp(params.sigma * m.sweep)

    def test_technology_stays_below_frontier(self):
        params = SimParams(q=0.2, lx=6, ly=6, n_min=2)
        rng = random.Random(27)
        m = random_market(random.Random(8), n_min=10, n_max=18)
        for _ in range(60):
            # at a sweep boundary frontier_value is F(t) for the coming sweep
            assert all(0.0 <= f.tech < m.frontier_value
                       for f in m.firms.values())
            run(m, params, rng, 1)


# Conservation properties across randomized markets -------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_bankruptcy_event_conserves_total_share(seed):
    rng = random.Random(seed)
    m = random_market(rng, n_min=3)
    before = total_share(m)
    gone = m.firms[rng.choice(list(m.firms))]
    m.remove_firm(gone)
    redistribute_shares_equal(m, gone.share)
    assert abs(total_share(m) - before) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_interaction_event_conserves_total_share(seed):
    rng = random.Random(seed)
    m = random_market(rng, n_min=3)
    before = total_share(m)
    ids = list(m.firms)
    i, j = rng.sample(ids, 2)
    # force each branch via the merge probability
    b = rng.choice([0.0, 1.0])
    params = SimParams(b=b, n_min=1, lx=6, ly=6)
    interact(m, i, j, params, rng)
    assert abs(total_share(m) - before) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_sweep_conserves_shares_within_tolerance(seed):
    rng = random.Random(seed)
    m = random_market(rng, n_min=6, n_max=20)
    params = SimParams(q=rng.random(), lx=6, ly=6, n_min=2)
    stream = random.Random(seed + 1)
    for _ in range(10):
        tr = run(m, params, stream, 1)
        assert tr.renorm_error[0] <= 1e-10  # per-sweep drift is tiny
        assert abs(total_share(m) - 1.0) <= 1e-12
