"""Core quantities: frontier, means, survival probability, segments, init."""
import math
import random

import pytest
from hypothesis import given, strategies as st

from techmarket import ConfigError, SimParams
from techmarket.market import (
    Lattice,
    Segment,
    classify_segment,
    frontier,
    init_market,
    population_sd_tech,
    survival_probability,
    weighted_mean_tech,
)

from conftest import build_market, random_market, site_index


class TestFrontier:
    def test_starts_at_one(self):
        assert frontier(0, 0.01) == 1.0

    def test_direct_values(self):
        assert frontier(100, 0.01) == pytest.approx(math.exp(1.0), rel=1e-15)
        assert frontier(220, 0.01) == pytest.approx(9.025013499434122, rel=1e-12)

    def test_per_sweep_growth_factor(self):
        for t in (0, 1, 17, 599, 2999):
            assert frontier(t + 1, 0.01) / frontier(t, 0.01) == pytest.approx(
                math.exp(0.01), rel=1e-12)

    @given(st.integers(min_value=0, max_value=5000))
    def test_strictly_increasing(self, t):
        assert frontier(t + 1, 0.01) > frontier(t, 0.01)


class TestWeightedMeanTech:
    def test_symmetric_average(self):
        m = build_market(firms=[((0, 0), 0.2, 0.5), ((1, 0), 0.4, 0.5)])
        assert weighted_mean_tech(m) == pytest.approx(0.3, abs=1e-15)

    def test_single_firm_identity(self):
        m = build_market(firms=[((0, 0), 0.7, 1.0)])
        assert weighted_mean_tech(m) == pytest.approx(0.7, abs=1e-15)

    def test_skewed_shares(self):
        m = build_market(firms=[((0, 0), 0.0, 0.9), ((1, 0), 1.0, 0.1)])
        assert weighted_mean_tech(m) == pytest.approx(0.1, abs=1e-15)

    def test_empty_market_rejected(self):
        with pytest.raises(ValueError):
            weighted_mean_tech(build_market(firms=[]))

    def test_within_tech_range(self, rng):
        for _ in range(50):
            m = random_market(rng)
            techs = [f.tech for f in m.firms.values()]
            mean = weighted_mean_tech(m)
            assert min(techs) - 1e-12 <= mean <= max(techs) + 1e-12


class TestPopulationSdTech:
    def test_single_firm_no_dispersion(self):
        m = build_market(firms=[((0, 0), 0.7, 1.0)])
        assert population_sd_tech(m) == 0.0

    def test_identical_techs(self):
        m = build_market(firms=[((x, 0), 0.4, 0.25) for x in range(4)])
        assert population_sd_tech(m) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_spread(self):
        m = build_market(firms=[((0, 0), 0.0, 0.5), ((1, 0), 1.0, 0.5)])
        assert population_sd_tech(m) == pytest.approx(0.5, abs=1e-15)


class TestSurvivalProbability:
    def test_safe_when_above_weighted_threshold(self):
        # mean below 1: any tech at or above mean*frontier is safe
        assert survival_probability(0.5, 0.5, 1.0, 1.0) == 1.0
        assert survival_probability(0.9, 0.5, 1.5, 1.0) == 1.0

    def test_low_phase_lag(self):
        assert survival_probability(0.2, 0.5, 1.0, 1.0) == pytest.approx(
            0.7408182206817179, rel=1e-12)

    def test_high_phase_lag(self):
        assert survival_probability(1.0, 1.2, 2.0, 1.0) == pytest.approx(
            0.36787944117144233, rel=1e-12)

    def test_boundary_zero_lag_is_one(self):
        assert survival_probability(0.75, 0.5, 1.5, 1.0) == 1.0
        assert survival_probability(2.0, 1.1, 2.0, 1.0) == 1.0

    @given(
        tech=st.floats(0.0, 10.0),
        mean=st.floats(0.0, 3.0),
        f=st.floats(1.0, 20.0),
        s=st.floats(0.0, 5.0),
    )
    def test_result_in_unit_interval(self, tech, mean, f, s):
        p = survival_probability(tech, mean, f, s)
        assert 0.0 < p <= 1.0


class TestClassifySegment:
    def test_at_mean(self):
        assert classify_segment(0.5, 0.5, 0.1) is Segment.MEDIUM

    def test_below_band(self):
        assert classify_segment(0.5 - 0.15, 0.5, 0.1) is Segment.LOW

    def test_boundary_belongs_to_medium(self):
        assert classify_segment(0.6, 0.5, 0.1) is Segment.MEDIUM
        assert classify_segment(0.4, 0.5, 0.1) is Segment.MEDIUM

    def test_zero_spread(self):
        assert classify_segment(0.5, 0.5, 0.0) is Segment.MEDIUM
        assert classify_segment(0.49, 0.5, 0.0) is Segment.LOW
        assert classify_segment(0.51, 0.5, 0.0) is Segment.HIGH

    @given(
        tech=st.floats(0.0, 2.0),
        mean=st.floats(0.0, 2.0),
        sg=st.floats(0.0, 1.0),
    )
    def test_partition_is_exhaustive_and_exclusive(self, tech, mean, sg):
        seg = classify_segment(tech, mean, sg)
        below = tech < mean - sg
        above = tech > mean + sg
        assert seg is (Segment.LOW if below
                       else Segment.HIGH if above else Segment.MEDIUM)


class TestInitMarket:
    def test_default_concentration(self):
        m = init_market(SimParams(), random.Random(1))
        assert len(m.firms) == 80
        shares = [f.share for f in m.firms.values()]
        assert all(s == pytest.approx(0.0125, abs=1e-15) for s in shares)
        assert m.total_share() == pytest.approx(1.0, abs=1e-12)
        assert m.sweep == 0 and m.frontier_value == 1.0

    def test_full_lattice(self):
        m = init_market(SimParams(c=1.0), random.Random(1))
        assert len(m.firms) == 100
        assert all(fid >= 0 for fid in m.lattice.occupancy)

    def test_sites_distinct_and_consistent(self):
        m = init_market(SimParams(), random.Random(3))
        sites = [f.site for f in m.firms.values()]
        assert len(set(sites)) == len(sites)
        for f in m.firms.values():
            assert m.lattice.occupancy[f.site] == f.id

    def test_tech_below_initial_frontier(self):
        for seed in range(10):
            m = init_market(SimParams(), random.Random(seed))
            assert all(0.0 <= f.tech < 1.0 for f in m.firms.values())

    def test_mean_initial_tech_near_half(self):
        # per-replica mean of 80 uniforms, averaged over many inits
        n_inits = 200
        means = [weighted_mean_tech(init_market(SimParams(), random.Random(k)))
                 for k in range(n_inits)]
        grand = sum(means) / n_inits
        se = math.sqrt(1.0 / 12.0 / 80.0 / n_inits)
        assert abs(grand - 0.5) < 3.0 * se

    def test_too_dilute_rejected(self):
        with pytest.raises(ConfigError):
            SimParams(c=0.005, n_min=1, lx=10, ly=10)


class TestNeighbors:
    def test_periodic_wrap_von_neumann(self):
        lat = Lattice(10, 10)
        want = {site_index(lat, s) for s in ((9, 0), (1, 0), (0, 9), (0, 1))}
        assert set(lat.vn4[site_index(lat, (0, 0))]) == want

    def test_moore_interior(self):
        lat = Lattice(10, 10)
        center = site_index(lat, (5, 5))
        want = {site_index(lat, (x, y)) for x in (4, 5, 6) for y in (4, 5, 6)}
        assert set(lat.moore8[center]) == want - {center}

    def test_von_neumann_subset_of_moore(self):
        lat = Lattice(7, 5)
        for site in [(0, 0), (3, 2), (6, 4), (0, 4)]:
            idx = site_index(lat, site)
            assert set(lat.vn4[idx]) < set(lat.moore8[idx])

    def test_counts_distinct(self):
        lat = Lattice(5, 5)
        for idx in range(25):
            assert len(set(lat.vn4[idx])) == 4
            assert len(set(lat.moore8[idx])) == 8
