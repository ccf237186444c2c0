"""Acceptance suite: one test per criterion, one printed verdict line each.

Heavy ensembles are shared module fixtures; every ensemble's peak
pre-correction normalization error feeds the final integrity check. Run as

    pytest tests/test_acceptance.py -v -s
"""
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from techmarket import PolicyKind, SimParams, VariantKind, run_ensemble
from techmarket.config import resolve_config
from techmarket.dynamics import EventKind, interact, redistribute_shares_equal
from techmarket.ensemble import run_replica
from techmarket.market import survival_probability
from techmarket.rng import derive_seed
from techmarket.scenarios import run_scenario

from conftest import random_market

JOBS = 2
RENORM_PEAKS: dict[str, float] = {}
# The abstract: intervention in the weak and strong segments "does not
# substantially influence the market dynamics, compared to the intervention
# helping the middle-level companies".
SMALL_VS_MEDIUM = 0.2


def _verdict(number: int, name: str, clauses: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in clauses)
    detail = "  ".join(f"{text}[{'ok' if flag else 'FAIL'}]"
                       for text, flag in clauses)
    print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _total_share(market):
    return sum(f.share for f in market.firms.values())


def _ratio_shift(base, policy, t):
    """Shift of the mean <A>/F against the free market at sweep t, and its
    standard error."""
    shift = policy.ratio_mean[t] - base.ratio_mean[t]
    se = math.sqrt(base.ratio_sd[t] ** 2 / base.n_replicas
                   + policy.ratio_sd[t] ** 2 / policy.n_replicas)
    return shift, se


def _small_next_to_medium(base, policy, medium, t):
    """Clauses at sweep t: the medium-tech shift is significant, and the
    policy's shift, at its 2-SE upper bound, stays below SMALL_VS_MEDIUM
    of the medium-tech shift at its 2-SE lower bound."""
    shift, se = _ratio_shift(base, policy, t)
    med, med_se = _ratio_shift(base, medium, t)
    upper = abs(shift) + 2.0 * se
    lower = abs(med) - 2.0 * med_se
    return [
        (f"t={t}:|d_med|={abs(med):.4f}>2se={2.0 * med_se:.4f}",
         abs(med) > 2.0 * med_se),
        (f"t={t}:|d|+2se={upper:.4f}<{SMALL_VS_MEDIUM:g}*(|d_med|-2se)="
         f"{SMALL_VS_MEDIUM * lower:.4f}",
         upper < SMALL_VS_MEDIUM * lower),
    ]


# -- shared ensembles --------------------------------------------------------

@pytest.fixture(scope="module")
def baseline_q0():
    t0 = time.perf_counter()
    stats = run_ensemble(SimParams(q=0.0, t_max=600, seed=101), 400, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    RENORM_PEAKS["baseline_q0"] = stats.max_renorm_error
    return stats, elapsed


@pytest.fixture(scope="module")
def egal_q99():
    stats = run_ensemble(SimParams(q=0.99, t_max=600, seed=101), 400, jobs=JOBS)
    RENORM_PEAKS["egal_q99"] = stats.max_renorm_error
    return stats


@pytest.fixture(scope="module")
def hightech_q99():
    params = SimParams(q=0.99, policy=PolicyKind.HIGH_TECH, t_max=600, seed=202)
    stats = run_ensemble(params, 400, jobs=JOBS)
    RENORM_PEAKS["hightech_q99"] = stats.max_renorm_error
    return stats


@pytest.fixture(scope="module")
def lowtech_q99():
    params = SimParams(q=0.99, policy=PolicyKind.LOW_TECH, t_max=600, seed=101)
    stats = run_ensemble(params, 400, jobs=JOBS)
    RENORM_PEAKS["lowtech_q99"] = stats.max_renorm_error
    return stats


@pytest.fixture(scope="module")
def mediumtech_q99():
    params = SimParams(q=0.99, policy=PolicyKind.MEDIUM_TECH, t_max=600,
                       seed=101)
    stats = run_ensemble(params, 400, jobs=JOBS)
    RENORM_PEAKS["mediumtech_q99"] = stats.max_renorm_error
    return stats


@pytest.fixture(scope="module")
def tc_grid():
    params = SimParams(t_max=3000, seed=303)
    grid = [run_ensemble(replace(params, q=q), 60, jobs=JOBS)
            for q in (0.0, 0.3, 0.9, 0.99)]
    RENORM_PEAKS["tc_grid"] = max(st.max_renorm_error for st in grid)
    full = run_ensemble(replace(params, q=1.0), 24, jobs=JOBS)
    RENORM_PEAKS["q1"] = full.max_renorm_error
    return grid, full


@pytest.fixture(scope="module")
def variant_pair():
    passive = run_ensemble(
        SimParams(q=0.99, t_max=2000, seed=404), 40, jobs=JOBS)
    active = run_ensemble(
        SimParams(q=0.99, t_max=2000, seed=404,
                  variant=VariantKind.ACTIVE_AFTER_RESCUE), 40, jobs=JOBS)
    RENORM_PEAKS["variant_passive"] = passive.max_renorm_error
    RENORM_PEAKS["variant_active"] = active.max_renorm_error
    return passive, active


# -- criteria ----------------------------------------------------------------

def test_criterion_01_conservation_suite():
    n_target = 100_000
    rng = random.Random(515)
    t0 = time.perf_counter()

    bankruptcies = 0
    while bankruptcies < n_target:
        m = random_market(rng, n_min=8, n_max=20)
        order = list(m.firms)
        rng.shuffle(order)
        total = _total_share(m)
        for fid in order[:-2]:
            if bankruptcies >= n_target:
                break
            firm = m.firms[fid]
            m.remove_firm(firm)
            redistribute_shares_equal(m, firm.share)
            new_total = _total_share(m)
            assert abs(new_total - total) <= 1e-12
            total = new_total
            bankruptcies += 1

    def interaction_events(b, want_kind, n_events, dense):
        side = 4 if dense else 6
        params = SimParams(b=b, n_min=1, lx=side, ly=side)
        done = 0
        fill_cap = 16 if dense else 26  # spin-offs saturate a filling lattice
        while done < n_events:
            m = random_market(rng, lx=side, ly=side,
                              n_min=16 if dense else 12,
                              n_max=16 if dense else 18)
            ids = list(m.firms)
            total = _total_share(m)
            attempts = 0
            while (2 < len(m.firms) <= fill_cap and done < n_events
                   and attempts < 200):
                attempts += 1
                i = rng.choice(ids)
                if i not in m.firms:
                    continue
                occ = m.lattice.occupancy
                partners = [o for s in m.lattice.moore8[m.firms[i].site]
                            if (o := occ[s]) >= 0]
                if not partners:
                    continue
                j = rng.choice(partners)
                kind = interact(m, i, j, params, rng)
                new_total = _total_share(m)
                assert abs(new_total - total) <= 1e-12
                total = new_total
                if kind is want_kind:
                    done += 1
        return done

    merges = interaction_events(1.0, EventKind.MERGED, n_target, dense=False)
    spin_offs = interaction_events(0.0, EventKind.SPIN_OFF, n_target, dense=False)
    blocked = interaction_events(0.0, EventKind.SPIN_OFF_BLOCKED, n_target,
                                 dense=True)
    elapsed = time.perf_counter() - t0
    _verdict(1, "conservation-suite", [
        (f"bankruptcy={bankruptcies}", bankruptcies == n_target),
        (f"merge={merges}", merges == n_target),
        (f"spin_off={spin_offs}", spin_offs == n_target),
        (f"blocked={blocked}", blocked == n_target),
        (f"runtime={elapsed:.1f}s<10s", elapsed < 10.0),
    ])


def test_criterion_02_survival_probability_oracle():
    gen = np.random.default_rng(626)
    n = 10_000
    tech = gen.uniform(0.0, 10.0, n)
    mean = gen.uniform(0.0, 2.0, n)
    front = gen.uniform(1.0, 10.0, n)
    s = gen.uniform(0.0, 3.0, n)
    # force both phases and the certain-survival branches
    mean[:1000] = gen.uniform(1.0, 2.0, 1000)
    mean[1000:2000] = gen.uniform(0.0, 1.0, 1000)
    tech[2000:3000] = mean[2000:3000] * front[2000:3000] + 0.5  # safe, low phase
    tech[3000:4000] = front[3000:4000] + 0.5                    # safe, high phase

    low_lag = mean * front - tech
    high_lag = front - tech
    expected = np.where(
        mean < 1.0,
        np.where(low_lag > 0.0, np.exp(-s * low_lag), 1.0),
        np.where(high_lag > 0.0, np.exp(-s * high_lag), 1.0),
    )
    got = np.array([survival_probability(a, m_, f_, s_)
                    for a, m_, f_, s_ in zip(tech, mean, front, s)])
    rel = np.abs(got - expected) / expected
    n_boundary = int(np.sum((got == 1.0) & (expected == 1.0)))
    _verdict(2, "survival-oracle", [
        (f"max_rel_err={rel.max():.2e}<=1e-12", float(rel.max()) <= 1e-12),
        (f"certain-survival cases={n_boundary}>=2000", n_boundary >= 2000),
    ])


def test_criterion_03_free_market_baseline(baseline_q0):
    stats, elapsed = baseline_q0
    n0 = stats.n_mean[0]
    argmax = int(stats.ratio_mean.argmax())
    _verdict(3, "free-market-baseline", [
        (f"N(50)={stats.n_mean[50]:.2f}<0.5*N(0)={0.5 * n0:.0f}",
         stats.n_mean[50] < 0.5 * n0),
        (f"ratio argmax={argmax} in [150,300]", 150 <= argmax <= 300),
        (f"N(600)={stats.n_mean[600]:.2f} in [8,20]",
         8.0 <= stats.n_mean[600] <= 20.0),
        (f"ratio(600)={stats.ratio_mean[600]:.3f}>=0.7",
         stats.ratio_mean[600] >= 0.7),
        (f"runtime={elapsed:.1f}s<60s", elapsed < 60.0),
    ])


def test_criterion_04_egalitarian_strong_intervention(baseline_q0, egal_q99):
    base, _ = baseline_q0
    strong = egal_q99
    r600 = strong.ratio_mean[600]
    sd_ratio = strong.ratio_sd[600] / base.ratio_sd[600]
    _verdict(4, "egalitarian-q0.99", [
        (f"ratio(600)={r600:.3f} in [0.3,0.7]", 0.3 <= r600 <= 0.7),
        (f"sd(600) ratio={sd_ratio:.2f}>=2", sd_ratio >= 2.0),
    ])


def test_criterion_05_hightech_null_result(baseline_q0, hightech_q99,
                                           mediumtech_q99):
    base, _ = baseline_q0
    ht = hightech_q99
    clauses = []
    for t in range(100, 601, 100):
        clauses += _small_next_to_medium(base, ht, mediumtech_q99, t)
    rescued = int(ht.rescued_sum.sum())
    rescued_medium = int(mediumtech_q99.rescued_sum.sum())
    clauses.append((
        f"rescued={rescued}<{SMALL_VS_MEDIUM:g}*rescued_med="
        f"{SMALL_VS_MEDIUM * rescued_medium:.0f}",
        rescued < SMALL_VS_MEDIUM * rescued_medium))
    _verdict(5, "hightech-null-result", clauses)


def test_criterion_06_lowtech_policy(baseline_q0, lowtech_q99, mediumtech_q99):
    base, _ = baseline_q0
    lt = lowtech_q99
    rescues = lt.rescued_sum.astype(float)
    early_share = rescues[:200].sum() / rescues.sum()
    _verdict(6, "lowtech-policy", [
        (f"rescues in t<200: {early_share:.0%}>50%", early_share > 0.5),
        *_small_next_to_medium(base, lt, mediumtech_q99, 600),
    ])


def test_criterion_07_tc_divergence(tc_grid):
    grid, q1_stats = tc_grid
    tc = [st.tc_mean for st in grid]
    increasing = all(a < b for a, b in zip(tc, tc[1:]))
    _verdict(7, "tc-divergence", [
        ("tc strictly increasing over q={0,0.3,0.9,0.99}: "
         + ">".join(f"{v:.0f}" for v in tc), increasing),
        (f"q=1 fraction_reached={q1_stats.fraction_reached:.2f}==0 at tmax=3000",
         q1_stats.fraction_reached == 0.0),
    ])


def test_criterion_08_variant_contrast(variant_pair):
    passive, active = variant_pair
    n0 = active.n_mean[0]
    min_n = float(active.n_mean.min())
    _verdict(8, "variant-contrast", [
        (f"active min mean N={min_n:.1f}>0.7*N(0)={0.7 * n0:.0f}",
         min_n > 0.7 * n0),
        (f"active tc within 2000: none (fraction={active.fraction_reached:.2f})",
         active.tc_of_mean is None and active.fraction_reached == 0.0),
        (f"passive tc={passive.tc_of_mean} within 2000",
         passive.tc_of_mean is not None),
    ])


def test_criterion_09_determinism(tmp_path):
    flags = {"tmax": "50", "replicas": "6", "seed": "55", "q": "0.4"}
    outputs = []
    for run, jobs in (("a", 1), ("b", 2), ("c", 1)):
        params, controls = resolve_config(
            None, {**flags, "jobs": str(jobs), "out": str(tmp_path / run)})
        result = run_scenario("custom", params, controls)
        csv = next(p for p in result.written if p.suffix == ".csv")
        outputs.append(csv.read_bytes())
    same_bytes = outputs[0] == outputs[1] == outputs[2]

    curves = []
    for run, jobs in (("ta", 1), ("tb", 2)):
        params, controls = resolve_config(
            None, {"tmax": "60", "replicas": "3", "seed": "55",
                   "jobs": str(jobs), "out": str(tmp_path / run)})
        result = run_scenario("fig5", params, controls)
        csv = next(p for p in result.written if p.suffix == ".csv")
        curves.append(csv.read_bytes())
    same_bytes &= curves[0] == curves[1]

    p_pas = SimParams(q=0.0, t_max=80, seed=56)
    p_act = replace(p_pas, variant=VariantKind.ACTIVE_AFTER_RESCUE)
    variants_equal = True
    for k in range(4):
        a = run_replica(p_pas, derive_seed(56, k))
        b = run_replica(p_act, derive_seed(56, k))
        variants_equal &= (np.array_equal(a.mean_tech, b.mean_tech)
                           and np.array_equal(a.n_firms, b.n_firms)
                           and np.array_equal(a.ratio, b.ratio))
    _verdict(9, "determinism", [
        ("byte-identical CSVs across reruns and jobs=1/2", same_bytes),
        ("q=0 trajectories bit-identical across variants", variants_equal),
    ])


def test_criterion_10_integrity(baseline_q0, egal_q99, hightech_q99,
                                lowtech_q99, mediumtech_q99, tc_grid,
                                variant_pair):
    worst = max(RENORM_PEAKS.values())
    source = max(RENORM_PEAKS, key=RENORM_PEAKS.get)
    _verdict(10, "integrity", [
        (f"max renorm error={worst:.2e} ({source}) <= 1e-2", worst <= 1e-2),
    ])
