import math
import multiprocessing
import os
import random
import threading
from array import array

import pytest

from techmarket import compiled, ensemble

from oracle import Lattice, MarketState, kernel_replica, update_cycle


def clear_store():
    """Forget every ensemble the store holds."""
    ensemble._STORE.clear()


@pytest.fixture(autouse=True)
def empty_ensemble_store():
    """Every test starts with an empty ensemble store, so no test is
    answered from the ensembles of another."""
    clear_store()
    yield
    clear_store()


def record_workers(monkeypatch):
    """The workers of every ensemble the kernel runs from now on, in a list
    that grows as they finish: the calling thread plus the threads that
    tm_run_ensemble started, as the call reports them. A paused logged
    ensemble counts at its first call only."""
    lib, made = compiled.kernel(), []
    real = lib.tm_run_ensemble

    def recording(ensemble_ref):
        run = ensemble_ref._obj  # the Ensemble that byref points to
        first = not run.paused
        status = real(ensemble_ref)
        if first:
            made.append(run.workers)
        return status

    monkeypatch.setattr(lib, "tm_run_ensemble", recording)
    return made


def live_threads():
    """The Python threads alive, and the ids of every thread of the
    process, C threads included (empty where /proc is missing)."""
    tasks = "/proc/self/task"
    return (threading.enumerate(),
            sorted(os.listdir(tasks)) if os.path.isdir(tasks) else [])


def assert_no_worker_left(threads):
    """Only the threads of ``live_threads()`` are alive, and no child
    process."""
    assert live_threads() == threads
    assert multiprocessing.active_children() == []


def lowest_failing(params, n_replicas):
    """(k, tolerance): the first replica k >= 1 of the ensemble of
    ``params`` whose largest renormalization error is above every earlier
    replica's, and the largest of those earlier errors. With
    RENORM_TOLERANCE at it, replica k is the lowest replica that fails."""
    errors = [max(kernel_replica(params, seed).renorm_error)
              for seed in ensemble.replica_seeds(params.seed, n_replicas)]
    k = next(k for k in range(1, n_replicas) if errors[k] > max(errors[:k]))
    return k, max(errors[:k])


def site_index(lattice, site):
    """Flat lattice index of site (x, y)."""
    x, y = site
    return y * lattice.width + x


def vn4_of(lattice, index):
    """The 4 von Neumann neighbors of flat site ``index``."""
    return lattice.vn4[4 * index:4 * index + 4]


def moore8_of(lattice, index):
    """The 8 Moore neighbors of flat site ``index``."""
    return lattice.moore8[8 * index:8 * index + 8]


def build_market(lx=6, ly=6, firms=(), sweep=0, sigma=0.01):
    """Hand-placed oracle market: firms is a list of ((x, y), tech, share)."""
    state = MarketState(Lattice(lx, ly))
    for site, tech, share in firms:
        state.add_firm(tech, share, site_index(state.lattice, site))
    state.sweep = sweep
    state.frontier_value = math.exp(sigma * sweep)
    state.resync_sums()
    return state


def step(market, firm_id, params, rng):
    """One update cycle of the live firm ``firm_id`` on the oracle; returns
    its event row (kind, firm, t, partner, child, rescued)."""
    events = array("q")
    update_cycle(market, params, rng, (firm_id,), events)
    return tuple(events)


def random_market(rng: random.Random, lx=6, ly=6, n_min=2, n_max=20):
    """Randomized small market with normalized shares on distinct sites."""
    n = rng.randint(n_min, min(n_max, lx * ly))
    sites = rng.sample(range(lx * ly), n)
    raw = [rng.random() + 0.05 for _ in range(n)]
    total = sum(raw)
    state = MarketState(Lattice(lx, ly))
    for site, w in zip(sites, raw):
        state.add_firm(rng.random(), w / total, site)
    state.resync_sums()
    return state


@pytest.fixture
def rng():
    return random.Random(12345)
