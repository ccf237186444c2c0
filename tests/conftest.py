import math
import multiprocessing
import random
import threading
from array import array

import pytest

from techmarket import ensemble

from oracle import Lattice, MarketState, update_cycle


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


def record_executors(monkeypatch):
    """The max_workers of every thread executor ``ensemble`` constructs from
    now on, in a list that grows as they are made."""
    base, made = ensemble.ThreadPoolExecutor, []

    def recording(max_workers=None, *args, **kwargs):
        made.append(max_workers)
        return base(max_workers, *args, **kwargs)

    monkeypatch.setattr(ensemble, "ThreadPoolExecutor", recording)
    return made


def assert_no_worker_left(threads):
    """Only the given threads are alive, and no child process."""
    assert threading.enumerate() == threads
    assert multiprocessing.active_children() == []


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
