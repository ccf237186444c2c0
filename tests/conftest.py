import math
import multiprocessing
import random
import threading
from array import array

import pytest

from techmarket import compiled, ensemble
from techmarket.dynamics import _update_cycle
from techmarket.ensemble import clear_store
from techmarket.market import Lattice, MarketState


@pytest.fixture(autouse=True)
def empty_ensemble_store():
    """Every test starts with an empty ensemble store, so no test is
    answered from the ensembles of another."""
    clear_store()
    yield
    clear_store()


def use_python_kernel(monkeypatch):
    """Replicas run on the Python kernel, as on a machine where the compiled
    one cannot be built."""
    monkeypatch.setattr(compiled, "kernel", lambda: compiled.Kernel(
        None, "python (compiled kernel switched off by a test)"))


@pytest.fixture
def python_kernel(monkeypatch):
    use_python_kernel(monkeypatch)


def each_kernel(monkeypatch):
    """The loaded kernel, then the Python one. For each, the store is
    emptied, and this yields the kernel's name, ``compiled`` or ``python``,
    with the max_workers of every thread executor ``ensemble`` constructs
    from then on, and every thread started from then on. Replicas run on
    threads only on the compiled kernel."""
    base, start = ensemble.ThreadPoolExecutor, threading.Thread.start
    for python in (False, True):
        if python:
            use_python_kernel(monkeypatch)
        made, started = [], []

        def recording(max_workers=None, *args, **kwargs):
            made.append(max_workers)
            return base(max_workers, *args, **kwargs)

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(ensemble, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        clear_store()
        yield ("python" if compiled.kernel().lib is None
               else "compiled"), made, started


def assert_no_worker_left(threads):
    """Only the given threads are alive, and no child process."""
    assert threading.enumerate() == threads
    assert multiprocessing.active_children() == []


@pytest.fixture
def compiled_lib():
    """The compiled kernel's library; the test is skipped without one."""
    lib, note = compiled.kernel()
    if lib is None:
        pytest.skip(f"no compiled kernel: {note}")
    return lib


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
    """Hand-placed market: firms is a list of ((x, y), tech, share)."""
    state = MarketState(Lattice(lx, ly))
    for site, tech, share in firms:
        state.add_firm(tech, share, site_index(state.lattice, site))
    state.sweep = sweep
    state.frontier_value = math.exp(sigma * sweep)
    state.resync_sums()
    return state


def step(market, firm_id, params, rng):
    """One update cycle of the live firm ``firm_id`` on the Python kernel;
    returns its event row (kind, firm, t, partner, child, rescued)."""
    events = array("q")
    _update_cycle(market, params, rng, (firm_id,), events)
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
