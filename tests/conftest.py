import math
import random

import pytest

from techmarket import compiled
from techmarket.ensemble import clear_store
from techmarket.market import Lattice, MarketState


@pytest.fixture(autouse=True)
def empty_ensemble_store():
    """Every test starts with an empty ensemble store, so no test is
    answered from the ensembles of another."""
    clear_store()
    yield
    clear_store()


@pytest.fixture
def python_kernel(monkeypatch):
    """Replicas run on the Python kernel, as on a machine where the compiled
    one cannot be built."""
    monkeypatch.setattr(compiled, "kernel", lambda: compiled.Kernel(
        None, "python (compiled kernel switched off by a test)"))


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


def build_market(lx=6, ly=6, firms=(), sweep=0, sigma=0.01):
    """Hand-placed market: firms is a list of ((x, y), tech, share)."""
    state = MarketState(Lattice(lx, ly))
    for site, tech, share in firms:
        state.add_firm(tech, share, site_index(state.lattice, site))
    state.sweep = sweep
    state.frontier_value = math.exp(sigma * sweep)
    state.resync_sums()
    return state


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
