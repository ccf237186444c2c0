"""The compiled sweep kernel against the Python kernel, its reference, and
its build: fallback, cache and the runs that must load it."""
import copy
import io
import os
import pickle
import random
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from techmarket import (
    ConfigError,
    IntegrityError,
    PolicyKind,
    SimParams,
    VariantKind,
    compiled,
    dynamics,
)
from techmarket.cli import main
from techmarket.dynamics import EVENT_FIELDS, EventKind, Trajectory
from techmarket.ensemble import clear_store, run_ensemble, run_replica
from techmarket.market import init_market
from techmarket.output import emit_event_log
from techmarket.rng import derive_seed

from conftest import build_market, use_python_kernel


@st.composite
def sim_params(draw):
    """Validated parameters on 3..7 lattices with horizons up to 40."""
    lx, ly = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    c = draw(st.floats(1.0 / (lx * ly), 1.0))
    try:
        return SimParams(
            sigma=draw(st.floats(0.0, 1.0)),
            s=draw(st.floats(0.0, 10.0)),
            b=draw(st.floats(0.0, 1.0)),
            n_min=draw(st.integers(1, max(1, int(c * lx * ly)))),
            omega_s=draw(st.floats(0.01, 0.99)),
            c=c,
            q=draw(st.sampled_from((0.0, 0.5, 0.99, 1.0))
                   | st.floats(0.0, 1.0)),
            policy=draw(st.sampled_from(PolicyKind)),
            variant=draw(st.sampled_from(VariantKind)),
            lx=lx, ly=ly,
            t_max=draw(st.integers(0, 40)),
            seed=draw(st.integers(0, 2**64 - 1)))
    except ConfigError:
        assume(False)


#: The columns the kernels write.
COLUMNS = ("n_firms", "mean_tech", "ratio", "rescued", "bankrupted",
           "renorm_error")


#: State's scalars of the end market, with MarketState's names.
SCALARS = {"sweep": "sweep", "next_id": "next_id",
           "frontier": "frontier_value", "ws": "weighted_sum",
           "ts": "tech_sum", "tq": "tech_sq_sum"}


def run_both(lib, market, params, rng):
    """Each kernel's run_sweeps to params.t_max with an event sink: the
    compiled run's (trajectory, events, State), then the Python run's
    (trajectory, events, market, rng) on copies of ``market`` and ``rng``.
    The compiled run must leave ``market`` and ``rng`` as they were."""
    before = pickle.dumps((market, rng))
    trajectory, events = Trajectory.empty(params.t_max + 1), array("q")
    state = compiled.run_sweeps(lib, market, params, rng, trajectory, events)
    assert pickle.dumps((market, rng)) == before
    compiled_run = trajectory, events, state
    market, rng = copy.deepcopy(market), copy.deepcopy(rng)
    trajectory, events = Trajectory.empty(params.t_max + 1), array("q")
    dynamics.run_sweeps(market, params, rng, trajectory, events)
    return compiled_run, (trajectory, events, market, rng)


def assert_same_runs(compiled_run, python_run):
    (tr_c, events_c, state), (tr_py, events_py, market, rng) = (compiled_run,
                                                               python_run)
    for name in COLUMNS:
        assert np.array_equal(getattr(tr_c, name), getattr(tr_py, name)), name
    assert events_c == events_py
    # the end market: firms in slot order against the registry's order
    firms = list(market.firms.values())
    assert state.n_slots == len(firms)
    for name in ("id", "tech", "share", "site"):
        assert getattr(state, name)[:len(firms)] == [
            getattr(f, name) for f in firms], name
    occupancy = market.lattice.occupancy
    assert [-1 if k < 0 else state.id[k] for k in state.occ[:len(occupancy)]
            ] == occupancy
    for name, attr in SCALARS.items():
        assert getattr(state, name) == getattr(market, attr), name
    # the end stream: 624 words and the position
    words = rng.getstate()[1]
    assert tuple(state.mt[:len(words)]) == words


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(params=sim_params())
def test_compiled_sweeps_match_python(compiled_lib, params):
    rng = random.Random(params.seed)
    market = init_market(params, rng)
    assert_same_runs(*run_both(compiled_lib, market, params, rng))


def test_logged_run_crosses_the_event_buffer(compiled_lib):
    # about 98 live firms, so about 98 rows per sweep
    params = SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE,
                       t_max=120, seed=5)
    rng = random.Random(params.seed)
    market = init_market(params, rng)
    compiled_run, python_run = run_both(compiled_lib, market, params, rng)
    assert len(compiled_run[1]) > 2 * EVENT_FIELDS * compiled.EVENT_ROWS
    assert_same_runs(compiled_run, python_run)


def _rendered(replica, sink, python):
    """emit_event_log's text for ``sink`` on the loaded kernel, in C calls of
    at most 3 rows, or on the Python one; or the message of the ValueError
    it raised."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiled, "EVENT_ROWS", 3)
        if python:
            use_python_kernel(mp)
        try:
            emit_event_log(out, replica, sink)
        except ValueError as exc:
            return f"ValueError: {exc}"
    return out.getvalue()


_INT64 = st.integers(-2**63, 2**63 - 1)
_UNSET_OR_ID = st.one_of(st.just(-1), st.integers(0, 2**63 - 1))
_EVENT_ROW = st.tuples(st.sampled_from(EventKind), _INT64, _INT64,
                       _UNSET_OR_ID, _UNSET_OR_ID, st.integers(0, 1))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(replica=st.integers(0, 2**63 - 1),
       rows=st.lists(_EVENT_ROW, max_size=8),
       bad=st.sampled_from([(0, 7), (0, -1), (5, 2), (5, -1)]))
def test_compiled_event_log_matches_python(compiled_lib, replica, rows, bad):
    # 0 rows, 1 row and rows across several C calls; test_golden's event
    # logs cross the full-size calls
    sink = array("q", [value for row in rows for value in row])
    text = _rendered(replica, sink, python=False)
    assert text == _rendered(replica, sink, python=True)
    assert text.count("\n") == len(rows)
    # the last row gets a kind outside EventKind or a rescued flag other
    # than 0 and 1
    column, value = bad
    sink[-EVENT_FIELDS:] = array("q", [0, 1, 2, -1, -1, 0])
    sink[column - EVENT_FIELDS] = value
    error = _rendered(replica, sink, python=False)
    assert error.startswith("ValueError: event row (")
    assert error == _rendered(replica, sink, python=True)


def test_replicas_run_on_the_compiled_kernel(compiled_lib, monkeypatch):
    def python_cycle(*args):
        raise AssertionError("the Python kernel ran")

    monkeypatch.setattr(dynamics, "_update_cycle", python_cycle)
    assert run_replica(SimParams(t_max=20), 7).n_firms.size == 21


@pytest.mark.parametrize("params", [
    SimParams(q=0.9, policy=PolicyKind.MEDIUM_TECH, t_max=60),
    SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE, t_max=60),
], ids=["mediumtech_passive", "egalitarian_active"])
def test_replica_columns_match_across_kernels(compiled_lib, monkeypatch,
                                              params):
    seed = derive_seed(3, 1)
    whole_c = run_replica(params, seed)
    monkeypatch.setattr(compiled, "kernel",
                        lambda: compiled.Kernel(None, "python"))
    whole_py = run_replica(params, seed)
    for name in COLUMNS:
        assert np.array_equal(getattr(whole_c, name),
                              getattr(whole_py, name)), name


def test_share_drift_raises_the_python_message(compiled_lib):
    params = SimParams(lx=6, ly=6, n_min=3, t_max=5)
    # share totals 1.5, 0 and -0.2: a total at or below 0 fails the same
    # tolerance check as any other drift
    for shares, error in (((0.5, 0.5, 0.5), "5.000e-01"),
                          ((0.0, 0.0, 0.0), "1.000e+00"),
                          ((-0.1, -0.05, -0.05), "1.200e+00")):
        # three firms at n_min: nothing fails, and every move keeps the total
        market = build_market(firms=[((0, 0), 0.2, shares[0]),
                                     ((2, 2), 0.4, shares[1]),
                                     ((4, 4), 0.3, shares[2])])
        events_py, events_c = array("q"), array("q")
        with pytest.raises(IntegrityError) as python_error:
            dynamics.run_sweeps(copy.deepcopy(market), params,
                                random.Random(1),
                                Trajectory.empty(params.t_max + 1), events_py)
        with pytest.raises(IntegrityError) as compiled_error:
            compiled.run_sweeps(compiled_lib, market, params,
                                random.Random(1),
                                Trajectory.empty(params.t_max + 1), events_c)
        assert str(compiled_error.value) == str(python_error.value)
        assert str(compiled_error.value) == (
            f"share normalization error {error} exceeds tolerance 0.01 "
            f"at sweep 0")
        # the failing sweep's rows are appended before the error is raised
        assert len(events_py) == 3 * EVENT_FIELDS
        assert events_c == events_py


@pytest.fixture
def fresh_kernel():
    """The test loads the kernel from scratch; later tests load it again."""
    compiled.kernel.cache_clear()
    yield
    compiled.kernel.cache_clear()


def _metadata_without_kernel(path):
    lines = path.read_text().splitlines()
    kernel = [line for line in lines if line.startswith("# kernel=")]
    assert len(kernel) == 1
    return [line for line in lines if line not in kernel], kernel[0]


def test_build_failure_runs_the_python_kernel(compiled_lib, monkeypatch,
                                              tmp_path, fresh_kernel):
    flags = ["--q", "0.9", "--policy", "mediumtech", "--tmax", "40",
             "--replicas", "3", "--jobs", "2", "--seed", "4"]
    assert main(flags + ["--out", str(tmp_path / "compiled")]) == 0
    clear_store()
    monkeypatch.setattr(compiled, "COMPILER", str(tmp_path / "no-compiler"))
    monkeypatch.setattr(compiled, "cache_dir", lambda: tmp_path / "cache")
    compiled.kernel.cache_clear()
    assert main(flags + ["--out", str(tmp_path / "python")]) == 0
    assert compiled.kernel().lib is None
    assert not any((tmp_path / "cache").iterdir())
    csv = "custom_q0.9_mediumtech_passive.csv"
    assert (tmp_path / "compiled" / csv).read_bytes() \
        == (tmp_path / "python" / csv).read_bytes()
    meta_c, kernel_c = _metadata_without_kernel(
        tmp_path / "compiled" / "custom_metadata.txt")
    meta_py, kernel_py = _metadata_without_kernel(
        tmp_path / "python" / "custom_metadata.txt")
    assert meta_c == meta_py
    assert kernel_c == "# kernel=compiled"
    assert kernel_py.startswith("# kernel=python (build failed: ")
    assert "no-compiler" in kernel_py


def test_compile_error_leaves_nothing_in_the_cache(compiled_lib, monkeypatch,
                                                   tmp_path, fresh_kernel):
    source = tmp_path / "_sweep.c"
    source.write_text("int tm_sweep(void) { return }\n")
    monkeypatch.setattr(compiled, "SOURCE", source)
    monkeypatch.setattr(compiled, "cache_dir", lambda: tmp_path / "cache")
    lib, note = compiled.kernel()
    assert lib is None
    assert note.startswith("python (build failed: ") and "error" in note
    assert not any((tmp_path / "cache").iterdir())


def test_parent_builds_once_and_workers_never(compiled_lib, monkeypatch,
                                              tmp_path, fresh_kernel):
    builds = tmp_path / "builds"
    real_build = compiled._build

    def logged_build(path):
        with builds.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        real_build(path)

    monkeypatch.setattr(compiled, "_build", logged_build)
    monkeypatch.setattr(compiled, "cache_dir", lambda: tmp_path / "cache")
    run_ensemble(SimParams(t_max=20), 4, jobs=2)
    run_ensemble(SimParams(t_max=20, seed=7), 4, jobs=2)
    assert builds.read_text() == f"{os.getpid()}\n"
    assert compiled.kernel().note == "compiled"
    # only the finished library is left, under the hash of source and flags
    (library,) = (tmp_path / "cache").iterdir()
    assert library.name.startswith("sweep-") and library.suffix == ".so"


def test_build_deletes_only_stale_libraries(compiled_lib, monkeypatch,
                                            tmp_path, fresh_kernel):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "sweep-00000000.so").write_bytes(b"an older source's library")
    (cache / "notes.txt").write_text("keep\n")
    monkeypatch.setattr(compiled, "cache_dir", lambda: cache)
    assert compiled.kernel().note == "compiled"
    built = [p.name for p in cache.glob("sweep-*.so")]
    assert len(built) == 1 and built != ["sweep-00000000.so"]
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        ["notes.txt", *built])
    assert (cache / "notes.txt").read_text() == "keep\n"


def test_event_log_run_uses_the_compiled_kernel(compiled_lib, monkeypatch,
                                                tmp_path):
    def python_cycle(*args):
        raise AssertionError("the Python kernel ran")

    monkeypatch.setattr(dynamics, "_update_cycle", python_cycle)
    assert main(["--q", "0.9", "--tmax", "10", "--replicas", "2",
                 "--jobs", "2", "--events", "--out", str(tmp_path)]) == 0
    _, kernel = _metadata_without_kernel(tmp_path / "custom_metadata.txt")
    assert kernel == "# kernel=compiled"


def test_build_failure_logs_the_same_events(compiled_lib, monkeypatch,
                                            tmp_path, fresh_kernel):
    flags = ["--q", "0.9", "--policy", "mediumtech", "--tmax", "40",
             "--replicas", "3", "--jobs", "2", "--seed", "4", "--events"]
    assert main(flags + ["--out", str(tmp_path / "compiled")]) == 0
    monkeypatch.setattr(compiled, "COMPILER", str(tmp_path / "no-compiler"))
    monkeypatch.setattr(compiled, "cache_dir", lambda: tmp_path / "cache")
    compiled.kernel.cache_clear()
    assert main(flags + ["--out", str(tmp_path / "python")]) == 0
    assert compiled.kernel().lib is None
    log = "custom_q0.9_mediumtech_passive_events.jsonl"
    assert (tmp_path / "compiled" / log).read_bytes() \
        == (tmp_path / "python" / log).read_bytes()
    _, kernel_py = _metadata_without_kernel(
        tmp_path / "python" / "custom_metadata.txt")
    assert kernel_py.startswith("# kernel=python (build failed: ")
