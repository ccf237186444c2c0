"""The compiled kernel against the Python oracle (``oracle.py``), its
reference, and its build: cache, failure, and the runs that load it."""
import copy
import io
import os
import random
from array import array

import numpy as np
import pytest
from hypothesis import (
    HealthCheck,
    assume,
    example,
    given,
    settings,
    strategies as st,
)

from techmarket import (
    ConfigError,
    IntegrityError,
    PolicyKind,
    SimParams,
    VariantKind,
    compiled,
)
from techmarket.cli import main
from techmarket.dynamics import EVENT_FIELDS, EventKind, Trajectory
from techmarket.ensemble import run_ensemble, run_replica
from techmarket.output import emit_event_log
from techmarket.rng import derive_seed

import oracle
from conftest import build_market


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


def spy_states(monkeypatch):
    """The State of every replica ``run_replica`` runs from now on, in a list
    that grows as they run."""
    states, real = [], compiled.run_sweeps

    def spy(state, events=None):
        states.append(state)
        real(state, events)

    monkeypatch.setattr(compiled, "run_sweeps", spy)
    return states


@pytest.fixture
def run_states(monkeypatch):
    return spy_states(monkeypatch)


def run_both(params, seed):
    """``run_replica`` of (params, seed) with an event sink, then the oracle's
    replica from ``random.Random(seed)``: the compiled run's (trajectory,
    events, State), then the oracle's (trajectory, events, market, rng)."""
    events = array("q")
    with pytest.MonkeyPatch.context() as mp:
        states = spy_states(mp)
        trajectory = run_replica(params, seed, events)
    compiled_run = trajectory, events, states[0]
    rng = random.Random(seed)
    market = oracle.init_market(params, rng)
    trajectory, events = Trajectory.empty(params.t_max + 1), array("q")
    oracle.run_sweeps(market, params, rng, trajectory, events)
    return compiled_run, (trajectory, events, market, rng)


def assert_same_runs(compiled_run, oracle_run):
    (tr_c, events_c, state), (tr_py, events_py, market, rng) = (compiled_run,
                                                               oracle_run)
    for name in COLUMNS:
        assert np.array_equal(getattr(tr_c, name), getattr(tr_py, name)), name
    assert events_c == events_py
    assert_same_market(state, market)
    # the end stream: 624 words and the position
    words = rng.getstate()[1]
    assert tuple(state.mt[:len(words)]) == words


def assert_same_market(state, market):
    """The State's firms in slot order against the registry's order, its
    occupancy, its slot count and its scalars against ``market``'s."""
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


@settings(max_examples=150, deadline=None)
@given(params=sim_params())
def test_compiled_sweeps_match_python(params):
    assert_same_runs(*run_both(params, params.seed))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**64 - 1))
@example(seed=0)
@example(seed=2**32 - 1)
@example(seed=2**32)
@example(seed=2**64 - 1)
def test_stream_is_seeded_as_random_random(run_states, seed):
    """After a zero-sweep ``run_replica``, the C stream is Random(seed)'s
    after the same draws: one site and one technology per initial firm."""
    params = SimParams(t_max=0)
    run_replica(params, seed)
    rng = random.Random(seed)
    for _ in range(2 * params.n_initial_firms):
        rng.random()
    assert tuple(run_states.pop().mt[:625]) == rng.getstate()[1]


@pytest.mark.parametrize("params", [
    SimParams(t_max=0),
    SimParams(t_max=0, c=1.0),                            # full lattice
    SimParams(t_max=0, lx=3, ly=3, c=1.0, n_min=9),       # n0 == n_min
    SimParams(t_max=0, lx=7, ly=4, c=0.5, n_min=14),      # n0 == n_min
    SimParams(t_max=0, lx=3, ly=11, c=0.4, n_min=5),
    SimParams(t_max=0, lx=31, ly=5, c=0.05, n_min=3),
], ids=["10x10", "full", "3x3_full_at_nmin", "7x4_at_nmin", "3x11",
        "31x5_sparse"])
def test_initial_market_matches_the_oracle(run_states, params):
    for k in range(5):
        seed = derive_seed(params.seed, k)
        trajectory = run_replica(params, seed)
        state = run_states.pop()
        market = oracle.init_market(params, random.Random(seed))
        market.resync_sums()  # tm_run set them before the first row
        assert_same_market(state, market)
        assert state.n_live == params.n_initial_firms == len(market.firms)
        assert trajectory.n_firms[0] == len(market.firms)
        assert trajectory.mean_tech[0] == market.weighted_sum


def test_logged_run_crosses_the_event_buffer():
    # about 98 live firms, so about 98 rows per sweep
    params = SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE,
                       t_max=120, seed=5)
    compiled_run, oracle_run = run_both(params, params.seed)
    assert len(compiled_run[1]) > 2 * EVENT_FIELDS * compiled.EVENT_ROWS
    assert_same_runs(compiled_run, oracle_run)


class _CountingSink(array):
    """An event sink that records each append of ``run_sweeps``: one per
    tm_run call."""

    def __new__(cls):
        sink = super().__new__(cls, "q")
        sink.appends = []
        return sink

    def frombytes(self, data):
        self.appends.append(len(data))
        super().frombytes(data)


def test_logged_run_paused_before_every_sweep():
    """With the event buffer at its floor, the site count, a run of more
    than half as many live firms pauses before every sweep: each call runs
    one sweep and tempers the stream's block afresh from the State's words
    at their position. The columns, event rows and end stream are the
    unpaused run's and the oracle's."""
    params = SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE,
                       t_max=40, seed=8)
    unpaused, oracle_run = run_both(params, params.seed)
    assert_same_runs(unpaused, oracle_run)
    events = _CountingSink()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiled, "EVENT_ROWS", 1)
        states = spy_states(mp)
        trajectory = run_replica(params, params.seed, events)
    assert states[0].max_events == params.lx * params.ly
    # a call per sweep; the last one also writes the end state's row
    assert len(events.appends) == params.t_max
    assert_same_runs((trajectory, events, states[0]), oracle_run)


@pytest.mark.parametrize("position", [622, 623, 624])
def test_stream_handed_over_at_a_position_matches_the_oracle(position):
    """A State handed a stream at position 623 draws its first uniform from
    word 623, tempered on entry, and word 0 of the next twist; 622 takes
    both before the twist, 624 both after it."""
    params = SimParams(q=0.9, policy=PolicyKind.LOW_TECH, lx=6, ly=5,
                       n_min=3, t_max=12)
    market = oracle.init_market(params, random.Random(5))
    rng = random.Random(6)
    for _ in range(position):
        rng.getrandbits(32)  # one word each
    assert rng.getstate()[1][-1] == position
    trajectory, events = Trajectory.empty(params.t_max + 1), array("q")
    state = oracle.compiled_state(market, params, trajectory, rng, True)
    compiled.run_sweeps(state, events)
    compiled_run = trajectory, events, state
    trajectory, events = Trajectory.empty(params.t_max + 1), array("q")
    oracle.run_sweeps(market, params, rng, trajectory, events)
    assert_same_runs(compiled_run, (trajectory, events, market, rng))


def _rendered(replica, sink, python):
    """emit_event_log's text for ``sink`` in C calls of at most 3 rows, or
    the oracle's; or the message of the ValueError it raised."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiled, "EVENT_ROWS", 3)
        try:
            (oracle.emit_event_log if python else emit_event_log)(
                out, replica, sink)
        except ValueError as exc:
            return f"ValueError: {exc}"
    return out.getvalue()


_INT64 = st.integers(-2**63, 2**63 - 1)
_UNSET_OR_ID = st.one_of(st.just(-1), st.integers(0, 2**63 - 1))
_EVENT_ROW = st.tuples(st.sampled_from(EventKind), _INT64, _INT64,
                       _UNSET_OR_ID, _UNSET_OR_ID, st.integers(0, 1))


@settings(max_examples=300, deadline=None)
@given(replica=st.integers(0, 2**63 - 1),
       rows=st.lists(_EVENT_ROW, max_size=8),
       bad=st.sampled_from([(0, 7), (0, -1), (5, 2), (5, -1)]))
def test_compiled_event_log_matches_python(replica, rows, bad):
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


def test_replicas_run_on_the_compiled_kernel(monkeypatch):
    """Python seeds no stream and builds no market: the kernel starts each
    replica from its seed."""
    def no_stream(*args):
        raise AssertionError("a Python stream was seeded")

    monkeypatch.setattr(random.Random, "seed", no_stream)
    monkeypatch.setattr(oracle, "init_market", no_stream)
    assert len(run_replica(SimParams(t_max=20), 7).n_firms) == 21


@pytest.mark.parametrize("params", [
    SimParams(q=0.9, policy=PolicyKind.MEDIUM_TECH, t_max=60),
    SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE, t_max=60),
], ids=["mediumtech_passive", "egalitarian_active"])
def test_replica_columns_match_across_kernels(params):
    compiled_run, oracle_run = run_both(params, derive_seed(3, 1))
    for name in COLUMNS:
        assert np.array_equal(getattr(compiled_run[0], name),
                              getattr(oracle_run[0], name)), name


def test_hand_built_market_runs_as_on_the_oracle():
    """A State filled from an oracle market mid-run continues it as the
    oracle does: columns, event rows, end market and stream."""
    params = SimParams(q=0.9, policy=PolicyKind.LOW_TECH, lx=6, ly=5,
                       n_min=3, t_max=30)
    rng = random.Random(77)
    market = oracle.init_market(params, rng)
    oracle.run_sweeps(market, params, rng, Trajectory.empty(8))
    trajectory, events = Trajectory.empty(params.t_max + 1), array("q")
    state = oracle.compiled_state(market, params, trajectory, rng, True)
    compiled.run_sweeps(state, events)
    compiled_run = trajectory, events, state
    trajectory, events = Trajectory.empty(params.t_max + 1), array("q")
    oracle.run_sweeps(market, params, rng, trajectory, events)
    assert market.sweep == 37
    assert_same_runs(compiled_run, (trajectory, events, market, rng))


def test_share_drift_raises_the_python_message():
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
            oracle.run_sweeps(copy.deepcopy(market), params,
                              random.Random(1),
                              Trajectory.empty(params.t_max + 1), events_py)
        state = oracle.compiled_state(market, params,
                                      Trajectory.empty(params.t_max + 1),
                                      random.Random(1), logged=True)
        with pytest.raises(IntegrityError) as compiled_error:
            compiled.run_sweeps(state, events_c)
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
    compiled._load.cache_clear()
    yield
    compiled._load.cache_clear()


@pytest.mark.parametrize("flags", [[], ["--events"]],
                         ids=["plain", "events"])
def test_build_failure_exits_one_and_writes_nothing(monkeypatch, tmp_path,
                                                    capsys, fresh_kernel,
                                                    flags):
    compiler = str(tmp_path / "no-compiler")
    monkeypatch.setattr(compiled, "COMPILER", compiler)
    monkeypatch.setattr(compiled, "cache_dir", lambda: tmp_path / "cache")
    out = tmp_path / "out"
    assert main(["--q", "0.9", "--tmax", "40", "--replicas", "3",
                 "--jobs", "2", "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot build or load the sweep "
                          "kernel with ")
    assert err.count("\n") == 1 and compiler in err
    assert not out.exists()
    assert not any((tmp_path / "cache").iterdir())
    with pytest.raises(ConfigError):  # and so does the package's API
        run_ensemble(SimParams(t_max=5), 2)


def test_compile_error_leaves_nothing_in_the_cache(monkeypatch, tmp_path,
                                                   fresh_kernel):
    source = tmp_path / "_sweep.c"
    source.write_text("int tm_sweep(void) { return }\n")
    monkeypatch.setattr(compiled, "SOURCE", source)
    monkeypatch.setattr(compiled, "cache_dir", lambda: tmp_path / "cache")
    with pytest.raises(ConfigError) as info:
        compiled.kernel()
    assert str(info.value).startswith("cannot build or load the sweep kernel")
    assert "error" in str(info.value).removeprefix("cannot build")
    assert not any((tmp_path / "cache").iterdir())


def test_build_failure_runs_the_compiler_once(monkeypatch, tmp_path,
                                              fresh_kernel):
    """A process that cannot build the kernel tries once: a second call
    raises the same error without running the compiler again."""
    import subprocess

    runs = []
    real_run = subprocess.run

    def counted(args, **kwargs):
        runs.append(args[0])
        return real_run(args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    monkeypatch.setattr(compiled, "COMPILER", "false")  # exits 1
    monkeypatch.setattr(compiled, "cache_dir", lambda: tmp_path / "cache")
    errors = []
    for _ in range(2):
        with pytest.raises(ConfigError) as info:
            compiled.kernel()
        errors.append(str(info.value))
    assert runs == ["false"]
    assert errors[0] == errors[1]
    assert errors[0].startswith("cannot build or load the sweep kernel "
                                "with false: ")


def test_parent_builds_once_and_workers_never(monkeypatch, tmp_path,
                                              fresh_kernel):
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
    # only the finished library is left, under the hash of source and flags
    (library,) = (tmp_path / "cache").iterdir()
    assert library.name.startswith("sweep-") and library.suffix == ".so"


def test_build_deletes_only_stale_libraries(monkeypatch, tmp_path,
                                            fresh_kernel):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "sweep-00000000.so").write_bytes(b"an older source's library")
    (cache / "notes.txt").write_text("keep\n")
    monkeypatch.setattr(compiled, "cache_dir", lambda: cache)
    compiled.kernel()
    built = [p.name for p in cache.glob("sweep-*.so")]
    assert len(built) == 1 and built != ["sweep-00000000.so"]
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        ["notes.txt", *built])
    assert (cache / "notes.txt").read_text() == "keep\n"


def test_checkouts_keep_their_own_libraries(monkeypatch, tmp_path,
                                            fresh_kernel):
    """Checkouts with different sources build into directories of their
    own, so neither deletes the other's library; a build removes the
    directory of a checkout whose source is gone."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    text = compiled.SOURCE.read_text()
    libraries = {}
    for name in ("a", "b", "c"):
        source = tmp_path / name / "_sweep.c"
        source.parent.mkdir()
        source.write_text(f"{text}/* checkout {name} */\n")
        monkeypatch.setattr(compiled, "SOURCE", source)
        compiled._load.cache_clear()
        compiled.kernel()
        (libraries[name],) = compiled.cache_dir().glob("sweep-*.so")
        if name == "b":
            assert libraries["a"].exists()  # b deleted nothing of a's
            (tmp_path / "a" / "_sweep.c").unlink()
    root = tmp_path / "cache" / "techmarket"
    assert len({lib.parent for lib in libraries.values()}) == 3
    assert not libraries["a"].parent.exists()
    assert sorted(p.name for p in root.iterdir()) == sorted(
        name for lib in libraries.values() if lib.exists()
        for name in (lib.parent.name, f"{lib.parent.name}.source"))
    assert (root / f"{libraries['b'].parent.name}.source").resolve() == (
        tmp_path / "b" / "_sweep.c")


def test_event_log_run_uses_the_compiled_kernel(monkeypatch, tmp_path):
    def no_stream(*args):
        raise AssertionError("a Python stream was seeded")

    monkeypatch.setattr(random.Random, "seed", no_stream)
    assert main(["--q", "0.9", "--tmax", "10", "--replicas", "2",
                 "--jobs", "2", "--events", "--out", str(tmp_path)]) == 0
    log = tmp_path / "custom_q0.9_egalitarian_passive_events.jsonl"
    assert log.read_text().count("\n") > 2 * 10
    # the metadata names no kernel: there is only one
    metadata = (tmp_path / "custom_metadata.txt").read_text()
    assert "kernel" not in metadata
