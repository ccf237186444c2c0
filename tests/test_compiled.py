"""The compiled kernel against the Python oracle (``oracle.py``), its
reference, and its build: cache, failure, and the runs that load it; its
CSV writer against Python's ``%`` formatting."""
import copy
import ctypes
import dataclasses
import functools
import io
import itertools
import locale
import math
import os
import random
import sys
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
from techmarket.dynamics import TC_THRESHOLD
from techmarket.ensemble import run_ensemble
from techmarket.market import neighbor_tables
from techmarket.rng import derive_seed

import oracle
from conftest import build_market


@st.composite
def sim_params(draw):
    """Validated parameters on 3..7 lattices with horizons up to 40: s up
    to 1e300, where s * lag overflows to inf, and sigma up to the bound
    validation puts on the frontier."""
    lx, ly = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    c = draw(st.floats(1.0 / (lx * ly), 1.0))
    t_max = draw(st.integers(0, 40))
    # 2 * exp(sigma * t_max)**2 * lx * ly is finite below this sigma
    sigma_max = (math.log(sys.float_info.max / (2 * lx * ly))
                 / (2 * t_max or 1))
    try:
        return SimParams(
            sigma=draw(st.floats(0.0, 1.0)
                       | st.floats(0.9, 1.0).map(lambda f: f * sigma_max)),
            s=draw(st.floats(0.0, 10.0) | st.floats(0.0, 1e300)),
            b=draw(st.floats(0.0, 1.0)),
            n_min=draw(st.integers(1, max(1, int(c * lx * ly)))),
            omega_s=draw(st.floats(0.01, 0.99)),
            c=c,
            q=draw(st.sampled_from((0.0, 0.5, 0.99, 1.0))
                   | st.floats(0.0, 1.0)),
            policy=draw(st.sampled_from(PolicyKind)),
            variant=draw(st.sampled_from(VariantKind)),
            lx=lx, ly=ly, t_max=t_max,
            seed=draw(st.integers(0, 2**64 - 1)))
    except ConfigError:
        assume(False)


def roll_at_40(side):
    """Parameters whose first survival roll has s * lag at 40 (side 0),
    the largest s * lag below it (-1) or the smallest above it (1): the
    kernel's bound for skipping exp. The first roll is the first firm of
    the first shuffle, at the initial market's <A> and frontier 1."""
    for seed in itertools.count():
        params = SimParams(lx=5, ly=5, c=0.6, n_min=1, t_max=3, seed=seed)
        rng = random.Random(seed)
        market = oracle.init_market(params, rng)
        market.resync_sums()
        order = list(market.firms)
        oracle.shuffle_in_place(order, rng)
        lag = market.weighted_sum - market.firms[order[0]].tech
        s = 40.0 / lag
        if lag > 0.0 and s * lag == 40.0:
            break
    while side and (s * lag - 40.0) * side <= 0.0:
        s = math.nextafter(s, side * math.inf)
    return dataclasses.replace(params, s=s)


#: State's scalars of the end market, with MarketState's names.
SCALARS = {"sweep": "sweep", "next_id": "next_id",
           "frontier": "frontier_value", "ws": "weighted_sum",
           "ts": "tech_sum", "tq": "tech_sq_sum"}


def spy_states(monkeypatch):
    """Every State the kernel's ensembles run on from now on, in a list
    that grows as they are made: after a one-replica ensemble, its State
    holds the replica's end market and stream."""
    states, real = [], compiled.new_state

    def spy(*args):
        states.append(real(*args))
        return states[-1]

    monkeypatch.setattr(compiled, "new_state", spy)
    return states


@pytest.fixture
def run_states(monkeypatch):
    return spy_states(monkeypatch)


def run_both(params, seed, replica=0):
    """The kernel's logged run of (params, seed) as replica ``replica`` of a
    ``compiled.run_replicas`` ensemble whose claims start there, so that no
    replica below it runs, then the oracle's replica from
    ``random.Random(seed)``: the compiled run's (rows, event log text a
    chunk per kernel call, State, crossings), its rows those of replica
    ``replica``, then the oracle's (trajectory, event rows, market, rng)."""
    rows = params.t_max + 1
    compiled.kernel()  # loaded first: the load checks _Ensemble's size
    with pytest.MonkeyPatch.context() as mp:
        states = spy_states(mp)
        mp.setattr(compiled, "_Ensemble",
                   functools.partial(compiled._Ensemble, next=replica))
        out, chunks = run_logged(lambda sink: compiled.run_replicas(
            params, array("Q", [0] * replica + [seed]), 1, sink))
    own = out._replace(**{name: getattr(out, name)[replica * rows:]
                          for name in ("n_firms", "mean_tech", "ratio")})
    compiled_run = own, chunks, states.pop(), out.tc_vals
    rng = random.Random(seed)
    market = oracle.init_market(params, rng)
    trajectory, events = oracle.Trajectory.empty(rows), array("q")
    oracle.run_sweeps(market, params, rng, trajectory, events)
    return compiled_run, (trajectory, events, market, rng)


def run_hand_built(market, params, rng):
    """The kernel's logged run of a State filled from ``market`` and the
    stream of ``rng``, which are only read: (rows, event log text a chunk
    per kernel call, State, crossings)."""
    rows = compiled.new_buffers(params, 1)
    state = oracle.compiled_state(market, params, rows, rng, True)
    tc_vals, chunks = run_logged(
        lambda sink: oracle.run_compiled_state(state, sink))
    return rows, chunks, state, tc_vals


def oracle_text(events, replica=0) -> str:
    """The oracle's event rows ``events`` as replica ``replica``'s lines."""
    out = io.StringIO()
    oracle.emit_event_log(out, replica, events)
    return out.getvalue()


def run_logged(run):
    """Call ``run`` with an event sink: what it returns, and the event log
    it passes on, a chunk per kernel call."""
    chunks = []
    return run(lambda text: chunks.append(str(text, "ascii"))), chunks


def assert_same_runs(compiled_run, oracle_run, replica=0):
    """The compiled run's rows, crossing, event log, end market and end
    stream against the oracle's, its event rows rendered as replica
    ``replica``'s: the State's crossing, and the ensemble's crossing of
    that replica, nan when it never crosses."""
    (tr_c, chunks, state, tc_vals), (tr_py, events, market, rng) = (
        compiled_run, oracle_run)
    for name in oracle.SHARED_ROWS:
        assert np.array_equal(getattr(tr_c, name), getattr(tr_py, name)), name
    crossing = next((row for row, a in enumerate(tr_py.mean_tech)
                     if a >= TC_THRESHOLD), -1)
    assert state.crossing == crossing
    if crossing < 0:
        assert math.isnan(tc_vals[replica])
    else:
        assert tc_vals[replica] == crossing
    assert "".join(chunks) == oracle_text(events, replica)
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
@given(params=sim_params(), replica=st.integers(0, 999))
# the last replica of a 1,000-replica ensemble, which crosses at row 13
@example(params=SimParams(q=0.5, sigma=0.1, lx=5, ly=5, c=0.6, n_min=1,
                          t_max=40, seed=2), replica=999)
@example(params=roll_at_40(-1), replica=0)
@example(params=roll_at_40(0), replica=0)
@example(params=roll_at_40(1), replica=0)
# q = 1 rescues every failing firm while the frontier grows past 2e8,
# where s * lag overflows to inf
@example(params=SimParams(s=1e300, sigma=1.0, q=1.0, lx=5, ly=5, c=0.6,
                          n_min=1, t_max=40, seed=13), replica=0)
# a full lattice at q = 0: bankruptcies top up slots that died in the sweep
@example(params=SimParams(s=5.0, c=1.0, n_min=1, lx=7, ly=7, t_max=40,
                          seed=11), replica=0)
# no roll fails and no merge happens: spin-offs, and every compaction
# keeps each firm in its slot
@example(params=SimParams(s=0.0, b=0.0, c=0.3, n_min=1, lx=7, ly=7,
                          t_max=40, seed=12), replica=0)
def test_compiled_sweeps_match_python(params, replica):
    assert_same_runs(*run_both(params, params.seed, replica), replica)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**64 - 1))
@example(seed=0)
@example(seed=2**32 - 1)
@example(seed=2**32)
@example(seed=2**64 - 1)
def test_stream_is_seeded_as_random_random(run_states, seed):
    """After a zero-sweep replica, the C stream is Random(seed)'s
    after the same draws: one site and one technology per initial firm."""
    params = SimParams(t_max=0)
    oracle.kernel_replica(params, seed)
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
        trajectory = oracle.kernel_replica(params, seed)
        state = run_states.pop()
        market = oracle.init_market(params, random.Random(seed))
        market.resync_sums()  # the kernel sets them before the first row
        assert_same_market(state, market)
        assert state.n_live == params.n_initial_firms == len(market.firms)
        assert trajectory.n_firms[0] == len(market.firms)
        assert trajectory.mean_tech[0] == market.weighted_sum


def test_logged_run_crosses_the_event_buffer():
    # about 98 live firms, so about 98 lines of about 70 bytes per sweep,
    # and a pause about every 100 sweeps
    params = SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE,
                       t_max=300, seed=5)
    compiled_run, oracle_run = run_both(params, params.seed)
    assert len(compiled_run[1]) > 2
    assert_same_runs(compiled_run, oracle_run)


def test_logged_run_paused_before_every_sweep():
    """With the text buffer at its floor, a longest line per site, a run
    of about 98 live firms pauses before every sweep: each call runs one
    sweep and tempers the stream's block afresh from the State's words at
    their position. The columns, event log and end stream are the unpaused
    run's and the oracle's."""
    params = SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE,
                       t_max=40, seed=8)
    unpaused, oracle_run = run_both(params, params.seed)
    assert_same_runs(unpaused, oracle_run)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiled, "EVENT_ROWS", 1)
        paused, _ = run_both(params, params.seed)
    assert paused[2].max_text == (params.lx * params.ly
                                  * compiled.kernel().tm_event_line_max())
    # a call per sweep; the last one also writes the end state's row
    assert len(paused[1]) == params.t_max
    assert_same_runs(paused, oracle_run)


def test_event_log_rendered_at_every_sweep_is_the_same_text():
    """With the text buffer at its floor, the one State of a logged
    ensemble pauses before every sweep, and ``run_trajectories`` writes
    each sweep's lines as a chunk of its own: the log is the default
    buffer's bytes and the oracle's rows rendered by the oracle, each
    replica's lines naming its index."""
    params = SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE,
                       t_max=40, seed=8)

    class Log(io.BytesIO):
        """A log that counts the chunks written to it."""

        def write(self, chunk):
            writes[-1] += 1
            return super().write(chunk)

    logs, writes = [], []
    for buffer_rows in (compiled.EVENT_ROWS, 1):
        log = Log()
        writes.append(0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiled, "EVENT_ROWS", buffer_rows)
            run_ensemble(params, 3, 1, log)
        logs.append(log.getvalue().decode())
    # one chunk per kernel call: the default buffer, room for 4,096 of the
    # longest lines, pauses once in the three replicas' 11,643 lines of
    # about 65 bytes; the floor pauses before every sweep
    assert writes == [2, 3 * params.t_max]
    expected = []
    for k in range(3):
        rng = random.Random(derive_seed(params.seed, k))
        events = array("q")
        oracle.run_sweeps(oracle.init_market(params, rng), params, rng,
                          oracle.Trajectory.empty(params.t_max + 1), events)
        expected.append(oracle_text(events, k))
    assert logs == ["".join(expected)] * 2


#: The State's fields that point to buffers ``new_state`` allocates; the
#: others are views of the neighbor tables and the ensemble's buffers.
OWNED = ("occ", "id", "tech", "share", "site", "order", "mt", "text")


@pytest.mark.parametrize("logged", [False, True], ids=["plain", "logged"])
@pytest.mark.parametrize("lx,ly", [(10, 10), (80, 60)],
                         ids=["10x10", "80x60"])
def test_state_bytes_is_what_new_state_allocates(logged, lx, ly):
    """``kernel_bytes`` counts for each State the sum of the buffers a
    ``new_state`` points to, read where the struct keeps them alive:
    ``_objects``, keyed by field index in hex, each entry ending with the
    array; and the ensemble's ``new_buffers`` and the neighbor tables.
    80x60 has more sites than EVENT_ROWS, so its text buffer holds a line
    per site."""
    params = SimParams(lx=lx, ly=ly, t_max=7)
    state = compiled.new_state(params, compiled.new_buffers(params, 1),
                               logged)
    fields = [name for name, _ in compiled._State._fields_]
    kept = [state._objects.get(f"{fields.index(name):x}") for name in OWNED]
    allocated = sum(ctypes.sizeof(entry[-1]) for entry in kept if entry)
    tables = neighbor_tables(lx, ly)
    for n, jobs in ((3, 2), (1, 4)):
        buffers = compiled.new_buffers(params, n)
        assert compiled.kernel_bytes(params, n, jobs, logged) == (
            sum(len(b) * b.itemsize for b in (*buffers, *tables))
            + compiled.workers(jobs, n, logged) * allocated)
    assert (kept[-1] is not None) == logged
    if logged:  # the kernel pauses at the buffer's size
        lines = max(compiled.EVENT_ROWS, lx * ly)
        assert state.max_text == ctypes.sizeof(kept[-1][-1]) == (
            lines * compiled.kernel().tm_event_line_max())


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
    compiled_run = run_hand_built(market, params, rng)
    trajectory, events = oracle.Trajectory.empty(params.t_max + 1), array("q")
    oracle.run_sweeps(market, params, rng, trajectory, events)
    assert_same_runs(compiled_run, (trajectory, events, market, rng))


def test_replicas_run_on_the_compiled_kernel(monkeypatch):
    """Python seeds no stream and builds no market: the kernel starts each
    replica from its seed."""
    def no_stream(*args):
        raise AssertionError("a Python stream was seeded")

    monkeypatch.setattr(random.Random, "seed", no_stream)
    monkeypatch.setattr(oracle, "init_market", no_stream)
    assert len(oracle.kernel_replica(SimParams(t_max=20), 7).n_firms) == 21


@pytest.mark.parametrize("params", [
    SimParams(q=0.9, policy=PolicyKind.MEDIUM_TECH, t_max=60),
    SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE, t_max=60),
], ids=["mediumtech_passive", "egalitarian_active"])
def test_replica_columns_match_across_kernels(params):
    compiled_run, oracle_run = run_both(params, derive_seed(3, 1))
    for name in oracle.SHARED_ROWS:
        assert np.array_equal(getattr(compiled_run[0], name),
                              getattr(oracle_run[0], name)), name


def test_hand_built_market_runs_as_on_the_oracle():
    """A State filled from an oracle market mid-run continues it as the
    oracle does: columns, event rows, end market and stream."""
    params = SimParams(q=0.9, policy=PolicyKind.LOW_TECH, lx=6, ly=5,
                       n_min=3, t_max=30)
    rng = random.Random(77)
    market = oracle.init_market(params, rng)
    oracle.run_sweeps(market, params, rng, oracle.Trajectory.empty(8))
    compiled_run = run_hand_built(market, params, rng)
    trajectory, events = oracle.Trajectory.empty(params.t_max + 1), array("q")
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
        events = array("q")
        with pytest.raises(IntegrityError) as python_error:
            oracle.run_sweeps(copy.deepcopy(market), params,
                              random.Random(1),
                              oracle.Trajectory.empty(params.t_max + 1),
                              events)
        rows = compiled.new_buffers(params, 1)
        state = oracle.compiled_state(market, params, rows,
                                      random.Random(1), logged=True)
        chunks = []
        with pytest.raises(IntegrityError) as compiled_error:
            oracle.run_compiled_state(
                state, lambda text: chunks.append(str(text, "ascii")))
        assert str(compiled_error.value) == str(python_error.value)
        assert str(compiled_error.value) == (
            f"share normalization error {error} exceeds tolerance 0.01 "
            f"at sweep 0")
        # the failing sweep's lines are passed on before the error is raised
        assert len(events) == 3 * oracle.EVENT_FIELDS
        assert chunks == [oracle_text(events)]
        # and the rows the ensemble's replicas share are left as they were
        assert not any(rows.rescued) and not any(rows.renorm_error)


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


def test_kernel_built_at_O0_gives_the_shipped_bits(monkeypatch, tmp_path,
                                                   fresh_kernel):
    """The kernel built at -O0, with the rest of FLAGS kept, gives the
    shipped build's rows and crossings, bit for bit: the optimiser may
    reorder no floating-point operation. The active cell's frontier
    passes 40 at sweep 74, after which its rolls skip exp."""
    cells = [SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE,
                       sigma=0.05, t_max=150, seed=3),
             SimParams(q=0.5, t_max=60, seed=4)]

    def run_cells():
        runs = []
        for params in cells:
            seeds = array("Q", (derive_seed(params.seed, k)
                                for k in range(4)))
            out = compiled.run_replicas(params, seeds, 2)
            runs.append([bytes(buffer) for buffer in out])
        return runs

    shipped = run_cells()
    levels = [flag for flag in compiled.FLAGS if flag.startswith("-O")]
    assert levels == ["-O3"]
    monkeypatch.setattr(compiled, "FLAGS", tuple(
        "-O0" if flag in levels else flag for flag in compiled.FLAGS))
    monkeypatch.setattr(compiled, "cache_dir", lambda: tmp_path / "cache")
    compiled._load.cache_clear()
    assert run_cells() == shipped
    assert len(list((tmp_path / "cache").glob("sweep-*.so"))) == 1


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


def csv_floats(values) -> list[str]:
    """The lines ``compiled.csv_rows`` writes for one float column."""
    return compiled.csv_rows(None, [array("d", values)]).split("\n")[:-1]


#: NaN with its sign bit set, which Python writes as "nan"
NEGATIVE_NAN = math.copysign(math.nan, -1.0)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats()                      # every double
                | st.floats(-1e13, 1e13)         # around the exact range
                | st.floats(-1e-300, 1e-300)     # subnormals and +-0
                | st.just(NEGATIVE_NAN), min_size=1, max_size=50))
def test_csv_floats_are_python_g12(values):
    assert csv_floats(values) == ["%.12g" % x for x in values]


@pytest.mark.parametrize("x, text", [
    # ties round to even
    (123456789012.5, "123456789012"),
    (12345678901.25, "12345678901.2"),
    # a carry into a thirteenth digit moves up a decade, and %g's switch
    # to exponent form reads the rounded exponent
    (999999999999.5, "1e+12"),
    (9.999999999995e-05, "9.99999999999e-05"),
    (math.nextafter(9.999999999995e-05, 0.0), "9.99999999999e-05"),
    (math.nextafter(9.999999999995e-05, 1.0), "0.0001"),
    (0.0001, "0.0001"),
    (1e-05, "1e-05"),
    # both edges of the exact range, and the C library beyond them
    (1e-15, "1e-15"),
    (math.nextafter(1e-15, 0.0), "1e-15"),
    (math.nextafter(1e12, 0.0), "1e+12"),
    (1e12, "1e+12"),
    (-1.5e-300, "-1.5e-300"),
    (5e-324, "4.94065645841e-324"),
    (-0.0, "-0"), (0.0, "0"),
    (math.inf, "inf"), (-math.inf, "-inf"),
    (math.nan, "nan"), (NEGATIVE_NAN, "nan"),
])
def test_csv_float_fixed_cases(x, text):
    assert "%.12g" % x == text
    assert csv_floats([x]) == [text]


def test_csv_rows_write_t_as_python_d():
    t = array("q", [0, 1, 600, 2**63 - 1, -2**63])
    columns = [array("d", [0.5, -2.0, 1e-20, math.nan, 3.0]),
               array("d", [1e15, 7.0, 0.1, -0.0, math.inf])]
    assert compiled.csv_rows(t, columns) == "".join(
        "%d,%.12g,%.12g\n" % row for row in zip(t, *columns))


def _comma_locale():
    """An installed locale whose decimal point is not ".", or None."""
    saved = locale.setlocale(locale.LC_NUMERIC)
    try:
        for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                     "fr_FR.utf8", "nl_NL.UTF-8", "ru_RU.UTF-8", "de_DE",
                     "fr_FR"):
            try:
                locale.setlocale(locale.LC_NUMERIC, name)
            except locale.Error:
                continue
            if locale.localeconv()["decimal_point"] != ".":
                return name
        return None
    finally:
        locale.setlocale(locale.LC_NUMERIC, saved)


def test_csv_floats_ignore_the_numeric_locale():
    name = _comma_locale()
    if name is None:
        pytest.skip("no installed locale has a decimal point other than .")
    values = [1.5, 0.25, 1.5e-20, 2.5e300, -3.75e-310]
    saved = locale.setlocale(locale.LC_NUMERIC)
    try:
        locale.setlocale(locale.LC_NUMERIC, name)
        got = csv_floats(values)
    finally:
        locale.setlocale(locale.LC_NUMERIC, saved)
    assert got == ["%.12g" % x for x in values]
