"""The model's kernel, ``_sweep.c``, built once per checkout and loaded with
ctypes: every replica starts from its seed, runs its sweeps and writes its
event log in C.

``run_replicas`` runs all of an ensemble's replicas in one C call, on one
``State`` per worker: the calling thread, and threads that the call starts
and joins before it returns. A ``State``, which ``new_state`` allocates
with zeroed buffers for the parameters' lattice, points at its ensemble's
buffers; a worker reuses it for every replica it claims, writing the
replica's rows into the ensemble's matrices and its rescues and
renormalization errors into the rows every replica shares. The lattice's
neighbor tables and the ensemble's buffers, all ``array`` buffers, are
shared with C without a copy. The call releases the GIL.
A logged ensemble runs on one ``State``, which writes each step's JSON
line into a text buffer of EVENT_ROWS lines: the call pauses before a
sweep whose lines might not fit, hands the text to the caller's sink as a
memoryview of that buffer, without a copy, and is called again. The end
market and stream of a State's last replica stay in its buffers.
``column_stats`` reduces an ensemble's matrices to its statistics, summed
in numpy's order.
``csv_rows`` writes CSV rows, each integer and float byte for byte as
Python's ``"%d"`` and ``"%.12g"`` write it.

``kernel()`` builds the library on first use with gcc into this
checkout's directory of ``$XDG_CACHE_HOME/techmarket`` (``~/.cache`` by
default), named by a CRC-32 of the source, the compiler and the flags, and
loads it. Each checkout keeps its own directory, so checkouts with
different sources never delete each other's library. A build deletes the
libraries left in its directory by other sources or flags, and the
directories of checkouts whose source is gone. Nothing is built at
import. When the build or the load fails, ``kernel()`` raises ConfigError
saying why: the package has no other kernel. A process tries at most once:
later calls raise the same error without running the compiler again.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import zlib
from array import array
from pathlib import Path
from typing import Callable, Optional, Sequence

from .dynamics import (
    _POLICY_SEGMENT,
    RENORM_TOLERANCE,
    TC_THRESHOLD,
    renorm_failure,
)
from .errors import ConfigError
from .market import neighbor_tables
from .params import SimParams, VariantKind

SOURCE = Path(__file__).with_name("_sweep.c")
COMPILER = "gcc"
#: -ffp-contract=off keeps gcc from fusing a multiply and an add, which
#: rounds once where Python rounds twice; -ffast-math and -march would
#: change results too. -O3 gives the bits -O0 gives, as it reassociates no
#: floating-point sum without -ffast-math. -O2 vectorises the stream's
#: refill (see _sweep.c): an active q=0.99 replica takes about 0.6 of the
#: CPU time it took at -O1 before the refill was written for it, and -O3
#: takes about 0.84 of -O2's. The compiler's peak memory counts toward the
#: peak resident set of the run that builds the kernel (about 40 MB at
#: -O3, 37.5 MB at -O2); the two ggc params make gcc collect its garbage
#: sooner, for the same library bytes.
#: -pthread: tm_run_ensemble starts its workers' threads.
FLAGS = ("-O3", "-ffp-contract=off", "--param", "ggc-min-expand=20",
         "--param", "ggc-min-heapsize=2048", "-shared", "-fPIC", "-pthread")

_I64, _F64, _I32 = ctypes.c_int64, ctypes.c_double, ctypes.c_int32
_INT = ctypes.c_int  # the item of an array('i')
_P_I64, _P_F64 = ctypes.POINTER(_I64), ctypes.POINTER(_F64)
#: MT19937's 624 words and the position
_MT_WORDS = 625


class _State(ctypes.Structure):
    """``State`` in ``_sweep.c``, field for field."""

    _fields_ = [
        ("s", _F64), ("b", _F64), ("q", _F64), ("omega_s", _F64),
        ("sigma", _F64), ("tolerance", _F64),
        ("n_min", _I64), ("segment", _I64), ("passive", _I64),
        ("vn4", ctypes.POINTER(_INT)), ("moore8", ctypes.POINTER(_INT)),
        ("occ", ctypes.POINTER(_I32)),
        ("id", _P_I64), ("tech", _P_F64),
        ("share", _P_F64), ("site", ctypes.POINTER(_I32)),
        ("order", ctypes.POINTER(_I32)),
        ("n_slots", _I64), ("n_live", _I64),
        ("sweep", _I64), ("next_id", _I64),
        ("frontier", _F64), ("ws", _F64), ("ts", _F64), ("tq", _F64),
        ("mt", ctypes.POINTER(ctypes.c_uint32)),
        ("row", _I64), ("n_rows", _I64),
        ("n_firms", _P_F64), ("mean_tech", _P_F64), ("ratio", _P_F64),
        ("rescued", _P_I64), ("renorm_error", _P_F64),
        ("n_rescued", _I64), ("err", _F64),
        ("threshold", _F64), ("crossing", _I64),
        ("text", ctypes.POINTER(ctypes.c_char)), ("n_text", _I64),
        ("max_text", _I64), ("replica", _I64),
    ]


class _Ensemble(ctypes.Structure):
    """``Ensemble`` in ``_sweep.c``, field for field."""

    _fields_ = [
        ("states", ctypes.POINTER(ctypes.POINTER(_State))),
        ("n_states", _I64), ("seeds", ctypes.POINTER(ctypes.c_uint64)),
        ("n_replicas", _I64), ("n_sites", _I64), ("n0", _I64),
        ("n_firms", _P_F64), ("mean_tech", _P_F64), ("ratio", _P_F64),
        ("tc_vals", _P_F64),
        ("next", _I64), ("failed", _I64), ("paused", _I64), ("workers", _I64),
    ]


#: Event lines a logged run has room for per C call (at least a lattice's
#: sites, the most one sweep writes), each of tm_event_line_max() bytes.
EVENT_ROWS = 4096
#: tm_run_ensemble's return codes.
_OK, _RENORM_ABOVE_TOLERANCE, _PAUSED = range(3)


def cache_dir() -> Path:
    """This checkout's directory in the cache, named by a CRC-32 of the
    source's absolute path."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    checkout = zlib.crc32(str(SOURCE.resolve()).encode())
    return Path(base) / "techmarket" / f"src-{checkout:08x}"


def _build(path: Path) -> None:
    """Compile SOURCE to ``path`` through a temporary file, so that no
    process ever loads a half-written library. A failed compile raises an
    OSError naming the compiler's first error line."""
    import subprocess  # here: loading a cached kernel imports no subprocess

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([COMPILER, *FLAGS, "-o", str(tmp), str(SOURCE), "-lm"],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, path)
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.splitlines()
        raise OSError(next((line for line in lines if "error" in line),
                           f"{COMPILER} exited with code {exc.returncode}"))
    finally:
        tmp.unlink(missing_ok=True)


def _prune(path: Path) -> None:
    """After ``path`` is built: delete the other libraries in its directory
    and the directories of checkouts whose source is gone, and mark this
    checkout's directory with a symbolic link to its source. Libraries that
    a process has loaded stay mapped."""
    import shutil  # here, as subprocess in _build

    for stale in set(path.parent.glob("sweep-*.so")) - {path}:
        with contextlib.suppress(OSError):
            stale.unlink()
    for mark in path.parent.parent.glob("src-*.source"):
        with contextlib.suppress(OSError):
            if not mark.exists():  # the link dangles: that checkout is gone
                shutil.rmtree(mark.with_suffix(""), ignore_errors=True)
                mark.unlink()
    mark = path.parent.with_suffix(".source")
    with contextlib.suppress(OSError):
        if not mark.is_symlink():
            mark.symlink_to(SOURCE.resolve())


def kernel() -> ctypes.CDLL:
    """The kernel's library, built first if the cache lacks it. Raises
    ConfigError, naming the reason, when it cannot be built or loaded."""
    lib = _load()
    if isinstance(lib, str):
        raise ConfigError(lib)
    return lib


@functools.cache
def _load() -> ctypes.CDLL | str:
    """``kernel()``'s library, or the reason it cannot be had: a cached
    failure is not retried, so the compiler runs at most once."""
    # crc32 and not hashlib, whose OpenSSL adds 3.4 MB to the resident set
    key = SOURCE.read_bytes() + " ".join((COMPILER, *FLAGS)).encode()
    path = cache_dir() / f"sweep-{zlib.crc32(key):08x}.so"
    try:
        if not path.exists():
            _build(path)
            _prune(path)
        lib = ctypes.CDLL(str(path))
    except OSError as exc:  # failed build, unwritable cache, bad library
        return f"cannot build or load the sweep kernel with {COMPILER}: {exc}"
    for name, size, struct in (("State", lib.tm_state_size, _State),
                               ("Ensemble", lib.tm_ensemble_size, _Ensemble)):
        size.argtypes = []
        size.restype = ctypes.c_size_t
        if size() != ctypes.sizeof(struct):
            return (f"the sweep kernel in {path} does not match compiled.py: "
                    f"{name} layout mismatch")
    lib.tm_run_ensemble.argtypes = [ctypes.POINTER(_Ensemble)]
    lib.tm_run_ensemble.restype = ctypes.c_int
    lib.tm_event_line_max.argtypes = []
    lib.tm_event_line_max.restype = ctypes.c_size_t
    lib.tm_column_stats.argtypes = [_P_F64, _I64, _I64, _P_F64, _P_F64]
    lib.tm_column_stats.restype = None
    lib.tm_csv_rows.argtypes = [_P_I64, ctypes.POINTER(_P_F64), _I64, _I64,
                                ctypes.POINTER(ctypes.c_char)]
    lib.tm_csv_rows.restype = _I64
    return lib


def _view(ctype, buffer, n: int) -> ctypes.Array:
    """The first ``n`` ``ctype`` items of a writable buffer, without a
    copy. Raises ValueError when the buffer is too short for them."""
    return (ctype * n).from_buffer(buffer)


def new_state(params: SimParams, out: Sequence[array],
              logged: bool) -> _State:
    """A State of ``params`` with zeroed buffers for its lattice, writing
    replica 0's rows of the ensemble whose buffers are ``out``: the
    replica-major 'd' matrices of N, mean technology and ratio, then the
    per-row rescue sum ('q') and renormalization error maximum ('d'), of
    ``len(out[3])`` rows each. A replica the State claims points its rows
    at that replica's, and its event log's lines, when ``logged`` gives it
    a text buffer, name that replica. The struct keeps the ctypes arrays it
    points into alive, and the from_buffer views keep the tables and the
    ensemble's buffers."""
    n_mat, a_mat, r_mat, rescued_sum, renorm_max = out
    rows = len(rescued_sum)
    n_sites = params.lx * params.ly
    cap = 2 * n_sites  # see State.id in _sweep.c
    vn4, moore8 = neighbor_tables(params.lx, params.ly)
    max_text = _text_bytes(n_sites) if logged else 0
    return _State(
        s=params.s, b=params.b, q=params.q, omega_s=params.omega_s,
        sigma=params.sigma, tolerance=RENORM_TOLERANCE,
        n_min=params.n_min,
        segment=_POLICY_SEGMENT.get(params.policy, -1),  # -1: SEGMENT_ANY
        passive=params.variant is VariantKind.PASSIVE_AFTER_RESCUE,
        vn4=(_INT * (4 * n_sites)).from_buffer(vn4),
        moore8=(_INT * (8 * n_sites)).from_buffer(moore8),
        occ=(_I32 * n_sites)(), id=(_I64 * cap)(), tech=(_F64 * cap)(),
        share=(_F64 * cap)(), site=(_I32 * cap)(), order=(_I32 * cap)(),
        mt=(ctypes.c_uint32 * _MT_WORDS)(),
        n_rows=rows,
        n_firms=_view(_F64, n_mat, rows),
        mean_tech=_view(_F64, a_mat, rows),
        ratio=_view(_F64, r_mat, rows),
        rescued=_view(_I64, rescued_sum, rows),
        renorm_error=_view(_F64, renorm_max, rows),
        threshold=TC_THRESHOLD, crossing=-1,
        text=(ctypes.c_char * max_text)() if logged else None,
        max_text=max_text)


def _text_bytes(n_sites: int) -> int:
    """Bytes of a logged State's text buffer: EVENT_ROWS lines, or a line
    per site when the lattice has more sites."""
    return max(EVENT_ROWS, n_sites) * kernel().tm_event_line_max()


def state_bytes(n_sites: int, logged: bool) -> int:
    """Bytes of the buffers ``new_state`` allocates on a lattice of
    ``n_sites`` sites: occ, then id, tech, share, site and order for twice
    the sites (see State.id in _sweep.c), the stream, and a logged
    replica's text buffer."""
    return ((4 + 2 * (8 + 8 + 8 + 4 + 4)) * n_sites + 4 * _MT_WORDS
            + (_text_bytes(n_sites) if logged else 0))


def workers(jobs: int, n_replicas: int, logged: bool) -> int:
    """The States ``run_replicas`` runs an ensemble on: one for a logged
    ensemble, whose lines then come in replica order, else one per job up
    to one per replica."""
    return 1 if logged else min(jobs, n_replicas)


def run_replicas(params: SimParams, seeds: Sequence[int],
                 out: Sequence[array], tc_vals: array, jobs: int,
                 events: Optional[Callable] = None) -> None:
    """Run replica k of an ensemble of ``params`` from ``seeds[k]`` for
    every k, in one C call on ``workers(jobs, len(seeds), logged)``
    States: the calling thread and a thread for each further State, which
    the call starts and joins (see tm_run_ensemble). Each replica writes its
    rows into the ensemble's buffers ``out`` (see ``new_state``) and its
    crossing, if any, into ``tc_vals[k]``. With an event sink, a callable,
    the replicas run one after another on one State, and the C call, paused
    whenever its text is full, passes each part's lines to the sink, ASCII,
    as one memoryview of the State's text buffer: the sink writes or copies
    them before it returns, as the next call overwrites them. A replica
    whose share total drifts beyond RENORM_TOLERANCE stops the claiming of
    further replicas and raises IntegrityError for the lowest such replica,
    with a note naming its seed, after the failing sweep's lines are passed
    on."""
    lib = kernel()
    n, rows, logged = len(seeds), len(out[3]), events is not None
    states = [new_state(params, out, logged)
              for _ in range(workers(jobs, n, logged))]
    ensemble = _Ensemble(
        states=(ctypes.POINTER(_State) * len(states))(
            *map(ctypes.pointer, states)),
        n_states=len(states),
        seeds=_view(ctypes.c_uint64, array("Q", seeds), n),
        n_replicas=n, n_sites=params.lx * params.ly,
        n0=params.n_initial_firms,
        n_firms=_view(_F64, out[0], n * rows),
        mean_tech=_view(_F64, out[1], n * rows),
        ratio=_view(_F64, out[2], n * rows),
        tc_vals=_view(_F64, tc_vals, n), failed=n)
    status = _until_done(lambda: lib.tm_run_ensemble(ctypes.byref(ensemble)),
                         states[0], events)
    if status == _RENORM_ABOVE_TOLERANCE:
        k = ensemble.failed
        state = next(state for state in states if state.replica == k)
        error = renorm_failure(state.err, state.sweep)
        error.add_note(f"replica seed {seeds[k]}")
        raise error


def _until_done(call: Callable[[], int], state: _State,
                events: Optional[Callable]) -> int:
    """Call ``call`` until it returns other than PAUSED, and return that;
    with an event sink, pass it the text ``state`` wrote in each call, as
    a memoryview of the State's buffer that the next call overwrites."""
    if events is not None:
        address = ctypes.addressof(state.text.contents)
    status = _PAUSED
    while status == _PAUSED:
        status = call()
        if events is not None:
            text = ctypes.c_char * state.n_text
            events(memoryview(text.from_address(address)))
    return status


def column_stats(matrix: array, cols: int) -> tuple[array, array]:
    """Each column's mean and population SD over the rows of ``matrix``, a
    non-empty row-major 'd' array of ``cols`` columns, summed row by row:
    bit for bit numpy's mean and std over axis 0 when ``cols`` >= 2 (see
    tm_column_stats)."""
    n = len(matrix) // cols
    if n < 1:
        raise ValueError("column_stats needs at least one row")
    mean, sd = array("d", [0.0]) * cols, array("d", [0.0]) * cols
    kernel().tm_column_stats(_view(_F64, matrix, n * cols), n, cols,
                             _view(_F64, mean, cols), _view(_F64, sd, cols))
    return mean, sd


#: The most bytes tm_csv_rows writes for a field and its comma: an int64
#: has at most 20 characters ("-9223372036854775808") and a float 19
#: ("-d.ddddddddddde-XXX").
_FIELD_BYTES = 21


def csv_rows(t: Optional[array], columns: Sequence[array]) -> str:
    """The CSV lines of ``columns``, 'd' arrays of one length, after a
    first column ``t``, a 'q' array, unless it is None: each integer as
    ``"%d"`` and each float as ``"%.12g"`` formats it, byte for byte (see
    tm_csv_rows)."""
    rows = len(columns[0])
    size = rows * (len(columns) + (t is not None)) * _FIELD_BYTES
    out = bytearray(size)
    written = kernel().tm_csv_rows(
        None if t is None else _view(_I64, t, rows),
        (_P_F64 * len(columns))(*(_view(_F64, c, rows) for c in columns)),
        len(columns), rows, (ctypes.c_char * size).from_buffer(out))
    if written < 0:
        raise MemoryError("cannot make the C locale to format a float")
    return str(memoryview(out)[:written], "ascii")
