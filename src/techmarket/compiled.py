"""The model's kernel, ``_sweep.c``, built once per checkout and loaded with
ctypes: every replica starts from its seed, runs its sweeps and renders its
event log in C.

A replica runs in a ``State`` that ``new_state`` allocates with zeroed
buffers for the parameters' lattice, pointing at the trajectory's columns.
``start`` seeds its stream and draws its initial market, and
``run_sweeps`` runs all of its sweeps in one C call that writes the
columns in place; the end market and stream stay in the State's buffers.
The lattice's neighbor tables and the trajectory's columns, all ``array``
buffers, are shared with C without a copy.
A logged run collects its event rows in a buffer of EVENT_ROWS rows: the
call pauses before a sweep whose rows might not fit, and is called again
once the rows are appended to the sink. ``output.emit_event_log`` renders
the rows through the library's third entry, tm_render_events. The C calls
release the GIL, so replicas on threads run and render their logs in
parallel. ``folder`` and ``column_stats`` reduce an ensemble's trajectories
to its statistics, summed in numpy's order.

``kernel()`` builds the library on first use with gcc into this
checkout's directory of ``$XDG_CACHE_HOME/techmarket`` (``~/.cache`` by
default), named by a CRC-32 of the source, the compiler and the flags, and
loads it. Each checkout keeps its own directory, so checkouts with
different sources never delete each other's library. A build deletes the
libraries left in its directory by other sources or flags, and the
directories of checkouts whose source is gone. Nothing is built at import. When the build or the load fails, ``kernel()``
raises ConfigError saying why: the package has no other kernel. A process
tries at most once: later calls raise the same error without running the
compiler again.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import zlib
from array import array
from pathlib import Path
from typing import Callable, Optional

from .dynamics import (
    _POLICY_SEGMENT,
    EVENT_FIELDS,
    RENORM_TOLERANCE,
    Trajectory,
    renorm_failure,
)
from .errors import ConfigError
from .market import neighbor_tables
from .params import SimParams, VariantKind

SOURCE = Path(__file__).with_name("_sweep.c")
COMPILER = "gcc"
#: -ffp-contract=off keeps gcc from fusing a multiply and an add, which
#: rounds once where Python rounds twice; -ffast-math and -march would
#: change results too. -O2 vectorises the stream's refill (see _sweep.c):
#: an active q=0.99 replica takes about 0.6 of the CPU time it took at -O1
#: before the refill was written for it. The compiler's peak memory counts
#: toward the peak resident set of the run that builds the kernel; the two
#: ggc params make gcc collect its garbage sooner, which keeps the -O2 peak
#: about 1.4 MB above -O1's rather than 4 MB, for the same library bytes.
FLAGS = ("-O2", "-ffp-contract=off", "--param", "ggc-min-expand=20",
         "--param", "ggc-min-heapsize=2048", "-shared", "-fPIC")

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
        ("n_firms", _P_I64), ("rescued", _P_I64), ("bankrupted", _P_I64),
        ("mean_tech", _P_F64), ("ratio", _P_F64), ("renorm_error", _P_F64),
        ("events", _P_I64), ("n_events", _I64), ("max_events", _I64),
    ]


#: Event rows a logged run collects per C call (at least a lattice's sites,
#: the most one sweep writes): 192 KiB.
EVENT_ROWS = 4096
#: Bytes of one event row.
EVENT_ROW_BYTES = EVENT_FIELDS * ctypes.sizeof(_I64)
#: tm_run's return codes.
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
    lib.tm_state_size.argtypes = []
    lib.tm_state_size.restype = ctypes.c_size_t
    if lib.tm_state_size() != ctypes.sizeof(_State):
        return (f"the sweep kernel in {path} does not match compiled.py: "
                f"State layout mismatch")
    lib.tm_init.argtypes = [ctypes.POINTER(_State), ctypes.c_uint64, _I64,
                            _I64]
    lib.tm_init.restype = None
    lib.tm_run.argtypes = [ctypes.POINTER(_State)]
    lib.tm_run.restype = ctypes.c_int
    lib.tm_event_line_max.argtypes = []
    lib.tm_event_line_max.restype = ctypes.c_size_t
    lib.tm_render_events.argtypes = [_P_I64, _I64, _I64, ctypes.c_char_p]
    lib.tm_render_events.restype = _I64
    lib.tm_fold.argtypes = [_P_I64, _P_F64, _P_F64, _P_I64, _P_F64, _I64,
                            _I64, _P_F64, _P_F64, _P_F64, _P_I64, _P_F64,
                            _F64]
    lib.tm_fold.restype = _I64
    lib.tm_column_stats.argtypes = [_P_F64, _I64, _I64, _P_F64, _P_F64]
    lib.tm_column_stats.restype = None
    return lib


def _view(ctype, buffer, n: int, row: int = 0) -> ctypes.Array:
    """Row ``row`` of ``n`` ``ctype`` items of a writable buffer, without a
    copy. Raises ValueError when the buffer is too short for it."""
    return (ctype * n).from_buffer(buffer, row * n * ctypes.sizeof(ctype))


def new_state(params: SimParams, trajectory: Trajectory,
              logged: bool) -> _State:
    """A State of ``params`` with zeroed buffers for its lattice, writing
    one row of ``trajectory``, a ``Trajectory.empty``, per sweep; with
    ``logged``, also an event buffer. The struct keeps the ctypes arrays it
    points into alive, and the from_buffer views keep the tables and the
    columns."""
    rows = len(trajectory.n_firms)
    n_sites = params.lx * params.ly
    cap = 2 * n_sites  # see State.id in _sweep.c
    vn4, moore8 = neighbor_tables(params.lx, params.ly)
    max_events = max(EVENT_ROWS, n_sites)
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
        n_firms=_view(_I64, trajectory.n_firms, rows),
        rescued=_view(_I64, trajectory.rescued, rows),
        bankrupted=_view(_I64, trajectory.bankrupted, rows),
        mean_tech=_view(_F64, trajectory.mean_tech, rows),
        ratio=_view(_F64, trajectory.ratio, rows),
        renorm_error=_view(_F64, trajectory.renorm_error, rows),
        events=(_I64 * (EVENT_FIELDS * max_events))() if logged else None,
        max_events=max_events)


def state_bytes(n_sites: int, logged: bool) -> int:
    """Bytes of the buffers ``new_state`` allocates on a lattice of
    ``n_sites`` sites: occ, then id, tech, share, site and order for twice
    the sites (see State.id in _sweep.c), the stream, and a logged
    replica's event buffer."""
    return ((4 + 2 * (8 + 8 + 8 + 4 + 4)) * n_sites + 4 * _MT_WORDS
            + (EVENT_ROW_BYTES * max(EVENT_ROWS, n_sites) if logged else 0))


def start(state: _State, params: SimParams, seed: int) -> None:
    """Seed a ``new_state``'s stream as ``random.Random(seed)`` would and
    draw its market at sweep 0, as ``_sweep.c``'s tm_init describes."""
    kernel().tm_init(ctypes.byref(state), seed, params.lx * params.ly,
                     params.n_initial_firms)


def run_sweeps(state: _State, events: Optional[array] = None) -> None:
    """Run ``state`` from its sweep for one sweep per trajectory row but
    the last, and write every row; with an event sink, an ``array('q')``,
    append every step's event row to it (the State must be logged). A share
    total that drifts beyond RENORM_TOLERANCE raises IntegrityError after
    the failing sweep's rows are appended."""
    lib = kernel()
    status = _PAUSED
    while status == _PAUSED:
        status = lib.tm_run(ctypes.byref(state))
        if events is not None:
            events.frombytes(ctypes.string_at(
                state.events, state.n_events * EVENT_ROW_BYTES))
    if status == _RENORM_ABOVE_TOLERANCE:
        raise renorm_failure(state.renorm_error[state.row], state.sweep)


def folder(n_mat: array, a_mat: array, r_mat: array, rescued_sum: array,
           renorm_max: array,
           threshold: float) -> Callable[[Trajectory, int], Optional[int]]:
    """``fold(trajectory, k)``, which folds replica k's trajectory into an
    ensemble's reductions, as _sweep.c's tm_fold describes: row k of the
    replica-major 'd' matrices ``n_mat``, ``a_mat`` and ``r_mat``, and the
    per-row sums and maxima ``rescued_sum`` ('q') and ``renorm_max`` ('d'),
    each of ``len(rescued_sum)`` rows. It returns the first row whose mean
    technology reaches ``threshold``, or None. The views of the reductions
    are made once, here."""
    rows = len(rescued_sum)
    size = len(n_mat)
    reductions = (*(_view(_F64, m, size) for m in (n_mat, a_mat, r_mat)),
                  _view(_I64, rescued_sum, rows),
                  _view(_F64, renorm_max, rows))
    tm_fold = kernel().tm_fold

    def fold(trajectory: Trajectory, k: int) -> Optional[int]:
        if not 0 <= k < size // rows:
            raise IndexError(f"replica {k} is not a row of the matrices")
        crossing = tm_fold(
            _view(_I64, trajectory.n_firms, rows),
            _view(_F64, trajectory.mean_tech, rows),
            _view(_F64, trajectory.ratio, rows),
            _view(_I64, trajectory.rescued, rows),
            _view(_F64, trajectory.renorm_error, rows), rows, k, *reductions,
            threshold)
        return None if crossing < 0 else crossing

    return fold


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
