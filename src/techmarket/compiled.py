"""The compiled sweep kernel: ``_sweep.c``, built once per machine and
loaded with ctypes.

``run_sweeps`` is ``dynamics.run_sweeps`` on the compiled kernel, with
bit-identical results and the same event rows. It copies a market and its
random stream into C buffers, runs all of the replica's sweeps in one C
call that writes the trajectory's columns in place, and copies both back.
A logged run collects its event rows in a buffer of EVENT_ROWS rows: the
call pauses before a sweep whose rows might not fit, and is called again
once the rows are appended to the sink.

``kernel()`` builds the library on first use with gcc into
``$XDG_CACHE_HOME/techmarket`` (``~/.cache/techmarket`` by default), named
by a CRC-32 of the source, the compiler and the flags, and loads it. A
build deletes the libraries left there by other sources or flags.
Nothing is built at import. When the build or the load fails, ``kernel()``
says why and the callers run the Python kernel, which is also the
reference the compiled one is tested against.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import random
import zlib
from array import array
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Optional

from .dynamics import (
    _POLICY_SEGMENT,
    EVENT_FIELDS,
    RENORM_TOLERANCE,
    Trajectory,
    renorm_failure,
)
from .market import Firm, MarketState, Segment, _neighbor_tables
from .params import SimParams, VariantKind

SOURCE = Path(__file__).with_name("_sweep.c")
COMPILER = "gcc"
#: -ffp-contract=off keeps gcc from fusing a multiply and an add, which
#: rounds once where Python rounds twice; -ffast-math and -march would
#: change results too. -O1, not -O2: the compiler's peak memory counts
#: toward the peak resident set of the run that builds the kernel, and
#: -O2 needs about 4 MB more for a kernel at most about 10% faster.
FLAGS = ("-O1", "-ffp-contract=off", "-shared", "-fPIC")

_I64, _F64, _I32 = ctypes.c_int64, ctypes.c_double, ctypes.c_int32
_P_I64, _P_F64 = ctypes.POINTER(_I64), ctypes.POINTER(_F64)


class _State(ctypes.Structure):
    """``State`` in ``_sweep.c``, field for field."""

    _fields_ = [
        ("s", _F64), ("b", _F64), ("q", _F64), ("omega_s", _F64),
        ("sigma", _F64), ("tolerance", _F64),
        ("n_min", _I64), ("segment", _I64), ("passive", _I64),
        ("vn4", ctypes.POINTER(_I32)), ("moore8", ctypes.POINTER(_I32)),
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
_ROW_BYTES = EVENT_FIELDS * ctypes.sizeof(_I64)
#: tm_run's return codes.
_OK, _RENORM_ABOVE_TOLERANCE, _NO_SHARE, _PAUSED = range(4)
_SEGMENT_CODE = {None: -1, Segment.LOW: 0, Segment.MEDIUM: 1,
                 Segment.HIGH: 2}


class Kernel(NamedTuple):
    """The kernel replicas of this process run on."""

    lib: Optional[ctypes.CDLL]  # None: run the Python kernel
    note: str                   # which kernel runs, and why for Python


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "techmarket"


def _build(path: Path) -> None:
    """Compile SOURCE to ``path`` through a temporary file, so that no
    process ever loads a half-written library."""
    import subprocess

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([COMPILER, *FLAGS, "-o", str(tmp), str(SOURCE), "-lm"],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@functools.cache
def kernel() -> Kernel:
    """The compiled kernel of this process, built first if the cache lacks
    it; its library is None, with the reason in the note, when it cannot be
    built or loaded."""
    import subprocess  # here, so that importing the package stays as cheap

    # crc32 and not hashlib, whose OpenSSL adds 3.4 MB to the resident set
    key = SOURCE.read_bytes() + " ".join((COMPILER, *FLAGS)).encode()
    path = cache_dir() / f"sweep-{zlib.crc32(key):08x}.so"
    try:
        if not path.exists():
            _build(path)
            with contextlib.suppress(OSError):  # loaded copies stay mapped
                for stale in set(path.parent.glob("sweep-*.so")) - {path}:
                    stale.unlink()
        lib = ctypes.CDLL(str(path))
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.splitlines()
        error = next((line for line in lines if "error" in line),
                     f"{COMPILER} exited with code {exc.returncode}")
        return Kernel(None, f"python (build failed: {error})")
    except OSError as exc:  # no compiler, an unwritable cache, a bad library
        return Kernel(None, f"python (build failed: {exc})")
    lib.tm_state_size.argtypes = []
    lib.tm_state_size.restype = ctypes.c_size_t
    if lib.tm_state_size() != ctypes.sizeof(_State):
        return Kernel(None, "python (build failed: State layout mismatch)")
    lib.tm_run.argtypes = [ctypes.POINTER(_State)]
    lib.tm_run.restype = ctypes.c_int
    return Kernel(lib, "compiled")


def _array(ctype, size: int, values=()) -> ctypes.Array:
    out = (ctype * size)()
    values = list(values)
    out[:len(values)] = values
    return out


@functools.lru_cache(maxsize=64)
def _c_neighbor_tables(width: int,
                       height: int) -> tuple[ctypes.Array, ctypes.Array]:
    """The vn4 and moore8 tables of a width x height torus as C arrays.
    The kernel only reads them, so every replica of one lattice shape
    shares them."""
    vn4, moore8 = _neighbor_tables(width, height)
    return (_array(_I32, 4 * width * height, chain.from_iterable(vn4)),
            _array(_I32, 8 * width * height, chain.from_iterable(moore8)))


def run_sweeps(lib: ctypes.CDLL, market: MarketState, params: SimParams,
               rng: random.Random, trajectory: Trajectory,
               events: Optional[array] = None) -> None:
    """``dynamics.run_sweeps`` on the compiled kernel ``lib``: the same
    columns, event rows, end market and stream, or the same error raised
    after the same rows."""
    lattice = market.lattice
    n_sites = lattice.n_sites
    cap = 2 * n_sites  # see State.id in _sweep.c
    firms = list(market.firms.values())  # the registry's order
    slot = {f.id: k for k, f in enumerate(firms)}
    version, words, gauss = rng.getstate()
    max_events = max(EVENT_ROWS, n_sites)
    buffer = None if events is None else _array(_I64,
                                                EVENT_FIELDS * max_events)
    vn4, moore8 = _c_neighbor_tables(lattice.width, lattice.height)
    # the struct keeps the ctypes arrays it points into alive
    state = _State(
        s=params.s, b=params.b, q=params.q, omega_s=params.omega_s,
        sigma=params.sigma, tolerance=RENORM_TOLERANCE,
        n_min=params.n_min,
        segment=_SEGMENT_CODE[_POLICY_SEGMENT.get(params.policy)],
        passive=params.variant is VariantKind.PASSIVE_AFTER_RESCUE,
        vn4=vn4, moore8=moore8,
        occ=_array(_I32, n_sites, (slot.get(fid, -1)
                                   for fid in lattice.occupancy)),
        id=_array(_I64, cap, (f.id for f in firms)),
        tech=_array(_F64, cap, (f.tech for f in firms)),
        share=_array(_F64, cap, (f.share for f in firms)),
        site=_array(_I32, cap, (f.site for f in firms)),
        order=_array(_I32, cap), n_slots=len(firms), n_live=len(firms),
        sweep=market.sweep, next_id=market.next_id,
        frontier=market.frontier_value, ws=market.weighted_sum,
        ts=market.tech_sum, tq=market.tech_sq_sum,
        mt=_array(ctypes.c_uint32, len(words), words),
        n_rows=len(trajectory.t),
        n_firms=trajectory.n_firms.ctypes.data_as(_P_I64),
        rescued=trajectory.rescued.ctypes.data_as(_P_I64),
        bankrupted=trajectory.bankrupted.ctypes.data_as(_P_I64),
        mean_tech=trajectory.mean_tech.ctypes.data_as(_P_F64),
        ratio=trajectory.ratio.ctypes.data_as(_P_F64),
        renorm_error=trajectory.renorm_error.ctypes.data_as(_P_F64),
        events=buffer, max_events=max_events)
    status = _PAUSED
    while status == _PAUSED:
        status = lib.tm_run(ctypes.byref(state))
        if events is not None:
            events.frombytes(memoryview(buffer).cast("B")
                             [:state.n_events * _ROW_BYTES])
    if status == _NO_SHARE:
        raise ValueError("total share must be positive")
    if status == _RENORM_ABOVE_TOLERANCE:
        raise renorm_failure(trajectory.renorm_error[state.row], state.sweep)
    n = state.n_slots
    occupancy = [-1] * n_sites
    registry = {}
    for fid, tech, share, site in zip(state.id[:n], state.tech[:n],
                                      state.share[:n], state.site[:n]):
        registry[fid] = Firm(fid, tech, share, site)
        occupancy[site] = fid
    market.firms = registry
    market.lattice.occupancy = occupancy
    market.sweep = state.sweep
    market.frontier_value = state.frontier
    market.next_id = state.next_id
    market.weighted_sum = state.ws
    market.tech_sum = state.ts
    market.tech_sq_sum = state.tq
    rng.setstate((version, tuple(state.mt[:len(words)]), gauss))
