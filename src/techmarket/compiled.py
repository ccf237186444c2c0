"""The compiled sweep kernel: ``_sweep.c``, built once per machine and
loaded with ctypes.

``_sweep.c`` runs one whole sweep per call, the same cycle as
``dynamics.sweep`` with bit-identical results and the same event rows.
``ResidentReplica`` copies a market and its random stream into C buffers
once, hands itself to ``dynamics.sweep`` in place of the market for every
sweep, and copies both back at the end, so a replica pays for the
conversion once and not per sweep.

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
import struct
import zlib
from array import array
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Optional

from .dynamics import (
    _KINDS,
    _POLICY_SEGMENT,
    EVENT_FIELDS,
    RENORM_TOLERANCE,
    SweepStats,
    renorm_failure,
)
from .market import Firm, MarketState, Segment
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
_N_KINDS = len(_KINDS)


class _State(ctypes.Structure):
    """``State`` in ``_sweep.c``, field for field."""

    _fields_ = [
        ("n_start", _I64), ("mean_start", _F64), ("ratio_start", _F64),
        ("renorm_error", _F64), ("counts", _I64 * _N_KINDS),
        ("rescued", _I64), ("n_events", _I64),
        ("s", _F64), ("b", _F64), ("q", _F64), ("omega_s", _F64),
        ("sigma", _F64), ("tolerance", _F64),
        ("n_min", _I64), ("segment", _I64), ("passive", _I64),
        ("vn4", ctypes.POINTER(_I32)), ("moore8", ctypes.POINTER(_I32)),
        ("occ", ctypes.POINTER(_I32)),
        ("id", ctypes.POINTER(_I64)), ("tech", ctypes.POINTER(_F64)),
        ("share", ctypes.POINTER(_F64)), ("site", ctypes.POINTER(_I32)),
        ("order", ctypes.POINTER(_I32)),
        ("n_slots", _I64), ("n_live", _I64),
        ("sweep", _I64), ("next_id", _I64),
        ("frontier", _F64), ("ws", _F64), ("ts", _F64), ("tq", _F64),
        ("mt", ctypes.POINTER(ctypes.c_uint32)),
        ("events", ctypes.POINTER(_I64)),
    ]


#: The statistics at the head of _State: n_start, mean_start, ratio_start,
#: renorm_error, the counts by EventKind, rescued and n_events.
_STATS = struct.Struct(f"q3d{_N_KINDS}qqq")
#: Bytes of one event row.
_ROW_BYTES = EVENT_FIELDS * ctypes.sizeof(_I64)
#: tm_sweep's return codes.
_OK, _RENORM_ABOVE_TOLERANCE, _NO_SHARE = range(3)
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
    lib.tm_sweep.argtypes = [ctypes.POINTER(_State)]
    lib.tm_sweep.restype = ctypes.c_int
    return Kernel(lib, "compiled")


def _array(ctype, size: int, values=()) -> ctypes.Array:
    out = (ctype * size)()
    values = list(values)
    out[:len(values)] = values
    return out


class ResidentReplica:
    """A replica's market and random stream held in C buffers.

    ``dynamics.sweep`` runs one sweep of it per call; ``unload`` writes the
    state back into the market and the stream it was built from. Both must
    be left alone in between. The C sweeps write event rows from the first
    sweep that is given a sink on.
    """

    def __init__(self, lib: ctypes.CDLL, market: MarketState,
                 rng: random.Random, params: SimParams) -> None:
        lattice = market.lattice
        n_sites = lattice.n_sites
        cap = 2 * n_sites  # see State.id in _sweep.c
        firms = list(market.firms.values())  # the registry's order
        slot = {f.id: k for k, f in enumerate(firms)}
        self._market = market
        self._rng = rng
        self._version, words, self._gauss = rng.getstate()
        # buffers the C struct points into, kept alive with it
        self._mt = _array(ctypes.c_uint32, len(words), words)
        self._vn4 = _array(_I32, 4 * n_sites, chain.from_iterable(lattice.vn4))
        self._moore8 = _array(_I32, 8 * n_sites,
                              chain.from_iterable(lattice.moore8))
        self._occ = _array(_I32, n_sites, (slot.get(fid, -1)
                                           for fid in lattice.occupancy))
        self._id = _array(_I64, cap, (f.id for f in firms))
        self._tech = _array(_F64, cap, (f.tech for f in firms))
        self._share = _array(_F64, cap, (f.share for f in firms))
        self._site = _array(_I32, cap, (f.site for f in firms))
        self._order = _array(_I32, cap)
        # a sweep's event rows: at most one per site
        self._events = _array(_I64, EVENT_FIELDS * n_sites)
        self._event_bytes = memoryview(self._events).cast("B")
        self._state = _State(
            s=params.s, b=params.b, q=params.q, omega_s=params.omega_s,
            sigma=params.sigma, tolerance=RENORM_TOLERANCE,
            n_min=params.n_min,
            segment=_SEGMENT_CODE[_POLICY_SEGMENT.get(params.policy)],
            passive=params.variant is VariantKind.PASSIVE_AFTER_RESCUE,
            vn4=self._vn4, moore8=self._moore8, occ=self._occ, id=self._id,
            tech=self._tech, share=self._share, site=self._site,
            order=self._order, n_slots=len(firms), n_live=len(firms),
            sweep=market.sweep, next_id=market.next_id,
            frontier=market.frontier_value, ws=market.weighted_sum,
            ts=market.tech_sum, tq=market.tech_sq_sum, mt=self._mt)
        self._run = functools.partial(lib.tm_sweep, ctypes.byref(self._state))

    def sweep(self, events: Optional[array] = None) -> SweepStats:
        """One sweep, as ``dynamics.sweep`` runs it on the market; its
        event rows are appended to ``events`` when it is given."""
        if events is not None and not self._state.events:
            self._state.events = self._events
        status = self._run()
        n, mean, ratio, err, *counts, rescued, n_events = \
            _STATS.unpack_from(self._state)
        if events is not None:
            events.frombytes(self._event_bytes[:n_events * _ROW_BYTES])
        if status != _OK:
            if status == _NO_SHARE:
                raise ValueError("total share must be positive")
            raise renorm_failure(err, self._state.sweep)
        return SweepStats(n, mean, ratio, err, dict(zip(_KINDS, counts)),
                          rescued)

    def unload(self) -> None:
        """Write the state back into the market and the stream."""
        st = self._state
        n = st.n_slots
        market = self._market
        occupancy = [-1] * len(self._occ)
        firms = {}
        for fid, tech, share, site in zip(self._id[:n], self._tech[:n],
                                          self._share[:n], self._site[:n]):
            firms[fid] = Firm(fid, tech, share, site)
            occupancy[site] = fid
        market.firms = firms
        market.lattice.occupancy = occupancy
        market.sweep = st.sweep
        market.frontier_value = st.frontier
        market.next_id = st.next_id
        market.weighted_sum = st.ws
        market.tech_sum = st.ts
        market.tech_sq_sum = st.tq
        self._rng.setstate((self._version, tuple(self._mt), self._gauss))
