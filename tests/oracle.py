"""The model in Python: the reference the compiled kernel is tested
against.

This is the model of ``techmarket.dynamics``, step for step and draw for
draw, on a market of ``Firm`` objects in a registry ordered by id. It gives
the kernel's bits: the same rows, event-log text, end market and stream.
``init_market`` starts a market as ``_sweep.c`` starts a replica from its
seed, and ``run_sweeps`` runs it as the kernel runs a replica's sweeps,
into a ``Trajectory``, this module's own per-replica record, which also
counts each sweep's bankruptcies. A step's outcome is an ``EventKind`` and
its record an event row of EVENT_FIELDS integers, this module's own format
too; ``emit_event_log`` renders the rows as the lines the kernel writes.

``kernel_replica`` runs one replica on the kernel as the only replica of an
ensemble, whose buffers are then its own rows. ``compiled_state`` fills a
kernel State from a market of this module, and ``run_compiled_state`` runs
it to its end through the ensemble entry, so that the kernel can start
from a hand-built market.
"""
from __future__ import annotations

import ctypes
import math
import random
from array import array
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, NamedTuple, Optional, TextIO

from techmarket import compiled
from techmarket.dynamics import (
    _POLICY_SEGMENT,
    RENORM_TOLERANCE,
    renorm_failure,
)
from techmarket.market import Segment, neighbor_tables
from techmarket.params import SimParams, VariantKind


class EventKind(IntEnum):
    """Terminal outcome of one per-firm step, valued as ``_sweep.c``'s
    kinds; the value is the kind column of an event row."""

    BANKRUPTED = 0
    RESCUED = 1
    MOVED_COPIED_FRONTIER = 2
    MOVED_NO_DIFFUSION = 3
    MERGED = 4
    SPIN_OFF = 5
    SPIN_OFF_BLOCKED = 6


#: Integers per event row: ``(kind, firm, t, partner, child, rescued)``, the
#: step's EventKind and firm, the sweep, the partner and the id of a newly
#: founded spin-off (each -1 when there is none), and 1 when the
#: intervention fired during the step, else 0.
EVENT_FIELDS = 6

(_BANKRUPTED, _RESCUED, _MOVED_COPIED_FRONTIER, _MOVED_NO_DIFFUSION, _MERGED,
 _SPIN_OFF, _SPIN_OFF_BLOCKED) = EventKind

#: The ``,"kind":"<name>"`` fragment of an event line, by EventKind value.
_KIND_FIELDS = {kind: f',"kind":"{kind.name.lower()}"' for kind in EventKind}


#: array typecodes of Trajectory's columns, in field order: int64 and
#: float64.
_COLUMN_TYPES = "qddqqd"


@dataclass(slots=True)
class Trajectory:
    """Per-sweep time series of one oracle run; row k holds its k-th
    sweep."""

    n_firms: array       # 'q': N(t) at sweep start
    mean_tech: array     # 'd': weighted mean technology at sweep start
    ratio: array         # 'd': mean_tech / frontier(t)
    # sweep t's rescues ('q'), bankruptcies ('q') and share renormalization
    # error ('d'); 0 in the last row
    rescued: array
    bankrupted: array
    renorm_error: array

    @classmethod
    def empty(cls, rows: int) -> Trajectory:
        """Zeroed columns of ``rows`` rows."""
        return cls(*(array(code, [0]) * rows for code in _COLUMN_TYPES))


# -- random draws -------------------------------------------------------------

def open_unit(rng: random.Random) -> float:
    """Uniform draw on the open interval (0, 1)."""
    u = rng.random()
    while u == 0.0:  # probability 2^-53 per draw
        u = rng.random()
    return u


def shuffle_in_place(items: list, rng: random.Random) -> None:
    """Fisher-Yates shuffle driven by rng.random() only."""
    random = rng.random
    for i in range(len(items) - 1, 0, -1):
        j = int(random() * (i + 1))
        if j > i:
            j = i
        items[i], items[j] = items[j], items[i]


def sample_distinct(n_total: int, k: int, rng: random.Random) -> list[int]:
    """k distinct integers drawn uniformly from range(n_total), via a
    partial Fisher-Yates pass; consumes exactly k draws."""
    pool = list(range(n_total))
    for i in range(k):
        j = i + int(rng.random() * (n_total - i))
        if j >= n_total:
            j = n_total - 1
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


# -- the market ---------------------------------------------------------------

@dataclass(slots=True)
class Firm:
    id: int
    tech: float    # technology level A_i, 0 <= A_i < F(t)
    share: float   # market share omega_i in [0, 1]
    site: int      # flat lattice index of the occupied site


class Lattice:
    """Rectangular grid with periodic boundaries and precomputed
    neighbor tables (4-site von Neumann, 8-site Moore)."""

    __slots__ = ("width", "height", "occupancy", "vn4", "moore8")

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self.occupancy: list[int] = [-1] * (width * height)  # firm id or -1
        self.vn4, self.moore8 = neighbor_tables(width, height)

    @property
    def n_sites(self) -> int:
        return self.width * self.height


class MarketState:
    """Full simulable state: lattice occupancy, live-firm registry, sweep
    clock, and the frontier value cached for the current sweep.

    Also carries running sums (weighted_sum = sum omega_j * A_j,
    tech_sum = sum A_j, tech_sq_sum = sum A_j^2) that the dynamics engine
    keeps incrementally up to date and resyncs exactly at each sweep start.
    """

    __slots__ = (
        "lattice", "firms", "sweep", "frontier_value", "next_id",
        "weighted_sum", "tech_sum", "tech_sq_sum",
    )

    def __init__(self, lattice: Lattice) -> None:
        self.lattice = lattice
        self.firms: dict[int, Firm] = {}
        self.sweep = 0
        self.frontier_value = 1.0
        self.next_id = 0
        self.weighted_sum = 0.0
        self.tech_sum = 0.0
        self.tech_sq_sum = 0.0

    def total_share(self) -> float:
        # left to right from 0.0: the built-in sum() compensates float
        # rounding from Python 3.12 on
        total = 0.0
        for f in self.firms.values():
            total += f.share
        return total

    def resync_sums(self) -> None:
        """Recompute the running sums exactly from the registry."""
        ws = ts = tq = 0.0
        for f in self.firms.values():
            a = f.tech
            ws += f.share * a
            ts += a
            tq += a * a
        self.weighted_sum = ws
        self.tech_sum = ts
        self.tech_sq_sum = tq

    def add_firm(self, tech: float, share: float, site_index: int) -> Firm:
        if self.lattice.occupancy[site_index] >= 0:
            raise ValueError(f"site index {site_index} already occupied")
        fid = self.next_id
        self.next_id = fid + 1
        firm = Firm(fid, tech, share, site_index)
        self.firms[fid] = firm
        self.lattice.occupancy[site_index] = fid
        self.weighted_sum += share * tech
        self.tech_sum += tech
        self.tech_sq_sum += tech * tech
        return firm

    def remove_firm(self, firm: Firm) -> None:
        del self.firms[firm.id]
        self.lattice.occupancy[firm.site] = -1
        tech = firm.tech
        self.weighted_sum -= firm.share * tech
        self.tech_sum -= tech
        self.tech_sq_sum -= tech * tech

    def set_tech(self, firm: Firm, tech: float) -> None:
        old = firm.tech
        self.weighted_sum += firm.share * (tech - old)
        self.tech_sum += tech - old
        self.tech_sq_sum += tech * tech - old * old
        firm.tech = tech


def frontier(t: int, sigma: float) -> float:
    """World frontier technology F(t) = exp(sigma * t); strictly increasing
    in t for sigma > 0, with F(0) = 1."""
    return math.exp(sigma * t)


def survival_probability(tech_i: float, mean_tech: float, frontier: float,
                         s: float) -> float:
    """Probability that a firm survives this step.

    Below the high-technology phase (mean_tech < 1) the relevant lag is
    G = mean_tech * frontier - tech_i; at or above it (mean_tech >= 1) the
    lag is H = frontier - tech_i. The probability is exp(-s * lag) when the
    lag is positive and 1 otherwise (a zero lag also gives 1, the continuous
    limit of both branches).
    """
    if mean_tech < 1.0:
        lag = mean_tech * frontier - tech_i
    else:
        lag = frontier - tech_i
    return math.exp(-s * lag) if lag > 0.0 else 1.0


def classify_segment(tech_i: float, mean_tech: float, sigma_g: float) -> Segment:
    """Low / Medium / High classification relative to mean_tech +- sigma_g.
    Values exactly one sigma_g away fall in Medium."""
    if tech_i < mean_tech - sigma_g:
        return Segment.LOW
    if tech_i > mean_tech + sigma_g:
        return Segment.HIGH
    return Segment.MEDIUM


def sigma_g_from_sums(market: MarketState) -> float:
    """sigma_g computed from the running sums in O(1); used mid-sweep."""
    n = len(market.firms)
    mean = market.weighted_sum
    var = (market.tech_sq_sum - 2.0 * mean * market.tech_sum) / n + mean * mean
    return math.sqrt(var) if var > 0.0 else 0.0


def init_market(params: SimParams, rng: random.Random) -> MarketState:
    """Fresh market at sweep 0.

    Exactly round(c * lx * ly) firms are placed on distinct uniformly chosen
    sites; each gets technology ~ Uniform[0, 1) and share 1/N(0). Draw order:
    the site sample first (one draw per firm), then one technology draw per
    firm in placement order.
    """
    n0 = params.n_initial_firms  # >= n_min >= 1, by validate_params
    lattice = Lattice(params.lx, params.ly)
    state = MarketState(lattice)
    share0 = 1.0 / n0
    for site_index in sample_distinct(lattice.n_sites, n0, rng):
        state.add_firm(rng.random(), share0, site_index)
    return state


# -- the update cycle and the sweeps ------------------------------------------

def external_diffusion(tech: float, frontier: float, r2: float) -> float:
    """Imperfect copy of the frontier: tech + r2 * (frontier - tech),
    strictly between tech and frontier for r2 in (0, 1).

    r2 within one ulp of 1 can round the sum up to the frontier itself;
    the result is clamped to keep technology strictly below the frontier.
    """
    out = tech + r2 * (frontier - tech)
    return out if out < frontier else math.nextafter(frontier, tech)


def redistribute_shares_equal(market: MarketState, departing_share: float) -> None:
    """Split a departed firm's share equally among all remaining firms."""
    survivors = market.firms
    if not survivors:
        raise ValueError("no surviving firms to absorb the departing share")
    delta = departing_share / len(survivors)
    for f in survivors.values():
        f.share += delta
    market.weighted_sum += delta * market.tech_sum


def renormalize_shares(market: MarketState) -> float:
    """Rescale all shares so they sum to exactly 1; returns the
    pre-correction error |sum - 1|. Error above RENORM_TOLERANCE means the
    dynamics corrupted the shares and raises IntegrityError; a total at or
    below 0 is at least 1 away from 1, so this one check rejects it too."""
    total = market.total_share()
    err = abs(total - 1.0)
    if err > RENORM_TOLERANCE:
        raise renorm_failure(err, market.sweep)
    for f in market.firms.values():
        f.share /= total
    market.weighted_sum /= total
    return err


def interact(market: MarketState, firm_i: int, firm_j: int, params: SimParams,
             rng: random.Random) -> EventKind:
    """Merge or spin-off between firm i (the actor) and neighbor j; returns
    MERGED, SPIN_OFF or SPIN_OFF_BLOCKED.

    With probability b firm j is absorbed: i keeps max(A_i, A_j) and gains
    j's share. Otherwise a spin-off site is picked uniformly among i's 8
    Moore sites; if free, a new firm appears there with max(A_i, A_j) and
    share omega_s * (omega_i + omega_j), deducted proportionally from both
    parents, and takes id ``market.next_id - 1``. A blocked spin-off changes
    nothing. Total share is conserved in every branch.
    """
    if firm_i == firm_j:
        raise ValueError("a firm cannot interact with itself")
    firms = market.firms
    i = firms[firm_i]
    j = firms[firm_j]
    u = 1.0 - rng.random()
    if u <= params.b:
        share_j = j.share
        tech_j = j.tech
        market.remove_firm(j)
        if tech_j > i.tech:
            market.set_tech(i, tech_j)
        i.share += share_j
        market.weighted_sum += share_j * i.tech
        return _MERGED
    k = int(rng.random() * 8)
    k = market.lattice.moore8[8 * i.site + (k if k < 8 else 7)]  # u -> 1 edge
    if market.lattice.occupancy[k] >= 0:
        return _SPIN_OFF_BLOCKED
    d_i = i.share * params.omega_s
    d_j = j.share * params.omega_s
    i.share -= d_i
    j.share -= d_j
    market.weighted_sum -= d_i * i.tech + d_j * j.tech
    tech_k = i.tech if i.tech >= j.tech else j.tech
    market.add_firm(tech_k, d_i + d_j, k)
    return _SPIN_OFF


def update_cycle(market: MarketState, params: SimParams, rng: random.Random,
                 order: Iterable[int], events: Optional[array]
                 ) -> tuple[int, int]:
    """Run the update cycle for each firm of ``order`` still alive, in
    order; returns the number of bankruptcies and of rescues fired. One
    event row per step is appended to ``events`` when it is given.

    Everything fixed for the sweep is read once here: the frontier and the
    sweep index only change between sweeps.
    """
    random = rng.random
    firms = market.firms
    lattice = market.lattice
    occ = lattice.occupancy
    vn4 = lattice.vn4
    moore8 = lattice.moore8
    n_min = params.n_min
    s = params.s
    q = params.q
    segment = _POLICY_SEGMENT.get(params.policy)  # None: every firm covered
    passive = params.variant is VariantKind.PASSIVE_AFTER_RESCUE
    frontier = market.frontier_value
    t = market.sweep
    bankrupted = rescued_total = 0
    for fid in order:
        firm = firms.get(fid)
        if firm is None:  # absorbed by a merge earlier in this sweep
            continue
        rescued = False
        kind = None
        partner = -1
        if len(firms) > n_min:
            mean = market.weighted_sum
            if 1.0 - random() > survival_probability(firm.tech, mean,
                                                     frontier, s):
                if ((segment is None
                     or classify_segment(firm.tech, mean,
                                         sigma_g_from_sums(market)) is segment)
                        and 1.0 - random() <= q):
                    rescued = True
                    rescued_total += 1
                    if passive:
                        kind = _RESCUED
                else:
                    share = firm.share
                    market.remove_firm(firm)
                    redistribute_shares_equal(market, share)
                    bankrupted += 1
                    kind = _BANKRUPTED
        if kind is None:
            site = firm.site
            k = int(random() * 4)
            target = vn4[4 * site + (k if k < 4 else 3)]  # u -> 1 edge
            partner = occ[target]
            if partner < 0:
                occ[site] = -1
                occ[target] = fid
                firm.site = target
                hood = 8 * target
                for nb in range(hood, hood + 8):
                    if occ[moore8[nb]] >= 0:
                        k = int(random() * 8)  # clamped for the u -> 1 edge
                        partner = occ[moore8[hood + (k if k < 8 else 7)]]
                        break
                else:
                    market.set_tech(firm, external_diffusion(
                        firm.tech, frontier, open_unit(rng)))
                    kind = _MOVED_COPIED_FRONTIER
            if kind is None:
                if partner < 0:  # looked at an empty site: no meeting
                    kind = _MOVED_NO_DIFFUSION
                else:
                    kind = interact(market, fid, partner, params, rng)
        if events is not None:
            events.extend((kind, fid, t, partner,
                           market.next_id - 1 if kind is _SPIN_OFF else -1,
                           rescued))
    return bankrupted, rescued_total


def run_sweeps(market: MarketState, params: SimParams, rng: random.Random,
               trajectory: Trajectory, events: Optional[array] = None) -> None:
    """Run the market from its current sweep for one sweep per row of
    ``trajectory``, a ``Trajectory.empty``, but the last, and write every
    row. Pass an event sink as ``events`` to collect every step's row.

    Each sweep resyncs the running sums, records N, the weighted mean
    technology and its ratio to the frontier, updates each firm alive at
    its start once in random order, renormalizes shares, and advances the
    clock and the cached frontier; the last row records the end state.
    """
    last = len(trajectory.n_firms) - 1
    for row in range(last + 1):
        market.resync_sums()
        trajectory.n_firms[row] = len(market.firms)
        trajectory.mean_tech[row] = market.weighted_sum
        trajectory.ratio[row] = market.weighted_sum / market.frontier_value
        if row == last:
            return
        order = list(market.firms)
        shuffle_in_place(order, rng)
        trajectory.bankrupted[row], trajectory.rescued[row] = update_cycle(
            market, params, rng, order, events)
        trajectory.renorm_error[row] = renormalize_shares(market)
        market.sweep += 1
        market.frontier_value = frontier(market.sweep, params.sigma)


# -- event logs ---------------------------------------------------------------

def emit_event_log(out: TextIO, replica: int, events: array) -> None:
    """Write the event rows ``events``, an ``array('q')``, to ``out`` as
    the lines replica ``replica``'s logged kernel run writes (see
    ``dynamics``)."""
    kinds = _KIND_FIELDS
    ends = ('}\n', ',"rescued":true}\n')  # by the rescued flag
    lines = []
    append = lines.append
    head_t = None
    for kind, firm, t, partner, child, rescued in zip(
            *[iter(events)] * EVENT_FIELDS):
        if t != head_t:  # rows come sweep by sweep: one head per sweep
            head_t = t
            head = f'{{"replica":{replica},"t":{t},"firm":'
        if partner < 0:
            append(f'{head}{firm}{kinds[kind]}{ends[rescued]}')
        elif child < 0:
            append(f'{head}{firm}{kinds[kind]},"partner":{partner}'
                   f'{ends[rescued]}')
        else:
            append(f'{head}{firm}{kinds[kind]},"partner":{partner}'
                   f',"child":{child}{ends[rescued]}')
    out.write("".join(lines))


# -- the kernel's runs --------------------------------------------------------

class Rows(NamedTuple):
    """An ensemble's buffers, in the order ``compiled.new_state`` takes
    them as ``out``. In a one-replica ensemble they are the replica's rows,
    N as a float64: the columns an oracle Trajectory has but bankrupted."""

    n_firms: array
    mean_tech: array
    ratio: array
    rescued: array
    renorm_error: array


def ensemble_buffers(rows: int, replicas: int = 1) -> Rows:
    """Zeroed buffers of an ensemble of ``replicas`` replicas of ``rows``
    rows, as ``run_trajectories`` makes them."""
    return Rows(*(array("d", [0.0]) * (replicas * rows) for _ in range(3)),
                array("q", [0]) * rows, array("d", [0.0]) * rows)


def kernel_replica(params: SimParams, seed: int, events=None) -> Rows:
    """The rows of the kernel's replica of (params, seed), run by
    ``compiled.run_replicas`` as the only replica of an ensemble."""
    rows = ensemble_buffers(params.t_max + 1)
    compiled.run_replicas(params, [seed], rows, array("d", [math.nan]), 1,
                          events)
    return rows


def compiled_state(market: MarketState, params: SimParams, rows: Rows,
                   rng: random.Random,
                   logged: bool = False) -> ctypes.Structure:
    """A ``compiled.new_state`` holding ``market`` and the stream of
    ``rng``, writing replica 0's rows into ``rows``, an
    ``ensemble_buffers``, for ``run_compiled_state`` to run from the
    market's sweep: firms in slots in the registry's order. The market's
    lattice must be params' shape; ``market`` and ``rng`` are only read."""
    state = compiled.new_state(params, rows, logged)
    firms = list(market.firms.values())
    slot = {f.id: k for k, f in enumerate(firms)}
    for k, f in enumerate(firms):
        state.id[k], state.tech[k] = f.id, f.tech
        state.share[k], state.site[k] = f.share, f.site
    for site, fid in enumerate(market.lattice.occupancy):
        state.occ[site] = slot.get(fid, -1)
    for k, word in enumerate(rng.getstate()[1]):
        state.mt[k] = word
    state.n_slots = state.n_live = len(firms)
    state.sweep, state.next_id = market.sweep, market.next_id
    state.frontier = market.frontier_value  # the kernel computes ws, ts, tq
    return state


def run_compiled_state(state: ctypes.Structure, events=None) -> array:
    """Run ``state``, a ``compiled_state``, from its market's sweep to its
    last row, with ``compiled.run_replicas``'s event sink, and return the
    ``tc_vals`` of its one-replica ensemble: its crossing, or nan. The
    ensemble is paused inside replica 0, the replica a new State names,
    and has no replica left to claim, so ``tm_run_ensemble`` resumes the
    State and reads no seed and no matrix of the ensemble's. A share total
    that drifts beyond RENORM_TOLERANCE raises IntegrityError after the
    failing sweep's lines are passed on."""
    tc_vals = array("d", [math.nan])
    ensemble = compiled._Ensemble(
        states=ctypes.pointer(ctypes.pointer(state)), n_states=1,
        n_replicas=1, tc_vals=compiled._view(compiled._F64, tc_vals, 1),
        next=1, failed=1, paused=1)
    lib = compiled.kernel()
    status = compiled._until_done(
        lambda: lib.tm_run_ensemble(ctypes.byref(ensemble)), state, events)
    if status == compiled._RENORM_ABOVE_TOLERANCE:
        raise renorm_failure(state.err, state.sweep)
    return tc_vals
