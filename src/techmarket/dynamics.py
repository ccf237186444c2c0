"""Per-firm Monte Carlo update, intervention logic, and sweep assembly.

One sweep visits every firm alive at its start exactly once, in a uniformly
random order. Each visit runs the update cycle:

1. If more than n_min firms are alive, roll for survival. A firm whose roll
   fails may still be rescued by the government with probability q, provided
   the active policy covers its current technology segment. A bankrupted
   firm leaves its site and its share is split equally among the survivors.
2. Under the passive variant a rescued firm ends its step; under the active
   variant it carries on like any survivor.
3. A surviving firm picks one of its 4 von Neumann neighbor sites. If the
   site is empty it moves there. At the new location: with no occupied Moore
   site at all, it imperfectly copies the frontier (external diffusion);
   otherwise it looks at one randomly chosen Moore site and interacts with
   the firm found there, or does nothing if that site is empty (a chance
   meeting, so interactions become improbable at low concentration). If the
   originally picked site is occupied the firm stays put and interacts with
   the occupant.
4. An interaction merges the pair with probability b (partner absorbed,
   technology max kept, shares pooled); otherwise the pair tries to found a
   spin-off on one of the actor's 8 Moore sites, which succeeds only if the
   picked site is free.

Firms absorbed mid-sweep are skipped; spin-offs born mid-sweep first act in
the next sweep. After the visits, shares are renormalized (drift beyond 1%
is a model-integrity failure), the sweep counter advances, and the frontier
value for the new sweep is cached.

Draw order per firm visit (all from the replica stream): survival roll r1;
rescue roll q_rnd only when the roll failed and the policy covers the firm's
segment; direction u (always, for any acting firm); then either the copy
noise r2 (diffusion, only with an empty Moore ring) or the meeting-site pick
u; then, when a partner was found or the move was blocked, the merge coin u
and the spin-off site u when the coin came up spin-off. Threshold draws
(r1, q_rnd, merge coin) use (0, 1] so q=0 can never rescue and q=1 always
does. Site picks use int(u * n), clamped to n - 1 for the u -> 1 rounding
edge.

A replica's sweeps run through one entry, ``run_sweeps``, which writes a
``Trajectory``: per sweep N, the weighted mean technology and its ratio to
the frontier at the sweep's start, and the rescues, bankruptcies and
renormalization error of the sweep, plus one last row holding only the
state at the end.

The cycle has two implementations with bit-identical results. The Python
one, ``_update_cycle``, is the reference: ``run_sweeps`` runs it over each
sweep's shuffled visit order and ``firm_update`` over a single firm. It
reads the sweep's fixed values (parameters, lattice tables, frontier, sweep
index) once and counts the sweep's bankruptcies and rescues. The compiled
one, ``_sweep.c`` (see ``compiled``), runs all of a replica's sweeps in one
call on a copy held in C buffers and writes the same trajectory. Machines
where the C kernel cannot be built use the Python one.

Both kernels log events the same way: given an event sink, an
``array('q')``, each step appends one row of EVENT_FIELDS int64 values,
``(kind, firm, t, partner, child, rescued)``, the fields of EventRecord
with -1 for no partner and no child and 0/1 for the rescued flag.
"""
from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import IntegrityError
from .market import (
    MarketState,
    Segment,
    classify_segment,
    frontier,
    sigma_g_from_sums,
    survival_probability,
)
from .params import PolicyKind, SimParams, VariantKind
from .rng import open_unit, shuffle_in_place

#: Allowed pre-correction drift of sum(shares) from 1 at a sweep boundary.
RENORM_TOLERANCE = 1e-2

_POLICY_SEGMENT = {
    PolicyKind.LOW_TECH: Segment.LOW,
    PolicyKind.MEDIUM_TECH: Segment.MEDIUM,
    PolicyKind.HIGH_TECH: Segment.HIGH,
}


class EventKind(IntEnum):
    """Terminal outcome of one per-firm step; the value is the kind column
    of an event row."""

    BANKRUPTED = 0
    RESCUED = 1
    MOVED_COPIED_FRONTIER = 2
    MOVED_NO_DIFFUSION = 3
    MERGED = 4
    SPIN_OFF = 5
    SPIN_OFF_BLOCKED = 6


(_BANKRUPTED, _RESCUED, _MOVED_COPIED_FRONTIER, _MOVED_NO_DIFFUSION, _MERGED,
 _SPIN_OFF, _SPIN_OFF_BLOCKED) = EventKind


class EventRecord(NamedTuple):
    """Terminal outcome of one per-firm step, as ``firm_update`` returns
    it; an event sink holds the same fields as one row of int64 values.

    partner: absorbed firm for MERGED, interaction partner for SPIN_OFF /
    SPIN_OFF_BLOCKED. child: id of a newly founded spin-off. rescued: the
    intervention fired during this step (always True for kind RESCUED; may
    accompany an action kind under the active variant).
    """

    kind: EventKind
    firm: int
    sweep: int
    partner: Optional[int] = None
    child: Optional[int] = None
    rescued: bool = False


#: int64 values per row of an event sink: the fields of EventRecord.
EVENT_FIELDS = len(EventRecord._fields)


#: dtypes of Trajectory's columns after t, in field order.
_COLUMN_DTYPES = (np.int64, np.float64, np.float64, np.int64, np.int64,
                  np.float64)
#: Bytes a Trajectory holds per row: t and six 8-byte columns.
ROW_BYTES = 8 * (1 + len(_COLUMN_DTYPES))


@dataclass(slots=True)
class Trajectory:
    """Per-sweep time series of one replica, for t = t_start .. t_max
    (t_start is 0 unless the run resumed an end state)."""

    t: np.ndarray             # sweep index
    n_firms: np.ndarray       # N(t) at sweep start
    mean_tech: np.ndarray     # weighted mean technology at sweep start
    ratio: np.ndarray         # mean_tech / frontier(t)
    rescued: np.ndarray       # rescues fired during sweep t (0 in the last row)
    bankrupted: np.ndarray    # bankruptcies during sweep t (0 in the last row)
    renorm_error: np.ndarray  # share renormalization error of sweep t (0 in the last row)
    end_state: Optional[bytes] = None  # (MarketState, packed stream) at t_max

    @classmethod
    def empty(cls, t_start: int, t_max: int) -> Trajectory:
        """Zeroed columns for sweeps t_start .. t_max, for ``run_sweeps``
        to write."""
        t = np.arange(t_start, t_max + 1, dtype=np.int64)
        return cls(t, *(np.zeros(t.size, dtype) for dtype in _COLUMN_DTYPES))


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


def renorm_failure(err: float, t: int) -> IntegrityError:
    """The error for a renormalization error above RENORM_TOLERANCE at
    sweep t."""
    return IntegrityError(f"share normalization error {err:.3e} exceeds "
                          f"tolerance {RENORM_TOLERANCE:g} at sweep {t}")


def renormalize_shares(market: MarketState) -> float:
    """Rescale all shares so they sum to exactly 1; returns the
    pre-correction error |sum - 1|. Error above RENORM_TOLERANCE means the
    dynamics corrupted the shares and raises IntegrityError."""
    total = market.total_share()
    if total <= 0.0:
        raise ValueError("total share must be positive")
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
    k = market.lattice.moore8[i.site][k if k < 8 else 7]  # u -> 1 edge
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


def _update_cycle(market: MarketState, params: SimParams, rng: random.Random,
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
            target = vn4[site][k if k < 4 else 3]  # u -> 1 edge
            partner = occ[target]
            if partner < 0:
                occ[site] = -1
                occ[target] = fid
                firm.site = target
                hood = moore8[target]
                for nb in hood:
                    if occ[nb] >= 0:
                        k = int(random() * 8)
                        partner = occ[hood[k if k < 8 else 7]]  # u -> 1 edge
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


def firm_update(market: MarketState, firm_id: int, params: SimParams,
                rng: random.Random) -> EventRecord:
    """One full update step for a single live firm; see the module docstring
    for the cycle and the draw order."""
    if firm_id not in market.firms:
        raise KeyError(f"firm {firm_id} is not alive")
    events = array("q")
    _update_cycle(market, params, rng, (firm_id,), events)
    kind, firm, t, partner, child, rescued = events
    return EventRecord(EventKind(kind), firm, t,
                       partner if partner >= 0 else None,
                       child if child >= 0 else None, bool(rescued))


def run_sweeps(market: MarketState, params: SimParams, rng: random.Random,
               trajectory: Trajectory, events: Optional[array] = None) -> None:
    """Run the market from its sweep, ``trajectory.t[0]``, to
    ``trajectory.t[-1]`` and write every row of ``trajectory``, a
    ``Trajectory.empty``. Pass an event sink as ``events`` to collect every
    step's row.

    Each sweep resyncs the running sums, records N, the weighted mean
    technology and its ratio to the frontier, updates each firm alive at
    its start once in random order, renormalizes shares, and advances the
    clock and the cached frontier; the last row records the end state.
    """
    last = len(trajectory.t) - 1
    for row in range(last + 1):
        market.resync_sums()
        trajectory.n_firms[row] = len(market.firms)
        trajectory.mean_tech[row] = market.weighted_sum
        trajectory.ratio[row] = market.weighted_sum / market.frontier_value
        if row == last:
            return
        order = list(market.firms)
        shuffle_in_place(order, rng)
        trajectory.bankrupted[row], trajectory.rescued[row] = _update_cycle(
            market, params, rng, order, events)
        trajectory.renorm_error[row] = renormalize_shares(market)
        market.sweep += 1
        market.frontier_value = frontier(market.sweep, params.sigma)
