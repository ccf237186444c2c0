"""Domain types, lattice geometry, and the closed-form market quantities.

The market lives on a periodic (toroidal) rectangular lattice. Each occupied
site holds one firm with a technology level A_i >= 0 and a market share
omega_i in [0, 1]; shares sum to 1. An exogenous world frontier
F(t) = exp(sigma * t) grows per sweep, and a firm's survival depends on how
far its technology lags the share-weighted market mean and the frontier.
"""
from __future__ import annotations

import functools
import math
import random
from array import array
from dataclasses import dataclass
from enum import IntEnum

from .params import SimParams
from .rng import sample_distinct

# von Neumann then Moore offsets; table order fixes the meaning of each
# direction draw in the update step.
_VN_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))
_MOORE_OFFSETS = (
    (-1, -1), (0, -1), (1, -1),
    (-1, 0), (1, 0),
    (-1, 1), (0, 1), (1, 1),
)


class Segment(IntEnum):
    """Technology segment relative to the market mean and its spread:
    Low below mean - sigma_g, High above mean + sigma_g, Medium between
    (boundaries included in Medium). Valued as ``_sweep.c``'s SEGMENT_*."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2


@dataclass(slots=True)
class Firm:
    id: int
    tech: float    # technology level A_i, 0 <= A_i < F(t)
    share: float   # market share omega_i in [0, 1]
    site: int      # flat lattice index of the occupied site


@functools.lru_cache(maxsize=64)
def _neighbor_tables(width: int, height: int) -> tuple[array, array]:
    """Von Neumann and Moore neighbor tables of a width x height torus,
    flat in the layout ``_sweep.c`` reads: the k-th neighbor of flat site i
    is ``vn4[4 * i + k]`` and ``moore8[8 * i + k]``. Only read, so the
    lattices of one shape and both kernels share them."""
    vn4, moore8 = (array("i", (((x + dx) % width) + ((y + dy) % height) * width
                               for y in range(height) for x in range(width)
                               for dx, dy in offsets))
                   for offsets in (_VN_OFFSETS, _MOORE_OFFSETS))
    return vn4, moore8


class Lattice:
    """Rectangular grid with periodic boundaries and precomputed
    neighbor tables (4-site von Neumann, 8-site Moore)."""

    __slots__ = ("width", "height", "occupancy", "vn4", "moore8")

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self.occupancy: list[int] = [-1] * (width * height)  # firm id or -1
        self.vn4, self.moore8 = _neighbor_tables(width, height)

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
