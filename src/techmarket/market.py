"""Lattice geometry.

The market lives on a periodic (toroidal) rectangular lattice. Each occupied
site holds one firm with a technology level A_i >= 0 and a market share
omega_i in [0, 1]; shares sum to 1. An exogenous world frontier
F(t) = exp(sigma * t) grows per sweep, and a firm's survival depends on how
far its technology lags the share-weighted market mean and the frontier:
the lag is G = <A> * F - A_i while <A> < 1 and H = F - A_i from then on,
and a firm survives its roll with probability exp(-s * lag) when the lag
is positive, else 1.
"""
from __future__ import annotations

import functools
from array import array

# von Neumann then Moore offsets; table order fixes the meaning of each
# direction draw in the update step.
_VN_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))
_MOORE_OFFSETS = (
    (-1, -1), (0, -1), (1, -1),
    (-1, 0), (1, 0),
    (-1, 1), (0, 1), (1, 1),
)


@functools.lru_cache(maxsize=64)
def neighbor_tables(width: int, height: int) -> tuple[array, array]:
    """Von Neumann and Moore neighbor tables of a width x height torus,
    flat in the layout ``_sweep.c`` reads: the k-th neighbor of flat site i
    (x + y * width) is ``vn4[4 * i + k]`` and ``moore8[8 * i + k]``, 48
    bytes per site in all. Only read, so the replicas of one shape share
    them."""
    vn4, moore8 = (array("i", (((x + dx) % width) + ((y + dy) % height) * width
                               for y in range(height) for x in range(width)
                               for dx, dy in offsets))
                   for offsets in (_VN_OFFSETS, _MOORE_OFFSETS))
    return vn4, moore8
