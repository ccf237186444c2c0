"""Deterministic random-stream helpers.

Each replica owns one ``random.Random`` stream seeded through numpy's
``SeedSequence``, so replica k's stream is a pure function of
``(base_seed, k)`` and replicas can run in any order or in parallel without
affecting results.

Only ``Random.random()`` is consumed, so the draw sequence is stable across
Python versions. Shuffles and interval draws are built on top of it here;
the update kernel in ``dynamics`` makes its site picks inline from the same
stream.
"""
from __future__ import annotations

import random

import numpy as np


def derive_seed(base_seed: int, *path: int) -> int:
    """Pure 64-bit child seed for a (base_seed, path) pair."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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
