"""Deterministic random-stream helpers.

Each replica owns one ``random.Random`` stream seeded through numpy's
``SeedSequence`` algorithm, so replica k's stream is a pure function of
``(base_seed, k)`` and replicas can run in any order or in parallel without
affecting results. The seed derivation is a pure-Python port, which keeps
``numpy.random`` (about 6 MB of resident memory) out of the process.

Only ``Random.random()`` is consumed, so the draw sequence is stable across
Python versions. Shuffles and interval draws are built on top of it here;
the update kernel in ``dynamics`` makes its site picks inline from the same
stream.
"""
from __future__ import annotations

import random
from array import array

# numpy.random.SeedSequence's constants: 32-bit words, a pool of 4 words
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer; [0] for 0."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def derive_seed(base_seed: int, *path: int) -> int:
    """Pure 64-bit child seed for a (base_seed, path) pair.

    Bit for bit ``SeedSequence(entropy=base_seed, spawn_key=path)
    .generate_state(1, numpy.uint64)[0]``: the entropy words are hashed
    into the pool and cross-mixed, then two output words are drawn from
    the pool and joined little-endian.
    """
    entropy = _words(base_seed)
    if path:  # the run entropy is zero-padded to the pool size
        entropy += [0] * (_POOL_SIZE - len(entropy))
        for key in path:
            entropy += _words(key)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    out = 0
    for i in range(2):
        value = pool[i] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out |= (value ^ value >> 16) << (32 * i)
    return out


def open_unit(rng: random.Random) -> float:
    """Uniform draw on the open interval (0, 1)."""
    u = rng.random()
    while u == 0.0:  # probability 2^-53 per draw
        u = rng.random()
    return u


def pack_stream(rng: random.Random) -> array:
    """The stream's MT19937 state as 625 packed 32-bit words: the 624
    state words, then the position. It pickles to 2.6 kB, where
    ``getstate()``'s tuple of ints takes 3.8 kB."""
    return array("I", rng.getstate()[1])


def unpack_stream(words: array) -> random.Random:
    """A stream continuing exactly where the packed one stopped. Only
    ``random()`` is drawn, so the Gaussian cache of the state is empty."""
    rng = random.Random()
    rng.setstate((3, tuple(words), None))
    return rng


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
