"""The Monte-Carlo oracle's trial generators, seeded in one vectorized pass.

Trial k of a walk with seed s draws from ``np.random.default_rng([s, k])``.
That generator's PCG64 takes its four seed words from
``np.random.SeedSequence([s, k]).generate_state(4, np.uint64)``, whose hashing
runs here as uint32 array arithmetic over every k of a chunk at once; each
PCG64 then takes its words through a minimal ``ISeedSequence``.  The states
equal ``default_rng``'s, at a quarter of its time.  Only a walk imports this
module, and with it ``numpy.random``.
"""

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's constants (numpy/random/bit_generator.pyx): the hash that
# mixes the entropy into its pool of four 32-bit words, the mix between pool
# words, and the hash that draws the generator's state from the pool.
POOL_WORDS = 4
MIX_HASH = (0x43B0D7E5, 0x931E8875)
MIX = (0xCA01F9DD, 0x4973F715)
STATE_HASH = (0x8B51F9DD, 0x58F38DED)


def _int_words(n: int) -> list:
    """The 32-bit words of the integer n >= 0, least significant first; [0] for 0."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant, as the (c, c * mult) pair of each successive hash."""
    const = init
    while True:
        step = const * mult & 0xFFFFFFFF
        yield np.uint32(const), np.uint32(step)
        const = step


def _hash(words: np.ndarray, constants) -> np.ndarray:
    """SeedSequence's hash of uint32 ``words`` with the next pair (c, c') of ``constants``."""
    xor, mult = next(constants)
    words = (words ^ xor) * mult
    return words ^ (words >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a hashed word ``y`` into the pool word ``x``."""
    left, right = MIX
    words = x * np.uint32(left) - y * np.uint32(right)
    return words ^ (words >> np.uint32(16))


def _pool_state(entropy: np.ndarray) -> np.ndarray:
    """PCG64 seed words, (m, 4) uint64, from the (n_words, m) uint32 entropy of m sequences.

    SeedSequence hashes the first four entropy words (zeros past the end)
    into its pool, mixes every pool word into every other, mixes any further
    entropy word into each pool word, and hashes the pool, cycled, into eight
    32-bit words: the four 64-bit words little-endian.  Each step's constants
    depend only on its position, so every column goes through at once, in
    uint32 arithmetic that wraps as SeedSequence's does.
    """
    n_pool = POOL_WORDS
    constants = _hash_constants(*MIX_HASH)
    zero = np.zeros_like(entropy[0])
    pool = [_hash(entropy[i] if i < len(entropy) else zero, constants) for i in range(n_pool)]
    for src in range(n_pool):
        for dst in range(n_pool):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    for src in range(n_pool, len(entropy)):
        for dst in range(n_pool):
            pool[dst] = _mix(pool[dst], _hash(entropy[src], constants))
    constants = _hash_constants(*STATE_HASH)
    words = [_hash(pool[i % n_pool], constants).astype(np.uint64) for i in range(2 * n_pool)]
    return np.column_stack([lo | hi << np.uint64(32) for lo, hi in zip(words[0::2], words[1::2])])


def seed_states(seed: int, keys) -> np.ndarray:
    """The seed words ``np.random.SeedSequence([seed, k]).generate_state(4, np.uint64)`` per k.

    These are what ``np.random.default_rng([seed, k])`` hands its PCG64.  The
    entropy is the 32-bit words of seed, then those of k; the keys with equal
    word counts are hashed together.  Returns a (len(keys), 4) uint64 array.
    """
    entropy = [_int_words(seed) + _int_words(k) for k in keys]
    sizes = np.array([len(words) for words in entropy])
    states = np.empty((len(entropy), POOL_WORDS), dtype=np.uint64)
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        states[rows] = _pool_state(np.array([entropy[i] for i in rows], dtype=np.uint32).T)
    return states


class SeedWords(ISeedSequence):
    """One generator's seed words, handed to PCG64 as its seed sequence would give them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def trial_generators(seed: int, keys) -> list:
    """The generators ``np.random.default_rng([seed, k])`` for each k of ``keys``, seeded in one pass."""
    return [Generator(PCG64(SeedWords(words))) for words in seed_states(seed, keys)]
