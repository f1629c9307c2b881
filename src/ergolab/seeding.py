"""Deterministic seed derivation for reproducible Monte Carlo ensembles.

Every random stream in the package is keyed by a master seed plus a tuple
of nonnegative integers (role tag, task index, ...) through
``numpy.random.SeedSequence``.  Batch computations are split into chunks
of a fixed size with one stream per chunk, so results are byte-identical
no matter how the chunks are distributed over workers, provided the
reduction happens in chunk order.

``Streams`` gives the streams of many keys that differ only in their last
entry, such as one per point of a batch, in one pass: numpy's
``SeedSequence`` hash runs on uint32 arrays over all keys at once, and
PCG64's 128-bit seeding per key.  The k-th stream is exactly
``rng_for(master_seed, *prefix, indices[k])``, but all of them are one
reused ``Generator`` set to each key's state in turn, so each stream must
be consumed before the next is taken.
"""

from __future__ import annotations

import numpy as np

# Fixed Monte Carlo chunk size: determinism across worker counts relies on
# chunk boundaries never depending on the scheduler.
MC_CHUNK = 1 << 16

# Role tags keep streams for different purposes disjoint under one master seed.
ROLE_MC = 1
ROLE_POINT = 2
ROLE_TERMS = 3
ROLE_QUERY = 4

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): a pool of
# four uint32 words, the hashmix and mix multipliers, and the shift.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def seed_sequence(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(int(master_seed),) + tuple(int(k) for k in key))


def rng_for(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(master_seed, *key)))


def _words(value: int) -> list[int]:
    """A nonnegative integer as SeedSequence reads it: uint32 words, least
    significant first, and one zero word for 0."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed keys must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_words(entropy: list) -> np.ndarray:
    """The eight uint32 words ``SeedSequence(key).generate_state(4,
    uint64)`` is made of, for each key of a batch whose entropy words
    ``entropy[i]`` are arrays over the keys: the pool hash, then the
    output hash, as int64 arrays of a (keys, 8) block.  The hash constant
    advances the same way for every key, so each step is one array
    operation; products wrap modulo 2^64, whose low 32 bits are the
    uint32 products."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    out = np.empty((entropy[-1].size, 2 * _POOL), dtype=np.int64)
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out[:, i] = value ^ (value >> 16)
    return out


class Streams:
    """The streams ``rng_for(master_seed, *prefix, j)`` for j in
    ``indices``, in order, computed together when made.  Iterating yields
    one reused Generator set to each key's state in turn, so a stream is
    good only until the next is taken."""

    def __init__(self, master_seed: int, prefix, indices):
        indices = np.ravel(np.asarray(indices, dtype=np.int64))
        if indices.size and indices.min() < 0:
            raise ValueError("seed keys must be nonnegative")
        head = _words(master_seed) + [w for k in prefix for w in _words(k)]
        low, high = indices & _MASK32, indices >> 32
        self._words = np.empty((indices.size, 2 * _POOL), dtype=np.int64)
        # An index takes a second entropy word from 2^32 on, so keys are
        # hashed in two groups of equal entropy length.
        wide = high > 0
        for keys, extra in ((np.flatnonzero(~wide), []), (np.flatnonzero(wide), [high])):
            if keys.size:
                entropy = [np.full(keys.size, w) for w in head] + [a[keys] for a in [low] + extra]
                self._words[keys] = _seed_words(entropy)

    def __len__(self) -> int:
        return self._words.shape[0]

    def __iter__(self):
        bit_generator = np.random.PCG64(0)
        rng = np.random.Generator(bit_generator)
        for words in self._words:
            # generate_state(4, uint64) reads the words little-endian in
            # pairs; pcg64_set_seed takes the first two uint64 as the seed
            # and the last two as the stream, inc = 2 stream + 1, and steps
            # the LCG twice from 0, adding the seed in between.
            a, b, c, d, e, f, g, h = words.tolist()
            seed = (b << 32 | a) << 64 | d << 32 | c
            inc = (((f << 32 | e) << 64 | h << 32 | g) << 1 | 1) & _MASK128
            state = ((seed + inc) * _PCG_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng
