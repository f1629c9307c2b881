"""Deterministic seed derivation for reproducible Monte Carlo ensembles.

Every random stream in the package is keyed by a master seed plus a tuple
of nonnegative integers (role tag, task index, ...) through
``numpy.random.SeedSequence``.  Batch computations are split into chunks
of a fixed size with one stream per chunk, so results are byte-identical
no matter how the chunks are distributed over workers, provided the
reduction happens in chunk order.
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


def seed_sequence(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(int(master_seed),) + tuple(int(k) for k in key))


def rng_for(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(master_seed, *key)))
