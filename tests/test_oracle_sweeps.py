"""Seeded sweeps that hold the exact oracles to brute-force sums over small
random systems."""

import itertools

import numpy as np

from ergolab import correlations as co, systems
from ergolab.errors import DomainError, ErgolabError

# Largest number of words the enumeration sums over in one case.
MAX_WORDS = 1 << 14


def _random_chain(rng):
    """An aperiodic chain on 2-4 states with some zero transitions."""
    while True:
        m = int(rng.integers(2, 5))
        adjacency = (rng.random((m, m)) < 0.7).astype(np.int64)
        if not adjacency.any(axis=1).all():
            continue
        weights = rng.random((m, m)) * adjacency
        try:
            return systems.build_shift(adjacency, weights / weights.sum(axis=1, keepdims=True))
        except ErgolabError:  # periodic, or a stationary weight too small
            continue


def _random_factor(rng, m):
    """A cylinder factor of radius 0 or 1 with random table entries and default."""
    radius = int(rng.integers(0, 2))
    words = list(itertools.product(range(m), repeat=2 * radius + 1))
    chosen = rng.choice(len(words), size=int(rng.integers(1, len(words) + 1)), replace=False)
    table = {words[i]: float(rng.normal()) for i in chosen}
    return systems.cylinder_observable(radius, table, default=float(rng.normal()))


def _enumerated_correlation(query):
    """The correlation summed over every word of the read window
    [min t_i - r_i, max t_i + r_i], each weighted by its stationary
    probability."""
    system = query.system
    m = system.alphabet_size
    lo = min(t - obs.radius for t, obs in zip(query.times, query.observables))
    hi = max(t + obs.radius for t, obs in zip(query.times, query.observables))
    length = hi - lo + 1
    words = np.indices((m,) * length).reshape(length, -1)
    weight = system.stationary[words[0]]
    for a, b in zip(words[:-1], words[1:]):
        weight = weight * system.transition[a, b]
    for t, obs in zip(query.times, query.observables):
        table = systems.cylinder_table(obs, m)
        codes = np.zeros(words.shape[1], dtype=np.int64)
        for letter in words[t - obs.radius - lo : t + obs.radius + 1 - lo]:
            codes = codes * m + letter
        weight = weight * table[codes]
    return float(weight.sum())


def test_transfer_oracle_matches_word_enumeration():
    # Random chains with zero transitions, 1-3 factors of radius 0-1 and
    # distinct times in -4..6: the oracle walks only the read positions and
    # crosses each gap g with P^g, the enumeration sums every word of the
    # window.
    rng = np.random.default_rng(12345)
    checked = 0
    for _ in range(600):
        system = _random_chain(rng)
        count = int(rng.integers(1, 4))
        factors = [_random_factor(rng, system.alphabet_size) for _ in range(count)]
        times = rng.choice(np.arange(-4, 7), size=count, replace=False).tolist()
        query = co.CorrelationQuery(system=system, observables=factors, times=times)
        lo = min(t - f.radius for t, f in zip(times, factors))
        hi = max(t + f.radius for t, f in zip(times, factors))
        if system.alphabet_size ** (hi - lo + 1) > MAX_WORDS:
            continue
        want = _enumerated_correlation(query)
        got = co.exact_correlation_shift(query)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (times, got, want)
        checked += 1
    assert checked >= 400


def _lattice_correlation(query):
    """The correlation summed over all 2^(dq) points of the 2^-q lattice in
    dimension d, each factor at A^t x mod 2^q by exact integer arithmetic."""
    auto = query.system
    mod = auto.modulus
    d = auto.dimension
    grid = np.indices((mod,) * d).reshape(d, -1).astype(np.int64)
    product = np.ones(grid.shape[1])
    for obs, t in zip(query.observables, query.times):
        power = np.array(systems.torus_matrix_power(auto, t), dtype=np.int64)
        moved = (power @ grid) % mod
        values = np.zeros(grid.shape[1])
        for freq, a, b in obs.terms:
            phase = 2 * np.pi * ((np.array(freq) @ moved) % mod) / mod
            values += a * np.cos(phase) + b * np.sin(phase)
        product *= values
    return float(product.mean())


def _random_hyperbolic(rng, q, d=2):
    """The torus of a d x d integer matrix with entries in -3..3, det +-1
    and no eigenvalue of modulus 1, at precision q."""
    while True:
        matrix = rng.integers(-3, 4, size=(d, d)).tolist()
        try:
            return systems.build_torus(matrix, precision_bits=q)
        except DomainError:
            continue


def _check_character_oracle(rng, case, auto):
    """One random 1-3 factor query of two frequencies in -2..2 each at
    distinct times in -3..6: the character oracle and ``exact_mean`` equal
    the full lattice sum."""
    q, d = auto.precision_bits, auto.dimension
    count = int(rng.integers(1, 4))
    factors = []
    for _ in range(count):
        freqs = {tuple(rng.integers(-2, 3, size=d).tolist()) for _ in range(2)}
        factors.append(
            systems.trig_observable(
                [(f, float(rng.normal()), float(rng.normal())) for f in sorted(freqs)]
            )
        )
    times = rng.choice(np.arange(-3, 7), size=count, replace=False).tolist()
    query = co.CorrelationQuery(system=auto, observables=factors, times=times)
    want = _lattice_correlation(query)
    assert abs(co.exact_correlation_torus(query) - want) <= 1e-9, (case, q, times)
    mean = systems.exact_mean(factors[0], auto)
    single = co.CorrelationQuery(system=auto, observables=factors[:1], times=(0,))
    assert abs(mean - _lattice_correlation(single)) <= 1e-9, (case, q)


def test_character_oracle_matches_lattice_sum():
    # At q = 2..8 many transformed frequency sums are nonzero multiples of
    # 2^q, where the lattice the lab samples and Haar measure disagree.
    rng = np.random.default_rng(2024)
    for case in range(60):
        _check_character_oracle(rng, case, _random_hyperbolic(rng, 2 + case % 7))


def test_character_oracle_matches_lattice_sum_on_3x3_tori():
    # The same check in dimension 3 at q = 2..4, at most 4096 lattice points.
    rng = np.random.default_rng(3033)
    for case in range(200):
        _check_character_oracle(rng, case, _random_hyperbolic(rng, 2 + case % 3, d=3))


def _full_width_products(symbols, factors, m):
    """The factor products of one pass over every entry: each factor's word
    codes by fancy indexing, its values from its table, multiplied in
    factor order."""
    product = None
    for columns, table in factors:
        codes = np.zeros(symbols.shape[:-1] + columns.shape[1:], dtype=np.int64)
        for cols in columns:
            codes = codes * m + symbols[..., cols]
        values = table[codes]
        product = values if product is None else product * values
    return product


def test_blocked_cylinder_products_match_full_width_pass():
    # Scratch of 1, 7 and LANES entries, and more than ``out`` holds, runs
    # the factors over row blocks or column blocks of one sequence; the
    # products are elementwise, so every entry is bit-equal to one pass.
    # Shapes: one sequence (1-D), a block of sequences (2-D) and one entry
    # per sequence (the Monte Carlo kernel's 0-d columns). Every fourth case
    # is wider than LANES and skips the 1- and 7-entry scratch.
    rng = np.random.default_rng(4242)
    lanes = systems.LANES
    for case in range(240):
        m = (2, 3, 130)[case % 3]
        shape = ("1-D", "2-D", "MC")[case // 3 % 3]
        wide = case % 4 == 0
        count = int(rng.integers(1, 4))
        radii = [0 if m > 3 else int(rng.integers(0, 3)) for _ in range(count)]
        tables = [rng.normal(size=m ** (2 * r + 1)) for r in radii]
        entries = int(rng.integers(lanes + 1, 3 * lanes)) if wide else int(rng.integers(1, 40))
        rows = 1 if shape == "1-D" else int(rng.integers(1, 6))
        width = (entries,)
        if shape == "MC":
            rows, width = entries, ()
        positions = int(rng.integers(5, 60))
        symbols = rng.integers(0, m, size=(rows, positions)).astype(systems._symbol_dtype(m))
        if shape == "1-D":
            symbols = symbols[0]
        factors = [
            (rng.integers(0, positions, size=(2 * r + 1,) + width), table)
            for r, table in zip(radii, tables)
        ]
        want = _full_width_products(symbols, factors, m)
        for size in ((lanes,) if wide else (1, 7, lanes)) + (want.size + 5,):
            scratch = np.empty(size, dtype=np.intp), np.empty(size, dtype=symbols.dtype)
            got = systems.cylinder_products(
                symbols, factors, m, np.empty(want.shape), np.empty(size), scratch
            )
            assert got.shape == want.shape and np.array_equal(got, want), (case, shape, size)
