"""Seeded sweeps that hold the exact oracles to brute-force sums over small
random systems, the lab's least-squares fit to LAPACK's, the dyadic block
moments to the pairwise tree and the counting checkers to plain loops."""

import bisect
import itertools
import math

import numpy as np
from pairwise_sums import tree_block_sums

from ergolab import correlations as co, dyadic, sequences, systems
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


def _sampler_chain(rng):
    """A chain on 2-6 states: every fourth an i.i.d. chain, the others
    aperiodic with some zero transitions."""
    while True:
        m = int(rng.integers(2, 7))
        if rng.random() < 0.25:
            return systems.bernoulli_system(rng.dirichlet(np.ones(m)))
        adjacency = (rng.random((m, m)) < 0.7).astype(np.int64)
        if not adjacency.any(axis=1).all():
            continue
        weights = rng.random((m, m)) * adjacency
        try:
            return systems.build_shift(adjacency, weights / weights.sum(axis=1, keepdims=True))
        except ErgolabError:  # periodic, or a stationary weight too small
            continue


def _sampler_positions(rng):
    """The read plan of 1-3 factors of radius 0-2 at random multipliers
    along the first 1-40 terms of a linear, prime or polynomial sequence."""
    kind = ("linear", "primes", "polynomial")[int(rng.integers(0, 3))]
    spec = sequences.SequenceSpec(kind=kind, coefficients=(int(rng.integers(-1, 4)), 1, 1))
    terms = sequences.generate(spec, int(rng.integers(1, 41)))
    count = int(rng.integers(1, 4))
    multipliers = rng.choice(np.arange(-4, 5), size=count, replace=False)
    radii = rng.integers(0, 3, count)
    factors = [systems.cylinder_indicator([0] * (2 * int(r) + 1)) for r in radii]
    return systems.read_plan(factors, [m * terms for m in multipliers])[0]


def _bisect_sample(system, positions, count, rng):
    """Symbols of ``count`` sequences at sorted ``positions`` by a
    ``bisect`` per symbol: position 0 by the stationary thresholds, every
    later one by row P^g[previous] for its gap g; uniform c * count + j
    resolves position c of sequence j."""
    u = rng.random((len(positions), count))
    rows = {0: [list(np.cumsum(system.stationary)[:-1])] * system.alphabet_size}
    gaps = [0] + [int(b - a) for a, b in zip(positions, positions[1:])]
    for g in set(gaps[1:]):
        rows[g] = [list(np.cumsum(row)[:-1]) for row in system.transition_power(g)]
    out = np.empty((count, len(positions)), dtype=np.int64)
    for j in range(count):
        state = 0
        for c, g in enumerate(gaps):
            state = out[j, c] = bisect.bisect_right(rows[g][state], u[c, j])
    return out


def test_samplers_match_bisect_reference():
    # Counts of 1-64 sequences over plans of up to a few hundred positions:
    # a count below 1/16 of the positions runs ``_markov_path``'s blocked
    # scheme, a wider one its per-step loop.  ``sample_rows`` reads row j
    # from its own generator and yields slabs of ``slab_rows`` rows.
    rng = np.random.default_rng(3404)
    for case in range(40):
        system = _sampler_chain(rng)
        positions = _sampler_positions(rng)
        count = int(rng.integers(1, 65)) if case % 2 else int(rng.integers(1, 9))
        seed = int(rng.integers(1 << 30))
        want = _bisect_sample(system, positions, count, np.random.default_rng(seed))
        got = systems.sample_at(system, positions, count, np.random.default_rng(seed))
        assert np.array_equal(got, want), (case, "sample_at")
        seeds = rng.integers(1 << 30, size=count)
        want = np.concatenate(
            [_bisect_sample(system, positions, 1, np.random.default_rng(s)) for s in seeds]
        )
        slab_rows = int(rng.integers(1, count + 2))
        rngs = [np.random.default_rng(s) for s in seeds]
        # An i.i.d. chain's slabs are views of one reused block.
        slabs = [slab.copy() for slab in systems.sample_rows(system, positions, rngs, slab_rows)]
        assert all(len(slab) <= slab_rows for slab in slabs), case
        got = np.concatenate(slabs)
        assert np.array_equal(got, want), (case, "sample_rows")


def test_cylinder_products_of_no_entries():
    # No sequences, no columns, or no Monte Carlo sequences: an empty
    # product of the right shape.
    table = np.arange(2.0)
    scratch = np.empty(4, dtype=np.intp), np.empty(4, dtype=np.int8)
    for rows, columns in ((0, np.zeros((1, 3), dtype=np.int64)),
                          (2, np.zeros((1, 0), dtype=np.int64)),
                          (0, np.zeros(1, dtype=np.int64))):
        symbols = np.zeros((rows, 5), dtype=np.int8)
        out = np.empty((rows,) + columns.shape[1:])
        got = systems.cylinder_products(symbols, [(columns, table)], 2, out, np.empty(4), scratch)
        assert got is out


def _fit_designs(rng):
    """The design columns of the lab's three fits, 200 each: [log N, 1] on
    dyadic grids (``sigma_fit``), [t, 1] at 2-20 scaled times (the
    exponential decay model) and [n, log n, 1] for n = 1..n_max, n_max in
    16..600 (``growth_profile``).  The times spread over six decades and
    come in config order, every other case largest first: a first row that
    dominates its column is where a reflector's sign rule matters."""
    for _ in range(200):
        start = int(rng.integers(1, 6))
        log_n = np.log(2.0 ** np.arange(start, start + int(rng.integers(4, 13))))
        yield [log_n, np.ones_like(log_n)]
    cases = 0
    while cases < 200:
        times = np.round(10.0 ** rng.uniform(0, 6, size=int(rng.integers(2, 21))))
        if np.unique(times).size < 2:
            continue
        if cases % 2:
            times = -np.sort(-times)
        t = 10.0 ** rng.uniform(-3, 3) * times
        cases += 1
        yield [t, np.ones_like(t)]
    for _ in range(200):
        n = np.arange(1.0, int(rng.integers(16, 601)) + 1)
        yield [n, np.log(n), np.ones_like(n)]


def test_least_squares_matches_lapack_reference():
    # Random coefficients over four decades, plus noise from 1e-14 to 1.
    # Both solvers are backward stable, so they differ by at most a small
    # multiple of cond(design) * eps in the coefficients, and the residual
    # norms by that much of ||y|| + ||design|| ||coef||.
    rng = np.random.default_rng(5003)
    eps = np.finfo(np.float64).eps
    for case, columns in enumerate(_fit_designs(rng)):
        design = np.vstack(columns).T
        coef = rng.normal(size=design.shape[1]) * 10.0 ** rng.uniform(-2, 2, design.shape[1])
        y = design @ coef + 10.0 ** rng.uniform(-14, 0) * rng.normal(size=design.shape[0])
        want, *_ = np.linalg.lstsq(design, y, rcond=None)
        got, rss = co.least_squares(columns, y)
        bound = 16 * np.linalg.cond(design) * eps
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), (case, got, want)
        scale = np.linalg.norm(y) + np.linalg.norm(design, 2) * np.linalg.norm(want)
        want_norm = np.linalg.norm(y - design @ want)
        assert abs(np.sqrt(rss) - want_norm) <= bound * scale, (case, rss, want_norm**2)


def _reference_block_moments(arr, ns, s_values):
    """Each row's prefix sums S_N, one row at a time, with the moments of
    S^2 over the points; and each s's per-point level totals of squared
    pairwise-tree block sums over {1..2^s}."""
    prefix = []
    for n in ns:
        sums_sq = np.array([row[:n].sum() for row in arr]) ** 2
        mean = float(sums_sq.mean())
        prefix.append((arr.shape[0], mean, float(((sums_sq - mean) ** 2).sum())))
    levels = [
        np.array([(tree_block_sums(arr[:, : 1 << s], r) ** 2).sum(axis=1) for r in range(s)])
        for s in s_values
    ]
    return tuple(prefix), levels


def test_block_moments_match_pairwise_reference():
    # Random term matrices whose magnitudes spread over twelve decades, grids
    # of N below, at and above 2^max s, s values in any order (or none), and
    # blocks wider than they need, given whole or in random row slabs: every
    # prefix moment and every level total is the reference's, bit for bit.
    rng = np.random.default_rng(6006)
    for case in range(150):
        s_values = tuple(rng.permutation(np.arange(1, 11))[: int(rng.integers(0, 4))].tolist())
        ns = tuple(rng.integers(1, 1100, size=int(rng.integers(0 if s_values else 1, 5))).tolist())
        width = dyadic.term_columns(ns, s_values) + int(rng.integers(0, 3)) * 5
        points = int(rng.integers(1, 100))
        arr = rng.standard_normal((points, width)) * 10.0 ** rng.integers(-6, 7, (points, width))
        if case % 2:
            cuts = [0, *np.sort(rng.integers(0, points, size=3)).tolist(), points]
            terms = (arr[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo)
        else:
            terms = arr
        got = dyadic.block_moments(terms, ns, s_values)
        prefix, levels = _reference_block_moments(arr, ns, s_values)
        assert (got.points, got.columns) == arr.shape, case
        assert got.prefix_moments == prefix, case
        assert [t.tobytes() for t in got.level_totals] == [t.tobytes() for t in levels], case


def _plain_witness(values, n_max):
    """(max over n <= n_max of |{k : value_k <= n}| / n, its first argmax n,
    the count there), counted by a loop over n and k; (0, 1, 0) when no
    value counts."""
    best = (0.0, 1, 0)
    for n in range(1, n_max + 1):
        count = sum(1 for v in values if v <= n)
        if count / n > best[0]:
            best = (count / n, n, count)
    return best


def _plain_stability(values, n_max):
    """(witness, its n, its count, passed, ratio) of one row: the ratio of
    the witness to the first half's, which must stay within the factor."""
    witness, worst_n, count = _plain_witness(values, n_max)
    half = _plain_witness(values[: len(values) // 2], n_max)[0]
    if witness == 0.0:
        return witness, worst_n, count, True, None
    if half == 0.0:
        return witness, worst_n, count, False, math.inf
    ratio = witness / half
    return witness, worst_n, count, ratio <= sequences.STABILITY_FACTOR, ratio


def _counting_values(rng, size, top):
    """Values >= 1 up to about ``top``: integers, which tie with the grid,
    fractions, and some +inf and NaN entries, which never count."""
    values = np.where(
        rng.random(size) < 0.5,
        rng.integers(1, top + 1, size),
        1.0 + rng.random(size) * top,
    )
    values[rng.random(size) < 0.1] = math.inf
    values[rng.random(size) < 0.02] = math.nan
    return values


def test_counting_checkers_match_plain_loops():
    # K up to 200 values at grids up to 40: check_c_condition, both
    # orientations of check_b_condition and check_band_condition, every
    # report field against loops over the grid and the values.
    rng = np.random.default_rng(7117)
    for case in range(120):
        k_max = int(rng.integers(2, 201))
        n_max = int(rng.integers(1, 41))
        values = _counting_values(rng, k_max, int(rng.integers(1, 2 * n_max + 2)))
        witness, worst_n, count, passed, ratio = _plain_stability(values.tolist(), n_max)
        assert vars(sequences.check_c_condition(values, n_max)) == dict(
            condition="c", witness=witness, passed=passed, worst_n=worst_n, worst_m=None,
            worst_count=count, grid={"K": k_max, "n_max": n_max}, stability_ratio=ratio,
        ), case

        m_grid = rng.permutation(np.arange(1, 30))[: int(rng.integers(1, 5))].tolist()
        grid = np.array([_counting_values(rng, k_max, 2 * n_max) for _ in m_grid])
        rows = [_plain_stability(row.tolist(), n_max) for row in grid]
        witness, worst = 0.0, (1, m_grid[0], 0)
        for m, row in zip(m_grid, rows):
            if row[0] > witness:
                witness, worst = row[0], (row[1], m, row[2])
        ratios = [row[4] for row in rows if row[4] is not None]
        for orientation in ("row", "column"):
            assert vars(sequences.check_b_condition(grid, orientation, m_grid, n_max)) == dict(
                condition=f"b-{orientation}", witness=witness,
                passed=all(row[3] for row in rows), worst_n=worst[0], worst_m=worst[1],
                worst_count=worst[2],
                grid={"K": k_max, "n_max": n_max, "m_grid": [min(m_grid), max(m_grid)]},
                stability_ratio=max(ratios, default=None),
            ), (case, orientation)

        s_max = int(rng.integers(1, 31))
        claim = int(rng.integers(0, 8))
        values = _counting_values(rng, k_max, s_max + 2)
        counts = [sum(1 for v in values.tolist() if s <= v <= s + 1) for s in range(1, s_max + 1)]
        band = counts.index(max(counts)) + 1
        assert vars(sequences.check_band_condition(values, s_max, claim)) == dict(
            condition="band", witness=float(max(counts)), passed=max(counts) <= claim,
            worst_n=band, worst_m=None, worst_count=max(counts),
            grid={"K": k_max, "s_max": s_max, "M_claim": claim}, stability_ratio=None,
        ), case
