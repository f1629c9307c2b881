"""Correlations: Monte Carlo vs exact oracles, cumulants, rate fits."""

import itertools
import math

import numpy as np
import pytest

from ergolab import correlations as co
from ergolab import systems
from ergolab.errors import (
    DomainError,
    InsufficientData,
    KTooLarge,
    NotCylinder,
    SubsetMissing,
    VariantMismatch,
)

MARKOV = [[0.9, 0.1], [0.5, 0.5]]


@pytest.fixture(scope="module")
def markov():
    return systems.build_shift([[1, 1], [1, 1]], MARKOV)


@pytest.fixture(scope="module")
def three_symbol():
    return systems.build_shift(
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[0.6, 0.4, 0.0], [0.0, 0.3, 0.7], [0.5, 0.0, 0.5]]
    )


@pytest.fixture(scope="module")
def bernoulli():
    return systems.bernoulli_system([0.5, 0.5])


@pytest.fixture(scope="module")
def cat():
    return systems.build_torus([[2, 1], [1, 1]], 96)


def query(system, observables, times):
    return co.CorrelationQuery(system=system, observables=tuple(observables), times=tuple(times))


class TestQueryValidation:
    def test_duplicate_times_rejected(self, markov):
        f = systems.cylinder_indicator([0])
        with pytest.raises(DomainError):
            query(markov, [f, f], (3, 3))

    def test_duplicate_effective_times_rejected(self, markov):
        # Times are the effective times: (2, 2) is what times (2, 1) with
        # per-factor multipliers (1, 2) used to mean.
        f = systems.cylinder_indicator([0])
        message = r"effective times must be pairwise distinct, got \(2, 2\)"
        with pytest.raises(DomainError, match=message):
            query(markov, [f, f], (2, 2))


class TestMonteCarlo:
    def test_constant_factor(self, markov):
        obs = systems.cylinder_observable(0, {(0,): 2.5, (1,): 2.5})
        estimate, std_error = co.mc_correlation(query(markov, [obs], (0,)), 1000, 1)
        assert estimate == pytest.approx(2.5)
        assert std_error == pytest.approx(0.0, abs=1e-12)

    def test_bernoulli_disjoint_centered(self, bernoulli):
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        estimate, std_error = co.mc_correlation(query(bernoulli, [f, f], (0, 5)), 10 ** 5, 2)
        assert abs(estimate) <= 4 * std_error

    def test_markov_adjacent_covariance(self, markov):
        f = systems.centered_cylinder_indicator(markov, [0])
        estimate, std_error = co.mc_correlation(query(markov, [f, f], (0, 1)), 10 ** 6, 3)
        assert abs(estimate - 1 / 18) <= 4 * std_error

    def test_determinism(self, markov):
        f = systems.cylinder_indicator([0])
        q = query(markov, [f, f], (0, 2))
        assert co.mc_correlation(q, 50_000, 9) == co.mc_correlation(q, 50_000, 9)

    def test_samples_only_read_positions(self, markov, monkeypatch):
        # The manifest's symbols_sampled counts these positions per sample.
        seen = []

        def spy(system, positions, count, rng, *reused):
            seen.append((np.asarray(positions).tolist(), count))
            return systems.sample_at(system, positions, count, rng, *reused)

        monkeypatch.setattr(co, "sample_at", spy)
        f = systems.cylinder_observable(1, {(0, 1, 0): 1.0})
        q = query(markov, [f, systems.cylinder_indicator([1])], (0, 7))
        assert q.read_positions.tolist() == [-1, 0, 1, 7]
        co.mc_correlation(q, 70_000, 1)
        assert seen == [([-1, 0, 1, 7], 1 << 16), ([-1, 0, 1, 7], 70_000 - (1 << 16))]

    @pytest.mark.parametrize("chunk", [7, 4096, 65536])
    def test_pairwise_moments_match_two_pass(self, chunk):
        # Mean 1e8, spread 1: sum x^2 - n mean^2 cancels every digit.
        data = 1e8 + np.random.default_rng(chunk).standard_normal(200_003)
        n = data.size
        old = (float((data ** 2).sum()) - n * float(data.mean()) ** 2) / (n - 1)
        want = float(((data - data.mean()) ** 2).sum()) / (n - 1)
        assert abs(old - want) > 0.1 * want
        parts = [
            (part.size, float(part.mean()), float(((part - part.mean()) ** 2).sum()))
            for part in np.array_split(data, range(chunk, n, chunk))
        ]
        count, mean, m2 = co._pairwise_moments(parts)
        assert count == n
        assert mean == pytest.approx(float(data.mean()), rel=1e-15)
        assert m2 / (n - 1) == pytest.approx(want, rel=1e-7)

    def test_far_apart_pair(self, markov):
        # One sampler step of P^(10^15): its rows must stay stochastic.
        f = systems.cylinder_indicator([0])
        estimate, std_error = co.mc_correlation(query(markov, [f, f], (0, 10 ** 15)), 200_000, 3)
        assert abs(estimate - (5 / 6) ** 2) <= 4 * std_error

    def test_large_mean_standard_error(self, bernoulli):
        # Products 1e8 +- 1 with equal odds: the sample variance is near 1.
        f = systems.cylinder_observable(0, {(0,): 1e8 + 1, (1,): 1e8 - 1})
        n = 200_000
        estimate, std_error = co.mc_correlation(query(bernoulli, [f], (0,)), n, 4)
        assert abs(estimate - 1e8) <= 4 * std_error
        assert std_error * math.sqrt(n) == pytest.approx(1.0, abs=0.01)


def _positional_walk(query):
    """The transfer oracle stepping through every position of the span,
    gaps included: the reference for the walk over read positions."""
    system = query.system
    eff = query.effective_times()
    lo = min(t - obs.radius for t, obs in zip(eff, query.observables))
    hi = max(t + obs.radius for t, obs in zip(eff, query.observables))
    m = system.alphabet_size
    context = 2 * max(obs.radius for obs in query.observables) + 1
    completions = {}
    for obs, t in zip(query.observables, eff):
        completions.setdefault(t + obs.radius, []).append(obs)
    vec = system.stationary.copy()
    length = 1
    for obs in completions.get(lo, ()):
        vec = vec * systems.cylinder_table(obs, m)
    for p in range(lo + 1, hi + 1):
        last = np.arange(vec.size, dtype=np.int64) % m
        vec = (vec[:, None] * system.transition[last, :]).ravel()
        if length == context:
            vec = vec.reshape(m, -1).sum(axis=0)
        else:
            length += 1
        for obs in completions.get(p, ()):
            codes = np.arange(vec.size, dtype=np.int64) % (m ** (2 * obs.radius + 1))
            vec = vec * systems.cylinder_table(obs, m)[codes]
    return float(vec.sum())


def _far_cylinder_query(system, rng):
    """The criterion 1 query generator with log-uniform gaps from 1 to 10^4
    between the sorted times, over the system's alphabet."""
    factors = int(rng.integers(2, 5))
    gaps = (10 ** rng.uniform(0, 4, size=factors - 1)).astype(np.int64)
    times = rng.permutation(np.concatenate([[0], np.cumsum(gaps)]))
    observables = []
    for _ in range(factors):
        radius = int(rng.integers(0, 2))
        table = {}
        for _ in range(int(rng.integers(1, 4))):
            word = tuple(int(s) for s in rng.integers(0, system.alphabet_size, size=2 * radius + 1))
            table[word] = float(np.round(rng.uniform(-1, 1), 6))
        observables.append(systems.cylinder_observable(radius, table))
    return query(system, observables, [int(t) for t in times])


class TestExactShift:
    def test_adjacent_pair(self, markov):
        f = systems.cylinder_indicator([0])
        assert co.exact_correlation_shift(query(markov, [f, f], (0, 1))) == pytest.approx(0.75)

    def test_two_step_pair(self, markov):
        f = systems.cylinder_indicator([0])
        value = co.exact_correlation_shift(query(markov, [f, f], (0, 2)))
        assert value == pytest.approx((5 / 6) * 0.86)

    def test_disjoint_factorizes(self, bernoulli):
        f = systems.cylinder_indicator([1])
        value = co.exact_correlation_shift(query(bernoulli, [f, f, f], (0, 3, 7)))
        assert value == pytest.approx(0.5 ** 3)

    def test_translation_invariance(self, markov):
        f = systems.cylinder_indicator([0])
        g = systems.centered_cylinder_indicator(markov, [0, 1, 0])
        base = co.exact_correlation_shift(query(markov, [f, g], (0, 4)))
        moved = co.exact_correlation_shift(query(markov, [f, g], (11, 15)))
        assert moved == pytest.approx(base, abs=1e-14)

    def test_negative_times(self, markov):
        f = systems.cylinder_indicator([0])
        base = co.exact_correlation_shift(query(markov, [f, f], (0, 3)))
        moved = co.exact_correlation_shift(query(markov, [f, f], (-3, 0)))
        assert moved == pytest.approx(base, abs=1e-14)

    def test_overlapping_windows(self, markov):
        # Radius-1 factors at gap 1 share two coordinates; compare against a
        # direct path-sum over words of length 4.
        g = systems.cylinder_observable(1, {(0, 0, 1): 2.0, (1, 0, 1): -0.5})
        value = co.exact_correlation_shift(query(markov, [g, g], (0, 1)))
        total = 0.0
        for word in itertools.product((0, 1), repeat=4):
            p = markov.word_probability(word)
            table = {(0, 0, 1): 2.0, (1, 0, 1): -0.5}
            total += p * table.get(word[:3], 0.0) * table.get(word[1:], 0.0)
        assert value == pytest.approx(total, abs=1e-14)

    def test_single_factor_is_mean(self, markov):
        g = systems.cylinder_observable(1, {(0, 0, 1): 2.0, (1, 0, 1): -0.5})
        value = co.exact_correlation_shift(query(markov, [g], (5,)))
        assert value == pytest.approx(systems.exact_mean(g, markov), abs=1e-14)

    def test_factors_completing_at_same_position(self, markov):
        # Radius-1 factor at time 0 and radius-0 factor at time 1 both close
        # their windows at position 1.
        f_table = {(0, 0, 1): 2.0, (1, 0, 1): -0.5}
        f = systems.cylinder_observable(1, f_table)
        g = systems.cylinder_indicator([1])
        value = co.exact_correlation_shift(query(markov, [f, g], (0, 1)))
        total = 0.0
        for word in itertools.product((0, 1), repeat=3):
            total += (
                markov.word_probability(word)
                * f_table.get(word, 0.0)
                * (1.0 if word[2] == 1 else 0.0)
            )
        assert value == pytest.approx(total, abs=1e-14)

    def test_three_symbol_alphabet(self, three_symbol):
        f = systems.cylinder_observable(0, {(0,): 1.0, (2,): -0.5})
        g = systems.cylinder_observable(1, {(1, 1, 2): 2.0, (2, 0, 0): 1.0})
        value = co.exact_correlation_shift(query(three_symbol, [f, g], (0, 2)))
        total = 0.0
        f_table = {(0,): 1.0, (2,): -0.5}
        g_table = {(1, 1, 2): 2.0, (2, 0, 0): 1.0}
        for word in itertools.product((0, 1, 2), repeat=4):  # coords 0..3
            total += (
                three_symbol.word_probability(word)
                * f_table.get(word[:1], 0.0)
                * g_table.get(word[1:], 0.0)
            )
        assert value == pytest.approx(total, abs=1e-14)
        estimate, std_error = co.mc_correlation(query(three_symbol, [f, g], (0, 2)), 200_000, 13)
        assert abs(estimate - value) <= 4 * std_error

    def test_oracle_agreement(self, markov):
        rng = np.random.default_rng(4)
        f = systems.cylinder_observable(1, {tuple(rng.integers(0, 2, 3)): 1.5, (0, 1, 0): -0.5})
        g = systems.cylinder_indicator([0])
        q = query(markov, [f, g], (0, 5))
        exact = co.exact_correlation_shift(q)
        estimate, std_error = co.mc_correlation(q, 200_000, 5)
        assert abs(estimate - exact) <= 4 * std_error

    def test_span_limit(self, markov):
        # Spans over 10^6: the oracle walks the two read positions only.
        f = systems.cylinder_indicator([0])
        pi0, pi1 = 5 / 6, 1 / 6
        for gap in (10 ** 6 + 5, 10 ** 12):
            value = co.exact_correlation_shift(query(markov, [f, f], (0, gap)))
            assert abs(value - pi0 * (pi0 + pi1 * 0.4 ** gap)) <= 1e-15

    def test_matches_positional_walk(self, markov, three_symbol):
        rng = np.random.default_rng(12)
        for index in range(60):
            q = _far_cylinder_query(markov if index % 2 else three_symbol, rng)
            assert abs(co.exact_correlation_shift(q) - _positional_walk(q)) <= 1e-12, q.times

    def test_not_cylinder(self, cat):
        f = systems.trig_cosine((1, 0))
        with pytest.raises(NotCylinder):
            co.exact_correlation_shift(query(cat, [f], (0,)))


class TestExactTorus:
    def test_matched_pair(self, cat):
        f0 = systems.trig_cosine((-2, -1))
        f1 = systems.trig_cosine((1, 0))
        value = co.exact_correlation_torus(query(cat, [f0, f1], (0, 1)))
        assert value == pytest.approx(0.5)

    def test_single_character_mean_zero(self, cat):
        f = systems.trig_cosine((3, -2))
        assert co.exact_correlation_torus(query(cat, [f], (7,))) == 0.0

    def test_constants(self, cat):
        one = systems.trig_observable([((0, 0), 1.0, 0.0)])
        value = co.exact_correlation_torus(query(cat, [one, one, one], (0, 1, 2)))
        assert value == pytest.approx(1.0)

    def test_conjugation_symmetry(self, cat):
        f0 = systems.trig_observable([((-2, -1), 0.7, 0.3)])
        f1 = systems.trig_observable([((1, 0), 1.0, -0.4)])
        base = co.exact_correlation_torus(query(cat, [f0, f1], (0, 1)))
        c0 = systems.trig_observable([((2, 1), 0.7, 0.3)])
        c1 = systems.trig_observable([((-1, 0), 1.0, -0.4)])
        mirrored = co.exact_correlation_torus(query(cat, [c0, c1], (0, 1)))
        assert mirrored == pytest.approx(base, abs=1e-12)

    def test_mc_agreement(self, cat):
        f0 = systems.trig_cosine((-2, -1))
        f1 = systems.trig_cosine((1, 0))
        q = query(cat, [f0, f1], (0, 1))
        estimate, std_error = co.mc_correlation(q, 30_000, 6)
        assert abs(estimate - 0.5) <= 4 * std_error


def _reference_mc_products_torus(query, count, rng):
    """The per-sample big-integer loop that the limb kernel replaced."""
    auto = query.system
    q = auto.precision_bits
    mod = auto.modulus
    factors = [
        co._transformed_terms(auto, obs, t)
        for obs, t in zip(query.observables, query.effective_times())
    ]
    words = (q + 63) // 64
    raw = rng.integers(0, 1 << 64, size=(count, auto.dimension, words), dtype=np.uint64)
    prod = np.ones(count, dtype=np.float64)
    two_pi = 2.0 * math.pi
    for s in range(count):
        coords = []
        for i in range(auto.dimension):
            value = 0
            for w in range(words):
                value |= int(raw[s, i, w]) << (64 * w)
            coords.append(value % mod)
        sample_prod = 1.0
        for terms in factors:
            value = 0.0
            for freq, a, b in terms:
                dot = sum(k * c for k, c in zip(freq, coords)) % mod
                phase = two_pi * (dot / mod)
                value += a * math.cos(phase) + b * math.sin(phase)
            sample_prod *= value
        prod[s] = sample_prod
    return prod


class TestTorusMonteCarloKernel:
    @pytest.mark.parametrize("bits", [31, 64, 96, 128])
    # (2, -10) and (0, 40) were times (2, 5) and (0, 40) with per-factor
    # multipliers (1, -2) and (3, 1); the case ids are kept from then.
    @pytest.mark.parametrize(
        "times",
        [(0, 1), (1, 3), (2, -10), (0, 40)],
        ids=["times0-None", "times1-None", "times2-multipliers2", "times3-multipliers3"],
    )
    def test_products_match_reference(self, bits, times):
        auto = systems.build_torus([[2, 1], [1, 1]], bits)
        f0 = systems.trig_observable([((-2, -1), 1.0, 0.0), ((3, 5), 0.25, -0.5)])
        f1 = systems.trig_observable([((1, 0), 0.5, 1.5), ((2, 3), 0.0, -0.75)])
        q = query(auto, [f0, f1], times)
        count = systems.TORUS_SLAB + 77  # crosses a slab boundary
        got = co._mc_products_torus(q, count, np.random.default_rng(bits))
        want = _reference_mc_products_torus(q, count, np.random.default_rng(bits))
        assert np.array_equal(got, want)

    def test_three_dimensional_reference(self):
        auto = systems.build_torus([[1, 1, 0], [1, 2, 1], [0, 1, 2]], 96)
        f = systems.trig_observable([((1, -1, 2), 1.0, 0.5)])
        g = systems.trig_observable([((0, 1, 0), -0.5, 0.0), ((2, 0, 1), 0.0, 1.0)])
        q = query(auto, [f, g, f], (0, 2, 7))
        got = co._mc_products_torus(q, 500, np.random.default_rng(3))
        want = _reference_mc_products_torus(q, 500, np.random.default_rng(3))
        assert np.array_equal(got, want)

    def test_wrong_dimension_frequency_rejected(self, cat):
        bad = systems.trig_cosine((1, 0, 0))
        with pytest.raises(VariantMismatch):
            co._transformed_terms(cat, bad, 1)
        with pytest.raises(VariantMismatch):
            co.mc_correlation(query(cat, [bad], (0,)), 100, 1)
        with pytest.raises(VariantMismatch):
            co.exact_correlation_torus(query(cat, [bad], (0,)))


class TestMixingDefect:
    def test_disjoint_bernoulli_zero(self, bernoulli):
        f = systems.cylinder_indicator([1])
        defect = co.mixing_defect(query(bernoulli, [f, f], (0, 4)))
        assert defect.value == pytest.approx(0.0, abs=1e-15)

    def test_markov_geometric_decay(self, markov):
        f = systems.cylinder_indicator([0])
        defect = co.mixing_defect(query(markov, [f, f], (0, 3)))
        assert defect.value == pytest.approx((1 / 18) * 0.4 ** 2)

    def test_constant_zero(self, markov):
        obs = systems.cylinder_observable(0, {(0,): 1.5, (1,): 1.5})
        defect = co.mixing_defect(query(markov, [obs, obs], (0, 1)))
        assert defect.value == pytest.approx(0.0, abs=1e-15)

    def test_monte_carlo_past_span_limit(self, markov):
        # Two positions 2e6 apart: P^g has mixed to within rounding, so the
        # exact defect vanishes.
        f = systems.cylinder_indicator([0])
        defect = co.mixing_defect(query(markov, [f, f], (0, 2 * 10 ** 6)))
        assert defect.product_of_means == pytest.approx((5 / 6) ** 2, abs=1e-15)
        assert defect.correlation == pytest.approx((5 / 6) ** 2, abs=1e-15)
        assert defect.value <= 1e-15


class TestMinGapDecay:
    def test_markov_exponential(self, markov):
        f = systems.centered_cylinder_indicator(markov, [0])
        fit = co.min_gap_decay_check(markov, [f, f], [(0, n) for n in range(1, 13)])
        assert fit.model == co.EXPONENTIAL_MODEL
        assert fit.exponent == pytest.approx(np.log(2.5), rel=0.10)

    def test_iid_degenerate(self, bernoulli):
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        fit = co.min_gap_decay_check(bernoulli, [f, f], [(0, n) for n in range(1, 8)])
        assert fit.model == co.DEGENERATE_MODEL
        assert fit.amplitude == 0.0

    def test_cat_never_matching(self, cat):
        f = systems.trig_cosine((1, 0))
        fit = co.min_gap_decay_check(cat, [f, f], [(0, n) for n in range(1, 6)])
        assert fit.amplitude == 0.0

    def test_insufficient_data(self, markov):
        f = systems.centered_cylinder_indicator(markov, [0])
        with pytest.raises(InsufficientData):
            co.min_gap_decay_check(markov, [f, f], [(0, 1), (0, 2), (0, 3)])

    def test_non_increasing_gaps_rejected(self, markov):
        f = systems.centered_cylinder_indicator(markov, [0])
        with pytest.raises(DomainError):
            co.min_gap_decay_check(markov, [f, f], [(0, 3), (0, 2), (0, 4), (0, 5)])


def full_table(order, rng):
    keys = [
        frozenset(c)
        for size in range(1, order + 2)
        for c in itertools.combinations(range(order + 1), size)
    ]
    return {k: float(rng.normal()) for k in keys}


def _reference_partition_sums(table, inverse):
    """The two partition-identity loops as separate copies, each subset's
    partitions in ``set_partitions`` order: a reference that pins the
    order of every product and sum."""
    out = {}
    values = out if inverse else table
    for subset in sorted(table, key=len):
        total = 0.0
        for partition in co.set_partitions(sorted(subset)):
            if inverse and len(partition) == 1:
                continue
            prod = 1.0
            for block in partition:
                prod *= values[frozenset(block)]
            total += prod
        out[subset] = table[subset] - total if inverse else total
    return out


class TestCumulants:
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_partition_sums_match_reference_bits(self, order):
        # The round trip below holds only within a tolerance; this pins
        # both directions to the last bit, keys given in shuffled order.
        rng = np.random.default_rng(40 + order)
        for _ in range(5):
            items = list(full_table(order, rng).items())
            table = dict(items[i] for i in rng.permutation(len(items)))
            cumulants = co.moments_to_cumulants(table).cumulants
            assert cumulants == _reference_partition_sums(table, inverse=True)
            assert co.cumulants_to_moments(table) == _reference_partition_sums(table, inverse=False)

    def test_covariance_case(self):
        table = co.moments_to_cumulants({(0,): 2.0, (1,): 3.0, (0, 1): 7.0})
        assert table.cumulant((0, 1)) == pytest.approx(1.0)

    def test_independent_moments_vanish(self):
        singles = {0: 1.1, 1: -0.4, 2: 0.7}
        moments = {
            frozenset(c): float(np.prod([singles[i] for i in c]))
            for size in range(1, 4)
            for c in itertools.combinations(range(3), size)
        }
        table = co.moments_to_cumulants(moments)
        for subset, value in table.cumulants.items():
            if len(subset) >= 2:
                assert abs(value) <= 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            moments = full_table(4, rng)
            table = co.moments_to_cumulants(moments)
            back = co.cumulants_to_moments(table.cumulants)
            for key, value in moments.items():
                assert back[key] == pytest.approx(value, abs=1e-10)

    def test_pure_cumulants_to_moments(self):
        # With vanishing small cumulants the only surviving partition of the
        # full set is the one-block partition.
        cumulants = {(0,): 0.0, (1,): 0.0, (2,): 0.0}
        for pair in itertools.combinations(range(3), 2):
            cumulants[pair] = 0.0
        cumulants[(0, 1, 2)] = 1.75
        moments = co.cumulants_to_moments(cumulants)
        assert moments[frozenset({0, 1, 2})] == pytest.approx(1.75)

    def test_products_of_singletons(self):
        cumulants = {(0,): 2.0, (1,): 3.0, (0, 1): 0.0}
        moments = co.cumulants_to_moments(cumulants)
        assert moments[frozenset({0, 1})] == pytest.approx(6.0)

    def test_partition_count(self):
        assert sum(1 for _ in co.set_partitions(range(5))) == 52

    def test_missing_subset(self):
        with pytest.raises(SubsetMissing):
            co.moments_to_cumulants({(0,): 1.0, (0, 1): 2.0})

    def test_order_guard(self):
        rng = np.random.default_rng(0)
        with pytest.raises(KTooLarge):
            co.moments_to_cumulants(full_table(11, rng))


class TestCumulantScan:
    def test_markov_rate(self, markov):
        f = systems.centered_cylinder_indicator(markov, [0])
        fit, rows = co.cumulant_decay_scan(markov, [f, f], [(0, n) for n in range(1, 13)])
        assert fit.exponent == pytest.approx(np.log(2.5), rel=0.10)
        assert rows[0]["x"] == 1

    def test_bernoulli_disjoint_zero(self, bernoulli):
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        table = co.joint_cumulants(bernoulli, [f, f, f], [0, 2, 5])
        for subset, value in table.cumulants.items():
            if len(subset) >= 2:
                assert abs(value) <= 1e-12

    def test_triple_cumulant_uncentered(self, bernoulli):
        f = systems.cylinder_indicator([1])
        table = co.joint_cumulants(bernoulli, [f, f, f], [0, 3, 9])
        assert abs(table.full_cumulant()) <= 1e-12


class TestBundling:
    """Higher correlations reduce to a pair against the bundled tail."""

    def bundle(self, f_table, gap, radius):
        # phi(y) = f(y) * f(h^gap y): coordinate window [-radius, gap+radius],
        # embedded in the symmetric word of radius gap + radius.
        big_radius = gap + radius
        table = {}
        for word in itertools.product((0, 1), repeat=2 * big_radius + 1):
            left = word[big_radius - radius: big_radius + radius + 1]
            right = word[big_radius + gap - radius: big_radius + gap + radius + 1]
            value = f_table.get(left, 0.0) * f_table.get(right, 0.0)
            if value:
                table[word] = value
        return systems.cylinder_observable(big_radius, table)

    def test_defect_equals_bundled_pair(self, bernoulli):
        radius, n1, n2 = 1, 2, 4
        rng = np.random.default_rng(12)
        f0 = systems.centered_cylinder_indicator(bernoulli, [1, 1, 1])
        saw_nonzero = False
        for _ in range(5):
            f_table = {
                tuple(rng.integers(0, 2, 3)): round(float(rng.normal()), 3),
                tuple(rng.integers(0, 2, 3)): round(float(rng.normal()), 3),
            }
            f = systems.cylinder_observable(radius, f_table)
            multi = co.exact_correlation_shift(
                query(bernoulli, [f0, f, f], (0, n1, n2))
            )
            phi = self.bundle(f_table, n2 - n1, radius)
            pair = co.exact_correlation_shift(query(bernoulli, [f0, phi], (0, n1)))
            assert multi == pytest.approx(pair, abs=1e-14)
            saw_nonzero = saw_nonzero or abs(multi) > 1e-12
        assert saw_nonzero  # overlapping windows make the identity non-trivial

    def test_zero_beyond_overlap(self, bernoulli):
        # Once the first gap clears both windows, the centered head factor
        # decouples and the correlation vanishes.
        radius = 1
        f = systems.cylinder_observable(radius, {(0, 1, 1): 1.0, (1, 1, 0): -0.5})
        f0 = systems.centered_cylinder_indicator(bernoulli, [1, 1, 1])
        for n1 in (3, 5, 9):
            value = co.exact_correlation_shift(
                query(bernoulli, [f0, f, f], (0, n1, n1 + 2))
            )
            assert abs(value) <= 1e-14
