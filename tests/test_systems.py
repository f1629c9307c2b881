"""Systems module: construction, sampling, exact actions and means."""

import bisect
import pickle
import random

import numpy as np
import pytest

from ergolab import averages, intmat, systems
from ergolab.seeding import ROLE_POINT, ROLE_TERMS, rng_for
from ergolab.sequences import SequenceSpec, generate
from ergolab.errors import (
    DomainError,
    IncompatibleSupport,
    NotAperiodic,
    NotStochastic,
    VariantMismatch,
    WindowExhausted,
)

ONES = [[1, 1], [1, 1]]
MARKOV = [[0.9, 0.1], [0.5, 0.5]]


def window(system, radius, count, rng):
    """``count`` sequences at the contiguous indices -radius..radius."""
    return systems.sample_at(system, np.arange(-radius, radius + 1), count, rng)


def window_point(system, radius, seed):
    positions = np.arange(-radius, radius + 1)
    symbols = window(system, radius, 1, np.random.default_rng(seed))[0]
    return systems.ShiftPoint(positions=positions, symbols=symbols)


@pytest.fixture(scope="module")
def markov():
    return systems.build_shift(ONES, MARKOV)


@pytest.fixture(scope="module")
def bernoulli():
    return systems.bernoulli_system([0.5, 0.5])


@pytest.fixture(scope="module")
def cat():
    return systems.build_torus([[2, 1], [1, 1]], 96)


class TestBuildShift:
    def test_markov_stationary(self, markov):
        # pi P = pi with rows (0.9, 0.1), (0.5, 0.5): 0.1 pi0 = 0.5 pi1.
        assert markov.stationary == pytest.approx([5 / 6, 1 / 6], abs=1e-13)

    def test_symmetric_stationary(self, bernoulli):
        assert bernoulli.stationary == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_period_two_rejected(self):
        with pytest.raises(NotAperiodic):
            systems.build_shift([[0, 1], [1, 0]], [[0.0, 1.0], [1.0, 0.0]])

    def test_support_mismatch(self):
        with pytest.raises(IncompatibleSupport):
            systems.build_shift([[1, 1], [1, 1]], [[1.0, 0.0], [0.5, 0.5]])

    def test_row_sum_tolerance(self):
        with pytest.raises(NotStochastic):
            systems.build_shift(ONES, [[0.9, 0.2], [0.5, 0.5]])
        # 1e-10 deviation is accepted and renormalized to machine precision.
        sys1 = systems.build_shift(ONES, [[0.9 + 1e-10, 0.1], [0.5, 0.5]])
        assert np.allclose(sys1.transition.sum(axis=1), 1.0, atol=1e-15)

    def test_stationary_residual(self, markov):
        residual = np.max(np.abs(markov.stationary @ markov.transition - markov.stationary))
        assert residual <= 1e-12
        assert (markov.stationary > 0).all()

    def test_golden_mean_support(self):
        sys1 = systems.build_shift([[1, 1], [1, 0]], [[0.6, 0.4], [1.0, 0.0]])
        assert sys1.transition[1, 1] == 0.0


class TestSampling:
    def test_determinism(self, markov):
        a = window_point(markov, 40, 123)
        b = window_point(markov, 40, 123)
        assert (a.symbols == b.symbols).all()

    def test_bernoulli_frequency(self, bernoulli):
        rng = np.random.default_rng(5)
        windows = window(bernoulli, 0, 10 ** 6, rng)
        freq = float((windows[:, 0] == 1).mean())
        assert abs(freq - 0.5) <= 4 * 0.5 / 1000.0

    def test_markov_origin_frequency(self, markov):
        rng = np.random.default_rng(6)
        windows = window(markov, 0, 10 ** 6, rng)
        freq = float((windows[:, 0] == 0).mean())
        se = np.sqrt((5 / 6) * (1 / 6) / 10 ** 6)
        assert abs(freq - 5 / 6) <= 4 * se

    def test_forward_transition_frequency(self, markov):
        rng = np.random.default_rng(7)
        windows = window(markov, 1, 200_000, rng)
        at0 = windows[:, 1] == 0
        freq = float((windows[at0, 2] == 0).mean())
        assert abs(freq - 0.9) <= 4 * np.sqrt(0.09 / at0.sum())

    def test_backward_is_stationary(self, markov):
        # Two-sided law: the word at indices (-1, 0) has probability pi P.
        rng = np.random.default_rng(8)
        windows = window(markov, 1, 200_000, rng)
        freq = float(((windows[:, 0] == 0) & (windows[:, 1] == 0)).mean())
        assert abs(freq - 0.75) <= 4 * np.sqrt(0.75 * 0.25 / 200_000)

    def test_admissibility(self):
        golden = systems.build_shift([[1, 1], [1, 0]], [[0.6, 0.4], [1.0, 0.0]])
        rng = np.random.default_rng(9)
        windows = window(golden, 20, 5000, rng)
        pairs = windows[:, :-1] * 2 + windows[:, 1:]
        assert not np.any(pairs == 3)  # word (1, 1) is forbidden


class TestShiftApply:
    def test_identity(self, markov):
        p = window_point(markov, 10, 1)
        assert systems.shift_apply(p, 0).word(10) == p.word(10)

    def test_composition(self, markov):
        p = window_point(markov, 10, 1)
        lhs = systems.shift_apply(p, 3 + 4)
        rhs = systems.shift_apply(systems.shift_apply(p, 3), 4)
        assert lhs.offset == rhs.offset
        assert lhs.symbol(0) == rhs.symbol(0)

    def test_window_exhausted(self, markov):
        p = window_point(markov, 10, 1)
        shifted = systems.shift_apply(p, 11)
        with pytest.raises(WindowExhausted):
            shifted.symbol(0)


class TestTorus:
    def test_identity_power(self, cat):
        p = systems.sample_torus_point(cat, 3)
        assert systems.torus_apply_power(cat, p, 0).coords == p.coords

    def test_cat_half_zero(self, cat):
        p = systems.torus_point_from_fractions(cat, ["1/2", 0])
        q = systems.torus_apply_power(cat, p, 1)
        assert q.coords == (0, cat.modulus // 2)

    def test_semigroup(self, cat):
        p = systems.sample_torus_point(cat, 4)
        once = systems.torus_apply_power(cat, p, 1)
        twice = systems.torus_apply_power(cat, once, 1)
        thrice = systems.torus_apply_power(cat, twice, 1)
        assert systems.torus_apply_power(cat, p, 3).coords == thrice.coords

    def test_inverse_roundtrip(self, cat):
        p = systems.sample_torus_point(cat, 5)
        forward = systems.torus_apply_power(cat, p, 7)
        back = systems.torus_apply_power(cat, forward, -7)
        assert back.coords == p.coords

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(DomainError):
            systems.build_torus([[0, -1], [1, 0]])  # eigenvalues on the circle

    def test_non_unimodular_rejected(self):
        with pytest.raises(DomainError):
            systems.build_torus([[2, 0], [0, 1]])

    def test_entry_past_float_range_rejected(self):
        # Determinant 1, but float64 cannot hold 10^400 for the eigenvalue check.
        with pytest.raises(DomainError, match="float64 range"):
            systems.build_torus([[1, 10 ** 400], [0, 1]])

    def test_bijective_on_lattice(self):
        # Exhaustive at q = 8, d = 2: the action permutes the 2^16 lattice points.
        auto = systems.build_torus([[2, 1], [1, 1]], 8)
        grid = np.arange(256, dtype=np.int64)
        xs, ys = np.meshgrid(grid, grid, indexing="ij")
        nx = (2 * xs + ys) % 256
        ny = (xs + ys) % 256
        images = set(zip(nx.ravel().tolist(), ny.ravel().tolist()))
        assert len(images) == 256 * 256


# ---------------------------------------------------------------------------
# Limb kernel against the big-integer reference
# ---------------------------------------------------------------------------

PRECISIONS = (31, 64, 96, 128)


def _random_unimodular(rnd: random.Random, d: int) -> intmat.IntMatrix:
    """Product of random integer shears and a sign flip (determinant +-1)
    whose powers grow, so pushed frequencies leave [-2^q, 2^q)."""
    while True:
        matrix = intmat.mat_identity(d)
        for _ in range(3 * d):
            i, j = rnd.sample(range(d), 2)
            shear = [list(row) for row in intmat.mat_identity(d)]
            shear[i][j] = rnd.choice([-2, -1, 1, 2])
            matrix = intmat.mat_mul(matrix, tuple(tuple(row) for row in shear))
        if rnd.random() < 0.5:
            matrix = (tuple(-x for x in matrix[0]),) + matrix[1:]
        if max(abs(x) for row in intmat.mat_pow(matrix, 60) for x in row) > 1 << 30:
            return matrix


def _pushed_frequencies(rnd: random.Random, d: int, count: int) -> list[tuple[int, ...]]:
    """Frequencies pushed through (M^T)^t for t up to 300: huge and of both signs."""
    transpose = tuple(zip(*_random_unimodular(rnd, d)))
    times = [0, 1, 300] + [rnd.randint(0, 300) for _ in range(count - 3)]
    out = []
    for time in times:
        freq = tuple(rnd.randint(-3, 3) for _ in range(d))
        out.append(intmat.mat_vec(intmat.mat_pow(transpose, time), freq))
    return out


def _limb_int(limbs) -> int:
    return sum(int(x) << (32 * j) for j, x in enumerate(limbs))


def _limb_dots(freq, coords, q):
    x = np.ascontiguousarray(np.moveaxis(systems.torus_limbs(coords, q), 0, -1))
    magnitude = systems.torus_limbs([[abs(k) for k in freq]], q)[0]
    negative = [k < 0 for k in freq]
    return systems._limb_dot(magnitude, negative, x, systems._negated(x, q), q)


class TestLimbKernel:
    @pytest.mark.parametrize("q", PRECISIONS)
    def test_sampled_limbs_are_the_scalar_draws(self, q):
        auto = systems.build_torus([[2, 1], [1, 1]], q)
        got = systems.sample_torus_limbs(auto, 50, np.random.default_rng(q))
        rng = np.random.default_rng(q)
        points = [systems.sample_torus_point(auto, rng).coords for _ in range(50)]
        assert got.shape == (50, 2, -(-q // 32))
        assert np.array_equal(got, systems.torus_limbs(points, q))
        assert [[_limb_int(c) for c in p] for p in got] == [list(p) for p in points]

    @pytest.mark.parametrize("q", PRECISIONS)
    @pytest.mark.parametrize("d", [2, 3])
    def test_dot_matches_intmat(self, q, d):
        rnd = random.Random(1000 * q + d)
        mod = 1 << q
        coords = [tuple(rnd.getrandbits(q) for _ in range(d)) for _ in range(200)]
        coords += [(0,) * d, (mod - 1,) * d]
        freqs = _pushed_frequencies(rnd, d, 12)
        assert any(abs(k) >= mod for f in freqs for k in f)
        assert any(k < 0 for f in freqs for k in f)
        for freq in freqs:
            dots = _limb_dots(freq, coords, q)
            want = [intmat.mat_vec((freq,), c, mod)[0] for c in coords]
            assert [_limb_int(dots[:, s]) for s in range(len(coords))] == want

    @pytest.mark.parametrize("q", PRECISIONS + (1, 33, 200))
    def test_phases_are_python_division(self, q):
        rnd = random.Random(q)
        mod = 1 << q
        values = [0, 1, mod - 1, mod >> 1]
        values += [rnd.getrandbits(rnd.randint(1, q)) for _ in range(3000)]
        # Halfway cases and their neighbours wherever 54 bits fit.
        for shift in range(0, q - 53):
            tie = ((1 << 53) + 1) << shift
            values += [tie - 1, tie, tie + 1, (((1 << 53) + 3) << shift)]
        values = [v % mod for v in values]
        limbs = systems.torus_limbs([(v,) for v in values], q)
        phases = systems._limb_phases(np.ascontiguousarray(limbs[:, 0, :].T), q)
        assert [float(p) for p in phases] == [v / mod for v in values]

    @pytest.mark.parametrize("q", PRECISIONS)
    def test_trig_values_match_evaluate(self, q):
        rnd = random.Random(q + 7)
        auto = systems.build_torus([[2, 1], [1, 1]], q)
        freqs = dict.fromkeys(_pushed_frequencies(rnd, 2, 4) + [(0, 0), (1, -1)])
        obs = systems.trig_observable(
            [(f, rnd.uniform(-2, 2), rnd.uniform(-2, 2)) for f in freqs]
        )
        rng = np.random.default_rng(q)
        points = [systems.sample_torus_point(auto, rng) for _ in range(300)]
        limbs = systems.torus_limbs([p.coords for p in points], q)
        got = systems.trig_values(obs.terms, limbs, q)
        assert got.tolist() == [systems.evaluate(obs, p) for p in points]

    def test_trig_values_cross_slabs(self):
        auto = systems.build_torus([[2, 1], [1, 1]], 64)
        limbs = systems.sample_torus_limbs(auto, systems.TORUS_SLAB + 5, np.random.default_rng(2))
        terms = [((3, -1), 1.0, 0.5)]
        whole = systems.trig_values(terms, limbs, 64)
        parts = [systems.trig_values(terms, limbs[i:i + 1], 64)[0] for i in range(len(limbs))]
        assert whole.tolist() == parts

    def test_orbit_matches_apply_power(self, cat):
        point = systems.sample_torus_point(cat, 12)
        exponents = [-300, -17, -1, 0, 1, 2, 3, 64, 1000, 4097]
        orbit = systems.torus_orbit(cat, point, exponents)
        assert orbit == [systems.torus_apply_power(cat, point, n).coords for n in exponents]

    def test_wrong_dimension_rejected(self, cat):
        limbs = systems.torus_limbs([(1, 2)], cat.precision_bits)
        with pytest.raises(VariantMismatch):
            systems.trig_values([((1, 0, 0), 1.0, 0.0)], limbs, cat.precision_bits)
        with pytest.raises(ValueError):
            intmat.mat_vec(cat.matrix, (1, 0, 0))


class TestObservables:
    def test_constant_cylinder(self, markov):
        obs = systems.cylinder_observable(0, {(0,): 3.5, (1,): 3.5})
        p = window_point(markov, 5, 2)
        assert systems.evaluate(obs, p) == 3.5

    def test_zero_frequency_trig(self, cat):
        obs = systems.trig_observable([((0, 0), 1.0, 0.25)])
        p = systems.sample_torus_point(cat, 6)
        assert systems.evaluate(obs, p) == pytest.approx(1.0)

    def test_cylinder_lookup(self, markov):
        obs = systems.cylinder_observable(0, {(0,): 1.0, (1,): 0.0})
        p = systems.ShiftPoint(positions=np.array([0]), symbols=np.array([1], dtype=np.int8))
        assert systems.evaluate(obs, p) == 0.0

    def test_cylinder_values_match_evaluate(self, markov):
        # One evaluator for a point and for a block of points: each value is
        # evaluate() at that origin; a word with a symbol outside the
        # alphabet never occurs.
        obs = systems.cylinder_observable(
            1, {(0, 1, 1): 2.0, (1, 0, 0): -1.0, (2, 0, 1): 9.0}, default=0.5
        )
        positions = np.arange(-20, 21)
        block = window(markov, 20, 3, np.random.default_rng(1))
        at = np.arange(-19, 20)
        factors = [(systems.word_columns(positions, 1, at), systems.cylinder_table(obs, 2))]

        def values(symbols):
            shape = symbols.shape[:-1] + at.shape
            scratch = np.empty(shape, dtype=np.intp), np.empty(shape, dtype=symbols.dtype)
            return systems.cylinder_products(
                symbols, factors, 2, np.empty(shape), np.empty(shape), scratch
            )

        got = values(block)
        assert got.shape == (3, at.size)
        for row in range(3):
            point = systems.ShiftPoint(positions, block[row])
            assert np.array_equal(values(block[row]), got[row])
            want = [systems.evaluate(obs, systems.shift_apply(point, int(t))) for t in at]
            assert got[row].tolist() == want

    def test_cylinder_table_bound(self):
        assert systems.cylinder_table_size(2, 10) == 1 << 21
        assert systems.cylinder_table_size(1 << 22, 0) == 1 << 22
        for m, radius in ((2, 11), (3, 7), ((1 << 22) + 1, 0), (2, 10 ** 9)):
            with pytest.raises(DomainError):
                systems.cylinder_table_size(m, radius)

    def test_variant_mismatch(self, markov, cat):
        obs = systems.cylinder_indicator([0])
        with pytest.raises(VariantMismatch):
            systems.evaluate(obs, systems.sample_torus_point(cat, 1))
        with pytest.raises(VariantMismatch):
            systems.exact_mean(systems.trig_cosine((1, 0)), markov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_numbers_rejected(self, bad):
        with pytest.raises(DomainError, match="cylinder default must be finite"):
            systems.cylinder_observable(0, {(0,): 1.0}, bad)
        with pytest.raises(DomainError, match="trig coefficients must be finite"):
            systems.trig_observable([((1, 0), bad, 0.0)])
        with pytest.raises(DomainError, match="trig coefficients must be finite"):
            systems.trig_observable([((0, 1), 1.0, 0.0), ((1, 0), 0.5, bad)])

    def test_non_finite_table_reported_before_default(self):
        with pytest.raises(DomainError, match="cylinder values must be finite"):
            systems.cylinder_observable(0, {(0,): np.inf}, np.nan)

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(DomainError):
            systems.trig_observable([((1, 0), 1.0, 0.0), ((1, 0), 0.5, 0.0)])


class TestExactMean:
    def test_indicator_markov(self, markov):
        assert systems.exact_mean(systems.cylinder_indicator([0]), markov) == pytest.approx(5 / 6)

    def test_trig_no_zero_frequency(self, cat):
        assert systems.exact_mean(systems.trig_cosine((1, 0)), cat) == 0.0

    def test_word_probability(self, markov):
        assert markov.word_probability([0, 0]) == pytest.approx(0.75)
        two = systems.cylinder_indicator([0, 0, 0])
        assert systems.exact_mean(two, markov) == pytest.approx((5 / 6) * 0.9 * 0.9)

    def test_centered_indicator(self, markov):
        obs = systems.centered_cylinder_indicator(markov, [0])
        assert systems.exact_mean(obs, markov) == pytest.approx(0.0, abs=1e-15)

    def test_sampling_consistency(self, markov):
        # Monte Carlo mean of a cylinder observable matches the exact mean.
        obs = systems.cylinder_observable(1, {(0, 0, 1): 2.0, (1, 0, 1): -1.0})
        rng = np.random.default_rng(11)
        windows = window(markov, 1, 10 ** 6, rng)
        lookup = {(0, 0, 1): 2.0, (1, 0, 1): -1.0}
        values = np.zeros(10 ** 6)
        for word, value in lookup.items():
            mask = np.all(windows == np.array(word, dtype=np.int8), axis=1)
            values[mask] = value
        exact = systems.exact_mean(obs, markov)
        se = values.std(ddof=1) / 1000.0
        assert abs(values.mean() - exact) <= 4 * se

    def test_disjoint_product_independence(self, bernoulli):
        # Product of indicators with disjoint windows under the product
        # measure has mean equal to the product of means.
        left = systems.cylinder_indicator([1])
        product = systems.cylinder_observable(1, {(1, s, 1): 1.0 for s in (0, 1)})
        mean_left = systems.exact_mean(left, bernoulli)
        assert systems.exact_mean(product, bernoulli) == pytest.approx(mean_left ** 2)


# ---------------------------------------------------------------------------
# Path kernel against the per-symbol reference loop
# ---------------------------------------------------------------------------

def _rows_of(slabs):
    """The rows of an iterator of row slabs, each copied as it comes: term
    generator calls and ``sample_rows`` reuse their slab arrays."""
    return np.concatenate([slab.copy() for slab in slabs])


def _reference_at(system, positions, count, seed):
    """Sequences at sorted distinct positions by a ``bisect`` per symbol.

    The first position is drawn from the stationary vector and each later
    one from row P^g[previous] for gap g.  Column-major draw order: uniform
    c * count + j resolves position c of sequence j.
    """
    positions = [int(p) for p in positions]
    u = np.random.default_rng(seed).random((len(positions), count))  # seed may be a Generator
    pi = list(np.cumsum(system.stationary)[:-1])
    rows = {}
    for g in {b - a for a, b in zip(positions, positions[1:])}:
        rows[g] = [list(np.cumsum(row)[:-1]) for row in system.transition_power(g)]
    out = np.empty((count, len(positions)), dtype=np.int64)
    for j in range(count):
        state = bisect.bisect_right(pi, u[0, j])
        out[j, 0] = state
        for c in range(1, len(positions)):
            state = bisect.bisect_right(rows[positions[c] - positions[c - 1]][state], u[c, j])
            out[j, c] = state
    return out


def _reference_windows(system, radius, count, seed):
    return _reference_at(system, range(-radius, radius + 1), count, seed)


def _reference_terms(spec, master_seed, point_indices, ks, role=ROLE_TERMS):
    """Row j: the factor products on one sequence drawn by ``_reference_at``
    from ``rng_for(master_seed, role, j)`` at every position the factors
    read for these ks."""
    terms = generate(spec.sequence, int(max(ks)))
    values = [int(terms[k - 1]) for k in ks]
    factors = [
        (m, obs, range(-obs.radius, obs.radius + 1))
        for m, obs in zip(spec.multipliers, spec.observables)
    ]
    positions = sorted({m * r + d for m, _, reach in factors for r in values for d in reach})
    column = {p: c for c, p in enumerate(positions)}
    out = np.empty((len(point_indices), len(ks)))
    for row, j in enumerate(point_indices):
        rng = rng_for(master_seed, role, int(j))
        path = _reference_at(spec.system, positions, 1, rng)[0]
        for col, r in enumerate(values):
            value = 1.0
            for m, obs, reach in factors:
                word = tuple(int(path[column[m * r + d]]) for d in reach)
                value *= obs.table.get(word, obs.default)
            out[row, col] = value
    return out


CHAINS = {
    "bernoulli2": lambda: systems.bernoulli_system([0.5, 0.5]),
    "bernoulli3": lambda: systems.bernoulli_system([0.2, 0.3, 0.5]),
    "markov": lambda: systems.build_shift(ONES, MARKOV),
    "golden": lambda: systems.build_shift([[1, 1], [1, 0]], [[0.6, 0.4], [1.0, 0.0]]),
    "three_with_zeros": lambda: systems.build_shift(
        [[1, 1, 0], [0, 1, 1], [1, 1, 1]],
        [[0.3, 0.7, 0.0], [0.0, 0.4, 0.6], [0.2, 0.2, 0.6]],
    ),
    # Runs from different states never merge under shared uniforms, so a
    # block entered from the wrong state shows in the output.
    "slow_cycle": lambda: systems.build_shift(
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        [[0.05, 0.95, 0.0], [0.0, 0.05, 0.95], [0.95, 0.0, 0.05]],
    ),
}


@pytest.fixture(scope="module", params=sorted(CHAINS))
def chain(request):
    return CHAINS[request.param]()


class TestPathKernel:
    # Radii 1001 and 5000 do not divide into the kernel's blocks; 70001
    # spans two slabs of uniforms for a single window.
    @pytest.mark.parametrize(
        "radius, count",
        [(0, 1), (0, 17), (1, 1), (1, 2), (1, 17), (7, 2), (1001, 1), (1001, 2),
         (5000, 17), (70001, 1)],
    )
    def test_windows_match_reference(self, chain, radius, count):
        got = window(chain, radius, count, np.random.default_rng(radius + count))
        assert got.dtype == np.int8
        want = _reference_windows(chain, radius, count, radius + count)
        assert np.array_equal(got, want)

    def test_ties_resolve_like_bisect_right(self, chain):
        # A uniform equal to a threshold draws the next symbol up: #{t <= u},
        # with each column stepping by its own table of P^g.
        gaps = (1, 2, 5)
        tables = np.stack([systems._thresholds(chain.transition_power(g)) for g in gaps])
        rng = np.random.default_rng(5)
        u = rng.random((3, 2000))
        which = rng.integers(0, len(gaps), size=u.shape[1])
        ties = rng.random(u.shape) < 0.5
        u[ties] = rng.choice(tables.ravel(), size=int(ties.sum()))
        start = np.array([0, 1, chain.alphabet_size - 1])
        got = systems._markov_path(tables, which, start, u, np.empty(u.shape, dtype=np.int8))
        for row in range(3):
            state, want = start[row], []
            for x, k in zip(u[row], which):
                state = bisect.bisect_right(list(tables[k, state]), x)
                want.append(state)
            assert got[row].tolist() == want

    @pytest.mark.parametrize("name", ["markov", "three_with_zeros"])
    def test_wide_batch_matches_reference(self, name):
        # Wider than a slab: uniforms are drawn one column at a time.
        system = CHAINS[name]()
        count = (1 << 16) + 3
        got = window(system, 2, count, np.random.default_rng(3))
        assert np.array_equal(got, _reference_windows(system, 2, count, 3))

    def test_single_window_draws_one_stream(self, chain):
        point = window_point(chain, 300, 21)
        want = _reference_windows(chain, 300, 1, 21)[0]
        assert np.array_equal(point.symbols, want)
        # An orbit's point is one sequence drawn from its own stream at the
        # positions it reads, and its terms are the factor products there.
        spec = averages.AverageSpec(
            system=chain,
            observables=(systems.cylinder_indicator([0, 1, 0]), systems.cylinder_indicator([1])),
            multipliers=(1, -2),
            sequence=SequenceSpec(kind="primes"),
            n_max=200,
        )
        series, symbols = averages.orbit_series(averages.orbit_tasks(spec, 21, 4)[3])
        ks = np.arange(1, 201)
        sums = np.cumsum(_reference_terms(spec, 21, [3], ks, ROLE_POINT)[0])
        assert [a_n for _, a_n, _ in series.entries] == [
            float(sums[n - 1]) / n for n, _, _ in series.entries
        ]
        assert symbols == spec.resolve(ks)[0].size

    def test_large_alphabet_dtype(self):
        system = systems.bernoulli_system(np.full(130, 1 / 130))
        got = window(system, 40, 3, np.random.default_rng(8))
        assert got.dtype == np.int64
        assert np.array_equal(got, _reference_windows(system, 40, 3, 8))

    @pytest.mark.parametrize("multipliers", [(1, 2), (-1, 3)])
    @pytest.mark.parametrize("kind", ["linear", "primes"])
    def test_term_generator_matches_reference(self, chain, multipliers, kind):
        left = systems.cylinder_observable(1, {(0, 1, 0): 1.5, (1, 1, 0): -0.5}, default=0.25)
        right = systems.cylinder_indicator([1])
        spec = averages.AverageSpec(
            system=chain,
            observables=(left, right),
            multipliers=multipliers,
            sequence=SequenceSpec(kind=kind),
            n_max=64,
        )
        generator = averages.product_term_generator(spec, master_seed=91)
        points = np.array([0, 5, 2, 11])
        for ks in (np.arange(1, 65), np.arange(20, 41), np.arange(1, 2)):
            got = _rows_of(generator(points, ks))
            assert np.array_equal(got, _reference_terms(spec, 91, points, ks))

    def test_term_chunks_match_one_shot(self):
        # 150 rows of 1000 terms come in slabs of 65 rows, the last one
        # partial; the reference samples each row on its own and looks up
        # each word by itself. Non-dyadic values make the products inexact.
        chain = systems.build_shift([[1, 1], [1, 1]], [[0.9, 0.1], [0.1, 0.9]])
        left = systems.cylinder_observable(1, {(1, 0, 1): 0.37, (0, 1, 1): -1.3}, default=0.1)
        right = systems.cylinder_observable(0, {(0,): 0.37}, default=-1.3)
        spec = averages.AverageSpec(
            system=chain,
            observables=(left, right),
            multipliers=(1, 3),
            sequence=SequenceSpec(kind="primes"),
            n_max=1000,
        )
        points, ks = np.arange(150), np.arange(1, 1001)
        assert points.size % (systems.SLAB_ITEMS // ks.size) == 20
        want = _reference_terms(spec, 23, points, ks)
        got = _rows_of(averages.product_term_generator(spec, master_seed=23)(points, ks))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("multipliers", [(1, 2), (1, -2)])
    def test_rows_of_do_not_depend_on_other_points(self, chain, multipliers):
        obs = systems.centered_cylinder_indicator(chain, [1])
        spec = averages.AverageSpec(
            system=chain,
            observables=(obs, obs),
            multipliers=multipliers,
            sequence=SequenceSpec(kind="primes"),
            n_max=256,
        )
        generator = averages.product_term_generator(spec, master_seed=4)
        ks = np.arange(1, 257)
        full = _rows_of(generator(np.arange(6), ks))
        # Subsets, other orders, a repeated point and one single point.
        for points in ([5, 0, 3], [2], [4, 1, 1, 5]):
            assert np.array_equal(_rows_of(generator(np.array(points), ks)), full[points])


# ---------------------------------------------------------------------------
# Sparse sampling at the positions that are read
# ---------------------------------------------------------------------------

# Gaps from 1 to 10^4 on both sides of 0; a random set; one position.
POSITION_SETS = {
    "mixed_gaps": [-3, 0, 1, 2, 10, 11, 1011, 11011],
    "random": sorted(set(np.random.default_rng(77).integers(-10 ** 4, 10 ** 4, 300).tolist())),
    "single": [7],
}


class TestSampleAt:
    @pytest.mark.parametrize("name", sorted(POSITION_SETS))
    @pytest.mark.parametrize("count", [1, 17])
    def test_matches_reference(self, chain, name, count):
        positions = POSITION_SETS[name]
        got = systems.sample_at(chain, positions, count, np.random.default_rng(count))
        assert got.dtype == np.int8
        assert np.array_equal(got, _reference_at(chain, positions, count, count))

    def test_wide_batch_matches_reference(self, chain):
        # Wider than a slab: one position per draw.
        positions = [-1, 0, 5, 10 ** 4]
        count = (1 << 16) + 3
        got = systems.sample_at(chain, positions, count, np.random.default_rng(4))
        assert np.array_equal(got, _reference_at(chain, positions, count, 4))

    def test_long_sequence_with_many_gaps(self, chain):
        # 70001 positions span two slabs of uniforms, and the blocked path
        # steps every column by the table of its own gap.
        positions = np.cumsum(np.random.default_rng(3).integers(1, 40, 70001)) - 1000
        got = systems.sample_at(chain, positions, 1, np.random.default_rng(6))
        assert np.array_equal(got, _reference_at(chain, positions, 1, 6))

    def test_rejects_unsorted_or_repeated_positions(self, markov):
        for positions in ([0, 0, 1], [3, 1], [[0, 1]]):
            with pytest.raises(DomainError):
                systems.sample_at(markov, positions, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["markov", "golden", "three_with_zeros", "slow_cycle"])
    def test_law_matches_transfer_oracle(self, name):
        # Joint word frequencies at sampled gaps lie within 4 standard
        # errors of the exact transfer oracle, which steps P one position
        # at a time; a word the oracle gives probability 0 never occurs.
        from ergolab import correlations as co

        system = CHAINS[name]()
        positions = [-7, 0, 3, 250]
        n = 200_000
        symbols = systems.sample_at(system, positions, n, np.random.default_rng(12))
        m = system.alphabet_size
        for i, j in [(0, 1), (1, 2), (0, 3), (2, 3)]:
            for word in np.ndindex(m, m):
                query = co.CorrelationQuery(
                    system=system,
                    observables=tuple(systems.cylinder_indicator([s]) for s in word),
                    times=(positions[i], positions[j]),
                )
                exact = co.exact_correlation_shift(query)
                freq = float(((symbols[:, i] == word[0]) & (symbols[:, j] == word[1])).mean())
                if exact == 0.0:
                    assert freq == 0.0
                else:
                    assert abs(freq - exact) <= 4 * np.sqrt(exact * (1 - exact) / n)

    def test_unsampled_position_is_exhausted(self, markov):
        f = systems.cylinder_indicator([0])
        spec = averages.AverageSpec(
            system=markov,
            observables=(f, f),
            multipliers=(1, 2),
            sequence=SequenceSpec(kind="primes"),
            n_max=64,
        )
        positions = spec.resolve(np.arange(1, 65))[0]
        symbols = systems.sample_at(markov, positions, 1, rng_for(5, ROLE_POINT, 0))[0]
        point = systems.ShiftPoint(positions, symbols)
        assert {2, 3, 4, 6, 7}.issubset(point.positions.tolist())
        point.symbol(4)
        for index in (1, 8, 10 ** 6):
            with pytest.raises(WindowExhausted):
                point.symbol(index)
        with pytest.raises(WindowExhausted):
            systems.shift_apply(point, 8).word(0)
        with pytest.raises(WindowExhausted):
            systems.word_columns(point.positions, 1, [3, 7], point.offset)
        wider = averages.AverageSpec(
            system=markov,
            observables=(f, f),
            multipliers=(1, 3),
            sequence=SequenceSpec(kind="primes"),
            n_max=64,
        )
        with pytest.raises(WindowExhausted):
            averages.direct_average(wider, point, 64)


class _ScriptedRng:
    """Hands out fixed uniforms in draw order, as ``Generator.random`` does."""

    def __init__(self, values):
        self.values, self.at = np.asarray(values, dtype=np.float64), 0

    def random(self, size=None, out=None):
        n = out.size if out is not None else int(np.prod(size))
        chunk = self.values[self.at:self.at + n]
        self.at += n
        if out is None:
            return chunk.reshape(size).copy()
        out[...] = chunk.reshape(out.shape)
        return out


def _radius_positions(radius, primes=200):
    """The positions radius-``radius`` factors at multipliers 1 and 2 read
    along the first ``primes`` primes."""
    terms = generate(SequenceSpec(kind="primes"), primes)
    return systems.sorted_union(m * terms[:, None] + np.arange(-radius, radius + 1) for m in (1, 2))


ROW_POSITION_SETS = dict(POSITION_SETS, radius0=_radius_positions(0), radius2=_radius_positions(2))
WIDE_CHAINS = {
    "iid130": lambda: systems.bernoulli_system(np.full(130, 1 / 130)),
    "markov130": lambda: systems.build_shift(
        np.ones((130, 130)), 0.5 * np.eye(130) + np.full((130, 130), 0.5 / 130)
    ),
}


class TestSampleRows:
    @pytest.mark.parametrize("slab_rows", [1, 7, 9, 20])
    @pytest.mark.parametrize("name", sorted(ROW_POSITION_SETS))
    def test_row_j_is_sample_at_on_stream_j(self, chain, name, slab_rows):
        # Nine rows: slabs of one row, of 7 and a partial 2, of all rows
        # and of more than all rows.  Two- and three-letter i.i.d. chains
        # resolve row by row; the others step all rows as lanes of the
        # path kernel.
        positions = ROW_POSITION_SETS[name]
        slabs = systems.sample_rows(chain, positions, [np.random.default_rng((9, j)) for j in range(9)], slab_rows)
        sizes = [slab.shape[0] for slab in slabs]
        assert sizes == [min(slab_rows, 9 - lo) for lo in range(0, 9, slab_rows)]
        got = _rows_of(systems.sample_rows(chain, positions, [np.random.default_rng((9, j)) for j in range(9)], slab_rows))
        assert got.dtype == np.int8
        for j, row in enumerate(got):
            assert np.array_equal(row, systems.sample_at(chain, positions, 1, np.random.default_rng((9, j)))[0])

    @pytest.mark.parametrize("radius", [0, 2])
    @pytest.mark.parametrize("name", sorted(WIDE_CHAINS))
    def test_large_alphabet(self, name, radius):
        system = WIDE_CHAINS[name]()
        positions = _radius_positions(radius, 24)
        want = [systems.sample_at(system, positions, 1, np.random.default_rng(j))[0] for j in range(9)]
        for slab_rows in (1, 7, 9, 20):
            rngs = [np.random.default_rng(j) for j in range(9)]
            got = _rows_of(systems.sample_rows(system, positions, rngs, slab_rows))
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
        assert got.max() > 127

    def test_first_position_reads_the_stationary_thresholds(self):
        # The computed stationary vector of the (1/3, 2/3) chain sits one
        # rounding below P's row, so a uniform at its threshold draws 1 at
        # position 0 and 0 at every later position.  Slabs of 4 rows: the
        # second slab resolves its first positions on its own.
        system = systems.bernoulli_system([1 / 3, 2 / 3])
        first = systems._thresholds(system.stationary)[0]
        assert first < systems._thresholds(system.transition)[0, 0]
        positions = [-4, 0, 1, 9]
        rows = np.random.default_rng(2).random((6, len(positions)))
        rows[::2] = first
        got = _rows_of(systems.sample_rows(system, positions, [_ScriptedRng(u) for u in rows], 4))
        assert got[0].tolist() == [1, 0, 0, 0]
        assert got[4].tolist() == [1, 0, 0, 0]
        for j, u in enumerate(rows):
            assert np.array_equal(got[j], systems.sample_at(system, positions, 1, _ScriptedRng(u))[0])

    @pytest.mark.parametrize("name, lazy", [("bernoulli2", True), ("markov", False)])
    def test_streams_taken_when_drawn(self, name, lazy):
        # An i.i.d. chain takes each slab's streams only when it makes the
        # slab; any other chain takes them all at the call, for its one
        # block.
        taken = []

        def streams():
            for j in range(10):
                taken.append(j)
                yield np.random.default_rng(j)

        slabs = systems.sample_rows(CHAINS[name](), [0, 3, 4], streams(), 4)
        assert len(taken) == (0 if lazy else 10)
        next(slabs)
        assert len(taken) == (4 if lazy else 10)
        assert sum(1 for _ in slabs) == 2
        assert len(taken) == 10

    @pytest.mark.parametrize("name", ["bernoulli2", "markov"])
    def test_rejects_unsorted_or_repeated_positions(self, name):
        system = CHAINS[name]()
        for positions in ([0, 0, 1], [3, 1], [[0, 1]]):
            with pytest.raises(DomainError):
                systems.sample_rows(system, positions, [np.random.default_rng(0)] * 2, 1)
        with pytest.raises(DomainError):
            systems.sample_rows(system, [0, 1], [np.random.default_rng(0)] * 2, 0)


class TestTransitionPower:
    def test_matches_repeated_steps(self, chain):
        want = np.eye(chain.alphabet_size)
        for gap in range(1, 1001):
            want = want @ chain.transition
            if gap in (1, 2, 3, 7, 64, 1000):
                assert np.allclose(chain.transition_power(gap), want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("gap", [2, 3, 12, 10 ** 6, 10 ** 15, 2 ** 62 + 12345])
    def test_exact_at_any_gap(self, markov, gap):
        # P^g = 1 pi + 0.4^g (I - 1 pi); unnormalized rows drift as (1 + eps)^g.
        limit = np.outer(np.ones(2), [5 / 6, 1 / 6])
        want = limit + 0.4 ** gap * (np.eye(2) - limit)
        assert np.abs(markov.transition_power(gap) - want).max() <= 1e-15

    def test_bits_do_not_depend_on_order(self):
        first = CHAINS["three_with_zeros"]()
        second = CHAINS["three_with_zeros"]()
        for gap in (2, 5, 1000, 7):
            first.transition_power(gap)
        assert np.array_equal(first.transition_power(7), second.transition_power(7))
        assert first.transition_power(7) is first.transition_power(7)

    def test_support_zeros_stay_exact(self):
        golden = CHAINS["golden"]()
        assert golden.transition_power(1)[1, 1] == 0.0
        assert (golden.transition_power(2) > 0).all()

    def test_gap_below_one_rejected(self, markov):
        with pytest.raises(DomainError):
            markov.transition_power(0)



def _validated_values():
    """One instance of each class that validates its arguments, with one
    of its attributes."""
    from ergolab import correlations, dyadic, matrix_growth, sequences

    shift = systems.bernoulli_system([0.5, 0.5])
    f = systems.cylinder_indicator([1])
    linear = SequenceSpec("linear")
    return [
        (shift, "transition"),
        (systems.build_torus([[2, 1], [1, 1]], precision_bits=8), "matrix"),
        (systems.TorusPoint((3, 5), 8), "coords"),
        (f, "table"),
        (correlations.CorrelationQuery(shift, (f, f), (0, 2)), "times"),
        (averages.AverageSpec(shift, (f,), (1,), linear, 8), "n_max"),
        (linear, "kind"),
        (matrix_growth.CommutingPair(np.eye(2), 2 * np.eye(2)), "g"),
        (dyadic.DyadicInterval(2, 1), "level"),
        (sequences.CountingReport("b-row", 1.0, True, 1, None, 1), "grid"),
    ]


VALIDATED = _validated_values()


@pytest.mark.parametrize("value, attr", VALIDATED, ids=[type(v).__name__ for v, _ in VALIDATED])
def test_validated_values_are_read_only(value, attr):
    before = getattr(value, attr)
    for change in (lambda: setattr(value, attr, None), lambda: delattr(value, attr)):
        with pytest.raises(AttributeError, match="is read-only"):
            change()
    with pytest.raises(AttributeError, match="is read-only"):
        value.extra = 1
    assert getattr(value, attr) is before
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and sorted(vars(copy)) == sorted(vars(value))


def test_cached_properties_and_interval_order():
    from ergolab import correlations, dyadic

    shift = systems.bernoulli_system([0.5, 0.5])
    f = systems.cylinder_indicator([1])
    query = correlations.CorrelationQuery(shift, (f, f), (0, 2))
    spec = averages.AverageSpec(shift, (f,), (1,), SequenceSpec("linear"), 8)
    assert query.plan is query.plan and spec.terms is spec.terms
    blocks = [dyadic.DyadicInterval(1, 0), dyadic.DyadicInterval(0, 3), dyadic.DyadicInterval(0, 1)]
    assert sorted(blocks) == [blocks[2], blocks[1], blocks[0]]
    assert len({dyadic.DyadicInterval(0, 1), blocks[2]}) == 1
    assert blocks[0] != (1, 0)
