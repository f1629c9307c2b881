"""Averages: rate scale, streaming, rate statistics, ensembles."""

import math

import numpy as np
import pytest

from ergolab import averages, correlations as co, sequences, systems
from ergolab.averages import AverageSpec, ergodic_average_stream, rate_statistic, rho
from ergolab.errors import DomainError, VariantMismatch, WindowExhausted
from ergolab.seeding import ROLE_POINT, ROLE_TERMS, rng_for
from ergolab.sequences import SequenceSpec

MARKOV = [[0.9, 0.1], [0.5, 0.5]]


@pytest.fixture(scope="module")
def markov():
    return systems.build_shift([[1, 1], [1, 1]], MARKOV)


@pytest.fixture(scope="module")
def bernoulli():
    return systems.bernoulli_system([0.5, 0.5])


@pytest.fixture(scope="module")
def cat():
    return systems.build_torus([[2, 1], [1, 1]], 64)


def make_spec(system, observables, multipliers, n_max, kind="linear"):
    return AverageSpec(
        system=system,
        observables=tuple(observables),
        multipliers=tuple(multipliers),
        sequence=SequenceSpec(kind=kind),
        n_max=n_max,
    )


def _rows_of(slabs):
    """The rows of an iterator of row slabs, each copied as it comes: term
    generator calls and ``sample_rows`` reuse their slab arrays."""
    return np.concatenate([slab.copy() for slab in slabs])


def _orbit(spec, seed, index):
    """Point ``index``'s checkpoint series on the ensemble path, as
    ``average`` and ``ratecheck`` stream it."""
    return averages.orbit_series(averages.orbit_tasks(spec, seed, index + 1)[index])[0]


def _point(spec, seed, index):
    """The point ``orbit_series`` streams for ``index``: on a shift, one
    sequence drawn from its ``ROLE_POINT`` stream at the positions the
    orbit reads up to n_max."""
    rng = rng_for(seed, ROLE_POINT, index)
    if isinstance(spec.system, systems.TorusAutomorphism):
        return systems.sample_torus_point(spec.system, rng)
    positions = spec.resolve(np.arange(1, spec.n_max + 1))[0]
    return systems.ShiftPoint(positions, systems.sample_at(spec.system, positions, 1, rng)[0])


def _torus_values(spec, point):
    terms = sequences.generate(spec.sequence, spec.n_max)
    positions = np.asarray(spec.multipliers, dtype=np.int64)[:, None] * terms[None, :]
    return averages._factor_values_torus(spec, point, positions)


def _reference_torus_values(spec, point):
    """Each term by scalar ``evaluate`` at ``torus_apply_power`` images."""
    terms = sequences.generate(spec.sequence, spec.n_max)
    out = []
    for r in terms.tolist():
        prod = 1.0
        for obs, m in zip(spec.observables, spec.multipliers):
            prod *= systems.evaluate(obs, systems.torus_apply_power(spec.system, point, m * r))
        out.append(prod)
    return out


class TestRho:
    def test_fast_regime_value(self):
        # delta > 1: N^(-1/2) (ln N)^(3/2 + eps); at N=100, eps=0.5 the log
        # power is 2, giving 0.1 * ln(100)^2.
        assert rho(100, 0.5, 2.0) == pytest.approx(0.1 * math.log(100) ** 2)
        assert rho(100, 0.5, 2.0) == pytest.approx(2.1207592, rel=1e-6)

    def test_slow_regime_value(self):
        assert rho(10 ** 4, 0.25, 1.0) == pytest.approx(0.1)

    def test_decreasing_on_dyadic_grid(self):
        # Strictly decreasing once ln N > 3 + 2 eps; at eps = 1 that is
        # N > e^5 ~ 148, so check the dyadic grid from 2^8 on.
        values = [rho(1 << j, 1.0, 2.0) for j in range(8, 24)]
        assert all(b < a for a, b in zip(values, values[1:]))
        small = [rho(1 << j, 0.1, 2.0) for j in range(5, 24)]  # e^3.2 ~ 25
        assert all(b < a for a, b in zip(small, small[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            rho(1, 0.5, 2.0)
        with pytest.raises(DomainError):
            rho(100, -0.1, 2.0)
        with pytest.raises(DomainError):
            rho(100, 0.5, 0.0)


class TestSpecValidation:
    def test_duplicate_multipliers(self, bernoulli):
        f = systems.cylinder_indicator([0])
        with pytest.raises(DomainError):
            make_spec(bernoulli, [f, f], (2, 2), 16)

    def test_zero_multiplier(self, bernoulli):
        f = systems.cylinder_indicator([0])
        with pytest.raises(DomainError):
            make_spec(bernoulli, [f], (0,), 16)

    def test_variant_checked(self, bernoulli):
        with pytest.raises(VariantMismatch):
            make_spec(bernoulli, [systems.trig_cosine((1, 0))], (1,), 16)

    @pytest.mark.parametrize("checkpoints", [(), (1,), (0, 4, 16), (-3, 4, 16), (4, 2), (2, 32)])
    def test_bad_checkpoints(self, bernoulli, checkpoints):
        spec = make_spec(bernoulli, [systems.cylinder_indicator([0])], (1,), 16)
        fields = (spec.system, spec.observables, spec.multipliers, spec.sequence, spec.n_max)
        with pytest.raises(DomainError):
            AverageSpec(*fields, checkpoints=checkpoints)

    def test_checkpoint_schedule(self, bernoulli):
        f = systems.cylinder_indicator([0])
        spec = make_spec(bernoulli, [f], (1,), 100)
        schedule = spec.checkpoint_schedule()
        assert schedule[0] == 1 and schedule[-1] == 100
        assert 64 in schedule and 128 not in schedule

    def test_read_positions(self, bernoulli):
        f = systems.cylinder_observable(3, {})
        spec = AverageSpec(
            system=bernoulli,
            observables=(f, systems.cylinder_indicator([0])),
            multipliers=(1, -2),
            sequence=SequenceSpec(kind="polynomial", coefficients=(0, 0, 1)),
            n_max=1 << 10,
        )
        want = {n * n + j for n in range(1, 1025) for j in range(-3, 4)}
        want |= {-2 * n * n for n in range(1, 1025)}
        assert spec.resolve(np.arange(1, 1025))[0].tolist() == sorted(want)

    def test_read_positions_fit_int64(self, bernoulli):
        spec = AverageSpec(
            system=bernoulli,
            observables=(systems.cylinder_indicator([0]),),
            multipliers=(4,),
            sequence=SequenceSpec(kind="explicit", values=(1, 1 << 60)),
            n_max=2,
        )
        with pytest.raises(DomainError):
            spec.resolve([1, 2])


class TestStream:
    def test_constant_factor(self, markov):
        obs = systems.cylinder_observable(0, {(0,): 2.0, (1,): 2.0})
        spec = make_spec(markov, [obs], (1,), 64)
        series = _orbit(spec, 0, 0)
        for n, a_n, s_n in series.entries:
            assert a_n == pytest.approx(2.0)
            assert s_n == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_coordinates_have_zero_mean(self, bernoulli):
        # With multipliers (1, 2) and r_n = n the two factors read distinct
        # coordinates for every n, so each term has exact mean zero.
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        for n in (1, 2, 5, 9):
            value = co.exact_correlation_shift(
                co.CorrelationQuery(
                    system=bernoulli, observables=(f, f), times=(n, 2 * n)
                )
            )
            assert abs(value) <= 1e-15

    def test_stream_matches_direct(self, markov):
        f = systems.cylinder_observable(1, {(0, 0, 1): 1.0, (1, 0, 0): -2.0})
        g = systems.cylinder_indicator([0])
        spec = AverageSpec(
            system=markov,
            observables=(f, g),
            multipliers=(1, -2),
            sequence=SequenceSpec(kind="primes"),
            n_max=1 << 10,
        )
        series = _orbit(spec, 3, 0)
        direct = averages.direct_average(spec, _point(spec, 3, 0), 1 << 10)
        assert series.entries[-1][1] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("multipliers", [(1, 2), (1, -2)])
    @pytest.mark.parametrize("radius", [0, 1])
    @pytest.mark.parametrize("system", ["bernoulli", "markov"])
    def test_point_rows_match_direct(self, request, system, radius, multipliers):
        # Each ensemble point's row, summed, is the oracle's average of the
        # point drawn from its ROLE_POINT stream, bit for bit at every
        # checkpoint; non-dyadic values make the products inexact.
        chain = request.getfixturevalue(system)
        word = (1, 0, 1)[: 2 * radius + 1]
        f = systems.cylinder_observable(radius, {word: 0.37}, default=-1.3)
        g = systems.centered_cylinder_indicator(chain, [0])
        spec = AverageSpec(
            system=chain,
            observables=(f, g),
            multipliers=multipliers,
            sequence=SequenceSpec(kind="primes"),
            n_max=256,
        )
        for task in averages.orbit_tasks(spec, 41, 2):
            series, symbols = averages.orbit_series(task)
            point = _point(spec, 41, task[3])
            assert symbols == point.positions.size
            for n, a_n, _ in series.entries:
                assert a_n == averages.direct_average(spec, point, n)

    def test_torus_stream_matches_direct(self, cat):
        f = systems.trig_observable([((1, 0), 1.0, 0.5), ((0, 1), -0.25, 0.0)])
        spec = make_spec(cat, [f], (1,), 128)
        point = _point(spec, 4, 0)
        series = ergodic_average_stream(spec, point)
        assert series.entries[-1][1] == pytest.approx(
            averages.direct_average(spec, point, 128), rel=1e-12
        )

    def test_centered_identity(self, markov):
        f = systems.cylinder_indicator([0])
        spec = make_spec(markov, [f], (1,), 512)
        series = _orbit(spec, 7, 0)
        for n, a_n, s_n in series.entries:
            assert s_n == pytest.approx(n * (a_n - series.target), rel=1e-12, abs=1e-12)

    def test_checkpoints_strictly_increase(self, markov):
        f = systems.cylinder_indicator([0])
        spec = make_spec(markov, [f], (1,), 100)
        ns = [n for n, _, _ in _orbit(spec, 1, 0).entries]
        assert all(b > a for a, b in zip(ns, ns[1:]))

    def test_multiplier_permutation(self, bernoulli):
        f = systems.cylinder_indicator([1])
        g = systems.centered_cylinder_indicator(bernoulli, [0])
        spec_a = make_spec(bernoulli, [f, g], (1, 3), 128)
        spec_b = make_spec(bernoulli, [g, f], (3, 1), 128)
        # Both read the same positions, so their points are one sequence.
        assert _orbit(spec_a, 9, 0).entries == _orbit(spec_b, 9, 0).entries

    def test_window_exhausted(self, markov):
        f = systems.cylinder_indicator([0])
        spec = make_spec(markov, [f], (1,), 64)
        positions = np.arange(-10, 11)
        symbols = systems.sample_at(markov, positions, 1, np.random.default_rng(0))[0]
        point = systems.ShiftPoint(positions=positions, symbols=symbols)
        with pytest.raises(WindowExhausted):
            averages.direct_average(spec, point, 64)
        # A shift orbit is not streamed from a point: its terms are a row
        # of the term generator.
        with pytest.raises(VariantMismatch):
            ergodic_average_stream(spec, point)

    def test_polynomial_stream_needs_no_cap(self, cat):
        # r_n = n^2 + 1: every gap between exponents is new, which filled
        # the exponent cache of earlier versions; the orbit walk has no cap.
        f = systems.trig_observable([((1, 0), 1.0, 0.5), ((2, -3), 0.0, -1.0)])
        spec = AverageSpec(
            system=cat,
            observables=(f,),
            multipliers=(1,),
            sequence=SequenceSpec(kind="polynomial", coefficients=(1, 0, 1)),
            n_max=400,
        )
        point = _point(spec, 0, 0)
        assert _torus_values(spec, point).tolist() == _reference_torus_values(spec, point)
        series = ergodic_average_stream(spec, point)
        assert series.entries[-1][1] == pytest.approx(
            averages.direct_average(spec, point, 400), rel=1e-12
        )

    @pytest.mark.parametrize(
        "kind, coefficients, multipliers",
        [
            ("linear", (), (1, 2)),
            ("primes", (), (1, -2)),
            ("polynomial", (0, 1, 1), (3, 1)),
            ("linear", (), (-1, 2, -3)),
        ],
    )
    @pytest.mark.parametrize("bits", [64, 128])
    def test_torus_values_match_reference(self, kind, coefficients, multipliers, bits):
        auto = systems.build_torus([[2, 1], [1, 1]], bits)
        pool = [
            systems.trig_observable([((-2, -1), 1.0, 0.0)]),
            systems.trig_observable([((1, 0), 0.5, 1.5), ((0, 0), 0.25, 0.0)]),
            systems.trig_observable([((3, -7), -1.0, 0.75), ((-1, -4), 0.0, 2.0)]),
        ]
        spec = AverageSpec(
            system=auto,
            observables=tuple(pool[: len(multipliers)]),
            multipliers=multipliers,
            sequence=SequenceSpec(kind=kind, coefficients=coefficients),
            n_max=150,
        )
        point = _point(spec, bits, 1)
        assert _torus_values(spec, point).tolist() == _reference_torus_values(spec, point)

    def test_markov_birkhoff_concentration(self, markov):
        # CLT scale: |A_N - 5/6| < 0.01 at N = 2^14 for >= 95% of seeds.
        f = systems.cylinder_indicator([0])
        spec = make_spec(markov, [f], (1,), 1 << 14)
        hits = 0
        for seed in range(100):
            series = _orbit(spec, seed, seed)
            if abs(series.entries[-1][1] - 5 / 6) < 0.01:
                hits += 1
        assert hits >= 95


def log_log_slope(table) -> float:
    """Least-squares slope of log statistic against log N over the rows
    with a positive statistic."""
    ns, values = np.array([row for row in table if row[1] > 0.0]).T
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


class TestRateStatistic:
    def test_constant_observable_zero(self, markov):
        obs = systems.cylinder_observable(0, {(0,): 1.0, (1,): 1.0})
        spec = make_spec(markov, [obs], (1,), 256)
        series = _orbit(spec, 0, 0)
        table = rate_statistic(series, 1.0, 2.0)
        assert all(v == 0.0 for _, v in table)

    def test_centered_slope_negative_majority(self, bernoulli):
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        spec = make_spec(bernoulli, [f], (1,), 1 << 14)
        negative = 0
        for seed in range(15):
            series = _orbit(spec, seed, seed)
            table = rate_statistic(series, 1.0, 2.0)
            if log_log_slope(table) < 0:
                negative += 1
        assert negative > 7

    def test_biased_target_positive_slope(self, markov):
        # A constant bias dominates: the statistic tracks 0.1 / rho(N),
        # which grows once past the rate scale's initial hump.
        f = systems.cylinder_indicator([0])
        spec = AverageSpec(
            system=markov,
            observables=(f,),
            multipliers=(1,),
            sequence=SequenceSpec(kind="linear"),
            n_max=1 << 15,
            checkpoints=tuple(1 << j for j in range(8, 16)),
        )
        series = _orbit(spec, 2, 0)
        table = rate_statistic(series._replace(target=series.target + 0.1), 1.0, 2.0)
        assert log_log_slope(table) > 0


def trends_of(spec, point_count, seed, min_checkpoint=None):
    """``ergolab run ratecheck``'s trends of an ensemble at epsilon 1 and
    delta 2."""
    _, tables, _ = averages.ensemble(spec, point_count, 1.0, 2.0, seed)
    return averages.rate_trends(tables, min_checkpoint)


class TestEnsemble:
    def test_constant_fractions_zero(self, markov):
        obs = systems.cylinder_observable(0, {(0,): 1.0, (1,): 1.0})
        spec = make_spec(markov, [obs], (1,), 64)
        summary = trends_of(spec, 10, seed=5)
        assert all(f == 0.0 for f in summary["fractions_above_own"])
        assert all(m == 0.0 for m in summary["medians"])

    def test_min_checkpoint_filter(self, bernoulli):
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        spec = make_spec(bernoulli, [f], (1,), 256)
        summary = trends_of(spec, 10, seed=5, min_checkpoint=32)
        assert summary["checkpoints"][0] == 32
        assert summary["reference_checkpoint"] == 32
        assert summary["fractions_above_own"][0] == 0.0

    def test_determinism(self, bernoulli):
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        spec = make_spec(bernoulli, [f], (1,), 128)
        a = averages.ensemble(spec, 12, 1.0, 2.0, seed=8)
        b = averages.ensemble(spec, 12, 1.0, 2.0, seed=8)
        assert a[1] == b[1]

    @pytest.mark.parametrize("points", [1, 2, 10, 11, 20, 200, 201])
    def test_medians_match_numpy_median(self, points):
        # Odd and even point counts, ties (column 1), mixed scales, and a
        # column with a NaN, which np.median also reports as NaN. The ties
        # are non-negative, like rate statistics: 0.0 and -0.0 tie, and
        # either may come out.
        rng = np.random.default_rng(points)
        values = rng.standard_normal((points, 5)) * rng.exponential(size=(points, 5))
        values[:, 1] = np.abs(np.round(values[:, 1]))
        want = np.median(values, axis=0)
        assert averages.medians_of_columns(values).tobytes() == want.tobytes()
        values[points // 2, 3] = np.nan
        got = averages.medians_of_columns(values)
        assert np.isnan(got[3])
        assert np.array_equal(got, np.median(values, axis=0), equal_nan=True)

    def test_one_generate_call_per_spec(self, bernoulli, monkeypatch):
        # The read positions and every orbit's stream share one set of terms.
        calls = []
        original = averages.generate

        def counting(spec, count):
            calls.append(count)
            return original(spec, count)

        monkeypatch.setattr(averages, "generate", counting)
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        spec = make_spec(bernoulli, [f], (1,), 1024, kind="primes")
        trends_of(spec, 20, seed=3)
        assert calls == [1024]

    def test_point_count_floor(self, bernoulli):
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        spec = make_spec(bernoulli, [f], (1,), 64)
        with pytest.raises(DomainError):
            trends_of(spec, 5, seed=1)

    @pytest.mark.parametrize("kind", ["linear", "primes"])
    def test_fraction_trend_over_last_checkpoints(self, bernoulli, kind):
        # The per-point exceedance fraction drifts down as the statistic
        # shrinks; allow one ensemble point of jitter at this resolution.
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        g = systems.centered_cylinder_indicator(bernoulli, [0])
        spec = AverageSpec(
            system=bernoulli,
            observables=(f, g),
            multipliers=(1, 2),
            sequence=SequenceSpec(kind=kind),
            n_max=1 << 11,
        )
        summary = trends_of(spec, 60, seed=17, min_checkpoint=16)
        tolerance = 1.0 / summary["point_count"]
        tail = summary["fractions_above_own"][-3:]
        assert all(b <= a + tolerance for a, b in zip(tail, tail[1:]))


class TestTermGenerator:
    def test_matches_streamed_products(self, bernoulli):
        self.check_streamed_products(bernoulli, (1, 2))

    @pytest.mark.parametrize("multipliers", [(1, 2, 3), (2, -1, 3)], ids=["l3", "l3-negative"])
    @pytest.mark.parametrize("system", ["bernoulli", "markov"])
    def test_matches_streamed_products_at_three_factors(self, request, system, multipliers):
        self.check_streamed_products(request.getfixturevalue(system), multipliers)

    @staticmethod
    def check_streamed_products(system, multipliers):
        words = ([1], [0], [1])[: len(multipliers)]
        factors = [systems.centered_cylinder_indicator(system, w) for w in words]
        spec = make_spec(system, factors, multipliers, 64)
        generator = averages.product_term_generator(spec, master_seed=33)
        ks = np.arange(1, 65, dtype=np.int64)
        first = _rows_of(generator(np.array([0, 1]), ks))
        again = _rows_of(generator(np.array([0, 1]), ks))
        assert np.array_equal(first, again)
        # Row j is the orbit of the point sampled from row j's stream at the
        # positions the spec reads up to n_max = 64, term by term.
        positions = spec.resolve(ks)[0]
        for j, row in enumerate(first):
            symbols = systems.sample_at(system, positions, 1, rng_for(33, ROLE_TERMS, j))[0]
            point = systems.ShiftPoint(positions, symbols)
            sums = np.cumsum(row)
            for n in spec.checkpoint_schedule():
                assert float(sums[n - 1]) / n == averages.direct_average(spec, point, n)

    def test_equal_ks_resolve_once(self, bernoulli, monkeypatch):
        # Calls with equal ks share the spec's positions and word columns;
        # other ks resolve their own.
        calls = []
        original = averages.read_plan

        def counting(observables, shifts):
            calls.append(shifts[0].size)
            return original(observables, shifts)

        monkeypatch.setattr(averages, "read_plan", counting)
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        spec = make_spec(bernoulli, [f, f], (1, 2), 64)
        generator = averages.product_term_generator(spec, master_seed=5)
        ks = np.arange(1, 65, dtype=np.int64)
        first = _rows_of(generator(np.arange(3), ks))
        again = _rows_of(generator(np.arange(3), ks.copy()))
        assert calls == [64] and np.array_equal(first, again)
        _rows_of(generator(np.arange(3), ks[:32]))
        assert calls == [64, 32]

    def test_calls_share_slab_scratch(self, bernoulli):
        # A generator keeps its slab arrays across calls, so the point
        # batches of one worker allocate them once. A smaller call reuses
        # them, and its rows do not depend on what the last call left there.
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        g = systems.centered_cylinder_indicator(bernoulli, [0])
        spec = make_spec(bernoulli, [f, g], (1, 2), 64)
        generator = averages.product_term_generator(spec, master_seed=33)
        ks = np.arange(1, 65, dtype=np.int64)
        first = next(iter(generator(np.arange(4), ks)))
        second = generator(np.arange(2, 4), ks[:32])
        assert np.shares_memory(first, next(iter(second)))
        fresh = averages.product_term_generator(spec, master_seed=33)
        assert np.array_equal(
            _rows_of(generator(np.arange(2, 4), ks[:32])),
            _rows_of(fresh(np.arange(2, 4), ks[:32])),
        )

    def test_large_alphabet_symbols_do_not_wrap(self):
        # Symbol 129 does not fit an int8; a wrapped -127 would index the
        # lookup from its end and the indicator would never fire.
        system = systems.bernoulli_system(np.full(130, 1 / 130))
        spec = make_spec(system, [systems.cylinder_indicator([129])], (1,), 64)
        generator = averages.product_term_generator(spec, master_seed=130)
        block = _rows_of(generator(np.arange(400), np.arange(1, 65, dtype=np.int64)))
        p = 1 / 130
        assert abs(block.mean() - p) <= 4 * math.sqrt(p * (1 - p) / block.size)

    def test_term_values_in_product_range(self, bernoulli):
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        spec = make_spec(bernoulli, [f, f], (1, 2), 32)
        generator = averages.product_term_generator(spec, master_seed=1)
        block = _rows_of(generator(np.arange(8), np.arange(1, 33, dtype=np.int64)))
        assert np.all(np.abs(block) <= 0.25 + 1e-12)
