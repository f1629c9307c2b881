"""Sequences module: generation, multiplicity, counting conditions."""

import math

import numpy as np
import pytest

from ergolab import sequences
from ergolab.errors import DomainError, NonPositiveTerm
from ergolab.sequences import SequenceSpec, check_band_condition, check_b_condition, check_c_condition


class TestGenerate:
    def test_linear(self):
        assert sequences.generate(SequenceSpec(kind="linear"), 5).tolist() == [1, 2, 3, 4, 5]

    def test_primes(self):
        assert sequences.generate(SequenceSpec(kind="primes"), 5).tolist() == [2, 3, 5, 7, 11]

    def test_primes_bound_extension(self):
        # Small counts fall below the asymptotic sieve bound and must extend.
        terms = sequences.generate(SequenceSpec(kind="primes"), 10 ** 4)
        assert terms[-1] == 104729  # the 10000th prime

    def test_polynomial(self):
        spec = SequenceSpec(kind="polynomial", coefficients=(1, 0, 1))
        assert sequences.generate(spec, 4).tolist() == [2, 5, 10, 17]

    def test_polynomial_negative_term(self):
        spec = SequenceSpec(kind="polynomial", coefficients=(-10, 0, 1))  # n^2 - 10
        with pytest.raises(NonPositiveTerm):
            sequences.generate(spec, 4)

    def test_non_monotone_polynomial_rejected(self):
        with pytest.raises(DomainError):
            SequenceSpec(kind="polynomial", coefficients=(3, -3, 1))  # n^2 - 3n + 3

    def test_negative_leading_rejected(self):
        with pytest.raises(DomainError):
            SequenceSpec(kind="polynomial", coefficients=(0, 1, -1))

    def test_explicit_roundtrip(self):
        spec = SequenceSpec(kind="explicit", values=(1, 1, 2, 3), multiplicity_bound=2)
        assert sequences.generate(spec, 3).tolist() == [1, 1, 2]
        with pytest.raises(DomainError):
            sequences.generate(spec, 5)

    def test_explicit_multiplicity_checked(self):
        with pytest.raises(DomainError):
            SequenceSpec(kind="explicit", values=(7, 7, 7), multiplicity_bound=2)


class TestMultiplicity:
    def test_strictly_increasing(self):
        assert sequences.multiplicity([1, 4, 9, 16]) == 1

    def test_pairs(self):
        window = [(n + 1) // 2 for n in range(1, 11)]
        assert sequences.multiplicity(window) == 2

    def test_constant(self):
        assert sequences.multiplicity([7, 7, 7, 7]) == 4

    def test_generated_multiplicity_within_bound(self):
        for spec in (
            SequenceSpec(kind="linear"),
            SequenceSpec(kind="primes"),
            SequenceSpec(kind="polynomial", coefficients=(1, 0, 1)),
            SequenceSpec(kind="explicit", values=(1, 1, 2, 2, 3), multiplicity_bound=2),
        ):
            window = sequences.generate(spec, 5)
            assert sequences.multiplicity(window) <= spec.multiplicity_bound


K1000 = np.arange(1, 1001, dtype=np.float64)


class TestCCondition:
    def test_identity(self):
        report = check_c_condition(K1000, 1000)
        assert report.passed and report.witness == pytest.approx(1.0)
        assert report.grid == {"K": 1000, "n_max": 1000}

    def test_all_infinite(self):
        report = check_c_condition(np.full(100, math.inf), 100)
        assert report.passed and report.witness == 0.0

    def test_exponential(self):
        report = check_c_condition(2.618 ** np.arange(1, 51), 10 ** 6)
        assert report.passed and report.witness <= 1.0

    def test_domain_error(self):
        with pytest.raises(DomainError, match=r"value 0\.5 at k=1 is below 1"):
            check_c_condition(np.full(10, 0.5), 10)

    def test_first_low_value_named(self):
        values = K1000.copy()
        values[[6, 40]] = [-math.inf, 0.25]
        with pytest.raises(DomainError, match="value -inf at k=7 is below 1"):
            check_c_condition(values, 1000)

    def test_nan_passes_and_never_counts(self):
        values = K1000.copy()
        values[::2] = math.nan
        report = check_c_condition(values, 1000)
        assert report.witness == pytest.approx(0.5)
        assert report.worst_count == report.worst_n // 2

    def test_clustered_fails(self):
        report = check_c_condition(np.ones(1000), 1000)
        assert not report.passed

    def test_needs_two_values(self):
        with pytest.raises(DomainError):
            check_c_condition([1.0], 10)
        with pytest.raises(DomainError):
            check_c_condition(np.ones((2, 2)), 10)


def _grid(fn, m_grid, k_max):
    """Row i holds fn(m_grid[i], k) for k = 1..k_max."""
    ms = np.asarray(list(m_grid), dtype=np.float64)[:, None]
    ks = np.arange(1, k_max + 1, dtype=np.float64)[None, :]
    return np.broadcast_to(fn(ms, ks), (ms.shape[0], k_max))


class TestBCondition:
    def test_distance_kernel(self):
        grid = _grid(lambda m, k: np.abs(m - k) + 1.0, range(1, 101), 10 ** 4)
        report = check_b_condition(grid, "row", range(1, 101), 10 ** 4)
        assert report.passed and report.witness <= 2.0
        assert report.grid == {"K": 10 ** 4, "n_max": 10 ** 4, "m_grid": [1, 100]}

    def test_lattice_form(self):
        grid = _grid(lambda m, k: np.abs(2 * k - 3 * m) + 1.0, range(1, 101), 10 ** 4)
        report = check_b_condition(grid, "row", range(1, 101), 10 ** 4)
        assert report.passed and report.witness <= 1.0

    def test_clustered(self):
        report = check_b_condition(np.ones((10, 1000)), "row", range(1, 11), 1000)
        assert not report.passed

    def test_low_value_names_m_and_k(self):
        grid = np.full((3, 5), 2.0)
        grid[1, 3] = 0.5
        with pytest.raises(DomainError, match=r"value 0\.5 at \(m=20, k=4\) is below 1"):
            check_b_condition(grid, "column", [10, 20, 30], 5)

    def test_one_row_per_m(self):
        with pytest.raises(DomainError):
            check_b_condition(np.ones((3, 5)), "row", [1, 2], 5)
        with pytest.raises(DomainError):
            check_b_condition(np.ones(5), "row", [1], 5)

    def test_fallback_orientation(self):
        # b(m, k) = m: bounded in m for every fixed k, clustered in k for fixed m.
        m_grid = range(1, 11)
        row = _grid(lambda m, k: m, m_grid, 500)
        column = _grid(lambda m, k: k, m_grid, 500)
        decisive, other = sequences.check_b_either((row, column), m_grid, 500)
        assert other is not None and not other.passed
        assert decisive.condition == "b-column" and decisive.passed

    @pytest.mark.parametrize("row_passes", [True, False])
    def test_column_grid_taken_only_after_row_fails(self, row_passes):
        m_grid = range(1, 11)
        passing = _grid(lambda m, k: k, m_grid, 500)
        failing = _grid(lambda m, k: m, m_grid, 500)
        taken = []

        def grids():
            yield passing if row_passes else failing
            taken.append("column")
            yield failing if row_passes else passing

        decisive, other = sequences.check_b_either(grids(), m_grid, 500)
        assert decisive.passed
        assert decisive.condition == ("b-row" if row_passes else "b-column")
        assert taken == ([] if row_passes else ["column"])


class TestBandCondition:
    def test_identity(self):
        report = check_band_condition(np.arange(1, 101, dtype=float), 100, 2)
        assert report.passed

    def test_sqrt_fails(self):
        report = check_band_condition(np.sqrt(np.arange(1, 10)), 3, 3)
        assert not report.passed
        assert report.worst_count >= 5

    def test_exponential(self):
        report = check_band_condition(2.0 ** np.arange(1, 31), 1000, 1)
        assert report.passed

    def test_band_implies_c_condition(self):
        rng = np.random.default_rng(1)
        values = np.sort(rng.uniform(1.0, 60.0, size=300))
        band = check_band_condition(values, 70, 10 ** 9)
        bound = band.worst_count  # the actual max band occupancy
        c_report = check_c_condition(values, 70)
        assert c_report.witness <= 2 * bound


def _closure_gap_b(spec, t_first, t_second, count):
    """Reference for sequence_gap_b: the per-cell formula in Python ints."""
    terms = sequences.generate(spec, count)

    def b(m, n):
        return abs(t_first * int(terms[m - 1]) - t_second * int(terms[n - 1])) + 1.0

    return b


def _closure_gap_c(spec, t_first, t_second, count):
    """Reference for sequence_gap_c: the per-cell formula in Python ints."""
    terms = sequences.generate(spec, count)

    def c(n):
        if t_first == t_second:
            return math.inf
        return abs((t_first - t_second) * int(terms[n - 1])) + 1.0

    return c


GAP_SPECS = [SequenceSpec(kind="primes"), SequenceSpec(kind="polynomial", coefficients=(7, -3, 2))]
GAP_TIMES = [(3, 2), (2, 2), (-5, 7)]


class TestGapBuilders:
    @pytest.mark.parametrize("spec", GAP_SPECS, ids=["primes", "polynomial"])
    @pytest.mark.parametrize("times", GAP_TIMES, ids=str)
    def test_gap_c_matches_closure(self, spec, times):
        values = sequences.sequence_gap_c(spec, *times, 400)
        c = _closure_gap_c(spec, *times, 400)
        assert values.dtype == np.float64
        assert values.tobytes() == np.array([c(n) for n in range(1, 401)]).tobytes()

    @pytest.mark.parametrize("spec", GAP_SPECS, ids=["primes", "polynomial"])
    @pytest.mark.parametrize("times", GAP_TIMES, ids=str)
    def test_gap_b_matches_closure(self, spec, times):
        m_grid = [1, 2, 7, 150, 300]
        row, column = sequences.sequence_gap_b(spec, *times, m_grid, 200)
        b = _closure_gap_b(spec, *times, 300)
        ks = range(1, 201)
        assert row.tobytes() == np.array([[b(m, k) for k in ks] for m in m_grid]).tobytes()
        assert column.tobytes() == np.array([[b(k, m) for k in ks] for m in m_grid]).tobytes()

    def test_exact_at_the_int64_bound(self):
        spec = SequenceSpec(kind="primes")
        top = int(sequences.generate(spec, 50).max())
        t = sequences.gap_time_bound(sequences.generate(spec, 50))
        assert t * top < 2 ** 62 <= (t + 1) * top
        for t_first, t_second in ((t, -t), (-t, t), (t, t - 1)):
            c = _closure_gap_c(spec, t_first, t_second, 50)
            assert sequences.sequence_gap_c(spec, t_first, t_second, 50).tolist() == [
                c(n) for n in range(1, 51)
            ]
            b = _closure_gap_b(spec, t_first, t_second, 50)
            row, column = sequences.sequence_gap_b(spec, t_first, t_second, [1, 50], 50)
            assert row.tolist() == [[b(m, k) for k in range(1, 51)] for m in (1, 50)]
            assert column.tolist() == [[b(k, m) for k in range(1, 51)] for m in (1, 50)]

    @pytest.mark.parametrize("times", [(2 ** 62, 1), (1, -(2 ** 62) // 200), (10 ** 19, 2)])
    def test_refuses_to_wrap(self, times):
        spec = SequenceSpec(kind="linear")
        with pytest.raises(DomainError, match="reach 2\\^62"):
            sequences.sequence_gap_c(spec, *times, 200)
        with pytest.raises(DomainError, match="reach 2\\^62"):
            sequences.sequence_gap_b(spec, *times, [1, 2], 200)

    def test_gap_b_needs_positive_m(self):
        with pytest.raises(DomainError):
            sequences.sequence_gap_b(SequenceSpec(kind="linear"), 3, 2, [0, 1], 10)

    def test_gap_c_infinite_on_tie(self):
        values = sequences.sequence_gap_c(SequenceSpec(kind="linear"), 2, 2, 10)
        assert values.shape == (10,) and np.all(np.isinf(values))
