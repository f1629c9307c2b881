"""Matrix growth: norm powers, profiles, pair grids and the balance bound."""

import itertools
import math

import numpy as np
import pytest

from ergolab import intmat
from ergolab import matrix_growth as mg
from ergolab.errors import DomainError, FitInconsistent, HypothesisFailed, Indeterminate

SHEAR = [[1, 1], [0, 1]]
CAT = [[2, 1], [1, 1]]
JORDAN3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
GOLDEN = (3 + math.sqrt(5)) / 2
# Every n to 64, then a stride up to 4096.
ORACLE_NS = sorted({*range(1, 65), *range(64, 4097, 61), 4096})
# Unimodular symmetric 3x3 with real eigenvalues off the unit circle.
HYPERBOLIC3 = [[-1, -1, -1], [-1, -1, 0], [-1, 0, 0]]


def _exact_log_norm(power):
    """log ||P|| of an exact integer matrix P: shifted right until every
    entry is below 2^1000, so that its float form is finite, then one float
    svd, whose top singular value is accurate to a few eps relative."""
    shift = max(0, max(abs(x).bit_length() for row in power for x in row) - 1000)
    scaled = np.array([[x >> shift for x in row] for row in power], dtype=float)
    return shift * math.log(2) + math.log(np.linalg.norm(scaled, 2))


class TestNormPower:
    """The NormPower values ||M^n||, n = 1..n_max, of growth_profile."""

    def test_identity(self):
        norms = mg.growth_profile(np.eye(3), 100).norms
        assert all(norm.value == pytest.approx(1.0) for norm in norms)

    def test_shear_five(self):
        norms = mg.growth_profile(SHEAR, 64).norms
        assert norms[4].value == pytest.approx((5 + math.sqrt(29)) / 2)

    def test_cat_ratio(self):
        result = mg.growth_profile(CAT, 30).norms[29]
        assert result.value / GOLDEN ** 30 == pytest.approx(1.0, rel=0.01)

    def test_log_survives_overflow(self):
        result = mg.growth_profile(CAT, 2000).norms[-1]
        assert result.value == math.inf
        assert result.log == pytest.approx(2000 * math.log(GOLDEN), rel=1e-9)

    def test_submultiplicative(self):
        # On the running product growth_profile takes its norms from
        # (test_growth_profile_takes_running_logs), since the profile's fit
        # refuses about a third of these matrices.
        rng = np.random.default_rng(1)
        for _ in range(1000):
            matrix = rng.integers(-3, 4, size=(2, 2)).astype(float)
            if abs(np.linalg.det(matrix)) < 0.5:
                continue
            logs = [0.0, *_running(matrix, 16)]  # log ||M^0|| = 0
            a = int(rng.integers(0, 9))
            b = int(rng.integers(0, 9))
            assert logs[a + b] <= logs[a] + logs[b] + 1e-9


class TestJordanBlock:
    def test_reference_value(self):
        assert mg.jordan_block_growth(1.0, 5) == pytest.approx((5 + math.sqrt(29)) / 2)

    def test_zero_power(self):
        assert mg.jordan_block_growth(1.0, 0) == 1.0

    def test_unimodular_invariance(self):
        assert mg.jordan_block_growth(1j, 4) == mg.jordan_block_growth(1.0, 4)

    def test_linear_lower_bound(self):
        for n in range(0, 10 ** 4, 37):
            assert mg.jordan_block_growth(1.0, n) >= n

    def test_domain(self):
        with pytest.raises(DomainError):
            mg.jordan_block_growth(1.5, 3)


class TestGrowthProfile:
    def test_shear(self):
        profile = mg.growth_profile(SHEAR, 64)
        assert profile.base == pytest.approx(1.0, abs=0.01)
        assert profile.poly_degree == 1

    def test_cat(self):
        profile = mg.growth_profile(CAT, 64)
        assert profile.base == pytest.approx(2.6180, rel=0.01)
        assert profile.poly_degree == 0

    def test_identity(self):
        profile = mg.growth_profile(np.eye(2), 32)
        assert profile.base == pytest.approx(1.0)
        assert profile.poly_degree == 0

    def test_base_matches_spectral_radius(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 10:
            matrix = rng.integers(-3, 4, size=(2, 2))
            eigenvalues = np.abs(np.linalg.eigvals(matrix.astype(float)))
            if abs(np.linalg.det(matrix)) < 0.5 or eigenvalues.max() < 1.1:
                continue
            if abs(eigenvalues[0] - eigenvalues[1]) < 0.2:
                continue
            profile = mg.growth_profile(matrix, 48)
            assert profile.base == pytest.approx(eigenvalues.max(), rel=0.01)
            checked += 1

    def test_jordan3_at_n_max_128(self):
        profile = mg.growth_profile(JORDAN3, 128)
        assert profile.base == pytest.approx(1.0, abs=0.01)
        assert profile.poly_degree == 2

    def test_jordan_block_sweep_classifies_every_case(self):
        # Jordan blocks of size 1-4 at eigenvalue +-1, +-1.5 and the golden
        # ratio, over n_max from the floor 16 to 1024: 200 cases, each read
        # as base |lambda| and degree size - 1, the 3x3 block at eigenvalue 1
        # and the default n_max 64 among them.
        golden = (1 + math.sqrt(5)) / 2
        for lam in (1.0, -1.0, 1.5, -1.5, golden):
            for size in (1, 2, 3, 4):
                block = lam * np.eye(size) + np.eye(size, k=1)
                for n_max in (16, 17, 24, 31, 32, 64, 100, 128, 256, 1024):
                    profile = mg.growth_profile(block, n_max)
                    got = (profile.base, profile.poly_degree)
                    assert got == (abs(lam), size - 1), (lam, size, n_max, got)

    def test_split_double_eigenvalue_keeps_its_block(self):
        # eigvals splits the double eigenvalue 2 of this one 2x2 block into
        # 2 +- 1.5e-8, and M - lambda I at either half keeps full rank.
        profile = mg.growth_profile([[1, 1], [-1, 3]], 64)
        assert profile.base == pytest.approx(2.0, rel=0.01)
        assert profile.poly_degree == 1

    def test_random_sweep_degrees_are_exact(self):
        # The 875 nonsingular 2x2 integer matrices (entries -3..3) of
        # default_rng(1). A 2x2 integer matrix has a 2x2 Jordan block iff
        # its discriminant is 0 and it is not scalar; five such matrices
        # raised a degree disagreement when eigvals split the eigenvalue.
        rng = np.random.default_rng(1)
        seen, refused = 0, []
        for _ in range(1000):
            matrix = rng.integers(-3, 4, size=(2, 2))
            if abs(np.linalg.det(matrix)) < 0.5:
                continue
            seen += 1
            (a, b), (c, d) = matrix.tolist()
            block = (a - d) ** 2 + 4 * b * c == 0 and (b, c, a - d) != (0, 0, 0)
            try:
                profile = mg.growth_profile(matrix.astype(float), 64)
            except FitInconsistent as exc:
                refused.append(str(exc))
                continue
            assert profile.poly_degree == int(block), matrix.tolist()
        assert seen == 875
        assert refused == []

    def test_n_max_floor(self):
        with pytest.raises(DomainError):
            mg.growth_profile(CAT, 8)

    def test_infinite_radius_and_norm_rejected(self):
        with pytest.raises(DomainError, match="must be finite"):
            mg.growth_radius([[1e308, 1e308], [1e308, 1e308]])


def _running(matrix, count):
    """log ||M^n|| for n = 1..count from the running product, from I."""
    arr = np.array(matrix, dtype=float)
    steps = mg._running_products(np.eye(len(arr))[None], [0.0], arr)
    return np.array([log[0] for _, log in itertools.islice(steps, count)])


def _exact_log_norm_2x2(matrix, n):
    """log ||M^n|| from the integer power: sigma_max^2 is the top root of
    x^2 - F x + det^2, F the squared Frobenius norm of M^n."""
    (a, b), (c, d) = intmat.mat_pow(intmat.as_int_matrix(matrix), n)
    frob = a * a + b * b + c * c + d * d
    det = a * d - b * c
    return 0.5 * (math.log(frob) + math.log((1 + math.sqrt(1 - 4 * det * det / frob ** 2)) / 2))


class TestRunningPower:
    @pytest.mark.parametrize("matrix", [SHEAR, CAT, JORDAN3], ids=["shear", "cat", "jordan3"])
    def test_matches_norm_power(self, matrix):
        logs = _running(matrix, 4096)
        for n in ORACLE_NS:
            reference = _exact_log_norm(intmat.mat_pow(intmat.as_int_matrix(matrix), n))
            assert logs[n - 1] == pytest.approx(reference, rel=1e-12, abs=0), n

    def test_cat_matches_exact_integers(self):
        logs = _running(CAT, 4096)
        for n in ORACLE_NS:
            assert logs[n - 1] == pytest.approx(_exact_log_norm_2x2(CAT, n), rel=1e-12, abs=0), n

    @pytest.mark.parametrize("matrix", [SHEAR, CAT], ids=["shear", "cat"])
    def test_growth_profile_takes_running_logs(self, matrix):
        profile = mg.growth_profile(matrix, 64)
        assert [norm.log for norm in profile.norms] == _running(matrix, 64).tolist()
        assert all(norm == mg.NormPower.from_log(norm.log) for norm in profile.norms)


class TestCommutingPair:
    def test_noncommuting_rejected(self):
        with pytest.raises(DomainError):
            mg.CommutingPair(g=SHEAR, h=CAT)

    def test_nan_commutator_rejected(self):
        # g h - h g = [[inf - inf, 1e308], [0, 0]]: NaN is not within the tolerance.
        with pytest.raises(DomainError, match="do not commute"):
            mg.CommutingPair(g=[[1e308, 0], [0, 1]], h=[[1e308, 1], [0, 1]])

    def test_unipotent_pair_row_pass(self):
        pair = mg.CommutingPair(g=SHEAR, h=[[1, 3], [0, 1]])
        result = mg.pair_counting_check(pair, range(1, 41), 2000, 2000)
        assert result.orientation == "row"
        assert result.decisive.witness <= 2.0

    def test_witness_stable_under_grid_doubling(self):
        pair = mg.CommutingPair(g=SHEAR, h=[[1, 3], [0, 1]])
        small = mg.pair_counting_check(pair, range(1, 41), 2000, 2000)
        doubled = mg.pair_counting_check(pair, range(1, 81), 2000, 2000)
        assert doubled.decisive.witness <= small.decisive.witness * 1.10
        assert doubled.decisive.witness >= small.decisive.witness * 0.90

    def test_hyperbolic_inverse_pair(self):
        cat = np.array(CAT, dtype=float)
        pair = mg.CommutingPair(g=np.linalg.inv(cat), h=cat)
        result = mg.pair_counting_check(pair, range(1, 31), 200, 200)
        assert result.orientation == "row"

    @pytest.mark.parametrize(
        "g, h, orders", [(SHEAR, [[1, 3], [0, 1]], ["hg"]), (np.eye(2), np.eye(2), ["hg", "gh"])]
    )
    def test_column_grid_built_only_when_row_fails(self, monkeypatch, g, h, orders):
        asked = []
        grid = mg.pair_norm_grid

        def recording(pair, outer, inner_max, order):
            asked.append(order)
            return grid(pair, outer, inner_max, order)

        monkeypatch.setattr(mg, "pair_norm_grid", recording)
        pair = mg.CommutingPair(g=np.array(g, dtype=float), h=np.array(h, dtype=float))
        mg.pair_counting_check(pair, range(1, 11), 400, 400)
        assert asked == orders

    def test_identity_pair_fails_both(self):
        pair = mg.CommutingPair(g=np.eye(2), h=np.eye(2))
        result = mg.pair_counting_check(pair, range(1, 11), 400, 400)
        assert result.orientation is None
        assert not result.decisive.passed and not result.other.passed


def _scalar_norm_grid(pair, outer_exponents, inner_max, order):
    """Reference for pair_norm_grid: one row at a time from the exact
    integer power of the row's matrix, one scalar spectral norm per grid
    cell."""
    first, second = (pair.h, pair.g) if order == "hg" else (pair.g, pair.h)
    second_norm = mg.spectral_norm(second)
    second_unit = second / second_norm
    log_second = math.log(second_norm)
    out = np.empty((len(outer_exponents), inner_max))
    for row, m in enumerate(outer_exponents):
        start = np.array(intmat.mat_pow(intmat.as_int_matrix(first.astype(int)), m), dtype=float)
        log_acc = math.log(mg.spectral_norm(start))
        acc = start / mg.spectral_norm(start)
        for n in range(inner_max):
            acc = acc @ second_unit
            s = mg.spectral_norm(acc)
            log_acc += log_second + math.log(s)
            acc = acc / s
            out[row, n] = log_acc
    return out


class TestPairNormGrid:
    @pytest.mark.parametrize("order", ["hg", "gh"])
    @pytest.mark.parametrize(
        "g, h, rows, inner_max",
        [(SHEAR, [[1, 3], [0, 1]], 24, 400), (CAT, [[5, 3], [3, 2]], 16, 600)],
    )
    def test_matches_scalar_loop(self, g, h, rows, inner_max, order):
        pair = mg.CommutingPair(g=np.array(g, dtype=float), h=np.array(h, dtype=float))
        outer = range(rows)  # from exponent 0
        grid = mg.pair_norm_grid(pair, outer, inner_max, order)
        reference = _scalar_norm_grid(pair, outer, inner_max, order)
        np.testing.assert_allclose(grid, reference, rtol=1e-13, atol=0)

    def test_negative_exponent(self):
        pair = mg.CommutingPair(g=np.array(SHEAR, dtype=float), h=np.eye(2))
        with pytest.raises(DomainError):
            mg.pair_norm_grid(pair, [2, -1], 4, "hg")


def _per_n_balance_norms(pair, m, ns):
    """Reference for hyperbolic_balance_bound's norms at small exponents:
    numpy's matrix powers for every n."""
    h_part = np.linalg.matrix_power(pair.h, m)
    return np.array([mg.spectral_norm(h_part @ np.linalg.matrix_power(pair.g, n)) for n in ns])


def _unimodular_pair(matrix):
    """(g, h) = (A^-1, A) as exact integer matrices and as a CommutingPair."""
    h = intmat.as_int_matrix(matrix)
    g = intmat.mat_inverse_unimodular(h)
    return g, h, mg.CommutingPair(g=np.array(g, dtype=float), h=np.array(h, dtype=float))


class TestBalanceBound:
    def test_cat_inverse_pair(self):
        cat = np.array(CAT, dtype=float)
        pair = mg.CommutingPair(g=np.linalg.inv(cat), h=cat)
        bound = mg.hyperbolic_balance_bound(pair, 10, range(0, 41))
        assert bound.threshold == 10
        assert bound.passed

    def test_zero_m(self):
        cat = np.array(CAT, dtype=float)
        pair = mg.CommutingPair(g=np.linalg.inv(cat), h=cat)
        bound = mg.hyperbolic_balance_bound(pair, 0, range(1, 21))
        assert bound.threshold == 0
        assert bound.passed

    def test_diagonal_equality(self):
        pair = mg.CommutingPair(g=np.diag([0.5, 2.0]), h=np.diag([2.0, 0.5]))
        bound = mg.hyperbolic_balance_bound(pair, 7, range(0, 30))
        assert bound.passed
        for n, norm in zip(bound.ns, bound.norms):
            assert norm == pytest.approx(max(2.0 ** (7 - n), 2.0 ** (n - 7)), rel=1e-9)

    @pytest.mark.parametrize(
        "m, ns", [(10, range(0, 41)), (3, [17, 0, 400, 5, 5]), (0, range(1, 21))]
    )
    def test_cat_norms_match_per_n_powers_and_exact(self, m, ns):
        g, h, pair = _unimodular_pair(CAT)
        bound = mg.hyperbolic_balance_bound(pair, m, ns)
        h_power = intmat.mat_pow(h, m)
        per_n = [_exact_log_norm(intmat.mat_mul(h_power, intmat.mat_pow(g, n))) for n in ns]
        np.testing.assert_allclose(bound.norms, np.exp(per_n), rtol=1e-12, atol=0)
        exact = [math.exp(_exact_log_norm_2x2(CAT, abs(m - n))) for n in ns]
        np.testing.assert_allclose(bound.norms, exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [10, 20, 30, 64])
    @pytest.mark.parametrize("matrix", [CAT, HYPERBOLIC3], ids=["cat", "hyperbolic3"])
    def test_norms_match_exact_integer_powers(self, matrix, m):
        # h^m g^n = A^(m - n) cancels to about 1 near n = m; a running
        # product loses eps ||A^m||^2 there, 4.4 times the norm at m = 20.
        g, h, pair = _unimodular_pair(matrix)
        ns = range(0, 2 * m + 1)
        bound = mg.hyperbolic_balance_bound(pair, m, ns)
        h_power = intmat.mat_pow(h, m)
        exact = [_exact_log_norm(intmat.mat_mul(h_power, intmat.mat_pow(g, n))) for n in ns]
        np.testing.assert_allclose(bound.norms, np.exp(exact), rtol=1e-12, atol=0)
        assert bound.passed

    def test_diagonal_norms_match_per_n_powers(self):
        pair = mg.CommutingPair(g=np.diag([0.5, 2.0]), h=np.diag([2.0, 0.5]))
        ns = range(0, 30)
        bound = mg.hyperbolic_balance_bound(pair, 7, ns)
        np.testing.assert_allclose(
            bound.norms, _per_n_balance_norms(pair, 7, ns), rtol=1e-12, atol=0
        )

    def test_ill_conditioned_eigenbasis_refused(self):
        # Hyperbolic with the right pairing, but V has condition 1.3e7.
        g = np.array([[2.0, 1e7], [0.0, 0.5]])
        pair = mg.CommutingPair(g=g, h=np.linalg.inv(g))
        with pytest.raises(HypothesisFailed, match="condition number 1.33e\\+07"):
            mg.hyperbolic_balance_bound(pair, 3, range(0, 10))
        well = np.array([[2.0, 1e4], [0.0, 0.5]])  # condition 1.3e4
        well_pair = mg.CommutingPair(g=well, h=np.linalg.inv(well))
        assert mg.hyperbolic_balance_bound(well_pair, 3, range(0, 10)).passed

    def test_unit_modulus_indeterminate(self):
        pair = mg.CommutingPair(g=SHEAR, h=[[1, 3], [0, 1]])
        with pytest.raises(Indeterminate):
            mg.hyperbolic_balance_bound(pair, 1, range(0, 5))

    def test_pairing_violation(self):
        pair = mg.CommutingPair(g=np.diag([2.0, 0.5]), h=np.diag([3.0, 0.25]))
        with pytest.raises(HypothesisFailed):
            mg.hyperbolic_balance_bound(pair, 5, range(0, 10))
