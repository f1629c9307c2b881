"""Dyadic decomposition, variance profiles, chaining and scale bounds."""

import json
import tracemalloc

import numpy as np
import pytest

from ergolab import averages, cli, correlations as co, dyadic, sequences, systems
from ergolab.dyadic import (
    DyadicInterval,
    chain_inequality_check,
    decompose,
    dyadic_classes,
    ensemble_moments,
    exceptional_fraction,
    ks_ratio_bound,
    power_gap_check,
    s_of,
    sigma_fit,
    variance_profile,
)
from ergolab.errors import DomainError, InsufficientData, ShapeMismatch
from ergolab.seeding import ROLE_TERMS, rng_for

from false_alarm import z_for
from pairwise_sums import tree_block_sums


class TestIntervals:
    def test_membership(self):
        block = DyadicInterval(level=2, index=1)  # {5, 6, 7, 8}
        assert block.lo == 5 and block.hi == 8 and len(block) == 4
        assert 5 in block and 8 in block and 4 not in block and 9 not in block

    def test_s_of(self):
        assert s_of(1) == 1
        assert s_of(8) == 4
        assert s_of(13) == 4

    def test_decompose_binary(self):
        blocks = decompose(13, 4)
        assert [(b.lo, b.hi) for b in blocks] == [(1, 8), (9, 12), (13, 13)]

    def test_decompose_power_of_two(self):
        blocks = decompose(8, 4)
        assert [(b.lo, b.hi) for b in blocks] == [(1, 8)]

    def test_decompose_one(self):
        assert [(b.lo, b.hi) for b in decompose(1, 1)] == [(1, 1)]

    def test_decompose_domain(self):
        with pytest.raises(DomainError):
            decompose(16, 4)

    def test_partition_property_exhaustive(self):
        # Every n < 2^10: disjoint blocks of L_s covering {1..n}, at most
        # s_of(n) of them, all members of the level classes.
        classes = {10: set((b.level, b.index) for b in dyadic_classes(10))}
        for n in range(1, 1 << 10):
            s = s_of(n)
            if s not in classes:
                classes[s] = set((b.level, b.index) for b in dyadic_classes(s))
            blocks = decompose(n, s)
            assert len(blocks) <= s
            covered = []
            for block in blocks:
                assert (block.level, block.index) in classes[s]
                covered.extend(range(block.lo, block.hi + 1))
            assert sorted(covered) == list(range(1, n + 1))
            assert len(set(covered)) == len(covered)


class TestVarianceProfile:
    def test_zeros(self):
        profile = variance_profile(np.zeros((3, 8)), 3)
        assert profile.total_mean == 0.0
        assert np.all(profile.level_means == 0.0)

    def test_all_ones_s2(self):
        profile = variance_profile(np.ones((1, 4)), 2)
        assert profile.per_point_totals[0] == pytest.approx(12.0)

    def test_iid_total(self):
        # Independent centered +-1/2 terms: each block contributes |I|/4 in
        # expectation, so the total is s 2^s / 4.
        rng = np.random.default_rng(0)
        s = 8
        terms = (rng.integers(0, 2, size=(10 ** 4, 1 << s)) - 0.5)
        profile = variance_profile(terms, s)
        assert profile.total_mean == pytest.approx(s * (1 << s) / 4, rel=0.10)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            variance_profile(np.ones((2, 7)), 3)


class TestExceptionalFraction:
    def test_zeros(self):
        fraction, _bound = exceptional_fraction(variance_profile(np.zeros((50, 32)), 5), 1.0, 1.0)
        assert fraction == 0.0

    def test_iid_markov_bound(self):
        rng = np.random.default_rng(1)
        s = 10
        terms = (rng.integers(0, 2, size=(2000, 1 << s)) - 0.5)
        fraction, bound = exceptional_fraction(variance_profile(terms, s), 1.0, 1.0)
        assert fraction <= bound + 1e-12
        constant = bound * s ** 2  # C from bound = C s^-(1+eps)
        assert constant == pytest.approx(0.25, rel=0.15)

    def test_deterministic_terms_exceed(self):
        s = 12
        fraction, _ = exceptional_fraction(variance_profile(np.ones((4, 1 << s)), s), 1.0, 1.0)
        assert fraction == 1.0


class TestChainInequality:
    def test_zeros(self):
        check = chain_inequality_check(np.zeros(4), 3)
        assert check.passed and check.lhs == check.mid == check.rhs == 0.0

    def test_trivial_terms(self):
        check = chain_inequality_check([1.0, 1.0, 1.0], 3)
        assert (check.lhs, check.mid, check.rhs) == (9.0, 10.0, 16.0)
        assert check.passed

    def test_random_gaussian_property(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 513))
            terms = rng.normal(size=n)
            assert chain_inequality_check(terms, n).passed


def _second_moment(generator, n_points, m, n):
    """(E, standard error) of (sum_{m<k<=n} F_k)^2 over the ensemble."""
    return ensemble_moments(generator, n_points, (n - m,), m=m).e_values[0]


class TestEmpiricalE:
    @staticmethod
    def iid_generator(scale=0.5, seed=3):
        def generator(point_indices, ks):
            out = np.empty((point_indices.size, ks.size))
            for row, j in enumerate(point_indices):
                rng = np.random.default_rng((seed, int(j)))
                out[row] = scale * (2 * rng.integers(0, 2, size=ks.size) - 1)
            return out

        return generator

    def test_zero_terms(self):
        estimate, std_error = _second_moment(lambda p, k: np.zeros((p.size, k.size)), 100, 0, 64)
        assert estimate == 0.0 and std_error == 0.0

    def test_iid_linear_growth(self):
        n = 256
        estimate, std_error = _second_moment(self.iid_generator(), 10 ** 4, 0, n)
        assert abs(estimate - n / 4) <= 4 * std_error

    def test_domain(self):
        # m < 0 would read terms[ks - 1] with ks <= 0, from the sequence's end.
        for ns, m in (((0,), 5), ((0,), 0), ((8,), -3), ((8, 0), 0), ((), 0)):
            with pytest.raises(DomainError):
                ensemble_moments(self.iid_generator(), 100, ns, m=m)

    def test_markov_driven_linear_bound(self):
        # One centered indicator along a mixing chain: E(0, N) stays below
        # C N with C = Var (1 + 2 sum of correlation ratios) and the growth
        # exponent stays near 1.
        from ergolab import averages, sequences, systems

        markov = systems.build_shift([[1, 1], [1, 1]], [[0.9, 0.1], [0.5, 0.5]])
        spec = averages.AverageSpec(
            system=markov,
            observables=(systems.centered_cylinder_indicator(markov, [0]),),
            multipliers=(1,),
            sequence=sequences.SequenceSpec(kind="linear"),
            n_max=1 << 10,
        )
        generator = averages.product_term_generator(spec, master_seed=55)
        bound_constant = 0.25 * (1 + 0.4) / (1 - 0.4)
        grid = [1 << j for j in range(4, 11)]
        es = []
        for n in grid:
            estimate, std_error = _second_moment(generator, 4000, 0, n)
            assert estimate <= bound_constant * n + 4 * std_error
            es.append(estimate)
        fit = sigma_fit(grid, es)
        assert 0.85 <= fit.exponent <= 1.15


# Reference: the per-N and per-s loops the one-pass reduction replaced.  E
# regenerates each point batch for every N; a profile generates all points
# over ks = 1..2^s at once.  A product term generator samples the positions
# of the ks it is given, so both sides read one materialized block.


def _rows_of(slabs):
    """The rows of an iterator of row slabs, each copied as it comes: term
    generator calls and ``sample_rows`` reuse their slab arrays."""
    return np.concatenate([slab.copy() for slab in slabs])


def _materialized(generator, n_points, width, row_bytes=None):
    """The terms ensemble_moments reads (one call per point batch over
    ks = 1..width, batches sized by its default or the given row bytes),
    served as a generator that slices them."""
    ks = np.arange(1, width + 1, dtype=np.int64)
    batches = dyadic.point_batches(n_points, row_bytes or 8 * width)
    block = np.concatenate([_rows_of(generator(np.arange(lo, hi), ks)) for lo, hi in batches])
    return lambda idx, ks: block[np.ix_(np.asarray(idx), np.asarray(ks) - 1)]


def _reference_e(generator, n_points, m, n):
    ks = np.arange(m + 1, n + 1, dtype=np.int64)
    parts = []
    for lo in range(0, n_points, 512):
        idx = np.arange(lo, min(lo + 512, n_points), dtype=np.int64)
        sums_sq = np.asarray(generator(idx, ks), dtype=np.float64).sum(axis=1) ** 2
        mean = float(sums_sq.mean())
        parts.append((idx.size, mean, float(((sums_sq - mean) ** 2).sum())))
    _, mean, m2 = co._pairwise_moments(parts)
    return mean, (m2 / n_points / n_points) ** 0.5


def _reference_profile(generator, n_points, s):
    arr = generator(np.arange(n_points, dtype=np.int64), np.arange(1, (1 << s) + 1))
    level_means = np.empty(s, dtype=np.float64)
    totals = np.zeros(n_points, dtype=np.float64)
    for r in range(s):
        level_totals = (tree_block_sums(arr, r) ** 2).sum(axis=1)
        totals += level_totals
        level_means[r] = level_totals.mean()
    return level_means, float(totals.mean()), totals


def _reference_exceptional(totals, total_mean, s, epsilon, sigma):
    threshold = s ** (2.0 + epsilon) * 2.0 ** (sigma * s)
    fraction = float(np.mean(totals > threshold))
    bound = total_mean / (s * 2.0 ** (sigma * s)) * s ** (-1.0 - epsilon)
    return fraction, bound


BERNOULLI = systems.bernoulli_system([0.5, 0.5])
MARKOV = systems.build_shift([[1, 1], [1, 1]], [[0.9, 0.1], [0.5, 0.5]])


def _pair_spec(system, left, n_max, kind="linear"):
    return averages.AverageSpec(
        system=system,
        observables=(left, systems.centered_cylinder_indicator(system, [0])),
        multipliers=(1, 2),
        sequence=sequences.SequenceSpec(kind=kind),
        n_max=n_max,
    )


def _triple_spec(system, multipliers, n_max, first=None, kind="linear"):
    """The centered indicators of [1], [0], [1] (``first`` in place of the
    first) at three multipliers."""
    first = first or systems.centered_cylinder_indicator(system, [1])
    return averages.AverageSpec(
        system=system,
        observables=(
            first,
            systems.centered_cylinder_indicator(system, [0]),
            systems.centered_cylinder_indicator(system, [1]),
        ),
        multipliers=tuple(multipliers),
        sequence=sequences.SequenceSpec(kind=kind),
        n_max=n_max,
    )


# (system, left factor radius, sequence, points, grid N, s values)
ONE_PASS_CASES = {
    # 2^8 = 256 lies inside the grid: N below and above 2^max s.
    "bernoulli-1100": (BERNOULLI, 0, "linear", 1100, (16, 32, 64, 128, 512), (3, 8, 5)),
    "bernoulli-512": (BERNOULLI, 0, "linear", 512, (16, 32, 64, 128), (2, 7)),
    "markov-radius1": (MARKOV, 1, "linear", 700, (8, 16, 32, 64), (4, 6)),
    "markov-primes-no-s": (MARKOV, 0, "primes", 1100, (8, 16, 32, 64), ()),
}


@pytest.fixture(params=sorted(ONE_PASS_CASES))
def one_pass_case(request):
    system, radius, kind, points, ns, s_values = ONE_PASS_CASES[request.param]
    if radius:
        raw = systems.cylinder_observable(1, {(1, 0, 1): 1.0, (0, 0, 0): -0.5}, default=0.25)
        mean = systems.exact_mean(raw, system)
        table = {w: v - mean for w, v in raw.table.items()}
        left = systems.cylinder_observable(1, table, raw.default - mean)
    else:
        left = systems.centered_cylinder_indicator(system, [1])
    spec = _pair_spec(system, left, max(ns), kind)
    return averages.product_term_generator(spec, master_seed=31), points, ns, s_values


class TestOnePass:
    def test_matches_reference_loops(self, one_pass_case):
        generator, points, ns, s_values = one_pass_case
        moments = ensemble_moments(generator, points, ns, s_values)
        generator = _materialized(generator, points, dyadic.term_columns(ns, s_values))
        assert ensemble_moments(generator, points, ns, s_values).e_values == moments.e_values
        assert moments.e_values == tuple(_reference_e(generator, points, 0, n) for n in ns)
        assert len(moments.profiles) == len(s_values)
        for s, profile in zip(s_values, moments.profiles):
            level_means, total_mean, totals = _reference_profile(generator, points, s)
            assert profile.s == s
            assert np.array_equal(profile.level_means, level_means)
            assert profile.total_mean == total_mean
            assert np.array_equal(profile.per_point_totals, totals)
            for epsilon, sigma in ((1.0, 1.0), (0.5, 0.75)):
                assert exceptional_fraction(profile, epsilon, sigma) == _reference_exceptional(
                    totals, total_mean, s, epsilon, sigma
                )

    def test_variance_on_large_offset(self):
        # S^2 = 1e8 + z with z of spread 1: sum S^4 / n - mean^2 cancels every
        # digit; the batches' moments are merged against a two-pass variance.
        terms = np.sqrt(1e8 + np.random.default_rng(5).standard_normal(1100))[:, None]
        squares = terms[:, 0] ** 2
        want = float(((squares - squares.mean()) ** 2).mean())
        old = float((squares ** 2).mean()) - float(squares.mean()) ** 2
        assert abs(old - want) > 0.1 * want
        generator = lambda idx, ks: terms[np.ix_(idx, ks - 1)]
        ((e, se),) = ensemble_moments(generator, 1100, (1,)).e_values
        assert e == pytest.approx(float(squares.mean()), rel=1e-15)
        assert se == pytest.approx((want / squares.size) ** 0.5, rel=1e-7)

    def test_one_generator_call_per_batch(self, one_pass_case):
        generator, points, ns, s_values = one_pass_case
        calls = []

        def counting(idx, ks):
            calls.append((int(idx[0]), int(idx[-1]), int(ks[0]), int(ks[-1])))
            return generator(idx, ks)

        moments = ensemble_moments(counting, points, ns, s_values)
        width = dyadic.term_columns(ns, s_values)
        assert width == max(max(ns), max((1 << s for s in s_values), default=0))
        batches = dyadic.point_batches(points, 8 * width)
        assert calls == [(lo, hi - 1, 1, width) for lo, hi in batches]
        assert moments.blocks == tuple((hi - lo, width) for lo, hi in batches)

    def test_row_bytes_and_map_set_the_batches(self, one_pass_case):
        # A row of 1 MiB gives 48-point batches; an ordered map that runs
        # them in reverse and reorders the results changes no float.
        generator, points, ns, s_values = one_pass_case
        row_bytes = 1 << 20
        batches = dyadic.point_batches(points, row_bytes)
        assert len(batches) > 1 and batches[0] == (0, 48)

        def reversed_map(fn, tasks):
            return [fn(task) for task in tasks[::-1]][::-1]

        got = ensemble_moments(generator, points, ns, s_values, row_bytes=row_bytes)
        backwards = ensemble_moments(
            generator, points, ns, s_values, row_bytes=row_bytes, map_members=reversed_map
        )
        width = dyadic.term_columns(ns, s_values)
        assert got.blocks == backwards.blocks == tuple((hi - lo, width) for lo, hi in batches)
        blocks = [dyadic.batch_moments(generator, lo, hi, ns, s_values) for lo, hi in batches]
        want = dyadic.merge_moments(blocks)
        assert got.e_values == backwards.e_values == want.e_values
        for a, b in zip(got.profiles, want.profiles):
            assert np.array_equal(a.per_point_totals, b.per_point_totals)

    def test_empirical_e_offset_matches_reference(self):
        generator = TestEmpiricalE.iid_generator()
        assert _second_moment(generator, 600, 24, 88) == _reference_e(generator, 600, 24, 88)

    def test_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            dyadic.block_moments(np.ones((3, 63)), (64,))
        with pytest.raises(ShapeMismatch):
            dyadic.block_moments(np.ones((3, 64)), (16,), (7,))
        with pytest.raises(ShapeMismatch):
            ensemble_moments(lambda p, k: np.ones((p.size, 3)), 10, (8,))

    def test_cli_artifacts_match_reference(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "dyadic",
            "seed": 12,
            "system": {
                "kind": "shift",
                "adjacency": [[1, 1], [1, 1]],
                "transition": [["9/10", "1/10"], ["1/2", "1/2"]],
            },
            "observables": [
                {"variant": "cylinder", "radius": 0, "table": [{"word": [1], "value": 1.0}],
                 "centered": True},
                {"variant": "cylinder", "radius": 0, "table": [{"word": [0], "value": 1.0}],
                 "centered": True},
            ],
            "params": {
                "multipliers": [1, 2],
                "point_count": 1100,
                "n_grid": [16, 32, 64, 128],
                "exceptional": {"s_values": [8, 3], "epsilon": "1/2", "sigma": 1.0},
            },
        }
        path = tmp_path / "dyadic.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.run(path, out, workers=1, emit_svg=False) == 0
        _, report = cli.validate_config(cfg)
        system = cli.SYSTEM(cfg["system"], "system")
        spec = averages.AverageSpec(
            system=system,
            observables=[systems.centered_cylinder_indicator(system, [s]) for s in (1, 0)],
            multipliers=(1, 2),
            sequence=sequences.SequenceSpec("linear"),
            n_max=128,
        )
        width = report["derived"]["term_columns"]
        generator = _materialized(
            averages.product_term_generator(spec, 12),
            1100,
            width,
            averages.term_bytes(spec, width)[0],
        )
        rows = ["N,E,std_error"]
        for n in (16, 32, 64, 128):
            e, se = _reference_e(generator, 1100, 0, n)
            rows.append(",".join(cli.fmt_value(v) for v in (n, e, se)))
        assert (out / "dyadic_e.csv").read_text().splitlines() == rows
        rows = ["s,fraction,chebyshev_bound,partial_sum"]
        partial = 0.0
        for s in (8, 3):
            _, total_mean, totals = _reference_profile(generator, 1100, s)
            fraction, bound = _reference_exceptional(totals, total_mean, s, 0.5, 1.0)
            partial += fraction
            rows.append(",".join(cli.fmt_value(v) for v in (s, fraction, bound, partial)))
        assert (out / "dyadic_exceptional.csv").read_text().splitlines() == rows


def _reference_level_totals(arr, s_values):
    """The per-s loop the shared-level reduction replaced: each s sums its
    own head of the block at every level."""
    points = arr.shape[0]
    levels = []
    for s in s_values:
        head = arr[:, : 1 << s]
        totals = np.empty((s, points), dtype=np.float64)
        for r in range(s):
            totals[r] = (tree_block_sums(head, r) ** 2).sum(axis=1)
        levels.append(totals)
    return levels


class TestSharedLevels:
    @pytest.mark.parametrize(
        "points, ns, s_values",
        [
            (300, (64, 2048), (9, 4, 11, 7)),  # 2^max s = max N
            (300, (16, 1024), (12, 3, 8)),  # 2^max s above max N
            (700, (1024, 256), (5, 2, 8)),  # 2^max s below max N; slabs of 256 rows
            (3, (100,), (17, 15)),  # 2^17 columns: slabs of one row
        ],
    )
    def test_equals_per_s_loop(self, points, ns, s_values):
        width = dyadic.term_columns(ns, s_values)
        arr = np.random.default_rng(8).standard_normal((points, width))
        got = dyadic.block_moments(arr, ns, s_values)
        want = _reference_level_totals(arr, s_values)
        assert [t.shape for t in got.level_totals] == [t.shape for t in want]
        for totals, ref in zip(got.level_totals, want):
            assert totals.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("top", range(1, 18))
    @pytest.mark.parametrize("rows", [1, 7, 32])
    def test_levels_are_numpy_block_sums(self, rows, top):
        # Each level is built from the one below, so its block sums are the
        # row's pairwise tree, bit for bit.  They are only ever squared, so
        # comparing squares hides nothing but the sign of a zero.
        # Magnitudes spread over twelve decades make any other order show.
        # Each tree sum of 2^r terms lies within 2 (2^r - 1) eps sum |x| of
        # numpy's sum over its block, a bound that holds for any two
        # summation orders.  Odd tops read a prefix of wider rows, as a
        # block wider than 2^top does.  32 rows stop at top = 16 (16 MiB a
        # block).
        if rows << top > 1 << 21:
            pytest.skip("block above 16 MiB")
        rng = np.random.default_rng(top)
        wide = (1 << top) + (8 if top % 2 else 0)
        arr = rng.standard_normal((rows, wide)) * 10.0 ** rng.integers(-6, 7, (rows, wide))
        head = arr[:, : 1 << top]
        scratch = np.empty(rows << top)
        levels = 0
        eps = np.finfo(np.float64).eps
        for r, squares in enumerate(dyadic._squared_levels(head, scratch)):
            tree = tree_block_sums(head, r)
            assert squares.tobytes() == np.square(tree).tobytes(), r
            blocks = head.reshape(rows, 1 << (top - r), 1 << r)
            bound = 2 * ((1 << r) - 1) * eps * np.abs(blocks).sum(axis=2)
            assert (np.abs(tree - blocks.sum(axis=2)) <= bound).all(), r
            levels += 1
        assert levels == top


def _whole_block_moments(terms, ns, s_values=()):
    """The whole-matrix reduction that streaming row slabs replaced: one
    (points, W) block, prefix sums over all rows at once, levels in row
    slabs of SLAB_ITEMS >> max s."""
    arr = np.atleast_2d(np.asarray(terms, dtype=np.float64))
    points = arr.shape[0]
    prefix = []
    for n in ns:
        sums_sq = arr[:, :n].sum(axis=1) ** 2
        mean = float(sums_sq.mean())
        prefix.append((points, mean, float(((sums_sq - mean) ** 2).sum())))
    levels = tuple(np.empty((s, points), dtype=np.float64) for s in s_values)
    top = max(s_values, default=0)
    step = max(1, systems.SLAB_ITEMS >> top)
    for lo in range(0, points, step):
        head = arr[lo:lo + step, : 1 << top]
        rows = head.shape[0]
        for r in range(top):
            squares = np.square(tree_block_sums(head, r))
            for s, totals in zip(s_values, levels):
                if r < s:
                    totals[r, lo:lo + rows] = squares[:, : 1 << (s - r)].sum(axis=1)
    return dyadic.BlockMoments(points, arr.shape[1], tuple(prefix), levels)


class TestStreamedBatch:
    # (grid N, s values): N below and above 2^max s, N = 2^max s, no s.
    # W = 256 and 512 give slabs of 256 and 128 rows, so 600 points end in
    # a partial slab.
    @pytest.mark.parametrize(
        "ns, s_values", [((16, 64, 256), (7, 3)), ((32, 512), (9,)), ((8, 128, 256), ())]
    )
    @pytest.mark.parametrize("points", [1, 37, 600])
    @pytest.mark.parametrize("radius", [0, 2])
    @pytest.mark.parametrize("system", [BERNOULLI, MARKOV], ids=["bernoulli", "markov"])
    def test_equals_whole_block(self, system, radius, points, ns, s_values):
        word = [1, 0] * radius + [1]
        left = systems.cylinder_observable(radius, {tuple(word): 0.37}, default=-1.3)
        spec = _pair_spec(system, left, max(ns), kind="primes")
        generator = averages.product_term_generator(spec, master_seed=17)
        got = dyadic.batch_moments(generator, 0, points, ns, s_values)
        ks = np.arange(1, dyadic.term_columns(ns, s_values) + 1)
        want = _whole_block_moments(
            _rows_of(generator(np.arange(points), ks)), ns, s_values
        )
        assert (got.points, got.columns) == (want.points, want.columns) == (points, ks.size)
        assert got.prefix_moments == want.prefix_moments
        assert len(got.level_totals) == len(s_values)
        for totals, ref in zip(got.level_totals, want.level_totals):
            assert totals.shape == ref.shape and totals.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("multipliers", [(1, 2, 3), (3, -1, 2)], ids=["l3", "l3-negative"])
    @pytest.mark.parametrize("system", [BERNOULLI, MARKOV], ids=["bernoulli", "markov"])
    def test_equals_per_point_terms(self, system, multipliers):
        # Three factors, one of radius 2, against term rows built point by
        # point from each point's own sample_at draw, factor by factor.
        ns, s_values, points = (16, 64, 128), (7, 3), 37
        first = systems.cylinder_observable(2, {(1, 0, 1, 0, 1): 0.37}, default=-1.3)
        spec = _triple_spec(system, multipliers, max(ns), first, kind="primes")
        generator = averages.product_term_generator(spec, master_seed=17)
        got = dyadic.batch_moments(generator, 0, points, ns, s_values)
        rows = np.ones((points, spec.n_max))
        positions = spec.resolve(np.arange(1, spec.n_max + 1))[0]
        for j in range(points):
            symbols = systems.sample_at(system, positions, 1, rng_for(17, ROLE_TERMS, j))[0]
            point = systems.ShiftPoint(positions, symbols)
            for obs, m in zip(spec.observables, spec.multipliers):
                shifted = (systems.shift_apply(point, m * int(r)) for r in spec.terms)
                rows[j] *= [systems.evaluate(obs, x) for x in shifted]
        want = _whole_block_moments(rows, ns, s_values)
        assert got.prefix_moments == want.prefix_moments
        for totals, ref in zip(got.level_totals, want.level_totals):
            assert totals.tobytes() == ref.tobytes()

    def test_array_and_slabs_agree(self):
        arr = np.random.default_rng(3).standard_normal((300, 256))
        whole = dyadic.block_moments(arr, (16, 200), (8, 2))
        cut = dyadic.block_moments((arr[lo:lo + 7] for lo in range(0, 300, 7)), (16, 200), (8, 2))
        assert whole.prefix_moments == cut.prefix_moments
        for a, b in zip(whole.level_totals, cut.level_totals):
            assert a.tobytes() == b.tobytes()
        with pytest.raises(ShapeMismatch):
            dyadic.block_moments(iter([arr[:5], arr[5:, :128]]), (16,))
        with pytest.raises(ShapeMismatch):
            dyadic.block_moments(iter([]), (16,))


def _command_moments(spec, points, ns):
    """``ensemble_moments`` of the product term generator seeded 2024, over
    the point batches ``ergolab run dyadic`` uses: a row counts
    ``term_bytes``."""
    row_bytes = averages.term_bytes(spec, dyadic.term_columns(ns))[0]
    generator = averages.product_term_generator(spec, 2024)
    return ensemble_moments(generator, points, ns, row_bytes=row_bytes)


class TestBernoulliOracle:
    def test_e_is_n_over_16(self):
        # Bernoulli(1/2, 1/2), f and g the centered indicators of [1] and
        # [0], multipliers (1, 2), r_n = n.  E[F_k F_l] vanishes unless
        # k = l: for distinct positions k, 2k, l, 2l the mean-zero factors
        # are independent, and for l = 2k the middle product f g = -1/4 is
        # constant, leaving E[f] E[g] = 0.  So E(0, N) = N E[f^2] E[g^2] =
        # N / 16.  Each N is checked at 4 standard errors, two-sided, so a
        # correct E fails an N with probability about 6.3e-5 (normal
        # approximation to the mean of 1024 squared sums).
        f = systems.centered_cylinder_indicator(BERNOULLI, [1])
        spec = _pair_spec(BERNOULLI, f, 2048)
        ns = (64, 128, 256, 512, 1024, 2048)
        moments = _command_moments(spec, 1024, ns)
        for n, (e, se) in zip(ns, moments.e_values):
            assert abs(e - n / 16) <= 4 * se, (n, e, se)


    def test_e_is_n_over_64_at_three_factors(self):
        # Multipliers (1, 2, 3): for k < l the factor at position k has no
        # partner among k, 2k, 3k, l, 2l, 3l, so again only k = l survives
        # and E(0, N) = N E[f^2]^3 = N / 64.
        spec = _triple_spec(BERNOULLI, (1, 2, 3), 512)
        ns = (64, 128, 256, 512)
        moments = _command_moments(spec, 1024, ns)
        z = z_for(len(ns))
        for n, (e, se) in zip(ns, moments.e_values):
            assert abs(e - n / 64) <= z * se, (n, e, se, z)


def _pair_rows(spec, n_max):
    """(k, E[F_k F_l] for l = k..n_max) for k = 1..n_max, for radius-0
    factors along r_n = n on a shift.

    Each E[F_k F_l] starts from the stationary vector and walks the sorted
    positions m_i k and m_i l, crossing each gap g with P^g
    (``transition_power``; P^0 = I merges positions that coincide) and
    multiplying by the factor read there.  Pairs are symmetric, so row k
    takes l = k..n_max, all at once.
    """
    system = spec.system
    tables = np.array(
        [systems.cylinder_table(obs, system.alphabet_size) for obs in spec.observables]
    )
    multipliers = np.array(spec.multipliers)
    factors = np.tile(np.arange(multipliers.size), 2)
    powers = np.stack(
        [np.eye(system.alphabet_size)]
        + [system.transition_power(g) for g in range(1, multipliers.max() * n_max)]
    )
    for k in range(1, n_max + 1):
        ls = np.arange(k, n_max + 1)
        positions = np.concatenate(
            [np.tile(multipliers * k, (ls.size, 1)), np.outer(ls, multipliers)], axis=1
        )
        order = np.argsort(positions, axis=1, kind="stable")
        positions = np.take_along_axis(positions, order, axis=1)
        read = factors[order]
        state = system.stationary * tables[read[:, 0]]
        for i in range(1, positions.shape[1]):
            step = powers[positions[:, i] - positions[:, i - 1]]
            state = np.einsum("pi,pij->pj", state, step) * tables[read[:, i]]
        yield k, state.sum(axis=1)


def _exact_e(spec, ns):
    """Exact E(0, N) = sum over k, l <= N of E[F_k F_l] for each N in ns."""
    totals = np.zeros(len(ns))
    for k, pairs in _pair_rows(spec, max(ns)):
        partial = np.cumsum(pairs)
        for j, n in enumerate(ns):
            if n >= k:
                totals[j] += 2 * partial[n - k] - pairs[0]
    return totals


def _exact_levels(spec, s):
    """Exact means of the L_s level totals: entry r is the sum over the
    2^(s - r) level-r blocks B of E[(sum of F_k over B)^2], so row k adds
    its pairs with l in k's own block, which ends at the next multiple of
    2^r."""
    means = np.zeros(s)
    for k, pairs in _pair_rows(spec, 1 << s):
        for r in range(s):
            end = (((k - 1) >> r) + 1) << r
            means[r] += 2 * pairs[: end - k + 1].sum() - pairs[0]
    return means


class TestMarkovOracle:
    NS = (64, 128, 256, 512, 1024, 2048)

    def test_reference_is_n_over_16_on_bernoulli(self):
        spec = _pair_spec(BERNOULLI, systems.centered_cylinder_indicator(BERNOULLI, [1]), 2048)
        assert np.allclose(_exact_e(spec, self.NS), np.array(self.NS) / 16, rtol=1e-12, atol=0)

    def test_ensemble_e_matches_exact_on_markov_chain(self):
        # The (9/10, 1/10; 1/2, 1/2) chain, f and g the centered indicators
        # of [1] and [0], multipliers (1, 2), r_n = n: the pairs k != l no
        # longer vanish.  Each N is checked at 4 standard errors, two-sided
        # (about 6.3e-5 false alarms per N, as in TestBernoulliOracle).
        spec = _pair_spec(MARKOV, systems.centered_cylinder_indicator(MARKOV, [1]), 2048)
        exact = _exact_e(spec, self.NS)
        moments = _command_moments(spec, 1024, self.NS)
        for n, want, (e, se) in zip(self.NS, exact, moments.e_values):
            assert abs(e - want) <= 4 * se, (n, e, se, want)


    def test_reference_is_n_over_64_on_bernoulli_at_three_factors(self):
        spec = _triple_spec(BERNOULLI, (1, 2, 3), 512)
        ns = self.NS[:4]
        assert np.allclose(_exact_e(spec, ns), np.array(ns) / 64, rtol=1e-12, atol=0)

    def test_ensemble_e_matches_exact_at_three_factors(self):
        # Six-fold walks on the (9/10, 1/10; 1/2, 1/2) chain, where pairs
        # k != l survive.
        spec = _triple_spec(MARKOV, (1, 2, 3), 512)
        ns = self.NS[:4]
        exact = _exact_e(spec, ns)
        moments = _command_moments(spec, 1024, ns)
        z = z_for(len(ns))
        for n, want, (e, se) in zip(ns, exact, moments.e_values):
            assert abs(e - want) <= z * se, (n, e, se, want, z)


class TestLevelMeans:
    S = 9

    def test_reference_level_means_on_bernoulli(self):
        # Only the pairs k = l survive (TestBernoulliOracle), so each level
        # of L_s sums 2^s squares of mean 1/16.
        f = systems.centered_cylinder_indicator(BERNOULLI, [1])
        spec = _pair_spec(BERNOULLI, f, 1 << self.S)
        want = np.full(self.S, (1 << self.S) / 16)
        assert np.allclose(_exact_levels(spec, self.S), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("system", [BERNOULLI, MARKOV], ids=["bernoulli", "markov"])
    def test_ensemble_level_means_match_exact(self, system):
        # Each level's per-point totals and the L_s total over 1024 points,
        # from the product term generator seeded 2024, lie within z standard
        # errors of their exact means, z for s + 1 checks at the
        # FALSE_ALARM_PER_TEST rate.
        s, points = self.S, 1024
        spec = _pair_spec(system, systems.centered_cylinder_indicator(system, [1]), 1 << s)
        exact = _exact_levels(spec, s)
        generator = averages.product_term_generator(spec, 2024)
        slabs = generator(np.arange(points), np.arange(1, (1 << s) + 1))
        levels = dyadic.block_moments(slabs, (1 << s,), (s,)).level_totals[0]
        per_point = np.vstack([levels, levels.sum(axis=0)])
        want = np.append(exact, exact.sum())
        means = per_point.mean(axis=1)
        errors = per_point.std(axis=1, ddof=1) / np.sqrt(points)
        z = z_for(s + 1)
        for r, (mean, se, exact_mean) in enumerate(zip(means, errors, want)):
            assert abs(mean - exact_mean) <= z * se, (r, mean, se, exact_mean, z)


def _traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates, by tracemalloc."""
    import numpy.random  # noqa: F401 - a first stream imports it; not fn's allocation

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBatchMemory:
    def test_batch_holds_about_one_term_block(self):
        # 512 x 2048 float64 terms are 8 MiB; the batch holds at most twice that.
        spec = _pair_spec(BERNOULLI, systems.centered_cylinder_indicator(BERNOULLI, [1]), 2048)
        generator = averages.product_term_generator(spec, master_seed=7)
        ns = (64, 128, 256, 512, 1024, 2048)
        peak = _traced_peak(dyadic.batch_moments, generator, 0, 512, ns, (6, 7, 8, 9, 10))
        assert peak <= 2 * 512 * 2048 * 8

    def test_iid_batch_streams_its_rows(self):
        # One int8 symbol per point and position (1.5 MiB) and slabs of
        # about SLAB_ITEMS terms: no 8 MiB term block and no 12 MiB block
        # of uniforms.
        spec = _pair_spec(BERNOULLI, systems.centered_cylinder_indicator(BERNOULLI, [1]), 2048)
        generator = averages.product_term_generator(spec, master_seed=7)
        ns = (64, 128, 256, 512, 1024, 2048)
        peak = _traced_peak(dyadic.batch_moments, generator, 0, 512, ns, (6, 7, 8, 9, 10))
        assert peak <= 5 << 20

    def test_iid_batch_holds_one_row_slab(self):
        # Each row slab is sampled, evaluated and reduced before the next:
        # the batch holds one 32-row slab of symbols, terms, word codes and
        # values, the level scratch and the per-row sums (2.3 MiB), and no
        # symbol block for all 512 points (1.5 MiB; 4.43 MiB in all).
        spec = _pair_spec(BERNOULLI, systems.centered_cylinder_indicator(BERNOULLI, [1]), 2048)
        generator = averages.product_term_generator(spec, master_seed=7)
        ns = (64, 128, 256, 512, 1024, 2048)
        peak = _traced_peak(dyadic.batch_moments, generator, 0, 512, ns, (6, 7, 8, 9, 10))
        assert peak <= 5 << 19

    def test_markov_batch_ceiling(self):
        # A non-i.i.d. chain still draws one (512, 3072) block of uniforms,
        # 12 MiB (ROADMAP item 5), and its batch peaked at 14.14 MiB; it
        # must not grow unseen.
        spec = _pair_spec(MARKOV, systems.centered_cylinder_indicator(MARKOV, [1]), 2048)
        generator = averages.product_term_generator(spec, master_seed=7)
        ns = (64, 128, 256, 512, 1024, 2048)
        peak = _traced_peak(dyadic.batch_moments, generator, 0, 512, ns, (6, 7, 8, 9, 10))
        assert peak <= (14.14 + 0.5) * (1 << 20)

    def test_iid_batch_factor_scratch_is_one_lane_block(self):
        # Word codes, gathered letters and later-factor values take LANES
        # entries (8192 x 17 bytes), not one per term of the 32 x 2048 slab
        # (2^16 x 17 bytes, 1.06 MiB): the batch peaked at 2.33 MiB with
        # slab-sized scratch and at 1.40 MiB with lane-sized scratch.
        spec = _pair_spec(BERNOULLI, systems.centered_cylinder_indicator(BERNOULLI, [1]), 2048)
        generator = averages.product_term_generator(spec, master_seed=7)
        ns = (64, 128, 256, 512, 1024, 2048)
        peak = _traced_peak(dyadic.batch_moments, generator, 0, 512, ns, (6, 7, 8, 9, 10))
        assert peak <= 1.5 * (1 << 20)

    @pytest.mark.parametrize("width", [256, 1 << 14])
    @pytest.mark.parametrize("radius", [0, 2])
    def test_validate_bounds_one_batch(self, radius, width):
        # Primes keep the factors' read positions apart, near their bound.
        word = [1, 0] * radius + [1]
        cfg = {
            "schema_version": 1,
            "experiment": "dyadic",
            "seed": 5,
            "system": {
                "kind": "shift",
                "adjacency": [[1, 1], [1, 1]],
                "transition": [["1/2", "1/2"], ["1/2", "1/2"]],
            },
            "observables": [
                {"variant": "cylinder", "radius": radius,
                 "table": [{"word": word, "value": 0.37}], "default": -1.3},
                {"variant": "cylinder", "radius": 0, "table": [{"word": [0], "value": 1.0}]},
            ],
            "params": {
                "multipliers": [1, 2],
                "sequence": {"kind": "primes"},
                "point_count": 600,
                "n_grid": [width >> 3, width >> 2, width >> 1, width],
                "exceptional": {"s_values": [width.bit_length() - 1, 3]},
            },
        }
        step, report = cli.validate_config(cfg)
        derived = report["derived"]
        spec = step.args[0]  # run_dyadic's first bound argument
        batch = derived["batch_points"]
        ns, s_values = tuple(cfg["params"]["n_grid"]), (width.bit_length() - 1, 3)

        def one_batch():  # a run's generator, then its first batch task
            generator = averages.product_term_generator(spec, 5)
            return dyadic.batch_moments(generator, 0, batch, ns, s_values)

        assert _traced_peak(one_batch) <= derived["batch_bytes"]
        # A row: W float64 terms, a uniform and an int8 symbol at each of
        # the 2 radius + 2 positions per column the factors read at most.
        row = width * (8 + 9 * (2 * radius + 2))
        assert batch == min(512, dyadic.BATCH_BYTES // row)


class TestSigmaFit:
    def test_iid_slope_one(self):
        grid = [1 << j for j in range(4, 11)]
        es = []
        for n in grid:
            e, _ = _second_moment(TestEmpiricalE.iid_generator(), 2000, 0, n)
            es.append(e)
        fit = sigma_fit(grid, es)
        assert 0.9 <= fit.exponent <= 1.1

    def test_constant_terms_slope_two(self):
        grid = [1 << j for j in range(4, 10)]
        es = [float(n) ** 2 for n in grid]  # (sum of ones)^2
        fit = sigma_fit(grid, es)
        assert 1.9 <= fit.exponent <= 2.1

    def test_synthetic_long_memory(self):
        # Covariance (1+|j-k|)^(-1/2) gives E(0,N) ~ N^(3/2): sigma = 2 - delta.
        grid = [1 << j for j in range(6, 13)]
        es = []
        for n in grid:
            gaps = np.arange(1, n)
            total = n * 1.0 + 2.0 * np.sum((n - gaps) * (1.0 + gaps) ** -0.5)
            es.append(total)
        fit = sigma_fit(grid, es)
        assert fit.exponent == pytest.approx(1.5, abs=0.15)

    def test_grid_validation(self):
        with pytest.raises(InsufficientData):
            sigma_fit([16, 32, 64], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            sigma_fit([16, 32, 48, 64], [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_e_value_is_refused(self, bad):
        # NaN passes a positivity check, and its fit would write a bare NaN.
        with pytest.raises(DomainError, match=r"non-finite target entry at index \[2\]"):
            sigma_fit([16, 32, 64, 128], [1.0, 2.0, bad, 4.0])


class TestPowerGap:
    def test_example(self):
        lhs, rhs, passed = power_gap_check(2, 4, 1.0)
        assert (lhs, rhs, passed) == (4.0, 12.0, True)

    def test_zero_m_equality(self):
        lhs, rhs, passed = power_gap_check(0, 17, 0.5)
        assert lhs == pytest.approx(rhs) and passed

    def test_random_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(10 ** 4):
            n = int(rng.integers(2, 10 ** 5))
            m = int(rng.integers(0, n))
            epsilon = float(rng.choice([0.25, 0.5, 1.0]))
            assert power_gap_check(m, n, epsilon)[2]


class TestKsRatio:
    def test_finite_and_small_argmax(self):
        value, argmax = ks_ratio_bound(1.0, 0.5, 1 << 20)
        assert np.isfinite(value)
        assert argmax <= 16

    def test_sigma_two(self):
        value, _ = ks_ratio_bound(2.0, 1.0, 1 << 16)
        assert np.isfinite(value)

    def test_non_increasing_along_block_ends(self):
        def ratio(n, sigma=1.0, eps=0.5):
            s = s_of(n)
            return 2.0 ** (s * sigma / 2) * s ** (1.5 + eps) / (
                n ** (sigma / 2) * np.log(n) ** (1.5 + eps)
            )

        values = [ratio((1 << s) - 1) for s in range(5, 20)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_block_boundary_jump(self):
        # Crossing n = 2^s - 1 -> 2^s bumps s(n) by one: the ratio jumps by
        # a factor approaching 2^(sigma/2).
        sigma, eps = 1.0, 0.5

        def ratio(n):
            s = s_of(n)
            return 2.0 ** (s * sigma / 2) * s ** (1.5 + eps) / (
                n ** (sigma / 2) * np.log(n) ** (1.5 + eps)
            )

        jumps = [ratio(1 << s) / ratio((1 << s) - 1) for s in (10, 14, 18)]
        for jump, s in zip(jumps, (10, 14, 18)):
            assert jump == pytest.approx(2 ** (sigma / 2), rel=20 / s)
