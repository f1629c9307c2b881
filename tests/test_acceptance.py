"""Acceptance suite: quantitative desk-scale checks with stated tolerances.

Each criterion prints one PASS line with its runtime; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from ergolab import averages, cli, correlations as co, dyadic, matrix_growth as mg, sequences, systems

MARKOV = [[0.9, 0.1], [0.5, 0.5]]


@pytest.fixture(scope="module")
def markov():
    return systems.build_shift([[1, 1], [1, 1]], MARKOV)


@pytest.fixture(scope="module")
def bernoulli():
    return systems.bernoulli_system([0.5, 0.5])


class Budget:
    """Context timing a criterion against its stated runtime budget."""

    def __init__(self, number: int, description: str, seconds: float):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds:.0f}s budget: {elapsed:.1f}s"
            )
            print(
                f"ACCEPTANCE {self.number:2d}: PASS ({elapsed:6.2f}s / {self.seconds:.0f}s) "
                f"- {self.description}"
            )
        else:
            print(f"ACCEPTANCE {self.number:2d}: FAIL - {self.description}")
        return False


def random_cylinder_query(system, rng):
    factors = int(rng.integers(2, 5))
    times = rng.choice(np.arange(0, 13), size=factors, replace=False)
    observables = []
    for _ in range(factors):
        radius = int(rng.integers(0, 2))
        width = 2 * radius + 1
        table = {}
        for _ in range(int(rng.integers(1, 4))):
            word = tuple(int(s) for s in rng.integers(0, 2, size=width))
            table[word] = float(np.round(rng.uniform(-1, 1), 6))
        observables.append(systems.cylinder_observable(radius, table))
    return co.CorrelationQuery(
        system=system,
        observables=tuple(observables),
        times=tuple(int(t) for t in times),
    )


def test_criterion_01_oracle_equivalence(markov):
    with Budget(1, "Monte Carlo matches the exact transfer oracle (49/50)", 60):
        rng = np.random.default_rng(1001)
        hits = 0
        for index in range(50):
            query = random_cylinder_query(markov, rng)
            exact = co.exact_correlation_shift(query)
            estimate, std_error = co.mc_correlation(query, 10 ** 6, 9000 + index)
            if abs(estimate - exact) <= 4 * std_error:
                hits += 1
        assert hits >= 49, f"only {hits}/50 queries within 4 standard errors"


def test_criterion_02_pair_decay_rate(markov):
    with Budget(2, "exponential fit recovers sigma = ln 2.5 within 10%", 1):
        f = systems.centered_cylinder_indicator(markov, [0])
        fit = co.min_gap_decay_check(markov, [f, f], [(0, n) for n in range(1, 13)])
        assert fit.model == co.EXPONENTIAL_MODEL
        assert abs(fit.exponent - math.log(2.5)) <= 0.10 * math.log(2.5)


def test_criterion_03_cumulant_identity():
    with Budget(3, "moment/cumulant roundtrip <= 1e-10, partition count 52", 5):
        rng = np.random.default_rng(42)
        for order in range(1, 7):
            keys = [
                frozenset(c)
                for size in range(1, order + 2)
                for c in itertools.combinations(range(order + 1), size)
            ]
            for _ in range(100):
                moments = {k: float(rng.normal()) for k in keys}
                table = co.moments_to_cumulants(moments)
                back = co.cumulants_to_moments(table.cumulants)
                worst = max(abs(back[k] - moments[k]) for k in keys)
                assert worst <= 1e-10, f"roundtrip error {worst} at order {order}"
        assert sum(1 for _ in co.set_partitions(range(5))) == 52


def test_criterion_04_independence_zeroing(bernoulli):
    with Budget(4, "Bernoulli joint cumulants of size >= 2 vanish to 1e-12", 1):
        f = systems.centered_cylinder_indicator(bernoulli, [1])
        g = systems.centered_cylinder_indicator(bernoulli, [0])
        table = co.joint_cumulants(bernoulli, [f, g, f, g], [0, 3, 7, 12])
        for subset, value in table.cumulants.items():
            if len(subset) >= 2:
                assert abs(value) <= 1e-12


def test_criterion_05_dyadic_machinery():
    with Budget(5, "decompose exhaustive, chain inequality, power gap", 10):
        for n in range(1, 1 << 10):
            s = dyadic.s_of(n)
            blocks = dyadic.decompose(n, s)
            assert len(blocks) <= s
            covered = [m for b in blocks for m in range(b.lo, b.hi + 1)]
            assert sorted(covered) == list(range(1, n + 1))
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 513))
            assert dyadic.chain_inequality_check(rng.normal(size=n), n).passed
        for _ in range(10 ** 4):
            n = int(rng.integers(2, 10 ** 5))
            m = int(rng.integers(0, n))
            epsilon = float(rng.choice([0.25, 0.5, 1.0]))
            assert dyadic.power_gap_check(m, n, epsilon)[2]


def _pair_product_spec(system, n_max, kind="linear"):
    f = systems.centered_cylinder_indicator(system, [1])
    g = systems.centered_cylinder_indicator(system, [0])
    return averages.AverageSpec(
        system=system,
        observables=(f, g),
        multipliers=(1, 2),
        sequence=sequences.SequenceSpec(kind=kind),
        n_max=n_max,
    )


def test_criterion_06_variance_exponent(bernoulli):
    with Budget(6, "slope of log E(0,N) vs log N in [0.85, 1.15]", 300):
        spec = _pair_product_spec(bernoulli, 1 << 13)
        generator = averages.product_term_generator(spec, master_seed=606)
        grid = [1 << j for j in range(6, 14)]
        # One term matrix per point batch serves every grid N.
        moments = dyadic.ensemble_moments(generator, 10 ** 4, grid)
        fit = dyadic.sigma_fit(grid, [e for e, _ in moments.e_values])
        assert 0.85 <= fit.exponent <= 1.15, f"slope {fit.exponent}"


def _trend_checks(summary, label):
    medians = summary.medians
    assert all(
        b <= a + 1e-15 for a, b in zip(medians[-3:], medians[-2:])
    ), f"{label}: medians not non-increasing across the last three checkpoints"
    fraction = summary.fractions_above_median[-1]
    assert fraction <= 0.05, f"{label}: final fraction {fraction} above 0.05"


def test_criterion_07_pointwise_rate_trend(bernoulli):
    with Budget(7, "ensemble statistic shrinks below its level at N = 2^7", 600):
        for kind in ("linear", "primes"):
            spec = _pair_product_spec(bernoulli, 1 << 13, kind=kind)
            summary = averages.ensemble_rate_experiment(
                spec, 200, epsilon=1.0, delta=2.0, seed=707, min_checkpoint=1 << 7
            )
            assert summary.reference_checkpoint == 1 << 7
            _trend_checks(summary, kind)
            print(
                f"    [{kind}] final fraction above median ref: "
                f"{summary.fractions_above_median[-1]:.4f}; "
                f"above own ref (heavy-tailed, reported not asserted): "
                f"{summary.fractions_above_own[-1]:.4f}"
            )


def test_criterion_08_torus_exactness():
    with Budget(8, "cat-map character oracle exact and MC-consistent", 60):
        cat = systems.build_torus([[2, 1], [1, 1]], 96)
        f0 = systems.trig_cosine((-2, -1))
        f1 = systems.trig_cosine((1, 0))
        matched = co.CorrelationQuery(
            system=cat, observables=(f0, f1), times=(0, 1)
        )
        assert co.exact_correlation_torus(matched) == pytest.approx(0.5)

        transpose = tuple(zip(*cat.matrix))
        rng = np.random.default_rng(808)
        checked = 0
        while checked < 100:
            k0 = tuple(int(v) for v in rng.integers(-5, 6, size=2))
            k1 = tuple(int(v) for v in rng.integers(-5, 6, size=2))
            if k0 == (0, 0) or k1 == (0, 0):
                continue
            moved = tuple(sum(r * v for r, v in zip(row, k1)) for row in transpose)
            if moved == tuple(-v for v in k0) or moved == k0:
                continue  # matched pair: excluded from the zero check
            query = co.CorrelationQuery(
                system=cat,
                observables=(systems.trig_cosine(k0), systems.trig_cosine(k1)),
                times=(0, 1),
            )
            assert co.exact_correlation_torus(query) == 0.0
            checked += 1

        estimate, std_error = co.mc_correlation(matched, 10 ** 5, 8008)
        assert abs(estimate - 0.5) <= 4 * std_error

        # Finite-model bijectivity, exhaustive at q = 8, d = 2.
        grid = np.arange(256, dtype=np.int64)
        xs, ys = np.meshgrid(grid, grid, indexing="ij")
        image = ((2 * xs + ys) % 256) * 256 + ((xs + ys) % 256)
        assert np.unique(image).size == 256 * 256


def test_criterion_09_matrix_growth():
    with Budget(9, "Jordan bound, growth profiles, pair counting, balance", 30):
        for n in range(0, 10 ** 4 + 1, 21):
            assert mg.jordan_block_growth(1.0, n) >= n
        shear = mg.growth_profile([[1, 1], [0, 1]], 64)
        assert shear.base == pytest.approx(1.0, abs=0.01) and shear.poly_degree == 1
        cat_profile = mg.growth_profile([[2, 1], [1, 1]], 64)
        assert cat_profile.base == pytest.approx(2.6180, rel=0.01)
        assert cat_profile.poly_degree == 0

        pair = mg.CommutingPair(g=[[1, 1], [0, 1]], h=[[1, 3], [0, 1]])
        base_run = mg.pair_counting_check(pair, range(1, 41), 2000, 2000)
        doubled = mg.pair_counting_check(pair, range(1, 81), 2000, 2000)
        assert base_run.orientation == "row" and doubled.orientation == "row"
        ratio = doubled.decisive.witness / base_run.decisive.witness
        assert 0.90 <= ratio <= 1.10, f"witness moved by {ratio} under grid doubling"

        cat = np.array([[2.0, 1.0], [1.0, 1.0]])
        balance = mg.hyperbolic_balance_bound(
            mg.CommutingPair(g=np.linalg.inv(cat), h=cat), 10, range(0, 41)
        )
        assert balance.passed


def test_criterion_10_counting_conditions():
    with Budget(10, "c and b counting checks with expected witnesses", 5):
        c_report = sequences.check_c_condition(np.arange(1, 1001, dtype=float), 1000)
        assert c_report.passed and c_report.witness == pytest.approx(1.0)
        ms = np.arange(1, 101, dtype=float)[:, None]
        ks = np.arange(1, 10 ** 4 + 1, dtype=float)[None, :]
        b_report = sequences.check_b_condition(
            np.abs(2 * ks - 3 * ms) + 1.0, "row", range(1, 101), 10 ** 4
        )
        assert b_report.passed and b_report.witness <= 1.0
        clustered = sequences.check_b_condition(np.ones((10, 1000)), "row", range(1, 11), 1000)
        assert not clustered.passed


def test_criterion_11_reproducibility(tmp_path):
    with Budget(11, "byte-identical artifacts for worker counts 1 and 4", 120):
        config = {
            "schema_version": 1,
            "experiment": "ratecheck",
            "seed": 1111,
            "system": {
                "kind": "shift",
                "adjacency": [[1, 1], [1, 1]],
                "transition": [["1/2", "1/2"], ["1/2", "1/2"]],
            },
            "observables": [
                {
                    "variant": "cylinder",
                    "radius": 0,
                    "table": [{"word": [1], "value": 1.0}],
                    "centered": True,
                },
                {
                    "variant": "cylinder",
                    "radius": 0,
                    "table": [{"word": [0], "value": 1.0}],
                    "centered": True,
                },
            ],
            "params": {
                "multipliers": [1, 2],
                "sequence": {"kind": "linear"},
                "n_max": 1024,
                "point_count": 40,
                "epsilon": 1.0,
                "delta": 2.0,
                "min_checkpoint": 16,
            },
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = {}
        for workers in (1, 4):
            directory = tmp_path / f"w{workers}"
            assert cli.run(path, directory, workers=workers, emit_svg=False) == 0
            out[workers] = directory
        for name in ("ratecheck.csv", "ratecheck_summary.json", "summary.json"):
            bytes_1 = (out[1] / name).read_bytes()
            bytes_4 = (out[4] / name).read_bytes()
            assert bytes_1 == bytes_4, f"{name} differs between worker counts"
        # And a full rerun with the same config reproduces the same hashes.
        rerun = tmp_path / "rerun"
        assert cli.run(path, rerun, workers=1, emit_svg=False) == 0
        first = json.loads((out[1] / "manifest.json").read_text())["artifacts"]
        second = json.loads((rerun / "manifest.json").read_text())["artifacts"]
        assert first == second
