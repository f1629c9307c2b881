"""Seeded workload configs and the correctness gates each must pass.

A workload is a list of ``ergolab`` configs.  The benchmark seed only picks
each config's random-stream ``seed``; every size that sets the amount of
work is fixed, so the cost of a workload does not depend on the seed and
two seeds can be timed against each other.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

# Per benchmark run, the chance that a correct program fails any Monte
# Carlo gate.  Split over the run's MC comparisons (Bonferroni), it gives
# the z multiplier of the standard error.
MC_FALSE_ALARM_PER_RUN = 1e-6

CUMULANT_RATE = math.log(2.5)  # -ln of the second eigenvalue 0.4 of the chain below
CAT_MAP_BASE = (3.0 + math.sqrt(5.0)) / 2.0

BERNOULLI = {
    "kind": "shift",
    "adjacency": [[1, 1], [1, 1]],
    "transition": [["1/2", "1/2"], ["1/2", "1/2"]],
}
MARKOV = {
    "kind": "shift",
    "adjacency": [[1, 1], [1, 1]],
    "transition": [["9/10", "1/10"], ["1/2", "1/2"]],
}
CAT_MAP = [[2, 1], [1, 1]]
UNIPOTENT = [[1, 1], [0, 1]]


def centered(symbol: int) -> dict:
    return {
        "variant": "cylinder",
        "radius": 0,
        "table": [{"word": [symbol], "value": 1.0}],
        "centered": True,
    }


TORUS_OBSERVABLES = [
    {"variant": "trig", "terms": [{"freq": [-2, -1], "cos": 1.0}]},
    {"variant": "trig", "terms": [{"freq": [1, 0], "cos": 1.0}]},
]


def config(experiment: str, seed: int, params: dict, system=None, observables=None) -> dict:
    cfg = {"schema_version": 1, "experiment": experiment, "seed": seed, "params": params}
    if system is not None:
        cfg["system"] = system
        cfg["observables"] = observables
    return cfg


# ---------------------------------------------------------------------------
# Config generators: seed -> {config name: config}
# ---------------------------------------------------------------------------

RATECHECK_POINTS = 20
MARKOV_GAPS = tuple(range(1, 13))
MARKOV_SAMPLES = 200_000
CUMULANT_TUPLES = tuple((0, a, 2 * a) for a in range(1, 9))
DYADIC_POINTS = 1024
DYADIC_GRID = (64, 128, 256, 512, 1024, 2048)
DYADIC_S_VALUES = (6, 7, 8, 9, 10)
TORUS_QUERIES = ((0, 1), (0, 2), (0, 3), (1, 2))
TORUS_SAMPLES = 8_000
TORUS_STREAM_N = 768
TORUS_STREAM_POINTS = 2
TORUS_PRECISIONS = (128, 64)
GROWTH_PAIR = {"g": [[1, 1], [0, 1]], "h": [[1, 3], [0, 1]], "m_grid": 16, "k_max": 600, "n_max": 600}


def ratecheck_configs(rng: random.Random) -> dict:
    params = {
        "multipliers": [1, 2],
        "sequence": {"kind": "primes"},
        "n_max": 8192,
        "point_count": RATECHECK_POINTS,
        "epsilon": 1.0,
        "delta": 2.0,
        "min_checkpoint": 128,
    }
    return {
        "ratecheck": config(
            "ratecheck", rng.randrange(1 << 31), params, BERNOULLI, [centered(1), centered(0)]
        )
    }


def markov_configs(rng: random.Random) -> dict:
    correlate = {
        "queries": [{"times": [0, t]} for t in MARKOV_GAPS],
        "method": "both",
        "samples": MARKOV_SAMPLES,
    }
    cumulants = {"time_tuples": [list(t) for t in CUMULANT_TUPLES]}
    return {
        "correlate": config(
            "correlate", rng.randrange(1 << 31), correlate, MARKOV, [centered(0), centered(0)]
        ),
        "cumulants": config(
            "cumulants",
            rng.randrange(1 << 31),
            cumulants,
            MARKOV,
            [centered(0), centered(0), centered(1)],
        ),
    }


def dyadic_configs(rng: random.Random) -> dict:
    params = {
        "multipliers": [1, 2],
        "sequence": {"kind": "linear"},
        "point_count": DYADIC_POINTS,
        "n_grid": list(DYADIC_GRID),
        "exceptional": {"s_values": list(DYADIC_S_VALUES), "epsilon": 1.0, "sigma": 1.0},
    }
    return {
        "dyadic": config(
            "dyadic", rng.randrange(1 << 31), params, BERNOULLI, [centered(1), centered(0)]
        )
    }


def torus_configs(rng: random.Random) -> dict:
    out = {}
    for bits in TORUS_PRECISIONS:
        system = {"kind": "torus", "matrix": CAT_MAP, "precision_bits": bits}
        correlate = {
            "queries": [{"times": list(t)} for t in TORUS_QUERIES],
            "method": "both",
            "samples": TORUS_SAMPLES,
        }
        stream = {
            "multipliers": [1, 2],
            "sequence": {"kind": "linear"},
            "n_max": TORUS_STREAM_N,
            "point_count": TORUS_STREAM_POINTS,
            "epsilon": 1.0,
            "delta": 2.0,
        }
        out[f"correlate_q{bits}"] = config(
            "correlate", rng.randrange(1 << 31), correlate, system, TORUS_OBSERVABLES
        )
        out[f"average_q{bits}"] = config(
            "average", rng.randrange(1 << 31), stream, system, TORUS_OBSERVABLES
        )
    growth = {"matrices": [UNIPOTENT, CAT_MAP], "n_max": 64, "pair": GROWTH_PAIR}
    out["growth"] = config("growth", rng.randrange(1 << 31), growth)
    return out


# ---------------------------------------------------------------------------
# Correctness gates: (config name, output dir) -> [(gate name, ok, detail)]
# ---------------------------------------------------------------------------

Gate = tuple[str, bool, str]


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def mc_z(comparisons: int) -> float:
    """Two-sided normal quantile for the per-run false-alarm rate."""
    return NormalDist().inv_cdf(1.0 - MC_FALSE_ALARM_PER_RUN / (2.0 * comparisons))


def mc_gates(out: Path, z: float) -> list[Gate]:
    """Each Monte Carlo row must lie within z standard errors of the exact
    row of the same query (rows come in exact, mc pairs)."""
    rows = read_csv(out / "correlations.csv")
    times = [k for k in rows[0] if k.startswith("t_")]
    exact = {tuple(r[k] for k in times): float(r["estimate"]) for r in rows if r["exact"] == "true"}
    gates = []
    for r in rows:
        if r["exact"] != "false":
            continue
        key = tuple(r[k] for k in times)
        estimate, se = float(r["estimate"]), float(r["std_error"])
        dev = abs(estimate - exact[key])
        gates.append(
            (f"mc_vs_oracle{list(map(int, key))}", dev <= z * se, f"|{dev:.3g}| vs {z:.2f}*{se:.3g}")
        )
    return gates


def ratecheck_gates(name: str, out: Path) -> list[Gate]:
    medians = read_json(out / "ratecheck_summary.json")["medians"]
    return [("median_trend", medians[-1] < medians[0], f"{medians[-1]:.4g} < {medians[0]:.4g}")]


def markov_gates(name: str, out: Path) -> list[Gate]:
    if name == "correlate":
        return mc_gates(out, mc_z(len(MARKOV_GAPS)))
    sigma = read_json(out / "cumulant_fit.json")["exponent"]
    ok = sigma is not None and abs(sigma - CUMULANT_RATE) <= 0.10 * CUMULANT_RATE
    return [("cumulant_rate", ok, f"{sigma} vs ln 2.5 = {CUMULANT_RATE:.4f}")]


def dyadic_gates(name: str, out: Path) -> list[Gate]:
    sigma = read_json(out / "sigma_fit.json")["exponent"]
    gates = [("sigma_hat", 0.85 <= sigma <= 1.15, f"{sigma:.4f} in [0.85, 1.15]")]
    for row in read_csv(out / "dyadic_exceptional.csv"):
        fraction, bound = float(row["fraction"]), float(row["chebyshev_bound"])
        gates.append((f"chebyshev_s{row['s']}", fraction <= bound, f"{fraction:.4g} <= {bound:.4g}"))
    return gates


def torus_gates(name: str, out: Path) -> list[Gate]:
    if name.startswith("correlate"):
        return mc_gates(out, mc_z(len(TORUS_QUERIES) * len(TORUS_PRECISIONS)))
    if name != "growth":
        return []
    result = read_json(out / "summary.json")["result"]
    unipotent, cat = result["matrix_0"], result["matrix_1"]
    return [
        (
            "unipotent_growth",
            abs(unipotent["base"] - 1.0) <= 0.01 and unipotent["poly_degree"] == 1,
            f"base {unipotent['base']:.5f}, degree {unipotent['poly_degree']}",
        ),
        (
            "cat_map_growth",
            abs(cat["base"] - CAT_MAP_BASE) <= 0.01 * CAT_MAP_BASE and cat["poly_degree"] == 0,
            f"base {cat['base']:.5f} vs {CAT_MAP_BASE:.5f}",
        ),
    ]


@dataclass(frozen=True)
class Workload:
    """A named config generator with its gates; BENCHMARK.json says why."""

    name: str
    configs: Callable[[random.Random], dict]
    gates: Callable[[str, Path], list[Gate]]

    def make_configs(self, seed: int) -> dict:
        return self.configs(random.Random(f"{self.name}:{seed}"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ratecheck-primes", ratecheck_configs, ratecheck_gates),
        Workload("markov-correlate", markov_configs, markov_gates),
        Workload("dyadic-ensemble", dyadic_configs, dyadic_gates),
        Workload("torus-exact", torus_configs, torus_gates),
    )
}
