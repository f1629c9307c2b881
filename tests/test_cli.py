"""CLI: config validation, artifact determinism, exit codes."""

import ast
import copy
import hashlib
import importlib.util
import json
import os
import platform
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import ergolab
from ergolab import averages, cli, correlations, dyadic
from ergolab.errors import ConfigError, DomainError
from ergolab.seeding import rng_for
from pairwise_sums import tree_block_sums

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"

BERNOULLI_SYSTEM = {
    "kind": "shift",
    "adjacency": [[1, 1], [1, 1]],
    "transition": [["1/2", "1/2"], ["1/2", "1/2"]],
}

MARKOV_TRANSITION = [["9/10", "1/10"], ["1/2", "1/2"]]

INDICATOR_0 = {"variant": "cylinder", "radius": 0, "table": [{"word": [0], "value": 1.0}]}
INDICATOR_1 = {"variant": "cylinder", "radius": 0, "table": [{"word": [1], "value": 1.0}]}
TRIG_OBS = {"variant": "trig", "terms": [{"freq": [1, 0], "cos": 1.0}]}


def minimal_correlate():
    return {
        "schema_version": 1,
        "experiment": "correlate",
        "seed": 4,
        "system": BERNOULLI_SYSTEM,
        "observables": [INDICATOR_0, INDICATOR_1],
        "params": {"queries": [{"times": [0, 3]}, {"times": [0, 5]}], "method": "exact"},
    }


def shift_mc_correlate():
    # Five queries: three workers split them 2, 2, 1; sixteen outnumber them.
    cfg = minimal_correlate()
    cfg["params"] = {
        "queries": [{"times": [0, gap]} for gap in (1, 2, 3, 5, 8)],
        "method": "mc",
        "samples": 2000,
    }
    return cfg


def minimal_cumulants(time_tuples):
    return {
        "schema_version": 1,
        "experiment": "cumulants",
        "seed": 4,
        "system": BERNOULLI_SYSTEM,
        "observables": [INDICATOR_0, INDICATOR_1],
        "params": {"time_tuples": time_tuples},
    }


def torus_config(experiment, params, bits=64):
    return {
        "schema_version": 1,
        "experiment": experiment,
        "seed": 8,
        "system": {"kind": "torus", "matrix": [[2, 1], [1, 1]], "precision_bits": bits},
        "observables": [
            {"variant": "trig", "terms": [{"freq": [-2, -1], "cos": 1.0}]},
            {"variant": "trig", "terms": [{"freq": [1, 0], "cos": 1.0, "sin": 0.5}]},
        ],
        "params": params,
    }


TORUS_CORRELATE = {
    "queries": [{"times": [0, 1]}, {"times": [0, 2]}, {"times": [1, 3]}],
    "method": "both",
    "samples": 3000,
}
TORUS_AVERAGE = {
    "multipliers": [1, -2],
    "sequence": {"kind": "primes"},
    "n_max": 96,
    "point_count": 3,
}


def minimal_dyadic(exceptional=None):
    params = {
        "multipliers": [1, 2],
        "point_count": 600,
        "n_grid": [16, 32, 64, 128],
    }
    if exceptional is not None:
        params["exceptional"] = exceptional
    return {
        "schema_version": 1,
        "experiment": "dyadic",
        "seed": 3,
        "system": BERNOULLI_SYSTEM,
        "observables": [dict(INDICATOR_1, centered=True), dict(INDICATOR_0, centered=True)],
        "params": params,
    }


def constant_dyadic():
    """A dyadic run that validate passes and run fails: its first factor
    is constant, so every centred term is 0, E(0, N) = 0 at every N, and
    the growth fit has no positive value to take."""
    cfg = minimal_dyadic()
    cfg["observables"][0] = {
        "variant": "cylinder", "radius": 0, "table": [], "default": 1.0, "centered": True
    }
    return cfg


def fail_oracle_at(time, monkeypatch):
    """Make the exact torus oracle raise on every query that reads ``time``."""
    oracle = correlations.exact_correlation_torus

    def fail(query):
        if time in query.times:
            raise DomainError(f"no exact value at time {time}")
        return oracle(query)

    monkeypatch.setattr(correlations, "exact_correlation_torus", fail)


def ratecheck_config():
    return {
        "schema_version": 1,
        "experiment": "ratecheck",
        "seed": 6,
        "system": BERNOULLI_SYSTEM,
        "observables": [
            dict(INDICATOR_0, centered=True),
            dict(INDICATOR_1, centered=True),
        ],
        "params": {
            "multipliers": [1, 2],
            "sequence": {"kind": "linear"},
            "n_max": 256,
            "point_count": 12,
            "epsilon": 1.0,
            "delta": 2.0,
            "min_checkpoint": 8,
        },
    }


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestValidate:
    def test_symbols_per_point_derivation(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "average",
            "seed": 1,
            "system": BERNOULLI_SYSTEM,
            "observables": [
                {"variant": "cylinder", "radius": 3, "table": [], "default": 1.0},
                INDICATOR_0,
            ],
            "params": {
                "multipliers": [1, 2],
                "sequence": {"kind": "polynomial", "coefficients": [0, 0, 1]},
                "n_max": 1024,
                "epsilon": 1.0,
                "delta": 2.0,
            },
        }
        _, report = cli.validate_config(cfg)
        assert report["ok"]
        # The union of n^2 + [-3, 3] and 2 n^2, not a window of radius 2 * 1024^2 + 3.
        read = {n * n + j for n in range(1, 1025) for j in range(-3, 4)}
        read |= {2 * n * n for n in range(1, 1025)}
        derived = report["derived"]
        assert derived["symbols_per_point"] == len(read)
        assert "required_window_radius" not in derived
        assert "window_bytes_per_point" not in derived

    def test_duplicate_multipliers_invalid(self):
        cfg = {
            "schema_version": 1,
            "experiment": "average",
            "seed": 1,
            "system": BERNOULLI_SYSTEM,
            "observables": [INDICATOR_0, INDICATOR_1],
            "params": {"multipliers": [2, 2], "n_max": 64},
        }
        _, report = cli.validate_config(cfg)
        assert not report["ok"]
        assert any("pairwise distinct" in msg for msg in report["errors"])

    def test_nonpositive_delta_invalid(self):
        cfg = {
            "schema_version": 1,
            "experiment": "average",
            "seed": 1,
            "system": BERNOULLI_SYSTEM,
            "observables": [INDICATOR_0],
            "params": {"multipliers": [1], "n_max": 64, "delta": 0.0},
        }
        _, report = cli.validate_config(cfg)
        assert not report["ok"]

    def test_unknown_keys_rejected(self):
        cfg = minimal_correlate()
        cfg["mystery"] = 1
        _, report = cli.validate_config(cfg)
        assert not report["ok"]
        assert any("unknown keys" in msg for msg in report["errors"])

    def test_non_stochastic_row_named(self):
        cfg = minimal_correlate()
        cfg["system"] = {
            "kind": "shift",
            "adjacency": [[1, 1], [1, 1]],
            "transition": [[0.7, 0.7], [0.5, 0.5]],
        }
        _, report = cli.validate_config(cfg)
        assert not report["ok"]
        assert any("row 0" in msg for msg in report["errors"])

    def test_transfer_span_is_largest_per_query(self, tmp_path):
        # The oracle walks each query's read positions on its own: two here,
        # however far apart the queries lie.
        cfg = minimal_correlate()
        cfg["params"]["queries"] = [{"times": [0, 1]}, {"times": [999990, 1000009]}]
        _, report = cli.validate_config(cfg)
        assert report["ok"]
        assert report["derived"]["symbols_per_sample"] == 2
        path = write_config(tmp_path, cfg)
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 0

    @pytest.mark.parametrize(
        "index, entry, field",
        [
            (0, {"word": [2], "value": 1.0}, "observables[0].table[0].word"),
            (1, {"value": 1.0}, "observables[1].table[0].word"),
        ],
    )
    def test_bad_table_word_names_field(self, tmp_path, capsys, index, entry, field):
        cfg = minimal_correlate()
        cfg["observables"] = [dict(INDICATOR_0), dict(INDICATOR_1)]
        cfg["observables"][index]["table"] = [entry]
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert any(field in msg for msg in report["errors"]), report["errors"]
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 2

    @pytest.mark.parametrize(
        "terms, message",
        [
            ([{"cos": 1.0}], "observables[0].terms[0].freq is missing"),
            ([5], "observables[0].terms[0] must be an object"),
            ([{"freq": 3, "cos": 1.0}], "observables[0].terms[0].freq must be a list"),
            (7, "observables[0].terms must be a list"),
            (
                [{"freq": [1, 0, 0], "cos": 1.0}],
                "observables[0].terms[0].freq has 3 entries, the torus dimension is 2",
            ),
        ],
    )
    def test_bad_trig_term_names_field(self, tmp_path, capsys, terms, message):
        cfg = torus_config("correlate", TORUS_CORRELATE)
        cfg["observables"][0] = {"variant": "trig", "terms": terms}
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert any(message in msg for msg in report["errors"]), report["errors"]
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["correlate", "average"])
    def test_torus_reports_precision_bits(self, experiment):
        params = TORUS_CORRELATE if experiment == "correlate" else TORUS_AVERAGE
        _, report = cli.validate_config(torus_config(experiment, params, bits=96))
        assert report["ok"]
        derived = report["derived"]
        assert derived["torus_precision_bits"] == 96
        for key in ("symbols_per_sample", "symbols_per_point"):
            assert key not in derived

    @pytest.mark.parametrize(
        "experiment, method, where",
        [
            ("correlate", "exact", "params.queries[0]"),
            ("correlate", "both", "params.queries[0]"),
            ("correlate", "mc", None),
            ("cumulants", None, "params.time_tuples[0]"),
        ],
    )
    def test_exact_torus_oracle_over_state_limit_is_config_error(self, experiment, method, where):
        # Five factors of 20 nonzero trig terms: the exact oracle would walk
        # 40^5 (about 1.0e8) tuples of exponential terms, which did not
        # finish in 20 s.  Monte Carlo walks none, so an mc query passes.
        terms = [{"freq": [j, 1], "cos": 1.0} for j in range(20)]
        times = [0, 1, 2, 3, 4]
        if experiment == "correlate":
            params = {"queries": [{"times": times}], "method": method, "samples": 100}
        else:
            params = {"time_tuples": [times]}
        cfg = torus_config(experiment, params)
        cfg["observables"] = [{"variant": "trig", "terms": terms}] * 5
        _, report = cli.validate_config(cfg)
        if where is None:
            assert report["ok"], report["errors"]
        else:
            assert not report["ok"]
            assert report["errors"][0].startswith(f"{where}: ")
            assert "102400000 character tuples" in report["errors"][0]

    @pytest.mark.parametrize(
        "exceptional, message",
        [
            ({"s_values": ["x"]}, "params.exceptional.s_values[0] must be an integer"),
            ({"s_values": [0]}, "params.exceptional.s_values[0] must be in 1..62"),
            ({"s_values": [3, 63]}, "params.exceptional.s_values[1] must be in 1..62"),
            ({"s_values": 5}, "params.exceptional.s_values must be a list"),
            ({"s_values": []}, "params.exceptional.s_values must be a non-empty list"),
            ({"s_values": [3], "epsilon": -1}, "params.exceptional.epsilon must be positive"),
            ({"s_values": [3], "sigma": "x"}, "params.exceptional.sigma: cannot parse"),
            ({"s_values": [3], "sigma": True}, "params.exceptional.sigma must be a number"),
            ({"s_values": [3], "extra": 1}, "in params.exceptional"),
            (7, "params.exceptional must be an object"),
        ],
    )
    def test_bad_exceptional_names_field(self, tmp_path, capsys, exceptional, message):
        path = write_config(tmp_path, minimal_dyadic(exceptional))
        assert cli.main(["validate", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert any(message in msg for msg in report["errors"]), report["errors"]
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path_to, value, message",
        [
            (("observables", 0, "radius"), "x", "observables[0].radius must be an integer"),
            # 2^23 words on two letters: more than a dense table holds.
            (("observables", 0, "radius"), 11, "observables[0].radius is too large"),
            (("observables", 1, "default"), [1], "observables[1].default must be a number"),
            (("params", "n_grid", 2), "x", "params.n_grid[2] must be an integer"),
            (("params", "n_grid", 1), 48, "params.n_grid[1] must be a power of two"),
            (("params", "multipliers", 1), 2.5, "params.multipliers[1] must be an integer"),
            (("params", "point_count"), "9", "params.point_count must be an integer"),
            (("system", "transition", 0, 1), "1/x", "system.transition[0][1]: cannot parse"),
            # SeedSequence takes no negative seed; this one ran and exited 3.
            (("seed",), -5, "seed must be >= 0, got -5"),
            # Non-finite numbers: a NaN default made every exact value nan.
            (
                ("observables", 1, "default"),
                float("nan"),
                "observables[1].default must be finite, got nan",
            ),
            (
                ("system", "transition", 0, 1),
                float("inf"),
                "system.transition[0][1] must be finite, got inf",
            ),
            (
                ("params", "exceptional"),
                {"s_values": [3], "sigma": float("-inf")},
                "params.exceptional.sigma must be finite",
            ),
            # Numbers past the float range; these exited 1 with a traceback.
            (("system", "transition", 0, 1), "1e400", "system.transition[0][1]: cannot parse"),
            pytest.param(
                ("observables", 1, "default"),
                10 ** 400,
                "observables[1].default: cannot parse",
                id="default-10^400",
            ),
            # Finite entries whose recentred table overflows.
            (
                ("observables", 0),
                {
                    "variant": "cylinder",
                    "table": [{"word": [0], "value": 1e308}],
                    "default": -1e308,
                    "centered": True,
                },
                "observables[0]: cylinder values must be finite",
            ),
            # The term generator builds W = max(max N, 2^max s) terms.
            (
                ("params", "n_grid", 3),
                2 ** 40,
                f"params.n_grid[3] needs 1099511627776 term columns, more than {cli.MAX_TERMS}",
            ),
            (
                ("params", "exceptional"),
                {"s_values": [3, 40]},
                "params.exceptional.s_values[1] needs 1099511627776 term columns",
            ),
            # A repeated N left the sigma fit without a slope.
            (("params", "n_grid", 2), 32, "params.n_grid[2] repeats 32"),
        ],
    )
    def test_bad_value_names_json_path(self, tmp_path, capsys, path_to, value, message):
        cfg = json.loads(json.dumps(minimal_dyadic()))
        target = cfg
        for key in path_to[:-1]:
            target = target[key]
        target[path_to[-1]] = value
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert any(message in msg for msg in report["errors"]), report["errors"]
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 2

    @pytest.mark.parametrize(
        "queries, message",
        [
            (
                [{"times": [0, 3]}, {"times": [0, "5"]}],
                "params.queries[1].times[1] must be an integer, got '5'",
            ),
            ([{"times": [0, 3]}, 5], "params.queries[1] must be an object with 'times'"),
            ("x", "correlate needs params.queries, a non-empty list of objects"),
        ],
    )
    def test_bad_query_names_json_path(self, queries, message):
        cfg = minimal_correlate()
        cfg["params"]["queries"] = queries
        _, report = cli.validate_config(cfg)
        assert report["errors"] == [message]

    @pytest.mark.parametrize(
        "kind, key, value, message",
        [
            ("shift", "adjacency", "x", "system.adjacency must be a non-empty list of rows"),
            ("shift", "adjacency", [[1, 1], [1]], "system.adjacency[1] has 1 entries, expected 2"),
            ("shift", "adjacency", [[1, "x"], [1, 1]], "system.adjacency[0][1] must be an integer"),
            (
                "shift",
                "transition",
                [["1/2", "1/2"], ["1/2"]],
                "system.transition[1] has 1 entries, expected 2",
            ),
            ("torus", "matrix", "x", "system.matrix must be a non-empty list of rows"),
            ("torus", "matrix", [[2, "a"], [1, 1]], "system.matrix[0][1] must be an integer"),
            ("torus", "matrix", [[2, 1, 0], [1, 1]], "system.matrix[0] has 3 entries, expected 2"),
            # Determinant 1, but the eigenvalue check converts to float64.
            (
                "torus",
                "matrix",
                [[1, 10 ** 400], [0, 1]],
                "system: matrix entries must lie within the float64 range",
            ),
        ],
    )
    def test_bad_matrix_names_field(self, tmp_path, capsys, kind, key, value, message):
        cfg = minimal_correlate() if kind == "shift" else torus_config("correlate", TORUS_CORRELATE)
        cfg["system"] = dict(cfg["system"], **{key: value})
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert any(message in msg for msg in report["errors"]), report["errors"]
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, path_to, value, message",
        [
            ("growth", ("pair", "m_grid"), 0, "params.pair.m_grid must be >= 1, got 0"),
            (
                "growth",
                ("n_max",),
                cli.MAX_TERMS + 1,
                f"params.n_max must be at most {cli.MAX_TERMS}, got {cli.MAX_TERMS + 1}",
            ),
            ("growth", ("pair", "k_max"), 2 ** 40, "params.pair.k_max must be at most"),
            ("growth", ("pair", "n_max"), 10 ** 9, "params.pair.n_max must be at most"),
            ("growth", ("pair", "balance", "m"), 2 ** 40, "params.pair.balance.m must be at most"),
            (
                "growth",
                ("pair", "balance", "n_max"),
                10 ** 9,
                "params.pair.balance.n_max must be at most",
            ),
            # Each size is small, but pair_norm_grid's (m_grid, k_max) array is not.
            (
                "growth",
                ("pair", "m_grid"),
                2 ** 18,
                f"params.pair: m_grid x k_max = 262144 x 8 grid cells, more than {cli.MAX_TERMS}",
            ),
            ("growth", ("pair", "k_max"), 1, "params.pair.k_max must be >= 2, got 1"),
            ("growth", ("pair", "n_max"), 0, "params.pair.n_max must be >= 1, got 0"),
            ("growth", ("pair", "balance", "m"), -1, "params.pair.balance.m must be >= 0"),
            ("growth", ("pair", "balance", "n_max"), -2, "params.pair.balance.n_max must be >= 0"),
            ("counting", ("checks", 0, "K"), -3, "params.checks[0].K must be >= 2, got -3"),
            ("counting", ("checks", 2, "K"), 0, "params.checks[2].K must be >= 1, got 0"),
            ("counting", ("checks", 1, "n_max"), 0, "params.checks[1].n_max must be >= 1, got 0"),
            ("counting", ("checks", 2, "s_max"), 0, "params.checks[2].s_max must be >= 1, got 0"),
            ("counting", ("checks", 2, "M_claim"), -1, "params.checks[2].M_claim must be >= 0"),
            ("counting", ("checks", 1, "m_max"), 0, "params.checks[1].m_max must be >= 1, got 0"),
            ("counting", ("checks", 0, "K"), 2 ** 40, "params.checks[0].K must be at most"),
            ("counting", ("checks", 0, "n_max"), 10 ** 9, "params.checks[0].n_max must be at most"),
            ("counting", ("checks", 2, "s_max"), 10 ** 9, "params.checks[2].s_max must be at most"),
            ("counting", ("checks", 1, "m_max"), 2 ** 40, "params.checks[1].m_max must be at most"),
            (
                "counting",
                ("checks", 1),
                {"type": "b", "values": [1, 2, 3, 4], "K": 4},
                "params.checks[1]: b checks need a sequence source",
            ),
            # The checkers take values >= 1 (or +inf); this one ran and exited 3.
            (
                "counting",
                ("checks", 2),
                {"type": "c", "values": [0.5, 2, 3, 4], "K": 4},
                "params.checks[2].values[0] must be >= 1 or infinite, got 0.5",
            ),
            ("counting", ("checks", 2, "values", 3), 0, "params.checks[2].values[3] must be >= 1"),
            # |t| max r_n must stay below 2^62 for exact int64 gaps; r_8 = 19.
            (
                "counting",
                ("checks", 0, "t_first"),
                10 ** 19,
                f"params.checks[0].t_first must be at most {(2 ** 62 - 1) // 19}, got {10 ** 19}",
            ),
            (
                "counting",
                ("checks", 1, "t_second"),
                -(2 ** 60),
                f"params.checks[1].t_second must be >= {-((2 ** 62 - 1) // 8)}",
            ),
            (
                "counting",
                ("checks", 1, "K"),
                2 ** 19,
                f"params.checks[1]: m_max x K = 4 x 524288 grid cells, more than {cli.MAX_TERMS}",
            ),
            (
                "counting",
                ("checks", 1, "sequence"),
                {"kind": "explicit", "values": [1, 2, 3]},
                "params.checks[1].sequence: explicit sequence stores 3 terms, 8 requested",
            ),
            # Non-finite numbers: a NaN epsilon made every median nan, and a
            # NaN pair entry exited 3 with an SVD error. Counting values
            # take +inf only.
            ("ratecheck", ("epsilon",), float("nan"), "params.epsilon must be finite, got nan"),
            ("growth", ("pair", "g", 0, 1), float("nan"), "params.pair.g[0][1] must be finite"),
            ("growth", ("pair", "h", 1, 1), float("inf"), "params.pair.h[1][1] must be finite"),
            (
                "counting",
                ("checks", 2, "values", 3),
                float("nan"),
                "params.checks[2].values[3] must be finite",
            ),
            (
                "counting",
                ("checks", 2, "values", 1),
                float("-inf"),
                "params.checks[2].values[1] must be finite",
            ),
            # A growth matrix must have spectral radius >= 1; this one exited 3.
            (
                "growth",
                ("matrices",),
                [[[1, 1], [0, 1]], [[0.5, 0], [0, 0.25]]],
                "params.matrices[1]: spectral radius 0.5 below 1",
            ),
            # No checkpoint with N >= 2, N = 0 and a negative N.
            *[
                (experiment, ("checkpoints",), value, "params.checkpoints: checkpoints must be >= 1")
                for value in ([1], [0, 4, 256], [-3, 4, 256])
                for experiment in ("average", "ratecheck")
            ],
            # Finite entries whose spectral radius and norm read inf; run exited 3.
            (
                "growth",
                ("matrices",),
                [[[1e308, 1e308], [1e308, 1e308]]],
                "params.matrices[0]: spectral radius and norm must be finite",
            ),
            # The commutator [[nan, 1e308], [0, 0]] is not within the tolerance.
            (
                "growth",
                ("pair",),
                {"g": [[1e308, 0], [0, 1]], "h": [[1e308, 1], [0, 1]]},
                "params.pair: matrices do not commute within 1e-10",
            ),
            # The balance bound's hypotheses: this unipotent pair (the one of
            # configs/matrix_growth.json) validated, then run exited 3.
            (
                "growth",
                ("pair",),
                {"g": [[1, 1], [0, 1]], "h": [[1, 3], [0, 1]], "balance": {}},
                "params.pair.balance: an eigenvalue modulus is within 1e-9 of 1",
            ),
            (
                "growth",
                ("pair",),
                {"g": [[2, 0], [0, 0.5]], "h": [[3, 0], [0, 0.25]], "balance": {}},
                "params.pair.balance: a simultaneous eigenvector is expanded (or contracted)",
            ),
        ],
    )
    def test_bad_range_names_json_path(
        self, tmp_path, capsys, experiment, path_to, value, message
    ):
        cfg = {"schema_version": 1, "experiment": experiment, "seed": 0}
        if experiment in ("average", "ratecheck"):
            cfg = dict(ratecheck_config(), experiment=experiment)
            del cfg["params"]["min_checkpoint"]
        elif experiment == "growth":
            # A hyperbolic pair (cat map inverse, cat map), which the balance bound accepts.
            pair = {"g": [[1, -1], [-1, 2]], "h": [[2, 1], [1, 1]], "m_grid": 2, "k_max": 8}
            cfg["params"] = {"pair": dict(pair, n_max=8, balance={"m": 1, "n_max": 4})}
        else:
            checks = [
                {"type": "c", "sequence": {"kind": "primes"}, "K": 8},
                {"type": "b", "sequence": {"kind": "linear"}, "K": 8, "n_max": 8, "m_max": 4},
                {"type": "band", "values": [1, 2, 2, 3], "K": 4, "s_max": 4, "M_claim": 2},
            ]
            cfg["params"] = {"checks": checks}
        assert cli.validate_config(cfg)[1]["ok"]
        target = cfg["params"]
        for key in path_to[:-1]:
            target = target[key]
        target[path_to[-1]] = value
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert any(message in msg for msg in report["errors"]), report["errors"]
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "base, path_to, value, message",
        [
            # growth and counting sample no system, so their top level has
            # neither key; both were accepted and never read.
            ("growth", ("system",), "garbage", "unknown keys ['system'] in config"),
            ("counting", ("observables",), [INDICATOR_0], "unknown keys ['observables'] in config"),
            # Any truthy centered was taken: "false" centred the observable.
            *[
                ("correlate", ("observables", 0, "centered"), value,
                 f"observables[0].centered must be true or false, got {value!r}")
                for value in ("false", 0, 2)
            ],
            # samples was read only for mc and both.
            ("correlate", ("params", "samples"), "x", "params.samples must be an integer, got 'x'"),
            # A check with values never read its sequence or times.
            (
                "counting",
                ("params", "checks", 0, "sequence"),
                {"kind": "bogus", "x": 1},
                "unknown keys ['x'] in params.checks[0].sequence",
            ),
            (
                "counting",
                ("params", "checks", 0, "sequence"),
                {"kind": "bogus"},
                "params.checks[0].sequence: unknown sequence kind 'bogus'",
            ),
            (
                "counting",
                ("params", "checks", 0, "t_second"),
                "x",
                "params.checks[0].t_second must be an integer, got 'x'",
            ),
            # Per-factor multipliers only restated the times: times t with
            # multipliers m is the query at times m t.
            (
                "correlate",
                ("params", "queries", 0, "multipliers"),
                [1, 2],
                "unknown keys ['multipliers'] in params.queries[0]",
            ),
            (
                "cumulants",
                ("params", "multipliers"),
                [1, 2],
                "unknown keys ['multipliers'] in params",
            ),
        ],
    )
    def test_every_accepted_key_is_read(self, tmp_path, capsys, base, path_to, value, message):
        cfg = copy.deepcopy({
            "growth": json.loads((CONFIGS_DIR / "matrix_growth.json").read_text()),
            "counting": {
                "schema_version": 1,
                "experiment": "counting",
                "params": {"checks": [{"type": "band", "values": [1, 2, 2, 3], "K": 4}]},
            },
            "correlate": minimal_correlate(),
            "cumulants": minimal_cumulants([[0, 1], [0, 2]]),
        }[base])
        assert cli.validate_config(cfg)[1]["ok"]
        target = cfg
        for key in path_to[:-1]:
            target = target[key]
        target[path_to[-1]] = value
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["errors"] == [message]
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_min_checkpoint_past_last_checkpoint(self, tmp_path, capsys):
        # The last checkpoint is n_max = 256: 256 keeps one, 257 keeps none.
        cfg = ratecheck_config()
        cfg["params"]["min_checkpoint"] = 256
        assert cli.validate_config(cfg)[1]["ok"]
        cfg["params"]["min_checkpoint"] = 257
        message = "params.min_checkpoint must be at most 256, got 257"
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["errors"] == [message]
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dyadic_reports_term_matrix(self):
        # W = max(max N, 2^max s): the grid sets it, then s = 8 does. A batch
        # is 512 rows of 26 bytes a column: a float64 term, and a uniform and
        # an int8 symbol at each of the 2 positions per column the two
        # radius-0 factors read at most. A call adds 64 + 40 * 2 bytes a
        # column, the two 2-entry tables and 4 MiB of slab scratch.
        for exceptional, columns in ((None, 128), ({"s_values": [3, 8]}, 256)):
            _, report = cli.validate_config(minimal_dyadic(exceptional))
            assert report["ok"]
            assert report["derived"] == {
                "term_columns": columns,
                "term_entries": 600 * columns,
                "batch_points": 512,
                "batch_bytes": (512 * 26 + 144) * columns + 32 + (4 << 20),
            }

    def test_dyadic_on_torus_is_config_error(self):
        cfg = torus_config("dyadic", minimal_dyadic()["params"])
        _, report = cli.validate_config(cfg)
        assert not report["ok"]
        assert "dyadic needs a shift system" in report["errors"][0]

    def test_schema_version_enforced(self):
        cfg = minimal_correlate()
        cfg["schema_version"] = 99
        _, report = cli.validate_config(cfg)
        assert not report["ok"]


# 3 splits five tasks unevenly; 16 is more workers than any test has tasks.
WORKER_COUNTS = (1, 2, 3, 16, 1)


def runs_across_workers(tmp_path, path):
    """(manifest, artifact SHA-256 by name) of a run at each of WORKER_COUNTS."""
    runs = []
    for i, workers in enumerate(WORKER_COUNTS):
        out = tmp_path / f"run{i}-w{workers}"
        assert cli.run(path, out, workers=workers, emit_svg=False) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        runs.append((manifest, {e["name"]: e["sha256"] for e in manifest["artifacts"]}))
    return runs


class TestRun:
    def test_minimal_correlate(self, tmp_path):
        path = write_config(tmp_path, minimal_correlate())
        out = tmp_path / "out"
        assert cli.run(path, out, workers=1, emit_svg=True) == 0
        lines = (out / "correlations.csv").read_text().splitlines()
        assert lines[0] == "t_0,t_1,estimate,std_error,exact,defect"
        for line in lines[1:]:
            assert line.split(",")[-1] == "0"  # disjoint windows: defect 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"]["ok"]
        assert "correlations.csv" in summary["csv_columns"]

    @pytest.mark.parametrize(
        "matrix", [[[1e307, 1e307], [1e307, 1e307]], [[1e308, 0], [0, 1]]], ids=["full", "diagonal"]
    )
    def test_growth_of_huge_finite_matrix(self, tmp_path, capsys, matrix):
        # The Jordan-block rank tolerance was 1e-9 ||M||^j, which overflowed:
        # validate exited 0, then run exited 3 with an OverflowError.
        cfg = {"schema_version": 1, "experiment": "growth", "params": {"matrices": [matrix]}}
        path = write_config(tmp_path, cfg)
        if cli.main(["validate", str(path)]) == 2:
            assert "params.matrices[0]" in capsys.readouterr().out
            return
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 0
        result = json.loads((tmp_path / "out" / "summary.json").read_text())["result"]
        radius = max(abs(np.linalg.eigvals(np.array(matrix))))
        assert result["matrix_0"]["poly_degree"] == 0
        assert result["matrix_0"]["base"] == pytest.approx(radius, rel=0.01)

    def test_validation_failure_exit_code(self, tmp_path):
        cfg = minimal_correlate()
        cfg["params"]["queries"] = [{"times": [0, 0]}]
        path = write_config(tmp_path, cfg)
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 2

    def test_runtime_failure_exit_code(self, tmp_path):
        path = write_config(tmp_path, constant_dyadic())
        out = tmp_path / "out"
        assert cli.main(["validate", str(path)]) == 0
        assert cli.run(path, out, workers=1, emit_svg=False) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"]["error"] == {
            "code": "ergolab.domain", "message": "need one positive E value per grid point"
        }

    def test_span_over_limit_fails_before_monte_carlo(self, tmp_path, monkeypatch):
        def no_mc(args):
            raise AssertionError("Monte Carlo ran before the exact values")

        monkeypatch.setattr(cli, "_task_mc_query", no_mc)
        fail_oracle_at(1000, monkeypatch)
        cfg = torus_config(
            "correlate",
            {"queries": [{"times": [0, 3]}, {"times": [0, 1000]}], "method": "both", "samples": 100},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert cli.run(path, out, workers=1, emit_svg=False) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"]["error"]["message"] == "no exact value at time 1000"

    @pytest.mark.parametrize("tuples", [[[0, 1000], [0, 3]], [[0, 3], [0, 1000]]])
    def test_cumulant_span_over_limit_is_runtime(self, tmp_path, monkeypatch, tuples):
        fail_oracle_at(1000, monkeypatch)
        cfg = torus_config("cumulants", {"time_tuples": tuples})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert cli.run(path, out, workers=1, emit_svg=False) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"]["error"]["message"] == "no exact value at time 1000"

    @pytest.mark.parametrize("case", ["exact", "both", "mc", "cumulants"])
    def test_variant_mismatch_is_config_error(self, tmp_path, case):
        if case == "cumulants":
            cfg = minimal_cumulants([[0, 1], [0, 2]])
        else:
            cfg = minimal_correlate()
            cfg["params"].update(method=case, samples=100)
        cfg["observables"] = [TRIG_OBS, TRIG_OBS]
        _, report = cli.validate_config(cfg)
        assert not report["ok"]
        assert "variants do not match" in report["errors"][0]
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 2
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 2

    def test_torus_cylinder_mc_is_config_error(self, tmp_path, capsys):
        cfg = torus_config("correlate", dict(TORUS_CORRELATE, method="mc"))
        cfg["observables"][1] = INDICATOR_0
        message = "observables[1] is 'cylinder', a torus system needs 'trig' observables"
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert message in report["errors"][0]
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 2
        assert message in capsys.readouterr().err

    def test_cumulant_repeated_time_in_later_tuple_is_config_error(self):
        _, report = cli.validate_config(minimal_cumulants([[0, 1], [2, 2]]))
        assert not report["ok"]
        assert any("pairwise distinct" in msg for msg in report["errors"])

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path, ratecheck_config())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.run(path, out_a, workers=1, emit_svg=False) == 0
        assert cli.run(path, out_b, workers=2, emit_svg=False) == 0
        for name in ("ratecheck.csv", "ratecheck_summary.json", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        manifest_a = json.loads((out_a / "manifest.json").read_text())
        manifest_b = json.loads((out_b / "manifest.json").read_text())
        hashes_a = {e["name"]: e["sha256"] for e in manifest_a["artifacts"]}
        hashes_b = {e["name"]: e["sha256"] for e in manifest_b["artifacts"]}
        assert hashes_a == hashes_b

    @pytest.mark.parametrize(
        "experiment, params", [("correlate", TORUS_CORRELATE), ("average", TORUS_AVERAGE)]
    )
    def test_torus_artifacts_identical_across_workers(self, tmp_path, experiment, params):
        path = write_config(tmp_path, torus_config(experiment, params))
        runs = runs_across_workers(tmp_path, path)
        assert all(hashes == runs[0][1] for _, hashes in runs)

    def test_shift_mc_artifacts_identical_across_workers(self, tmp_path):
        path = write_config(tmp_path, shift_mc_correlate())
        runs = runs_across_workers(tmp_path, path)
        assert all(hashes == runs[0][1] for _, hashes in runs)
        assert "correlations.csv" in runs[0][1]

    @pytest.mark.parametrize("exceptional", [None, {"s_values": [8, 3], "sigma": "3/4"}])
    def test_dyadic_artifacts_identical_across_workers(self, tmp_path, exceptional):
        path = write_config(tmp_path, minimal_dyadic(exceptional))
        _, report = cli.validate_config(minimal_dyadic(exceptional))
        runs = runs_across_workers(tmp_path, path)
        for manifest, _ in runs:
            # The planner's term count is what the batches generated, its
            # batch is the largest one run, and its bytes bound that batch's.
            steps, derived = manifest["steps"], report["derived"]
            assert steps["term_entries"] == derived["term_entries"]
            assert steps["batch_points"] == derived["batch_points"]
            assert 0 < steps["batch_bytes"] <= derived["batch_bytes"]
        assert "term_entries" not in (tmp_path / "run0-w1" / "summary.json").read_text()
        assert all(hashes == runs[0][1] for _, hashes in runs)
        names = set(runs[0][1])
        assert ("dyadic_exceptional.csv" in names) == (exceptional is not None)

    def test_manifest_records_resources(self, tmp_path):
        path = write_config(tmp_path, minimal_dyadic())
        # A child this process reaped before the run is not the run's.
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        summaries = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert cli.run(path, out, workers=workers, emit_svg=False) == 0
            resources = json.loads((out / "manifest.json").read_text())["resources"]
            assert set(resources) == {"self", "children"}
            assert set(resources["children"]) == {"peak_rss_mb", "minor_faults"}
            assert set(resources["self"]) == {"peak_rss_mb", "minor_faults", "startup_cpu_seconds"}
            for usage in resources.values():
                assert usage["peak_rss_mb"] >= 0 and usage["minor_faults"] >= 0
            assert resources["self"]["peak_rss_mb"] > 0
            # The CPU this process had used when run() began: no more than
            # it has used by now.
            startup = resources["self"]["startup_cpu_seconds"]
            assert 0 < startup <= time.process_time()
            # Only the share forked at 2 workers counts.
            children = resources["children"]
            if workers == 1:
                assert children == {"peak_rss_mb": 0, "minor_faults": 0}
            else:
                assert children["peak_rss_mb"] > 0 and children["minor_faults"] > 0
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        assert b"resources" not in summaries[0]

    def test_correlate_planner_counts_read_positions(self, tmp_path):
        # Query 0 reads {-1, 0, 1}, query 1 reads {-1, 0, 1, 5}: the
        # planner's largest count and the manifest's total agree with them.
        cfg = minimal_correlate()
        cfg["observables"][0] = {"variant": "cylinder", "radius": 1, "table": [], "default": 1.0}
        cfg["params"] = {
            "queries": [{"times": [0, 1]}, {"times": [0, 5]}],
            "method": "mc",
            "samples": 300,
        }
        _, report = cli.validate_config(cfg)
        assert report["derived"]["symbols_per_sample"] == 4
        for queries in (cfg["params"]["queries"], cfg["params"]["queries"][1:]):
            cfg["params"]["queries"] = queries
            path = write_config(tmp_path, cfg)
            out = tmp_path / f"out{len(queries)}"
            assert cli.run(path, out, workers=1, emit_svg=False) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["steps"]["symbols_sampled"] == 300 * (7 if len(queries) == 2 else 4)
        _, report = cli.validate_config(cfg)
        assert manifest["steps"]["symbols_sampled"] == 300 * report["derived"]["symbols_per_sample"]
        assert "symbols_sampled" not in (out / "summary.json").read_text()

    @pytest.mark.parametrize("experiment", ["average", "ratecheck"])
    def test_large_n_max_is_config_error(self, tmp_path, capsys, experiment):
        # Checked before validate builds a single sequence term.
        cfg = {
            "schema_version": 1,
            "experiment": experiment,
            "seed": 2,
            "system": BERNOULLI_SYSTEM,
            "observables": [INDICATOR_0, INDICATOR_1],
            "params": {"multipliers": [1, 2], "sequence": {"kind": "primes"}, "n_max": 10 ** 9},
        }
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        want = f"params.n_max must be at most {cli.MAX_TERMS}, got 1000000000"
        assert report["errors"] == [want]
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 2

    @pytest.mark.parametrize("experiment", ["average", "ratecheck"])
    def test_stream_planner_counts_read_positions(self, tmp_path, experiment):
        # The i.i.d. chain draws a point's row as its stream is taken, any
        # other chain from one block of uniforms: both count the same.
        for transition in (BERNOULLI_SYSTEM["transition"], MARKOV_TRANSITION):
            cfg = {
                "schema_version": 1,
                "experiment": experiment,
                "seed": 2,
                "system": dict(BERNOULLI_SYSTEM, transition=transition),
                "observables": [
                    {"variant": "cylinder", "radius": 1, "table": [], "default": 1.0},
                    INDICATOR_0,
                ],
                "params": {
                    "multipliers": [1, -2],
                    "sequence": {"kind": "primes"},
                    "n_max": 96,
                    "point_count": 10,
                },
            }
            _, report = cli.validate_config(cfg)
            assert report["ok"]
            per_point = report["derived"]["symbols_per_point"]
            path = write_config(tmp_path, cfg)
            for name, workers in (("a", 1), ("b", 2)):
                out = tmp_path / name
                assert cli.run(path, out, workers=workers, emit_svg=False) == 0
                manifest = json.loads((out / "manifest.json").read_text())
                assert manifest["steps"]["symbols_sampled"] == 10 * per_point
            assert (tmp_path / "a" / "summary.json").read_bytes() == (
                tmp_path / "b" / "summary.json"
            ).read_bytes()

    @pytest.mark.parametrize("case", ["shipped-ratecheck", "markov-average", 128, 64, "many-points"])
    def test_memory_estimate_bounds_the_run_step(self, tmp_path, case):
        # estimated_memory_bytes bounds what one orbit holds, and a process
        # runs its points one at a time, plus what the run keeps of every
        # point, so the figure bounds the run step at one worker. With many
        # points on a short torus orbit, the kept points are most of it.
        if case == "many-points":
            params = {"multipliers": [1, 2], "n_max": 16, "point_count": 200}
            cfg = torus_config("average", params, bits=64)
        elif case == "shipped-ratecheck":
            cfg = json.loads((CONFIGS_DIR / "bernoulli_ratecheck.json").read_text())
        elif case == "markov-average":
            cfg = {
                "schema_version": 1,
                "experiment": "average",
                "seed": 5,
                "system": dict(BERNOULLI_SYSTEM, transition=MARKOV_TRANSITION),
                "observables": [
                    {"variant": "cylinder", "radius": 1, "table": [], "default": 1.0},
                    INDICATOR_0,
                ],
                "params": dict(TORUS_AVERAGE, n_max=4096),
            }
        else:  # the benchmark's torus averages: the cat map at q = 128 and 64
            params = {"multipliers": [1, 2], "n_max": 768, "point_count": 2}
            cfg = torus_config("average", params, bits=case)
        # A run of an equal config first loads every module the step uses.
        warm, _ = cli.validate_config(copy.deepcopy(cfg))
        warm(cli.RunContext(tmp_path, 1, False))
        step, report = cli.validate_config(cfg)
        estimate = report["derived"]["estimated_memory_bytes"]
        tracemalloc.start()
        try:
            step(cli.RunContext(tmp_path, 1, False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate, (peak, estimate)

    def test_counting_run(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "counting",
            "seed": 0,
            "params": {
                "checks": [
                    {
                        "type": "c",
                        "sequence": {"kind": "linear"},
                        "t_first": 3,
                        "t_second": 2,
                        "K": 500,
                        "n_max": 500,
                    }
                ]
            },
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert cli.run(path, out, workers=1, emit_svg=False) == 0
        lines = (out / "counting.csv").read_text().splitlines()
        assert lines[0] == "condition,witness_M,pass,worst_n,worst_m,worst_count"
        assert lines[1].startswith("c,") and ",true," in lines[1]

    def test_counting_values_take_infinity(self, tmp_path):
        check = {"type": "band", "values": [1, 2, float("inf"), float("inf")], "K": 4}
        cfg = {"schema_version": 1, "experiment": "counting", "params": {"checks": [check]}}
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 0
        assert cli.run(path, tmp_path / "out", workers=1, emit_svg=False) == 0


class TestCommands:
    def test_decompose_command(self, capsys):
        assert cli.main(["decompose", "13"]) == 0
        output = capsys.readouterr().out
        assert "blocks=3" in output and "[1..8]" in output

    def test_decompose_with_a_huge_s_takes_only_the_bits_of_n(self, capsys):
        # The blocks are the bits of n: s only bounds them, so a huge s
        # costs nothing.  Building 2^s once took time quadratic in s.
        start = time.perf_counter()
        assert cli.main(["decompose", "5", "--s", "1000000000"]) == 0
        elapsed = time.perf_counter() - start
        huge = capsys.readouterr().out.splitlines()
        assert cli.main(["decompose", "5", "--s", "3"]) == 0
        small = capsys.readouterr().out.splitlines()
        assert elapsed < 1.0
        assert huge[0] == "n=5 s=1000000000 blocks=2"
        assert huge[1:] == small[1:] and len(small) == 3

    def test_validate_command(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_correlate())
        assert cli.main(["validate", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]

    def test_validate_command_bad_config(self, tmp_path, capsys):
        cfg = minimal_correlate()
        cfg["experiment"] = "unknown"
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert not report["ok"]

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 2

    def test_config_file_not_utf8(self, tmp_path, capsys):
        # A decoding error exited 1 with a traceback.
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff{}")
        assert cli.main(["validate", str(path)]) == 2
        assert "cannot load config" in json.loads(capsys.readouterr().out)["errors"][0]
        assert cli.main(["run", str(path)]) == 2
        assert "cannot load config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pmap: fork-once worker shares
# ---------------------------------------------------------------------------

@pytest.fixture
def reaped():
    """Bound a pmap test to 60 s, and check that it leaves no child behind."""

    def expire(signum, frame):
        raise TimeoutError("pmap did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_at_3_and_4(x):
    if x in (3, 4):
        raise DomainError(f"task {x} failed")
    return x


def kill_in_child(parent: int):
    """A task that runs in the parent and dies in any child."""

    def task(x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    return task


class TestPmap:
    @pytest.mark.parametrize("workers", [1, 2, 3, 16])
    def test_results_in_task_order(self, reaped, workers):
        assert cli.pmap(lambda x: x * x, range(11), workers) == [x * x for x in range(11)]
        assert cli.pmap(lambda x: x, [], workers) == []

    def test_parent_runs_share_zero(self, reaped):
        pids = cli.pmap(lambda _: os.getpid(), range(7), 3)
        assert pids[0::3] == [os.getpid()] * 3
        assert len(set(pids)) == 3

    @pytest.mark.parametrize("workers", [2, 3, 16])
    def test_error_of_lowest_failing_index(self, reaped, workers):
        # Task 3 fails in a child's share at two workers and in the
        # parent's at three; task 4 the other way round.
        with pytest.raises(DomainError) as serial:
            cli.pmap(fail_at_3_and_4, range(8), 1)
        with pytest.raises(DomainError) as shared:
            cli.pmap(fail_at_3_and_4, range(8), workers)
        assert type(shared.value) is type(serial.value)
        assert str(shared.value) == str(serial.value) == "task 3 failed"
        assert shared.value.task == serial.value.task == 3

    def test_run_failure_summary_same_for_any_workers(self, tmp_path, monkeypatch, reaped):
        # Queries 2, 3 and 4 fail: at two workers the parent's share holds
        # query 2, at three a child's share does.
        task = cli._task_mc_query

        def fail_from_query_2(args):
            if args[3] >= 2:
                raise DomainError(f"query {args[3]} failed")
            return task(args)

        monkeypatch.setattr(cli, "_task_mc_query", fail_from_query_2)
        path = write_config(tmp_path, shift_mc_correlate())
        summaries = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            assert cli.run(path, out, workers=workers, emit_svg=False) == 3
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1] == summaries[2]
        error = json.loads(summaries[0])["status"]["error"]
        assert error == {"code": "ergolab.domain", "message": "query 2 failed", "task": 2}

    def test_summary_names_the_failed_task(self, tmp_path, monkeypatch, reaped):
        # Only orbit 3 fails: in a child's share at two workers, in the
        # parent's at three. A run that succeeds carries no task index.
        path = write_config(tmp_path, ratecheck_config())
        assert cli.run(path, tmp_path / "ok", workers=1, emit_svg=False) == 0
        ok = json.loads((tmp_path / "ok" / "summary.json").read_text())
        assert ok["status"] == {"ok": True, "error": None}
        member = averages.orbit_series

        def fail_at_orbit_3(args):
            if args[3] == 3:
                raise DomainError("orbit 3 failed")
            return member(args)

        monkeypatch.setattr(averages, "orbit_series", fail_at_orbit_3)
        summaries = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            assert cli.run(path, out, workers=workers, emit_svg=False) == 3
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1] == summaries[2]
        error = json.loads(summaries[0])["status"]["error"]
        assert error == {"code": "ergolab.domain", "message": "orbit 3 failed", "task": 3}

    def test_killed_child_raises_runtime_error(self, tmp_path, monkeypatch, reaped):
        with pytest.raises(RuntimeError, match=r"share 1 of 2 \(tasks 1::2\)"):
            cli.pmap(kill_in_child(os.getpid()), range(4), 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # A run reports it as a runtime error.
        monkeypatch.setattr(cli, "_task_mc_query", kill_in_child(os.getpid()))
        path = write_config(tmp_path, shift_mc_correlate())
        assert cli.run(path, tmp_path / "out", workers=3, emit_svg=False) == 3
        error = json.loads((tmp_path / "out" / "summary.json").read_text())["status"]["error"]
        assert error["code"] == "runtime"
        assert "share 1 of 3" in error["message"]


def test_startup_loads_no_pool_and_no_masked_arrays(tmp_path):
    # Importing the CLI loads no process pool; a ratecheck run, at two
    # workers, loads neither that nor numpy.ma.
    path = write_config(tmp_path, ratecheck_config())
    args = ["run", str(path), "--out", str(tmp_path / "out"), "--workers", "2", "--no-svg"]
    script = (
        "import sys\n"
        "from ergolab import cli\n"
        "names = ('concurrent.futures', 'multiprocessing', 'numpy.ma')\n"
        "print([name for name in names if name in sys.modules])\n"
        f"assert cli.main({args!r}) == 0\n"
        "print([name for name in names if name in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ergolab.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize(
    "argv,env,code,argument",
    [
        (["decompose", "0"], {}, 2, "argument n:"),
        (["decompose", "5", "--s", "1"], {}, 2, "argument --s:"),
        (["decompose", "8", "--s", "3"], {}, 2, "argument --s:"),
        (["decompose", str(1 << 40), "--s", "40"], {}, 2, "argument --s:"),
        (["run", "{config}", "--workers", "0"], {}, 2, "argument --workers:"),
        (["run", "{config}", "--workers", "-3"], {}, 2, "argument --workers:"),
        (["run", "{config}"], {"ERGOLAB_WORKERS": "abc"}, 2, "argument --workers:"),
        (["validate", "{config}"], {"ERGOLAB_WORKERS": "abc"}, 0, None),
        (["run", "{config}", "--out", "{config}"], {}, 2, "argument --out:"),
    ],
    ids=["n-0", "s-too-small", "n-is-2^s", "n-is-2^40", "workers-0", "workers-negative", "workers-env", "validate-env",
         "out-is-a-file"],
)
def test_argument_errors_exit_2_with_one_line(
    tmp_path, monkeypatch, capsys, argv, env, code, argument
):
    # A bad argument exits 2 with one line naming it (after argparse's
    # usage line), never a traceback; ERGOLAB_WORKERS is read by run only.
    config = write_config(tmp_path, minimal_correlate())
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(config=config) for arg in argv]
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code, err
    if argument is not None:
        lines = [line for line in err.splitlines() if not line.startswith("usage:")]
        assert len(lines) == 1 and argument in lines[0], err


def test_dyadic_runs_under_a_memory_limit(tmp_path):
    # W = 2^18 columns over 128 points in 1 GiB of address space: batches of
    # 7 points hold about 73 MiB. One batch of all 128 needs about 1.1 GiB.
    pytest.importorskip("resource")
    cfg = minimal_dyadic()
    cfg["params"].update(point_count=128, n_grid=[1 << 15, 1 << 16, 1 << 17, 1 << 18])
    path = write_config(tmp_path, cfg)
    assert cli.validate_config(cfg)[1]["derived"]["batch_points"] == 7
    args = ["run", str(path), "--out", str(tmp_path / "out"), "--workers", "1", "--no-svg"]
    limit = 1 << 30
    script = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from ergolab import cli\n"
        f"raise SystemExit(cli.main({args!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ergolab.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="glibc's malloc thresholds",
)
def test_dyadic_faults_do_not_depend_on_heap_trimming(tmp_path):
    # glibc gives freed memory back to the system by thresholds it adjusts
    # as the process runs; pinned in the second child's environment, it
    # keeps every page. A loop that makes large temporaries per slab has
    # their pages trimmed and faulted in again, so the counts part (29%
    # more faults unpinned, for one 512-point batch over W = 2048, when
    # each row slab made its own word codes, values and level sums);
    # scratch made once per call faults the same pages either way.
    cfg = minimal_dyadic({"s_values": [6, 7, 8, 9, 10], "epsilon": 1.0, "sigma": 1.0})
    cfg["params"].update(point_count=512, n_grid=[256, 512, 1024, 2048])
    path = write_config(tmp_path, cfg)
    assert cli.validate_config(cfg)[1]["derived"]["batch_points"] == 512
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(ergolab.__file__).resolve().parent.parent),
        OMP_NUM_THREADS="1",
    )
    for name in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"):
        env.pop(name, None)
    pinned = dict(env, MALLOC_TRIM_THRESHOLD_=str(1 << 30), MALLOC_MMAP_THRESHOLD_=str(1 << 25))
    faults = []
    for i, child_env in enumerate((env, pinned)):
        args = ["run", str(path), "--out", str(tmp_path / f"out{i}"), "--workers", "1", "--no-svg"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "ergolab.cli"] + args, env=child_env, stdout=subprocess.DEVNULL
        )
        _, status, usage = os.wait4(proc.pid, 0)
        assert status == 0
        faults.append(usage.ru_minflt)
    assert abs(faults[0] - faults[1]) <= 0.1 * faults[1], faults


def _streams_per_point(calls):
    """The term streams before one-pass seeding: one ``rng_for`` per point."""

    def streams(master_seed, prefix, indices):
        calls.append(len(indices))
        return [rng_for(master_seed, *prefix, int(j)) for j in indices]

    return streams


def _plain_level_sums(calls):
    """The level builder without shared scratch: every level's pairwise
    tree sums built afresh from the row slab."""

    def squared_levels(head, scratch):
        calls.append(head.shape)
        for r in range(head.shape[1].bit_length() - 1):
            yield np.square(tree_block_sums(head, r))

    return squared_levels


@pytest.mark.parametrize("transition", [None, MARKOV_TRANSITION], ids=["bernoulli", "markov"])
def test_dyadic_artifacts_match_per_point_streams_and_plain_level_sums(
    tmp_path, monkeypatch, transition
):
    # One-pass seeding and bottom-up level sums give the artifacts that a
    # stream per point and a fresh pairwise tree per level give, byte for
    # byte.
    cfg = json.loads((CONFIGS_DIR / "bernoulli_dyadic.json").read_text())
    cfg["params"]["point_count"] = 300
    if transition is not None:
        cfg["system"]["transition"] = transition
    path = write_config(tmp_path, cfg)

    def artifacts(out):
        assert cli.run(path, out, workers=1, emit_svg=True) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return {e["name"]: e["sha256"] for e in manifest["artifacts"]}

    shipped = artifacts(tmp_path / "shipped")
    streams, levels = [], []
    monkeypatch.setattr(averages, "Streams", _streams_per_point(streams))
    monkeypatch.setattr(dyadic, "_squared_levels", _plain_level_sums(levels))
    assert artifacts(tmp_path / "old") == shipped
    assert streams == [300] and len(levels) == 300 // 32 + 1
    assert {"dyadic_e.csv", "dyadic_variance_profile.csv", "dyadic_exceptional.csv"} <= set(shipped)


@pytest.mark.parametrize("value,expected", [(0.1, "0.10000000000000001"), (1.0, "1"), (True, "true")])
def test_float_formatting(value, expected):
    assert cli.fmt_value(value) == expected


# Strings that Fraction(str) reads, and strings it refuses in each way it can.
RATIONAL_STRINGS = [
    "1/2", "-3/4", "+5/8", " 9/10 ", "\t1/3\n", "1_000/7", "2/1_0", "0", "-0", "-0/5", "1/3",
    "1.5", "-.25", "3.", "1e-3", "2.5E+2", "-1_0.0_1e1_0", "1e-400", "0e999", "0.1",
    "123456789012345678901234567890/7", "17976931348623157e292", "4.9406564584124654e-324",
    "1/0", "-3/0", "1/-2", "1 / 2", "1.5/2", "1/2.5", "1e2/3", "nan", "inf", "-inf", "1e400",
    "17976931348623159e292", "", " ", "a/b", "1_", "_1", "1__0", "1.d", "+-1", "0x10", "1,5",
    "1/2/3", "\u0663/\u0664",
    # Either side of the scales past which a decimal is answered without
    # forming 10^exp: it overflows at 10^309 and rounds to zero below 10^-324.
    "1e308", "10e308", "0.1e309", "1e309", "-1.5e309", "9e-324", "99999e-328", "1e-324",
    "1e-325", "-1e-325", "1_0e-326", "0.001e-321", "0e99999", "-0.0e-99999", "1.25e-330",
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="CPython 3.11 grammar")
def test_parse_exact_reads_strings_as_fraction_does():
    from fractions import Fraction

    rnd = random.Random(5)
    fuzzed = ["".join(rnd.choices("019_./eE+- ", k=rnd.randint(1, 7))) for _ in range(3000)]
    where = "system.transition[0][1]"
    for text in RATIONAL_STRINGS + fuzzed:
        try:
            want = float(Fraction(text))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            with pytest.raises(ConfigError) as info:
                cli.parse_exact(text, where)
            assert str(info.value) == f"{where}: cannot parse {text!r}: {exc}"
        else:
            assert cli.parse_exact(text, where).hex() == want.hex(), text


@pytest.mark.parametrize(
    "text,want",
    [("1e1000000000", "integer division result too large for a float"),
     ("-1e-1000000000", -0.0), ("0e1000000000", 0.0)],
)
def test_parse_exact_answers_huge_exponents_at_once(text, want):
    # Fraction(text) would form 10^(10^9), about 415 MB, to give this answer.
    started = time.perf_counter()
    if isinstance(want, str):
        with pytest.raises(ConfigError, match=want):
            cli.parse_exact(text, "params.epsilon")
    else:
        assert cli.parse_exact(text, "params.epsilon").hex() == want.hex()
    assert time.perf_counter() - started < 0.05


# ---------------------------------------------------------------------------
# Seeded config fuzzer
# ---------------------------------------------------------------------------

CONFIGS = sorted(CONFIGS_DIR.glob("*.json"))
WRONG_TYPES = ["x", 1.5, True, None, [], {}, [1, "a"], {"z": 1}, "1/0"]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _nodes(node, path=()):
    """Every (path, value) pair inside a JSON value, the root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def schema_objects(cfg):
    """(object, schema table) of each object in ``cfg`` that a table of the
    CLI reads: the top level, its params (read by the experiment's table)
    and each object that a table entry reads with a nested object, list or
    variant parser."""
    found = []

    def table(schema, node):
        if schema is not None and isinstance(node, dict):
            found.append((node, schema))
            for key, child in node.items():
                if key in schema:
                    visit(schema[key][0], child)

    def visit(parse, node):
        if hasattr(parse, "item") and isinstance(node, list):
            for child in node:
                visit(parse.item, child)
        elif hasattr(parse, "schemas") and isinstance(node, dict):
            name = node.get(parse.key)
            table(parse.schemas.get(name) if isinstance(name, str) else None, node)
        else:
            table(getattr(parse, "schema", None), node)

    visit(cli.CONFIG, cfg)
    experiment = cfg.get("experiment")
    if isinstance(experiment, str) and experiment in cli.EXPERIMENTS:
        table(cli.EXPERIMENTS[experiment][1], cfg.get("params"))
    return found


def mutate(cfg, rnd, pending=frozenset()):
    """One random edit: drop a key or entry, change a value's type, put a
    number out of range or make it non-finite, add an unknown key to an
    object, or set a key of an object's schema table to a wrong-typed or
    out-of-range value. That last edit takes a key whose schema entry is
    in ``pending``, set in the object or not, while there is one, and
    otherwise inserts a key the object lacks. Returns the mutant and the
    schema entry of the key it edited, or None."""
    cfg = copy.deepcopy(cfg)
    pairs = [(n, t, k) for n, t in schema_objects(cfg) for k in t]
    targets = [p for p in pairs if id(p[1][p[2]]) in pending] or [
        p for p in pairs if p[2] not in p[0]
    ]
    op = rnd.choice(["drop", "type", "range", "unknown"] + ["insert"] * bool(targets))
    if op == "unknown":
        rnd.choice([n for _, n in _nodes(cfg) if isinstance(n, dict)])["unknown_key"] = 1
        return cfg, None
    if op == "insert":
        parent, table, key = rnd.choice(targets)
        parent[key] = rnd.choice(WRONG_TYPES + [-1, 0, 10 ** 9, 2 ** 40, 2 ** 63] + NON_FINITE)
        return cfg, table[key]
    numbers = [
        p for p, n in _nodes(cfg)
        if p and isinstance(n, (int, float)) and not isinstance(n, bool)
    ]
    path = rnd.choice(numbers if op == "range" else [p for p, _ in _nodes(cfg) if p])
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    table = next((t for n, t, _ in pairs if n is parent), {})
    if op == "drop":
        del parent[key]
    elif op == "type":
        parent[key] = rnd.choice(WRONG_TYPES)
    else:
        value = parent[key]
        out_of_range = [-1, 0, -value, value + 0.5, 10 ** 9, 2 ** 40, 2 ** 63]
        parent[key] = rnd.choice(out_of_range + NON_FINITE)
    return cfg, table.get(key) if isinstance(key, str) else None


def names_path(message, keys):
    """Whether ``message`` names a JSON path that starts at one of ``keys``."""
    return any(re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", message) for key in keys)


def test_config_fuzzer_exits_cleanly(tmp_path, capsys):
    # validate exits 0 or 2 (never 3, never a traceback) on every mutant,
    # every message of a rejected mutant names a JSON path under a top-level
    # key (of the schema, or the mutant's own unknown one), and a mutant
    # validate rejects also exits 2 at run. Every key of every schema table
    # that the shipped configs reach is mutated, set or not in them.
    rnd = random.Random(2024)
    bases = [json.loads(path.read_text()) for path in CONFIGS]
    assert len(bases) == 7
    entries = {id(e): k for base in bases for _, t in schema_objects(base) for k, e in t.items()}
    mutated = set()
    rejected = 0
    for i in range(600):
        cfg = rnd.choice(bases)
        for _ in range(1 + (rnd.random() < 0.3)):
            cfg, entry = mutate(cfg, rnd, entries.keys() - mutated)
            mutated.add(id(entry))
        path = write_config(tmp_path, cfg, f"mutant{i}.json")
        code = cli.main(["validate", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 2), cfg
        assert report["ok"] == (code == 0)
        if code == 2:
            rejected += 1
            keys = {cli.CONFIG.key, *cli.SAMPLED} | set(cfg)
            assert all(names_path(msg, keys) for msg in report["errors"]), report["errors"]
            assert cli.run(path, tmp_path / f"out{i}", workers=1, emit_svg=False) == 2, cfg
            assert not (tmp_path / f"out{i}").exists()
    capsys.readouterr()
    assert rejected > 300
    assert not sorted(k for e, k in entries.items() if e not in mutated)


def test_tracer_names_public_cli_functions():
    # perfbench/tracing.py reads these spans by name; a renamed function
    # would leave its metric reading 0 rather than fail.
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [n for n in tracing.WRITE_SPANS if n.startswith("cli.")]
    assert names
    for name in names + ["cli.validate_config", "cli.pmap"]:
        attr = name.partition(".")[2]
        assert not attr.startswith("_")
        assert isinstance(getattr(cli, attr, None), types.FunctionType), name
        assert getattr(cli, attr).__module__ == cli.__name__


# Lab modules that each experiment's validate executes, besides those every
# process executes: cli, errors, intmat, seeding and systems.
EXPERIMENT_MODULES = {
    "correlate": {"correlations"},
    "cumulants": {"correlations"},
    "average": {"averages", "sequences"},
    "ratecheck": {"averages", "sequences"},
    "dyadic": {"averages", "correlations", "dyadic", "sequences"},
    "growth": {"correlations", "matrix_growth", "sequences"},
    "counting": {"sequences"},
}
# The same for run, which also draws the charts.
RUN_MODULES = {
    "markov_cumulants": {"correlations", "svg"},
    "matrix_growth": {"correlations", "matrix_growth", "sequences", "svg"},
}
EAGER_MODULES = {"cli", "errors", "intmat", "seeding", "systems"}
LAZY_MODULES = {"averages", "correlations", "dyadic", "matrix_growth", "sequences", "svg"}
# Standard modules a command loads only when it needs them: hashlib for the
# manifest and numpy.random for a random draw. Neither loads OpenSSL in an
# ergolab process (test_console_process_draws_and_hashes_without_openssl).
# No command loads the last three: the lab's records are NamedTuples or
# plain classes, and cli.parse_exact reads "p/q" strings itself.
WATCHED_MODULES = ("hashlib", "numpy.random", "dataclasses", "fractions", "decimal")
NEVER_LOADED = {"dataclasses", "fractions", "decimal"}


def _modules_after(argv):
    """(registered lab modules, executed lab modules, loaded watched
    modules) once ``cli.main(argv)`` has returned 0 in a fresh process.
    Every lab module is registered once the CLI is imported, so tools that
    look them up in sys.modules find them; only the ones the command calls
    have run their bodies (a lazy module's type is a subclass until then)."""
    script = (
        "import sys, types\n"
        "from ergolab import cli\n"
        f"code = cli.main({argv!r})\n"
        "lab = [n.partition('.')[2] for n in sys.modules if n.startswith('ergolab.')]\n"
        "print(sorted(lab))\n"
        "print(sorted(n for n in lab if type(sys.modules['ergolab.' + n]) is types.ModuleType))\n"
        f"print([n for n in {WATCHED_MODULES!r} if n in sys.modules])\n"
        "raise SystemExit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ergolab.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-3:]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_validate_executes_only_the_modules_its_experiment_needs(config):
    # validate hashes nothing and draws nothing, so hashlib and numpy.random
    # stay out, with or without "p/q" strings in the config.
    cfg = json.loads(config.read_text())
    registered, executed, loaded = _modules_after(["validate", str(config)])
    assert registered == str(sorted(EAGER_MODULES | LAZY_MODULES))
    assert executed == str(sorted(EAGER_MODULES | EXPERIMENT_MODULES[cfg["experiment"]]))
    assert loaded == str([])


@pytest.mark.parametrize("name", sorted(RUN_MODULES))
def test_run_executes_only_the_modules_its_experiment_needs(tmp_path, name):
    # Neither run draws a random number: the cumulants are exact and the
    # growth checks deterministic. The manifest hashes the artifacts.
    config = CONFIGS_DIR / f"{name}.json"
    registered, executed, loaded = _modules_after(["run", str(config), "--out", str(tmp_path)])
    assert registered == str(sorted(EAGER_MODULES | LAZY_MODULES))
    assert executed == str(sorted(EAGER_MODULES | RUN_MODULES[name]))
    assert loaded == str(["hashlib"])


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_no_run_loads_dataclasses_fractions_or_decimal(tmp_path, config):
    loaded = _modules_after(["run", str(config), "--out", str(tmp_path)])[2]
    assert not NEVER_LOADED & set(ast.literal_eval(loaded)), loaded


# ---------------------------------------------------------------------------
# The process exit: console_main ends without interpreter teardown
# ---------------------------------------------------------------------------

def _cli_process(args, cwd, stdout=subprocess.PIPE, unbuffered=False, stderr=subprocess.PIPE):
    """``python args`` in ``cwd``, its stderr and stdout piped to the test
    unless ``stderr`` or ``stdout`` say otherwise. Output is block buffered
    unless ``unbuffered``, so that output the process does not flush is lost."""
    env = dict(os.environ, PYTHONPATH=str(Path(ergolab.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *args],
        env=env, cwd=cwd, stdout=stdout, stderr=stderr, text=True, timeout=120,
    )


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_validate_process_prints_the_whole_report(tmp_path, config):
    proc = _cli_process(["-m", "ergolab.cli", "validate", str(config)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = cli.load_config(config)[2]
    assert proc.stdout == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert proc.stderr == ""


def test_malformed_config_process_exits_2_with_its_message(tmp_path):
    cfg = minimal_correlate()
    cfg["params"]["queries"] = [{"times": [0, 0]}]
    path = write_config(tmp_path, cfg)
    proc = _cli_process(["-m", "ergolab.cli", "run", str(path), "--out", "out"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: params.queries[0]"), proc.stderr
    assert not (tmp_path / "out").exists()


def test_failed_run_process_exits_3_with_complete_artifacts(tmp_path):
    cfg = constant_dyadic()
    path = write_config(tmp_path, cfg)
    proc = _cli_process(["-m", "ergolab.cli", "run", str(path), "--out", "out"], tmp_path)
    assert proc.returncode == 3
    assert "ergolab.domain" in proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert summary["status"]["error"]["code"] == "ergolab.domain"
    assert manifest["config"] == cfg and manifest["resources"]["self"]["startup_cpu_seconds"] > 0


def test_decompose_process_prints_every_block(tmp_path):
    proc = _cli_process(["-m", "ergolab.cli", "decompose", "37"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "n=37 s=6 blocks=3",
        "  level  5  [1..32]  length 32",
        "  level  2  [33..36]  length 4",
        "  level  0  [37..37]  length 1",
    ]


def test_atexit_handlers_run_and_their_output_is_flushed(tmp_path):
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'handler ran')\n"
        "sys.argv = ['ergolab', 'decompose', '5']\n"
        "runpy.run_module('ergolab.cli', run_name='__main__')\n"
    )
    proc = _cli_process(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "n=5 s=3 blocks=2"
    assert proc.stdout.splitlines()[-1] == "handler ran"


def test_profiled_process_writes_its_profile(tmp_path):
    # A profiler writes its report at teardown, so the process takes it.
    config = CONFIGS_DIR / "prime_counting.json"
    args = ["-m", "cProfile", "-o", "prof.out", "-m", "ergolab.cli", "validate", str(config)]
    proc = _cli_process(args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"]
    assert (tmp_path / "prof.out").stat().st_size > 0


def test_installed_script_takes_the_same_exit():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"ergolab": "ergolab.cli:console_main"}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "command, code",
    [
        (["decompose", "1000000", "--s", "40"], 0),
        (["validate", "valid"], 0),
        (["validate", "invalid"], 2),
        (["run", "--help"], 0),
    ],
    ids=["decompose", "valid", "invalid", "help"],
)
def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(tmp_path, unbuffered, command, code):
    configs = {
        "valid": CONFIGS_DIR / "markov_correlate.json",
        "invalid": write_config(tmp_path, minimal_correlate() | {"params": {"queries": []}}),
    }
    command = [str(configs.get(arg, arg)) for arg in command]
    read_fd, write_fd = os.pipe()
    os.close(read_fd)  # the reader is gone before the process starts
    try:
        proc = _cli_process(["-m", "ergolab.cli", *command], tmp_path, write_fd, unbuffered)
    finally:
        os.close(write_fd)
    assert (proc.returncode, proc.stderr) == (code, "")


@pytest.mark.parametrize("error, code", [("config", 2), ("out", 2), ("runtime", 3)])
def test_closed_stderr_keeps_the_exit_code(tmp_path, error, code):
    # Each error line goes to a stderr whose reader is gone: a config
    # without an experiment, an --out under a file, and a run that fails.
    (tmp_path / "file").write_text("")
    no_experiment = {k: v for k, v in minimal_correlate().items() if k != "experiment"}
    config, out = {
        "config": (write_config(tmp_path, no_experiment, "config.json"), "out"),
        "out": (CONFIGS_DIR / "markov_correlate.json", "file/out"),
        "runtime": (write_config(tmp_path, constant_dyadic(), "constant.json"), "out"),
    }[error]
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        args = ["-m", "ergolab.cli", "run", str(config), "--out", out, "--no-svg"]
        proc = _cli_process(args, tmp_path, stderr=write_fd)
    finally:
        os.close(write_fd)
    assert (proc.returncode, proc.stdout) == (code, "")


@pytest.mark.parametrize("name", ["markov_correlate", "cat_map_correlate"])
def test_console_process_draws_and_hashes_without_openssl(tmp_path, name):
    # An atexit handler reports what the process holds once main() is done.
    script = (
        "import atexit, json, os, runpy, sys\n"
        "def report():\n"
        "    maps = '/proc/self/maps'\n"
        "    print(json.dumps({\n"
        "        'loaded': [n for n in ('hashlib', 'numpy.random', '_hashlib') if sys.modules.get(n)],\n"
        "        'libcrypto': open(maps).read().count('libcrypto') if os.path.exists(maps) else None,\n"
        "    }))\n"
        "atexit.register(report)\n"
        f"sys.argv = ['ergolab', 'run', {str(CONFIGS_DIR / (name + '.json'))!r}, '--out', 'out']\n"
        "runpy.run_module('ergolab.cli', run_name='__main__')\n"
    )
    proc = _cli_process(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    # The run drew its samples and hashed its artifacts, all without _hashlib.
    assert report["loaded"] == ["hashlib", "numpy.random"]
    # The same digests as this process's hashlib, which uses OpenSSL where
    # Python was built with it.
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert len(manifest["artifacts"]) == 3
    for artifact in manifest["artifacts"]:
        data = (tmp_path / "out" / artifact["name"]).read_bytes()
        assert artifact["sha256"] == hashlib.sha256(data).hexdigest()
    if report["libcrypto"] is None:
        pytest.skip("no /proc/self/maps to read the mapped libraries from")
    assert report["libcrypto"] == 0


def test_in_process_main_leaves_hashlib_binding_as_it_found_it(tmp_path):
    before = ("_hashlib" in sys.modules, sys.modules.get("_hashlib"))
    config = CONFIGS_DIR / "cat_map_correlate.json"
    assert cli.main(["run", str(config), "--out", str(tmp_path), "--no-svg"]) == 0
    assert ("_hashlib" in sys.modules, sys.modules.get("_hashlib")) == before


# ---------------------------------------------------------------------------
# Shipped configs: the SHA-256 of every artifact, pinned
# ---------------------------------------------------------------------------

# Recorded at --workers 1 with numpy 2.4.6. Another numpy may draw other
# streams or format floats otherwise; the table is then recorded again there.
PINNED_NUMPY = "2.4.6"
SHIPPED_ARTIFACTS = {
    "bernoulli_dyadic.json": {
        "dyadic_e.csv": "8798dcdefd232580ba90c843cd0d6678868da721bd88c00d7d9a9f526370959c",
        "sigma_fit.json": "1990707355d1869e2afc2ac3ae5e98bf87942597a139c2d8be3e571b2ece63f6",
        "dyadic_variance_profile.csv": "75144d1043b1c8845fdb1ae667c723314773da666afa73f13b0c8afd4b116ec6",
        "dyadic_exceptional.csv": "eccd3b6fb0ac973834a70581ad647dc9db46d4ac024ad47ff00ab65344f38d52",
        "dyadic_e.svg": "1c0537846e3925422cf4d1f0cb5eca8dafe9aa39557fd3120ec443a9a57b274c",
        "summary.json": "545ad595beb0537e6889971e0a3d59dec9d9d8a075ce4632bc585fb137842cb4",
    },
    "bernoulli_ratecheck.json": {
        "ratecheck.csv": "756667ddac51e56013aedcecc32a37a9ce6886865707984b5726199d4edba72d",
        "ratecheck_summary.json": "8a2f680b1dbdd7469de894caf0c3cf88052235ab3c3a35f6fafeb6b11f3dbee1",
        "ratecheck.svg": "0e5f0b73c318c6a6d09262a18af5ca99970cba653dacb704ac961e1272ec2db6",
        "summary.json": "2d6a09a26889b8e8b7d8855a15e928cda44bdd4b1545ee67816c715c4010a736",
    },
    "cat_map_correlate.json": {
        "correlations.csv": "f0ed10e619824ad77193798dbe67a5c19fa03fc2c651c30b5b2687968a8346dc",
        "correlations.svg": "5e330da2212753a58662e314799484531f80083b189ca28cbb219015c1ea8110",
        "summary.json": "dc2a9da75cd03cccf49f60c9d31686721de81d3f735ade5d3c083ced7a5b58ab",
    },
    "markov_correlate.json": {
        "correlations.csv": "a152c5b76f58982712efee0f71ff8ad48836fe93a23967164ab2183fadcf98bf",
        "correlations.svg": "486285fedd28968b37d01f6798a921b13b8b01af17f0785b27731a573507d47c",
        "summary.json": "60456dd6d288a89dff3b53ec9b66f4dd88e7040142f01eb3d9ce12870c6c3d97",
    },
    "markov_cumulants.json": {
        "cumulants.csv": "062de99a1ca41933d6c843d16dbd0f852a45daa7867f6ba3fdc38005d6b34bca",
        "cumulant_fit.json": "9fd837ea632bd9299ddced34af8cff4286f1a9afb3adcdce9645843b80bbcf03",
        "cumulants.svg": "9499926c294dc859383366785211511028d717a3cf989670d39f8fade7035d1a",
        "summary.json": "55d24c5990d9f30236cf2f06f45bd59b4252527c89e38225b9538ed7b78de8a2",
    },
    "matrix_growth.json": {
        "growth_curves.csv": "f5e0dc2af2d5d2339d163ae7f8fcb7232db719d3b13e68f30d899bd7654f53dc",
        "growth_curves.svg": "1e67eccb314b9c32987a578515dbdd5c5ffbc52f4ffe345589c60e86a11e16f8",
        "pair_counting.csv": "a275923d714dccab946569b463b2bc76b9f56bfd2cd499d56ebba4ab6dd7a338",
        "summary.json": "887ed72079c93b9c2f5a8a027f8a78f0fb9409c54dc1e1b788f4e1db2eccfffd",
    },
    "prime_counting.json": {
        "counting.csv": "66f8b3304cc9e697a134ef20df752ff636a7ec6be7b8871c7a17e55000bc3746",
        "summary.json": "1d8ceb3d549ebe1ad526f7a02525799d726c7d83ae38b28a5a0b6a8123451e7b",
    },
}


def test_shipped_configs_keep_their_artifacts(tmp_path):
    # Data artifacts, charts and summaries of every shipped config stay
    # byte-identical across refactors that leave their random streams alone.
    got = {}
    for config in sorted(CONFIGS_DIR.glob("*.json")):
        out = tmp_path / config.stem
        assert cli.main(["run", str(config), "--out", str(out), "--workers", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        got[config.name] = {a["name"]: a["sha256"] for a in manifest["artifacts"]}
    assert got == SHIPPED_ARTIFACTS, moved_message(got, SHIPPED_ARTIFACTS)


def moved_artifacts(got: dict, pinned: dict) -> list[tuple]:
    """The (config, artifact) pairs whose SHA-256 in ``got`` differs from
    ``pinned`` or that only one table has, sorted; (config, None) for a
    config only one table has."""
    configs = sorted(got.keys() | pinned.keys())
    moved = [(c, None) for c in configs if (c in got) != (c in pinned)]
    for c in configs:
        ours, theirs = got.get(c, {}), pinned.get(c, {})
        moved += [(c, a) for a in sorted(ours.keys() | theirs.keys()) if ours.get(a) != theirs.get(a)]
    return moved


def moved_message(got: dict, pinned: dict) -> str:
    return (
        f"moved: {moved_artifacts(got, pinned)}; "
        f"pinned on numpy {PINNED_NUMPY}, run on {np.__version__}"
    )


def test_moved_artifacts_names_every_differing_pair():
    pinned = {"a.json": {"x.csv": "1", "y.csv": "2"}, "b.json": {"z.csv": "3"}}
    got = {"a.json": {"x.csv": "1", "y.csv": "9", "w.csv": "4"}, "c.json": {}}
    assert moved_artifacts(got, pinned) == [
        ("b.json", None),
        ("c.json", None),
        ("a.json", "w.csv"),
        ("a.json", "y.csv"),
        ("b.json", "z.csv"),
    ]
    assert moved_artifacts(pinned, pinned) == []


# The fits solve their least squares in numpy: a run whose fit calls
# LAPACK's lstsq fails here instead of only faulting in its code.
FITTING_CONFIGS = ["bernoulli_dyadic.json", "markov_cumulants.json", "matrix_growth.json"]


@pytest.mark.parametrize("name", FITTING_CONFIGS)
def test_fitting_configs_run_without_lapack_lstsq(tmp_path, name):
    script = (
        "import runpy, sys\n"
        "import numpy\n"
        "def refuse(*args, **kwargs):\n"
        "    raise RuntimeError('numpy.linalg.lstsq called')\n"
        "numpy.linalg.lstsq = refuse\n"
        f"sys.argv = ['ergolab', 'run', {str(CONFIGS_DIR / name)!r}, '--out', 'out', '--workers', '1']\n"
        "runpy.run_module('ergolab.cli', run_name='__main__')\n"
    )
    proc = _cli_process(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    got = {a["name"]: a["sha256"] for a in manifest["artifacts"]}
    assert got == SHIPPED_ARTIFACTS[name], moved_message({name: got}, {name: SHIPPED_ARTIFACTS[name]})


def ensemble_configs() -> dict:
    """Small ``average`` and ``ratecheck`` configs, none of which a shipped
    config covers: an i.i.d. shift along primes, a non-i.i.d. chain with a
    radius-1 factor, the cat map at q = 64 and 128, and ratecheck with and
    without ``min_checkpoint``."""
    chain = dict(BERNOULLI_SYSTEM, transition=MARKOV_TRANSITION)
    radius_1 = {
        "variant": "cylinder",
        "radius": 1,
        "table": [{"word": [0, 1, 0], "value": 2.0}, {"word": [1, 1, 0], "value": -1.0}],
        "default": 0.25,
    }
    bernoulli = dict(ratecheck_config(), experiment="average", seed=11)
    bernoulli["params"] = {
        "multipliers": [1, 2], "sequence": {"kind": "primes"}, "n_max": 1500, "point_count": 5
    }
    markov = dict(bernoulli, system=chain, observables=[radius_1, INDICATOR_0], seed=12)
    markov["params"] = dict(bernoulli["params"], multipliers=[1, -2], n_max=500, point_count=4)
    configs = {"bernoulli-average": bernoulli, "chain-average": markov}
    for bits in (64, 128):
        params = {"multipliers": [1, 2], "n_max": 384, "point_count": 3}
        configs[f"torus-average-q{bits}"] = torus_config("average", params, bits=bits)
    for min_checkpoint in (None, 32):
        cfg = dict(ratecheck_config(), system=chain, seed=13)
        cfg["params"] = dict(cfg["params"], point_count=11, min_checkpoint=min_checkpoint)
        configs[f"ratecheck-from-{min_checkpoint}"] = cfg
    return configs


# Recorded like SHIPPED_ARTIFACTS, at --workers 1 and 2 with SVG charts.
ENSEMBLE_ARTIFACTS = {
    "bernoulli-average": {
        "average.csv": "16c73924a9160cfd74224273e0f71b00f21acd38ae469981f3baee84a4a1d582",
        "average.svg": "a2de97f3f0c69e49eaab159ee5e7699a63fb2c4c6889eab5bbe1e32a633197f2",
        "summary.json": "a71adcbfb9f3103dca44662262a8f18bccf503c3834db0c65c5b5c219e6b38e4",
    },
    "chain-average": {
        "average.csv": "5b39d37f24546fb102746ae8afe6abde851dde83bebbdc7496907bb5b01908d1",
        "average.svg": "299ba520faf07b931a4cd7bc5a5fdd5d91e8ebdf7ff699ef6a007061a963866e",
        "summary.json": "3b16316de4c26a48134282f1ff69e6cde2d098a6f431c333b7a0bee8db38e48f",
    },
    "torus-average-q64": {
        "average.csv": "49c7a402fe0523e4d90305b02b9f2b2190f6601097188666ed467ac0993c2cb4",
        "average.svg": "b412a87e618ad86067e36e8f72e42d57c53c2c513aa6d68035e471f2f74ad703",
        "summary.json": "a21c760c96a5015ec46cc437ca04935594cde76d0713a737dc3341a8407c9ffc",
    },
    "torus-average-q128": {
        "average.csv": "61e6b6508c646f6c400ab585e7495b12ae2d856ce4e0860bf3319ea206c9583e",
        "average.svg": "7af1aa8ce8c37c3cc3fee272e263a59e02398bb3c6215439551ccb0ff03b4a42",
        "summary.json": "97fa6daf4445ea58611edc7e2a364fb3f9009a842254cb920a22d4883848546e",
    },
    "ratecheck-from-None": {
        "ratecheck.csv": "02601e4c933f0c0454ace2375df89f239a771ea3d1feaf6d45b13b1f45668e92",
        "ratecheck_summary.json": "080a57274cc91cc00a03858ecb4397b3eb4ea188fdd519c631281bc1cf2a6c1a",
        "ratecheck.svg": "9c181817ef627406da77aa9d37c72baa31c46a8245e543ee82c228fe7e1020b4",
        "summary.json": "0659c8f5cac327d16d5cd994fd95300f33f6a7cbde3e4bcbc1fe98349e0a18c5",
    },
    "ratecheck-from-32": {
        "ratecheck.csv": "3a4d91d8fda27e42dce78fef9b42a0357a591caf65f6164432c67623b35d92fb",
        "ratecheck_summary.json": "ce03cd9e5569b99a4fbbbc98143ad12e047f9216ab72f09153dcecb8e2b1c342",
        "ratecheck.svg": "9e49acd554c6d26842bac1fed1ed3de3fdd91bc12fae736c7b8db7d918199447",
        "summary.json": "f9b1f791e0cc4f5e6c13370858d2a867311cc146f87278afe1c7608fe47fc7cf",
    },
}


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_configs_keep_their_artifacts(tmp_path, workers):
    got = {}
    for name, cfg in ensemble_configs().items():
        out = tmp_path / name
        path = write_config(tmp_path, cfg, f"{name}.json")
        assert cli.main(["run", str(path), "--out", str(out), "--workers", str(workers)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        got[name] = {a["name"]: a["sha256"] for a in manifest["artifacts"]}
    assert got == ENSEMBLE_ARTIFACTS, moved_message(got, ENSEMBLE_ARTIFACTS)


def readme_artifacts() -> dict:
    """{experiment: {file: its CSV columns, or None}} as the Artifacts table
    of README.md lists them."""
    text = (CONFIGS_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Artifacts\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            experiment, name, columns, _ = cells
            columns = re.findall(r"`([^`]+)`", columns) or None
            table.setdefault(experiment.strip("`"), {})[name.strip("`")] = columns
    return table


def test_readme_lists_every_artifact_and_its_columns(tmp_path):
    # The table names exactly the files, and the CSV columns, that the
    # shipped configs, the pinned ensemble configs and a growth config with
    # a balance bound write; t_0, t_1, ... are its t_i.
    configs = {path.stem: json.loads(path.read_text()) for path in CONFIGS}
    configs.update(ensemble_configs())
    pair = {"g": [[1, -1], [-1, 2]], "h": [[2, 1], [1, 1]], "m_grid": 4, "k_max": 64, "n_max": 64}
    configs["growth-balance"] = {
        "schema_version": 1,
        "experiment": "growth",
        "params": {"pair": dict(pair, balance={"m": 3, "n_max": 8})},
    }
    written = {}
    for name, cfg in configs.items():
        out = tmp_path / name
        assert cli.run(write_config(tmp_path, cfg, f"{name}.json"), out, 1, emit_svg=True) == 0
        summary = json.loads((out / "summary.json").read_text())
        files = written.setdefault(summary["experiment"], {})
        for artifact in summary["artifacts"]:
            columns = summary["csv_columns"].get(artifact)
            files[artifact] = columns and list(
                dict.fromkeys(re.sub(r"\At_\d+\Z", "t_i", column) for column in columns)
            )
    assert readme_artifacts() == written
