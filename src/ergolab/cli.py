"""Batch experiment runner: ``ergolab run|validate|decompose``.

Configs are JSON with an explicit schema version; unknown keys are
rejected.  Numbers that must be exact (matrices, probabilities) accept
rational strings "p/q".  Every run writes CSV data artifacts, a JSON
summary, a manifest with content hashes, and optional SVG charts; data
artifacts are byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, averages, correlations, dyadic, matrix_growth, sequences, svg, systems
from .errors import ConfigError, DomainError, ErgolabError
from .seeding import ROLE_QUERY

SCHEMA_VERSION = 1

# Largest params.n_max of average and ratecheck, whose validate builds the
# first n_max terms: 2^20 primes take about 0.25 s and 20 MB to sieve.
MAX_TERMS = 1 << 20

EXPERIMENTS = (
    "correlate",
    "cumulants",
    "average",
    "ratecheck",
    "dyadic",
    "growth",
    "counting",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# ---------------------------------------------------------------------------
# Formatting and artifact helpers
# ---------------------------------------------------------------------------

def fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_value(v) for v in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class RunContext:
    """Artifact sink plus the worker pool configuration for one run."""

    def __init__(self, out_dir: Path, workers: int, emit_svg: bool):
        self.out_dir = out_dir
        self.workers = workers
        self.emit_svg = emit_svg
        self.artifacts: list[Path] = []
        self.steps: dict[str, int] = {}

    def csv(self, name: str, header, rows) -> Path:
        path = self.out_dir / name
        write_csv(path, header, rows)
        self.artifacts.append(path)
        return path

    def json(self, name: str, payload: dict) -> Path:
        path = self.out_dir / name
        write_json(path, payload)
        self.artifacts.append(path)
        return path

    def chart(self, name: str, xs, series, title: str, log_x=False, log_y=False) -> None:
        if not self.emit_svg:
            return
        path = self.out_dir / name
        svg.line_chart(path, xs, series, title=title, log_x=log_x, log_y=log_y)
        self.artifacts.append(path)

    def count(self, key: str, n: int) -> None:
        self.steps[key] = self.steps.get(key, 0) + n


def pmap(fn, tasks, workers: int) -> list:
    """Ordered map over tasks; results are identical for any worker count."""
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def parse_exact(value, where: str) -> float:
    """Accept JSON numbers or rational strings 'p/q', exactly; ``where`` is
    the value's JSON path, named in errors."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{where}: cannot parse rational {value!r}: {exc}") from exc
    raise ConfigError(f"{where} must be a number or a 'p/q' string, got {value!r}")


def parse_int(value, where: str) -> int:
    """Accept JSON integers only; ``where`` is the value's JSON path."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def parse_positive(value, where: str) -> float:
    number = parse_exact(value, where)
    if number <= 0:
        raise ConfigError(f"{where} must be positive, got {value!r}")
    return number


def parse_int_list(values, where: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of integers, got {values!r}")
    return tuple(parse_int(v, f"{where}[{j}]") for j, v in enumerate(values))


def parse_matrix(rows, where: str, entry=parse_exact) -> list[list]:
    """A square matrix as a non-empty list of rows; ``entry`` parses each value."""
    if not isinstance(rows, list) or not rows or not all(isinstance(row, list) for row in rows):
        raise ConfigError(f"{where} must be a non-empty list of rows")
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise ConfigError(f"{where}[{i}] has {len(row)} entries, expected {len(rows)}")
    return [
        [entry(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def parse_bit(value, where: str) -> int:
    if parse_int(value, where) not in (0, 1):
        raise ConfigError(f"{where} must be 0 or 1, got {value!r}")
    return value


def reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def build_system(desc: dict):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("system descriptor must be an object with a 'kind'")
    kind = desc["kind"]
    if kind == "shift":
        reject_unknown(desc, {"kind", "adjacency", "transition"}, "system")
        adjacency = desc.get("adjacency")
        transition = desc.get("transition")
        if adjacency is None or transition is None:
            raise ConfigError("shift systems need 'adjacency' and 'transition'")
        return systems.build_shift(
            parse_matrix(adjacency, "system.adjacency", parse_bit),
            parse_matrix(transition, "system.transition"),
        )
    if kind == "torus":
        reject_unknown(desc, {"kind", "matrix", "precision_bits"}, "system")
        matrix = desc.get("matrix")
        if matrix is None:
            raise ConfigError("torus systems need a 'matrix'")
        bits = parse_int(
            desc.get("precision_bits", systems.DEFAULT_PRECISION_BITS), "system.precision_bits"
        )
        return systems.build_torus(parse_matrix(matrix, "system.matrix", parse_int), bits)
    raise ConfigError(f"unknown system kind {kind!r}")


def parse_table_entry(entry, system, where: str) -> tuple[tuple[int, ...], float]:
    """One cylinder table entry; symbols must lie in a shift's alphabet."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object with 'word' and 'value'")
    reject_unknown(entry, {"word", "value"}, where)
    for key in ("word", "value"):
        if key not in entry:
            raise ConfigError(f"{where}.{key} is missing")
    if not isinstance(entry["word"], list):
        raise ConfigError(f"{where}.word must be a list of symbols")
    word = tuple(parse_int(s, f"{where}.word[{k}]") for k, s in enumerate(entry["word"]))
    if isinstance(system, systems.ShiftSystem):
        m = system.alphabet_size
        for s in word:
            if not 0 <= s < m:
                raise ConfigError(f"{where}.word: symbol {s} is outside the alphabet 0..{m - 1}")
    return word, parse_exact(entry["value"], f"{where}.value")


def parse_trig_term(entry, system, where: str) -> tuple[tuple[int, ...], float, float]:
    """One trig term; on a torus its frequency has one entry per dimension."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object with 'freq', 'cos' and 'sin'")
    reject_unknown(entry, {"freq", "cos", "sin"}, where)
    if "freq" not in entry:
        raise ConfigError(f"{where}.freq is missing")
    if not isinstance(entry["freq"], list):
        raise ConfigError(f"{where}.freq must be a list of integers")
    freq = tuple(parse_int(k, f"{where}.freq[{j}]") for j, k in enumerate(entry["freq"]))
    if isinstance(system, systems.TorusAutomorphism) and len(freq) != system.dimension:
        raise ConfigError(
            f"{where}.freq has {len(freq)} entries, the torus dimension is {system.dimension}"
        )
    cos, sin = (parse_exact(entry.get(key, 0.0), f"{where}.{key}") for key in ("cos", "sin"))
    return freq, cos, sin


def build_observable(desc: dict, system, where: str = "observable") -> systems.Observable:
    if not isinstance(desc, dict) or "variant" not in desc:
        raise ConfigError(f"{where} must be an object with a 'variant'")
    variant = desc["variant"]
    if variant == "cylinder":
        reject_unknown(desc, {"variant", "radius", "table", "default", "centered"}, where)
        radius = parse_int(desc.get("radius", 0), f"{where}.radius")
        if isinstance(system, systems.ShiftSystem):
            try:
                systems.cylinder_table_size(system.alphabet_size, radius)
            except DomainError as exc:
                raise ConfigError(f"{where}.radius is too large: {exc}") from exc
        entries = desc.get("table", [])
        if not isinstance(entries, list):
            raise ConfigError(f"{where}.table must be a list of entries")
        table = dict(
            parse_table_entry(entry, system, f"{where}.table[{j}]")
            for j, entry in enumerate(entries)
        )
        default = parse_exact(desc.get("default", 0.0), f"{where}.default")
        obs = systems.cylinder_observable(radius, table, default)
        if desc.get("centered", False):
            mean = systems.exact_mean(obs, system)
            table = {w: v - mean for w, v in obs.table.items()}
            obs = systems.cylinder_observable(radius, table, obs.default - mean)
        return obs
    if variant == "trig":
        reject_unknown(desc, {"variant", "terms"}, where)
        entries = desc.get("terms", [])
        if not isinstance(entries, list):
            raise ConfigError(f"{where}.terms must be a list of terms")
        return systems.trig_observable(
            parse_trig_term(entry, system, f"{where}.terms[{j}]")
            for j, entry in enumerate(entries)
        )
    raise ConfigError(f"unknown observable variant {variant!r}")


def build_sequence(desc: dict, where: str) -> sequences.SequenceSpec:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"{where} must be an object with a 'kind'")
    reject_unknown(desc, {"kind", "coefficients", "values", "multiplicity_bound"}, where)
    return sequences.SequenceSpec(
        kind=desc["kind"],
        coefficients=parse_int_list(desc.get("coefficients", []), f"{where}.coefficients"),
        values=parse_int_list(desc.get("values", []), f"{where}.values"),
        multiplicity_bound=parse_int(
            desc.get("multiplicity_bound", 1), f"{where}.multiplicity_bound"
        ),
    )


TOP_KEYS = {"schema_version", "experiment", "seed", "system", "observables", "params"}


def load_config(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


class ValidatedConfig:
    """Config with constructed objects and derived planning quantities."""

    def __init__(self, cfg: dict):
        reject_unknown(cfg, TOP_KEYS, "config")
        if cfg.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')!r}"
            )
        experiment = cfg.get("experiment")
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
        self.experiment = experiment
        self.seed = parse_int(cfg.get("seed", 0), "seed")
        self.raw = cfg
        self.params = cfg.get("params", {})
        if not isinstance(self.params, dict):
            raise ConfigError("'params' must be an object")
        self.system = None
        self.observables: tuple[systems.Observable, ...] = ()
        if experiment in ("correlate", "cumulants", "average", "ratecheck", "dyadic"):
            if "system" not in cfg:
                raise ConfigError(f"experiment {experiment!r} needs a 'system'")
            self.system = build_system(cfg["system"])
            obs_desc = cfg.get("observables", [])
            if not obs_desc:
                raise ConfigError(f"experiment {experiment!r} needs 'observables'")
            self.observables = tuple(
                build_observable(d, self.system, f"observables[{i}]")
                for i, d in enumerate(obs_desc)
            )
            self._require_matching_variants()
        self.derived: dict = {}
        getattr(self, f"_validate_{experiment}")()

    def _require_matching_variants(self) -> None:
        # Every experiment evaluates its observables on the system, so a
        # mismatch fails whatever the method; name the first one.
        shift = isinstance(self.system, systems.ShiftSystem)
        need = systems.CYLINDER if shift else systems.TRIG
        for i, obs in enumerate(self.observables):
            if obs.variant != need:
                raise ConfigError(
                    f"observable variants do not match the system: observables[{i}] is "
                    f"{obs.variant!r}, a {'shift' if shift else 'torus'} system needs "
                    f"{need!r} observables"
                )

    # -- per-experiment validation ----------------------------------------

    def _average_spec(self, params: dict) -> averages.AverageSpec:
        # AverageSpec checks the multiplier count and distinctness.
        checkpoints = params.get("checkpoints")
        return averages.AverageSpec(
            system=self.system,
            observables=self.observables,
            multipliers=parse_int_list(params.get("multipliers"), "params.multipliers"),
            sequence=build_sequence(params.get("sequence", {"kind": "linear"}), "params.sequence"),
            n_max=parse_int(params.get("n_max", 1024), "params.n_max"),
            checkpoints=parse_int_list(checkpoints, "params.checkpoints") if checkpoints else None,
        )

    def _rate_params(self, params: dict) -> tuple[float, float]:
        return (
            parse_positive(params.get("epsilon", 1.0), "params.epsilon"),
            parse_positive(params.get("delta", 2.0), "params.delta"),
        )

    def _point_count(self, default: int, minimum: int) -> int:
        count = parse_int(self.params.get("point_count", default), "params.point_count")
        if count < minimum:
            raise ConfigError(
                f"{self.experiment} needs params.point_count >= {minimum}, got {count}"
            )
        return count

    def _derive_window(self, spec: averages.AverageSpec, points: int) -> None:
        # Everything below builds the first n_max terms of the sequence.
        if spec.n_max > MAX_TERMS:
            raise ConfigError(f"params.n_max must be at most {MAX_TERMS}, got {spec.n_max}")
        if isinstance(spec.system, systems.ShiftSystem):
            # A point holds each read position (8 bytes) and its symbol.
            symbols = spec.read_positions.size
            self.derived["symbols_per_point"] = symbols
            self.derived["estimated_memory_bytes"] = points * (9 * symbols + 16 * spec.n_max)
        else:
            self.derived["torus_precision_bits"] = spec.system.precision_bits
            self.derived["estimated_memory_bytes"] = points * 16 * spec.n_max

    def _validate_correlate(self):
        reject_unknown(self.params, {"queries", "method", "samples"}, "params")
        queries = self.params.get("queries")
        if not queries or not isinstance(queries, list):
            raise ConfigError("correlate needs params.queries, a non-empty list of objects")
        self.method = self.params.get("method", "exact")
        if self.method not in ("exact", "mc", "both"):
            raise ConfigError("params.method must be exact, mc or both")
        self.samples = 0
        if self.method in ("mc", "both"):
            self.samples = parse_int(self.params.get("samples", 0), "params.samples")
            if self.samples < 2:
                raise ConfigError("Monte Carlo methods need params.samples >= 2")
        self.queries = []
        for q, desc in enumerate(queries):
            where = f"params.queries[{q}]"
            if not isinstance(desc, dict):
                raise ConfigError(f"{where} must be an object with 'times'")
            reject_unknown(desc, {"times", "multipliers"}, where)
            times = parse_int_list(desc.get("times"), f"{where}.times")
            if len(times) != len(self.observables):
                raise ConfigError(f"{where}.times needs one time per observable")
            multipliers = desc.get("multipliers")
            query = correlations.CorrelationQuery(
                system=self.system,
                observables=self.observables,
                times=times,
                multipliers=parse_int_list(multipliers, f"{where}.multipliers")
                if multipliers
                else None,
            )
            self.queries.append(query)
        if isinstance(self.system, systems.TorusAutomorphism):
            self.derived["torus_precision_bits"] = self.system.precision_bits
        else:
            if self.method in ("mc", "both"):
                self.derived["symbols_per_sample"] = max(
                    q.read_positions.size for q in self.queries
                )
            # The oracle walks each query's span separately; report the largest.
            self.derived["transfer_span"] = max(
                correlations.transfer_span(q) for q in self.queries
            )

    def _validate_cumulants(self):
        reject_unknown(self.params, {"time_tuples", "multipliers"}, "params")
        tuples = self.params.get("time_tuples")
        if not tuples:
            raise ConfigError("cumulants needs 'time_tuples'")
        if len(self.observables) > correlations.MAX_CUMULANT_ORDER + 1:
            raise ConfigError("too many observables for the cumulant guard")
        self.time_tuples = [
            parse_int_list(row, f"params.time_tuples[{r}]") for r, row in enumerate(tuples)
        ]
        for r, times in enumerate(self.time_tuples):
            if len(times) != len(self.observables):
                raise ConfigError(f"params.time_tuples[{r}] needs one time per observable")
        self.multipliers = (
            parse_int_list(self.params["multipliers"], "params.multipliers")
            if self.params.get("multipliers")
            else None
        )
        # Each query checks its effective times and multiplier count.
        for times in self.time_tuples:
            correlations.CorrelationQuery(
                system=self.system,
                observables=self.observables,
                times=times,
                multipliers=self.multipliers,
            )

    def _validate_average(self):
        reject_unknown(
            self.params,
            {"multipliers", "sequence", "n_max", "checkpoints", "point_count", "epsilon", "delta"},
            "params",
        )
        self.spec = self._average_spec(self.params)
        self.epsilon, self.delta = self._rate_params(self.params)
        self.point_count = self._point_count(1, 1)
        self._derive_window(self.spec, self.point_count)

    def _validate_ratecheck(self):
        reject_unknown(
            self.params,
            {
                "multipliers",
                "sequence",
                "n_max",
                "checkpoints",
                "point_count",
                "epsilon",
                "delta",
                "min_checkpoint",
            },
            "params",
        )
        self.spec = self._average_spec(self.params)
        self.epsilon, self.delta = self._rate_params(self.params)
        self.point_count = self._point_count(10, 10)
        self.min_checkpoint = (
            parse_int(self.params["min_checkpoint"], "params.min_checkpoint")
            if "min_checkpoint" in self.params
            else None
        )
        self._derive_window(self.spec, self.point_count)

    def _validate_dyadic(self):
        reject_unknown(
            self.params,
            {"multipliers", "sequence", "point_count", "n_grid", "exceptional"},
            "params",
        )
        if not isinstance(self.system, systems.ShiftSystem):
            raise ConfigError("dyadic needs a shift system: its terms are sampled on shift paths")
        grid = self.params.get("n_grid")
        if not isinstance(grid, list) or len(grid) < 4:
            raise ConfigError("dyadic needs a params.n_grid list with at least 4 entries")
        self.n_grid = parse_int_list(grid, "params.n_grid")
        for j, n in enumerate(self.n_grid):
            if n < 2 or n & (n - 1):
                raise ConfigError(f"params.n_grid[{j}] must be a power of two >= 2, got {n}")
        params = {k: self.params[k] for k in ("multipliers", "sequence") if k in self.params}
        self.spec = self._average_spec(dict(params, n_max=max(self.n_grid)))
        self.point_count = self._point_count(1000, 2)
        self.s_values: tuple[int, ...] = ()
        exceptional = self.params.get("exceptional")
        self.exceptional = exceptional is not None
        if self.exceptional:
            where = "params.exceptional"
            if not isinstance(exceptional, dict):
                raise ConfigError(f"{where} must be an object")
            reject_unknown(exceptional, {"s_values", "epsilon", "sigma"}, where)
            if not exceptional.get("s_values"):
                raise ConfigError(f"{where}.s_values must be a non-empty list of integers")
            self.s_values = parse_int_list(exceptional["s_values"], f"{where}.s_values")
            for j, s in enumerate(self.s_values):
                # Term indices are int64, so 2^s columns need s <= 62.
                if not 1 <= s <= 62:
                    raise ConfigError(f"{where}.s_values[{j}] must be in 1..62, got {s}")
            self.epsilon = parse_positive(exceptional.get("epsilon", 1.0), f"{where}.epsilon")
            self.sigma = parse_positive(exceptional.get("sigma", 1.0), f"{where}.sigma")
        # One (points, W) term matrix serves every grid N and every L_s.
        columns = dyadic.term_columns(self.n_grid, self.s_values)
        self.derived["term_columns"] = columns
        self.derived["term_entries"] = self.point_count * columns

    def _validate_growth(self):
        reject_unknown(self.params, {"matrices", "n_max", "pair"}, "params")
        matrices = self.params.get("matrices", [])
        self.n_max = parse_int(self.params.get("n_max", 64), "params.n_max")
        if self.n_max < 16:
            raise ConfigError("growth needs params.n_max >= 16")
        self.matrices = [
            np.array(parse_matrix(m, f"params.matrices[{k}]")) for k, m in enumerate(matrices)
        ]
        pair = self.params.get("pair")
        self.pair = None
        self.pair_grid = None
        self.balance = None
        if pair is not None:
            reject_unknown(pair, {"g", "h", "m_grid", "k_max", "n_max", "balance"}, "params.pair")
            for key in ("g", "h"):
                if key not in pair:
                    raise ConfigError(f"params.pair.{key} is missing")
            g = np.array(parse_matrix(pair["g"], "params.pair.g"))
            h = np.array(parse_matrix(pair["h"], "params.pair.h"))
            self.pair = matrix_growth.CommutingPair(g=g, h=h)
            m_max = parse_int(pair.get("m_grid", 32), "params.pair.m_grid")
            self.pair_grid = (
                range(1, m_max + 1),
                parse_int(pair.get("k_max", 512), "params.pair.k_max"),
                parse_int(pair.get("n_max", 512), "params.pair.n_max"),
            )
            balance = pair.get("balance")
            if balance is not None:
                reject_unknown(balance, {"m", "n_max"}, "params.pair.balance")
                self.balance = (
                    parse_int(balance.get("m", 10), "params.pair.balance.m"),
                    parse_int(balance.get("n_max", 40), "params.pair.balance.n_max"),
                )
        if not matrices and pair is None:
            raise ConfigError("growth needs 'matrices' or a 'pair'")

    def _validate_counting(self):
        reject_unknown(self.params, {"checks"}, "params")
        checks = self.params.get("checks")
        if not checks:
            raise ConfigError("counting needs 'checks'")
        self.checks = []
        for c, desc in enumerate(checks):
            where = f"params.checks[{c}]"
            reject_unknown(
                desc,
                {"type", "sequence", "values", "t_first", "t_second", "K", "n_max", "s_max", "M_claim", "m_max"},
                where,
            )
            kind = desc.get("type")
            if kind not in ("c", "b", "band"):
                raise ConfigError(f"{where}.type must be c, b or band")
            k_max = parse_int(desc.get("K", 1000), f"{where}.K")
            if desc.get("values") is not None:
                values = desc["values"]
                if not isinstance(values, list):
                    raise ConfigError(f"{where}.values must be a list of numbers")
                values = [parse_exact(x, f"{where}.values[{j}]") for j, x in enumerate(values)]
                if len(values) < k_max:
                    raise ConfigError(f"{where}.values must supply at least K entries")
                source = ("values", values)
            else:
                seq = build_sequence(desc.get("sequence", {"kind": "linear"}), f"{where}.sequence")
                t_first = parse_int(desc.get("t_first", 1), f"{where}.t_first")
                t_second = parse_int(desc.get("t_second", 2), f"{where}.t_second")
                source = ("sequence", seq, t_first, t_second)
            entry = {"type": kind, "source": source, "K": k_max}
            for key, default in (("n_max", 1000), ("s_max", 1000), ("M_claim", 1), ("m_max", 100)):
                entry[key] = parse_int(desc.get(key, default), f"{where}.{key}")
            self.checks.append(entry)


def validate_config(cfg: dict) -> tuple[ValidatedConfig | None, dict]:
    """Full validation without execution; always produces a report."""
    try:
        validated = ValidatedConfig(cfg)
    except (ErgolabError, ValueError, KeyError, TypeError) as exc:
        return None, {"ok": False, "errors": [str(exc)], "derived": {}}
    return validated, {"ok": True, "errors": [], "derived": validated.derived}


# ---------------------------------------------------------------------------
# Worker task functions (top level: picklable)
# ---------------------------------------------------------------------------

def _shift_symbols(point) -> int:
    return point.symbols.size if isinstance(point, systems.ShiftPoint) else 0


def _task_mc_query(args):
    """(estimate, std_error) and the shift symbols the estimate sampled."""
    query, samples, seed, index = args
    symbols = 0
    if isinstance(query.system, systems.ShiftSystem):
        symbols = samples * query.read_positions.size
    return correlations.mc_correlation(query, samples, seed + index), symbols


def _task_member_stats(args):
    spec, epsilon, delta, seed, index = args
    point = averages.sample_spec_point(spec, seed, index)
    return averages.ensemble_member_statistics(spec, point, epsilon, delta), _shift_symbols(point)


def _task_series(args):
    spec, seed, index = args
    point = averages.sample_spec_point(spec, seed, index)
    return averages.ergodic_average_stream(spec, point), _shift_symbols(point)


def _task_dyadic_batch(args):
    spec, seed, lo, hi, ns, s_values = args
    generator = averages.product_term_generator(spec, seed)
    return dyadic.batch_moments(generator, lo, hi, ns, s_values)


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def run_correlate(v: ValidatedConfig, ctx: RunContext) -> dict:
    method = v.method
    k = len(v.observables) - 1
    header = [f"t_{i}" for i in range(k + 1)] + ["estimate", "std_error", "exact", "defect"]
    rows = []
    exact_values = None
    mc_results = None
    # Exact values first: the oracle's span guard fails fast, before any
    # Monte Carlo windows are sampled.
    if method in ("exact", "both"):
        exact_values = [correlations.exact_correlation(q) for q in v.queries]
    if method in ("mc", "both"):
        tasks = [(q, v.samples, v.seed + ROLE_QUERY, i) for i, q in enumerate(v.queries)]
        mc_results, symbols = zip(*pmap(_task_mc_query, tasks, ctx.workers))
        ctx.count("symbols_sampled", sum(symbols))
    summary_rows = []
    gaps = []
    defects = []
    for i, query in enumerate(v.queries):
        means = [systems.exact_mean(obs, v.system) for obs in query.observables]
        product = float(np.prod(means))
        eff = query.effective_times()
        defect = None
        if method in ("exact", "both"):
            value = exact_values[i]
            defect = abs(value - product)
            rows.append(list(eff) + [value, 0.0, True, defect])
        if method in ("mc", "both"):
            estimate, std_error = mc_results[i]
            if defect is None:
                defect = abs(estimate - product)
            rows.append(list(eff) + [estimate, std_error, False, abs(estimate - product)])
        if len(eff) > 1:
            gaps.append(min(abs(a - b) for a, b in itertools.combinations(eff, 2)))
            defects.append(defect)
        summary_rows.append({"times": list(eff), "product_of_means": product})
    ctx.csv("correlations.csv", header, rows)
    ctx.count("queries", len(v.queries))
    if gaps:
        ctx.chart(
            "correlations.svg",
            gaps,
            [("defect", defects)],
            "mixing defect vs min gap",
            log_x=True,
            log_y=True,
        )
    return {"queries": summary_rows, "method": method}


def run_cumulants(v: ValidatedConfig, ctx: RunContext) -> dict:
    fit, rows = correlations.cumulant_decay_scan(
        v.system, v.observables, v.time_tuples, v.multipliers
    )
    k = len(v.observables) - 1
    header = [f"t_{i}" for i in range(k + 1)] + ["x", "moment", "cumulant"]
    csv_rows = [list(r["times"]) + [r["x"], r["moment"], r["cumulant"]] for r in rows]
    ctx.csv("cumulants.csv", header, csv_rows)
    ctx.json("cumulant_fit.json", fit.to_json_dict())
    ctx.count("tuples", len(rows))
    ctx.chart(
        "cumulants.svg",
        [r["x"] for r in rows],
        [("abs cumulant", [abs(r["cumulant"]) for r in rows])],
        "top cumulant vs recentred span",
        log_y=True,
    )
    return {"fit": fit.to_json_dict(), "tuples": len(rows)}


def run_average(v: ValidatedConfig, ctx: RunContext) -> dict:
    tasks = [(v.spec, v.seed, i) for i in range(v.point_count)]
    series_list, symbols = zip(*pmap(_task_series, tasks, ctx.workers))
    ctx.count("symbols_sampled", sum(symbols))
    header = ["seed", "N", "A_N", "S_N", "rate_statistic"]
    rows = []
    for index, series in enumerate(series_list):
        stats = averages.rate_statistic(series, v.epsilon, v.delta, series.target)
        table = dict(stats.rows)
        for n, a_n, s_n in series.entries:
            rows.append([index, n, a_n, s_n, table.get(n, "")])
    ctx.csv("average.csv", header, rows)
    ctx.count("orbits", len(series_list))
    first = series_list[0]
    ctx.chart(
        "average.svg",
        [n for n, _, _ in first.entries],
        [("A_N point 0", [a for _, a, _ in first.entries])],
        "streamed average",
        log_x=True,
    )
    return {
        "target": first.target,
        "points": v.point_count,
        "final": {str(i): s.entries[-1][1] for i, s in enumerate(series_list)},
    }


def run_ratecheck(v: ValidatedConfig, ctx: RunContext) -> dict:
    tasks = [(v.spec, v.epsilon, v.delta, v.seed, i) for i in range(v.point_count)]
    results, symbols = zip(*pmap(_task_member_stats, tasks, ctx.workers))
    ctx.count("symbols_sampled", sum(symbols))
    checkpoints = results[0][0]
    summary = averages.summarize_ensemble(
        v.spec,
        [values for _, values in results],
        checkpoints,
        v.epsilon,
        v.delta,
        v.min_checkpoint,
    )
    header = ["checkpoint", "fraction_above_own", "fraction_above_median", "median"]
    rows = [
        [n, fo, fm, md]
        for n, fo, fm, md in zip(
            summary.checkpoints,
            summary.fractions_above_own,
            summary.fractions_above_median,
            summary.medians,
        )
    ]
    ctx.csv("ratecheck.csv", header, rows)
    ctx.json("ratecheck_summary.json", summary.to_json_dict())
    ctx.count("orbits", v.point_count)
    ctx.chart(
        "ratecheck.svg",
        list(summary.checkpoints),
        [
            ("median statistic", list(summary.medians)),
            ("fraction > median ref", list(summary.fractions_above_median)),
        ],
        "rate statistic trend",
        log_x=True,
        log_y=True,
    )
    return summary.to_json_dict()


def run_dyadic(v: ValidatedConfig, ctx: RunContext) -> dict:
    # One term matrix per fixed point batch feeds every E(0, N) and every
    # L_s profile; fixed batches keep the merge the same for any workers.
    batches = dyadic.point_batches(v.point_count)
    tasks = [(v.spec, v.seed, lo, hi, v.n_grid, v.s_values) for lo, hi in batches]
    blocks = pmap(_task_dyadic_batch, tasks, ctx.workers)
    ctx.count("term_entries", sum(b.points * b.columns for b in blocks))
    moments = dyadic.merge_moments(blocks)
    e_values = [e for e, _ in moments.e_values]
    rows = [[n, e, se] for n, (e, se) in zip(v.n_grid, moments.e_values)]
    ctx.csv("dyadic_e.csv", ["N", "E", "std_error"], rows)
    fit = dyadic.sigma_fit(v.n_grid, e_values)
    ctx.json("sigma_fit.json", fit.to_json_dict())
    ctx.count("grid_points", len(v.n_grid))
    summary = {"sigma_fit": fit.to_json_dict(), "E": dict(zip(map(str, v.n_grid), e_values))}
    if v.exceptional:
        exc_rows = []
        profile_rows = []
        partial = 0.0
        for profile in moments.profiles:
            s = profile.s
            for level, mean in enumerate(profile.level_means):
                profile_rows.append([s, level, mean])
            profile_rows.append([s, "total", profile.total_mean])
            fraction, bound = dyadic.exceptional_fraction(profile, v.epsilon, v.sigma)
            partial += fraction
            exc_rows.append([s, fraction, bound, partial])
        ctx.csv(
            "dyadic_variance_profile.csv",
            ["s", "level", "mean_square_block_sum"],
            profile_rows,
        )
        ctx.csv(
            "dyadic_exceptional.csv",
            ["s", "fraction", "chebyshev_bound", "partial_sum"],
            exc_rows,
        )
        summary["exceptional_partial_sum"] = partial
    ctx.chart(
        "dyadic_e.svg",
        v.n_grid,
        [("E(0,N)", e_values)],
        "ensemble second moment growth",
        log_x=True,
        log_y=True,
    )
    return summary


def run_growth(v: ValidatedConfig, ctx: RunContext) -> dict:
    summary: dict = {}
    rows = []
    profiles = []
    for idx, matrix in enumerate(v.matrices):
        profile = matrix_growth.growth_profile(matrix, v.n_max)
        profiles.append(profile)
        for n, norm in enumerate(profile.norms, start=1):
            rows.append([idx, n, norm.value, norm.log])
        summary[f"matrix_{idx}"] = {
            "base": profile.base,
            "poly_degree": profile.poly_degree,
            "residual": profile.residual,
        }
    if rows:
        ctx.csv("growth_curves.csv", ["matrix", "n", "norm", "log_norm"], rows)
        ns = list(range(1, v.n_max + 1))
        ctx.chart(
            "growth_curves.svg",
            ns,
            [
                (f"matrix {idx}", [r[3] for r in rows if r[0] == idx])
                for idx in range(len(v.matrices))
            ],
            "log norm growth",
            log_x=True,
        )
    if v.pair is not None:
        m_grid, k_max, n_max = v.pair_grid
        result = matrix_growth.pair_counting_check(v.pair, m_grid, k_max, n_max)
        reports = [result.decisive] + ([result.other] if result.other else [])
        ctx.csv(
            "pair_counting.csv",
            sequences.CountingReport.CSV_HEADER,
            [r.to_csv_row() for r in reports],
        )
        summary["pair"] = {
            "orientation": result.orientation,
            "decisive": result.decisive.to_json_dict(),
        }
        if v.balance is not None:
            m, bal_n_max = v.balance
            bound = matrix_growth.hyperbolic_balance_bound(v.pair, m, range(0, bal_n_max + 1))
            ctx.csv(
                "balance_bound.csv",
                ["n", "norm", "lower_bound"],
                [[n, no, cu] for n, no, cu in zip(bound.ns, bound.norms, bound.curve)],
            )
            summary["balance"] = {
                "m": bound.m,
                "threshold": bound.threshold,
                "passed": bound.passed,
            }
            ctx.chart(
                "balance_bound.svg",
                list(bound.ns),
                [("norm", list(bound.norms)), ("lower bound", list(bound.curve))],
                "hyperbolic balance bound",
                log_y=True,
            )
    ctx.count("matrices", len(v.matrices))
    return summary


def run_counting(v: ValidatedConfig, ctx: RunContext) -> dict:
    rows = []
    summary = []
    for entry in v.checks:
        kind = entry["type"]
        k_max = entry["K"]
        if entry["source"][0] == "values":
            values = entry["source"][1]

            def value_fn(k, _values=values):
                return _values[k - 1]

            c_fn = value_fn
            b_fn = None
        else:
            _, seq, t_first, t_second = entry["source"]
            count = max(k_max, entry["m_max"])
            c_fn = sequences.sequence_gap_c(seq, t_first, t_second, count)
            b_fn = sequences.sequence_gap_b(seq, t_first, t_second, count)
        if kind == "c":
            report = sequences.check_c_condition(c_fn, k_max, entry["n_max"])
            reports = [report]
        elif kind == "band":
            report = sequences.check_band_condition(c_fn, k_max, entry["s_max"], entry["M_claim"])
            reports = [report]
        else:
            if b_fn is None:
                raise ConfigError("b checks need a sequence source")
            decisive, other = sequences.check_b_either(
                b_fn, range(1, entry["m_max"] + 1), k_max, entry["n_max"]
            )
            reports = [decisive] + ([other] if other else [])
        for report in reports:
            rows.append(report.to_csv_row())
            summary.append(report.to_json_dict())
    ctx.csv("counting.csv", sequences.CountingReport.CSV_HEADER, rows)
    ctx.count("checks", len(v.checks))
    return {"reports": summary}


RUNNERS = {
    "correlate": run_correlate,
    "cumulants": run_cumulants,
    "average": run_average,
    "ratecheck": run_ratecheck,
    "dyadic": run_dyadic,
    "growth": run_growth,
    "counting": run_counting,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(config_path: Path, out_dir: Path | None, workers: int, emit_svg: bool) -> int:
    try:
        cfg = load_config(config_path)
        validated, report = validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if validated is None:
        for message in report["errors"]:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    out = out_dir or Path(f"{config_path.stem}_out")
    out.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(out, workers, emit_svg)
    started = time.monotonic()
    try:
        summary = RUNNERS[validated.experiment](validated, ctx)
        status = {"ok": True, "error": None}
    except ErgolabError as exc:
        summary = {}
        status = {"ok": False, "error": {"code": exc.code, "message": str(exc)}}
    except Exception as exc:  # noqa: BLE001 - surfaced in the summary artifact
        summary = {}
        status = {"ok": False, "error": {"code": "runtime", "message": repr(exc)}}
    elapsed = time.monotonic() - started
    summary_payload = {
        "experiment": validated.experiment,
        "seed": validated.seed,
        "status": status,
        "result": summary,
        "artifacts": [p.name for p in ctx.artifacts],
        "csv_columns": {p.name: _csv_header(p) for p in ctx.artifacts if p.suffix == ".csv"},
    }
    ctx.json("summary.json", summary_payload)
    manifest = {
        "config": validated.raw,
        "artifacts": [
            {"name": p.name, "sha256": sha256_file(p), "bytes": p.stat().st_size}
            for p in ctx.artifacts
        ],
        "wall_seconds": elapsed,
        "steps": ctx.steps,
        "versions": {
            "ergolab": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    write_json(out / "manifest.json", manifest)
    if not status["ok"]:
        print(f"runtime error: {status['error']}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _csv_header(path: Path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.readline().strip().split(",")


def validate_command(config_path: Path) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(json.dumps({"ok": False, "errors": [str(exc)], "derived": {}}, indent=2))
        return EXIT_CONFIG
    _validated, report = validate_config(cfg)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["ok"] else EXIT_CONFIG


def decompose_command(n: int, s: int | None) -> int:
    s = s if s is not None else dyadic.s_of(n)
    blocks = dyadic.decompose(n, s)
    print(f"n={n} s={s} blocks={len(blocks)}")
    for block in blocks:
        print(f"  level {block.level:2d}  [{block.lo}..{block.hi}]  length {len(block)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergolab", description="batch experiments for ergodic-average rate checks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=None, help="output directory")
    p_run.add_argument(
        "--workers",
        type=int,
        default=int(os.environ.get("ERGOLAB_WORKERS", "1")),
        help="worker pool size (default: ERGOLAB_WORKERS or 1)",
    )
    p_run.add_argument("--no-svg", action="store_true", help="skip SVG charts")

    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config", type=Path)

    p_dec = sub.add_parser("decompose", help="inspect a dyadic decomposition")
    p_dec.add_argument("n", type=int)
    p_dec.add_argument("--s", type=int, default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, args.workers, not args.no_svg)
    if args.command == "validate":
        return validate_command(args.config)
    return decompose_command(args.n, args.s)


if __name__ == "__main__":
    sys.exit(main())
