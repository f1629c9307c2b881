"""Batch experiment runner: ``ergolab run|validate|decompose``.

Configs are JSON with an explicit schema version; unknown keys are
rejected.  Numbers that must be exact (matrices, probabilities) accept
rational strings "p/q".  Every run writes CSV data artifacts, a JSON
summary, a manifest with content hashes, and optional SVG charts; data
artifacts are byte-identical across reruns and worker counts.

Importing this module executes ``systems`` and ``correlations``, which
every system parse needs.  ``averages``, ``dyadic``, ``matrix_growth``,
``sequences`` and ``svg`` are registered in ``sys.modules`` (and on the
package) at once but execute only at their first attribute access, so a
process runs only the modules its experiment calls.  ``hashlib`` is
imported by the manifest's hashing only, so ``validate`` loads no OpenSSL.
A bad command-line argument exits 2 with one line that names it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib.util
import itertools
import json
import math
import os
import pickle
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, correlations, systems
from .errors import ConfigError, DomainError, ErgolabError
from .seeding import ROLE_QUERY


def _lazy(name: str):
    """``ergolab.<name>``, registered in ``sys.modules`` and on the package
    at once, but executed only at its first attribute access."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[full])
        setattr(sys.modules[__package__], name, sys.modules[full])
    return sys.modules[full]


averages, dyadic, matrix_growth, sequences, svg = map(
    _lazy, ("averages", "dyadic", "matrix_growth", "sequences", "svg")
)

SCHEMA_VERSION = 1

# Most sequence terms a config may ask for: params.n_max of average and
# ratecheck, whose validate builds the first n_max terms, and the term
# columns of dyadic. 2^20 primes take about 0.25 s and 20 MB to sieve.
# It also bounds each growth and counting size and the cells of the pair
# grid, which size the arrays those checks build.
MAX_TERMS = 1 << 20

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
    import hashlib  # here, not at the top: it loads OpenSSL, which validate never needs

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class RunContext:
    """Artifact sink plus the worker count for one run."""

    def __init__(self, out_dir: Path, workers: int, emit_svg: bool):
        self.out_dir = out_dir
        self.workers = workers
        self.emit_svg = emit_svg
        self.artifacts: list[Path] = []
        self.csv_columns: dict[str, list[str]] = {}
        self.steps: dict[str, int] = {}

    def csv(self, name: str, header, rows) -> Path:
        path = self.out_dir / name
        self.csv_columns[name] = list(header)
        write_csv(path, self.csv_columns[name], rows)
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
    """Ordered map over tasks; results are identical for any worker count.

    With k = min(workers, len(tasks)) > 1 the tasks fall into k shares,
    share w being tasks[w::k]. The parent runs share 0 and forks one child
    per other share, which runs it on the objects it inherited, so no task
    is pickled; only each share's results come back, through a pipe. A
    failing task raises the error of the lowest failing index, the one a
    serial map raises, with that index set as its ``task`` attribute.
    Without ``os.fork`` the map is serial.
    """
    tasks = list(tasks)
    k = min(workers, len(tasks))
    if k <= 1 or not hasattr(os, "fork"):
        return _gathered([_run_share(fn, tasks, 0, 1)], len(tasks))
    # numpy imports numpy.random on first use: once here, not once per child.
    import numpy.random  # noqa: F401
    import signal

    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (share, pid, pipe) of every child not yet reaped
    try:
        for w in range(1, k):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child_share(fn, tasks, w, k, write_fd)
            os.close(write_fd)
            children.append((w, pid, open(read_fd, "rb")))
        shares = [_run_share(fn, tasks, 0, k)]
        # Read and reap every child before raising anything.
        lost = None
        while children:
            w, pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if status == 0:
                shares.append(pickle.loads(payload))
            elif lost is None:
                lost = RuntimeError(
                    f"pmap share {w} of {k} (tasks {w}::{k}) ended without a result, "
                    f"exit code {os.waitstatus_to_exitcode(status)}"
                )
    finally:
        # Children are left here only by an interrupt or a failed fork.
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if lost is not None:
        raise lost
    return _gathered(shares, len(tasks))


def _gathered(shares, count: int) -> list:
    """The results of ``count`` tasks from the shares of ``_run_share`` in
    share order, or the error of the lowest failing task, tagged with its
    index as ``task``."""
    errors = [error for _, error in shares if error is not None]
    if errors:
        index, error = min(errors, key=lambda e: e[0])
        error.task = index
        raise error
    results = [None] * count
    for w, (share, _) in enumerate(shares):
        results[w::len(shares)] = share
    return results


def _run_share(fn, tasks, w: int, k: int):
    """(results of tasks[w::k], None), or (None, (index, error)) for the
    first task of the share that raised."""
    results = []
    for index in range(w, len(tasks), k):
        try:
            results.append(fn(tasks[index]))
        except Exception as exc:  # noqa: BLE001 - re-raised by pmap
            return None, (index, exc)
    return results, None


def _child_share(fn, tasks, w: int, k: int, write_fd: int) -> None:
    """Run share w in a forked child, write it to ``write_fd`` and exit;
    exit status 0 means the pipe holds the whole payload."""
    code = 1
    try:
        payload = pickle.dumps(_run_share(fn, tasks, w, k), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def parse_exact(value, where: str) -> float:
    """Accept finite JSON numbers or rational strings 'p/q', exactly;
    ``where`` is the value's JSON path, named in errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{where} must be a number or a 'p/q' string, got {value!r}")
    try:
        number = float(Fraction(value) if isinstance(value, str) else value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"{where}: cannot parse {value!r}: {exc}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def parse_int(
    value, where: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    """Accept JSON integers only, within ``minimum`` and ``maximum`` where
    they are given; ``where`` is the value's JSON path."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{where} must be at most {maximum}, got {value}")
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


def check_keys(obj, allowed: set[str], where: str, required=()) -> None:
    """``obj`` must be an object with only ``allowed`` keys and every
    ``required`` one."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}.{key} is missing")


def check_cells(where: str, names: str, rows: int, cols: int) -> None:
    """A (rows, cols) array a config asks for holds at most MAX_TERMS cells."""
    if rows * cols > MAX_TERMS:
        raise ConfigError(f"{where}: {names} = {rows} x {cols} grid cells, more than {MAX_TERMS}")


def build_at(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a domain object; an error it raises
    becomes a ConfigError at the JSON path ``where``."""
    try:
        return make(*args, **kwargs)
    except ErgolabError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_system(desc):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("system must be an object with a 'kind'")
    kind = desc["kind"]
    if kind == "shift":
        check_keys(desc, {"kind", "adjacency", "transition"}, "system", ("adjacency", "transition"))
        return build_at(
            "system",
            systems.build_shift,
            parse_matrix(desc["adjacency"], "system.adjacency", parse_bit),
            parse_matrix(desc["transition"], "system.transition"),
        )
    if kind == "torus":
        check_keys(desc, {"kind", "matrix", "precision_bits"}, "system", ("matrix",))
        bits = parse_int(
            desc.get("precision_bits", systems.DEFAULT_PRECISION_BITS), "system.precision_bits"
        )
        matrix = parse_matrix(desc["matrix"], "system.matrix", parse_int)
        return build_at("system", systems.build_torus, matrix, bits)
    raise ConfigError(f"system.kind must be shift or torus, got {kind!r}")


def parse_table_entry(entry, alphabet_size: int, where: str) -> tuple[tuple[int, ...], float]:
    """One cylinder table entry; its symbols must lie in the alphabet."""
    check_keys(entry, {"word", "value"}, where, ("word", "value"))
    word = parse_int_list(entry["word"], f"{where}.word")
    for s in word:
        if not 0 <= s < alphabet_size:
            raise ConfigError(
                f"{where}.word: symbol {s} is outside the alphabet 0..{alphabet_size - 1}"
            )
    return word, parse_exact(entry["value"], f"{where}.value")


def parse_trig_term(entry, dimension: int, where: str) -> tuple[tuple[int, ...], float, float]:
    """One trig term; its frequency has one entry per torus dimension."""
    check_keys(entry, {"freq", "cos", "sin"}, where, ("freq",))
    freq = parse_int_list(entry["freq"], f"{where}.freq")
    if len(freq) != dimension:
        raise ConfigError(
            f"{where}.freq has {len(freq)} entries, the torus dimension is {dimension}"
        )
    cos, sin = (parse_exact(entry.get(key, 0.0), f"{where}.{key}") for key in ("cos", "sin"))
    return freq, cos, sin


def build_observable(desc, system, where: str) -> systems.Observable:
    """One observable; its variant must fit the system (cylinder on a
    shift, trig on a torus) whatever the experiment evaluates."""
    if not isinstance(desc, dict) or "variant" not in desc:
        raise ConfigError(f"{where} must be an object with a 'variant'")
    variant = desc["variant"]
    if variant not in (systems.CYLINDER, systems.TRIG):
        raise ConfigError(f"{where}.variant must be cylinder or trig, got {variant!r}")
    need = systems.required_variant(system)
    if variant != need:
        raise ConfigError(
            f"observable variants do not match the system: {where} is {variant!r}, a "
            f"{'shift' if need == systems.CYLINDER else 'torus'} system needs {need!r} observables"
        )
    if variant == systems.TRIG:
        check_keys(desc, {"variant", "terms"}, where)
        entries = desc.get("terms", [])
        if not isinstance(entries, list):
            raise ConfigError(f"{where}.terms must be a list of terms")
        terms = [
            parse_trig_term(entry, system.dimension, f"{where}.terms[{j}]")
            for j, entry in enumerate(entries)
        ]
        return build_at(f"{where}.terms", systems.trig_observable, terms)
    check_keys(desc, {"variant", "radius", "table", "default", "centered"}, where)
    radius = parse_int(desc.get("radius", 0), f"{where}.radius", 0)
    try:
        systems.cylinder_table_size(system.alphabet_size, radius)
    except DomainError as exc:
        raise ConfigError(f"{where}.radius is too large: {exc}") from exc
    entries = desc.get("table", [])
    if not isinstance(entries, list):
        raise ConfigError(f"{where}.table must be a list of entries")
    table = dict(
        parse_table_entry(entry, system.alphabet_size, f"{where}.table[{j}]")
        for j, entry in enumerate(entries)
    )
    default = parse_exact(desc.get("default", 0.0), f"{where}.default")
    obs = build_at(f"{where}.table", systems.cylinder_observable, radius, table, default)
    if desc.get("centered", False):
        mean = systems.exact_mean(obs, system)
        table = {w: v - mean for w, v in obs.table.items()}
        obs = build_at(where, systems.cylinder_observable, radius, table, obs.default - mean)
    return obs


def build_sequence(desc, where: str) -> sequences.SequenceSpec:
    check_keys(desc, {"kind", "coefficients", "values", "multiplicity_bound"}, where, ("kind",))
    return build_at(
        where,
        sequences.SequenceSpec,
        kind=desc["kind"],
        coefficients=parse_int_list(desc.get("coefficients", []), f"{where}.coefficients"),
        values=parse_int_list(desc.get("values", []), f"{where}.values"),
        multiplicity_bound=parse_int(
            desc.get("multiplicity_bound", 1), f"{where}.multiplicity_bound"
        ),
    )


def parse_system(cfg: dict) -> tuple:
    """The system and its observables, for the experiments that sample one."""
    experiment = cfg["experiment"]
    if "system" not in cfg:
        raise ConfigError(f"experiment {experiment!r} needs a 'system'")
    system = build_system(cfg["system"])
    descs = cfg.get("observables")
    if not isinstance(descs, list) or not descs:
        raise ConfigError(f"experiment {experiment!r} needs 'observables', a non-empty list")
    observables = tuple(
        build_observable(d, system, f"observables[{i}]") for i, d in enumerate(descs)
    )
    return system, observables


def parse_average_spec(system, observables, params: dict, n_max: int) -> averages.AverageSpec:
    # AverageSpec checks the multiplier count and distinctness, and then
    # the checkpoints, so that their errors name params.checkpoints.
    spec = build_at(
        "params",
        averages.AverageSpec,
        system=system,
        observables=observables,
        multipliers=parse_int_list(params.get("multipliers"), "params.multipliers"),
        sequence=build_sequence(params.get("sequence", {"kind": "linear"}), "params.sequence"),
        n_max=n_max,
    )
    checkpoints = params.get("checkpoints")
    if not checkpoints:
        return spec
    checkpoints = parse_int_list(checkpoints, "params.checkpoints")
    return build_at("params.checkpoints", dataclasses.replace, spec, checkpoints=checkpoints)


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


def parse_config(cfg: dict):
    """The derived planning quantities that ``validate`` reports and the
    run step, bound to every domain object it needs."""
    check_keys(cfg, TOP_KEYS, "config")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')!r}"
        )
    experiment = cfg.get("experiment")
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {tuple(EXPERIMENTS)}, got {experiment!r}")
    return EXPERIMENTS[experiment](cfg, parse_int(cfg.get("seed", 0), "seed", 0))


def validate_config(cfg: dict) -> tuple:
    """Full validation without execution: (run step or None, report)."""
    try:
        derived, step = parse_config(cfg)
    except (ErgolabError, ValueError, KeyError, TypeError) as exc:
        return None, {"ok": False, "errors": [str(exc)], "derived": {}}
    return step, {"ok": True, "errors": [], "derived": derived}


# ---------------------------------------------------------------------------
# Experiments: parse_<name>(cfg, seed) returns the derived quantities and the
# run step, run_<name> bound to its domain objects; run steps take a
# RunContext and raise no ConfigError. Worker task results are pickled.
# ---------------------------------------------------------------------------

def parse_correlate(cfg: dict, seed: int):
    params = cfg.get("params", {})
    check_keys(params, {"queries", "method", "samples"}, "params")
    system, observables = parse_system(cfg)
    descs = params.get("queries")
    if not descs or not isinstance(descs, list):
        raise ConfigError("correlate needs params.queries, a non-empty list of objects")
    method = params.get("method", "exact")
    if method not in ("exact", "mc", "both"):
        raise ConfigError("params.method must be exact, mc or both")
    samples = 0 if method == "exact" else parse_int(params.get("samples", 0), "params.samples", 2)
    queries = []
    for q, desc in enumerate(descs):
        where = f"params.queries[{q}]"
        if not isinstance(desc, dict):
            raise ConfigError(f"{where} must be an object with 'times'")
        check_keys(desc, {"times", "multipliers"}, where)
        multipliers = desc.get("multipliers")
        queries.append(
            build_at(
                where,
                correlations.CorrelationQuery,
                system=system,
                observables=observables,
                times=parse_int_list(desc.get("times"), f"{where}.times"),
                multipliers=parse_int_list(multipliers, f"{where}.multipliers")
                if multipliers
                else None,
            )
        )
    derived = {}
    if isinstance(system, systems.TorusAutomorphism):
        derived["torus_precision_bits"] = system.precision_bits
    else:
        # Each sample draws, and the oracle walks, exactly the read positions.
        derived["symbols_per_sample"] = max(q.read_positions.size for q in queries)
    return derived, functools.partial(run_correlate, queries, method, samples, seed)


def _task_mc_query(args):
    """(estimate, std_error) and the shift symbols the estimate sampled."""
    query, samples, seed, index = args
    symbols = 0
    if isinstance(query.system, systems.ShiftSystem):
        symbols = samples * query.read_positions.size
    return correlations.mc_correlation(query, samples, seed + index), symbols


def run_correlate(queries, method: str, samples: int, seed: int, ctx: RunContext) -> dict:
    k = queries[0].order
    header = [f"t_{i}" for i in range(k + 1)] + ["estimate", "std_error", "exact", "defect"]
    rows = []
    exact_values = None
    mc_results = None
    # Exact values first: an oracle error (a frequency overflow on the
    # torus) fails fast, before any Monte Carlo sample is drawn.
    if method in ("exact", "both"):
        exact_values = [correlations.exact_correlation(q) for q in queries]
    if method in ("mc", "both"):
        tasks = [(q, samples, seed + ROLE_QUERY, i) for i, q in enumerate(queries)]
        mc_results, symbols = zip(*pmap(_task_mc_query, tasks, ctx.workers))
        ctx.count("symbols_sampled", sum(symbols))
    summary_rows = []
    gaps = []
    defects = []
    for i, query in enumerate(queries):
        means = [systems.exact_mean(obs, query.system) for obs in query.observables]
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
    ctx.count("queries", len(queries))
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


def parse_cumulants(cfg: dict, seed: int):
    params = cfg.get("params", {})
    check_keys(params, {"time_tuples", "multipliers"}, "params")
    system, observables = parse_system(cfg)
    if len(observables) > correlations.MAX_CUMULANT_ORDER + 1:
        raise ConfigError(
            f"observables: the cumulant guard allows at most "
            f"{correlations.MAX_CUMULANT_ORDER + 1}, got {len(observables)}"
        )
    rows = params.get("time_tuples")
    if not rows or not isinstance(rows, list):
        raise ConfigError("cumulants needs params.time_tuples, a non-empty list of time lists")
    time_tuples = [parse_int_list(row, f"params.time_tuples[{r}]") for r, row in enumerate(rows)]
    multipliers = (
        parse_int_list(params["multipliers"], "params.multipliers")
        if params.get("multipliers")
        else None
    )
    # Each query checks its effective times and multiplier count.
    for r, times in enumerate(time_tuples):
        build_at(
            f"params.time_tuples[{r}]",
            correlations.CorrelationQuery,
            system=system,
            observables=observables,
            times=times,
            multipliers=multipliers,
        )
    return {}, functools.partial(run_cumulants, system, observables, time_tuples, multipliers)


def run_cumulants(system, observables, time_tuples, multipliers, ctx: RunContext) -> dict:
    fit, rows = correlations.cumulant_decay_scan(system, observables, time_tuples, multipliers)
    k = len(observables) - 1
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


# The two experiments on ergodic averages along a sequence differ only in
# params.point_count (the default is also the minimum) and the extra keys
# they take.
AVERAGE_EXPERIMENTS = {"average": (1, set()), "ratecheck": (10, {"min_checkpoint"})}


def parse_averages(cfg: dict, seed: int):
    experiment = cfg["experiment"]
    min_points, extra_keys = AVERAGE_EXPERIMENTS[experiment]
    params = cfg.get("params", {})
    check_keys(
        params,
        {"multipliers", "sequence", "n_max", "checkpoints", "point_count", "epsilon", "delta"}
        | extra_keys,
        "params",
    )
    system, observables = parse_system(cfg)
    # Everything past this check builds the first n_max terms of the sequence.
    n_max = parse_int(params.get("n_max", 1024), "params.n_max", maximum=MAX_TERMS)
    spec = parse_average_spec(system, observables, params, n_max)
    epsilon = parse_positive(params.get("epsilon", 1.0), "params.epsilon")
    delta = parse_positive(params.get("delta", 2.0), "params.delta")
    points = parse_int(params.get("point_count", min_points), "params.point_count", min_points)
    if isinstance(system, systems.ShiftSystem):
        # A point holds each read position (8 bytes) and its symbol.
        symbols = build_at("params", lambda: spec.read_positions.size)
        derived = {
            "symbols_per_point": symbols,
            "estimated_memory_bytes": points * (9 * symbols + 16 * n_max),
        }
    else:
        derived = {
            "torus_precision_bits": system.precision_bits,
            "estimated_memory_bytes": points * 16 * n_max,
        }
    if experiment == "average":
        return derived, functools.partial(run_average, spec, epsilon, delta, points, seed)
    min_checkpoint = params.get("min_checkpoint")
    if min_checkpoint is not None:
        # The summary keeps the checkpoints from min_checkpoint on.
        min_checkpoint = parse_int(
            min_checkpoint, "params.min_checkpoint", maximum=spec.checkpoint_schedule()[-1]
        )
    return derived, functools.partial(
        run_ratecheck, spec, epsilon, delta, points, seed, min_checkpoint
    )


def _task_series(args):
    spec, seed, index = args
    point = averages.sample_spec_point(spec, seed, index)
    symbols = point.symbols.size if isinstance(point, systems.ShiftPoint) else 0
    return averages.ergodic_average_stream(spec, point), symbols


def run_average(
    spec, epsilon: float, delta: float, points: int, seed: int, ctx: RunContext
) -> dict:
    tasks = [(spec, seed, i) for i in range(points)]
    series_list, symbols = zip(*pmap(_task_series, tasks, ctx.workers))
    ctx.count("symbols_sampled", sum(symbols))
    header = ["seed", "N", "A_N", "S_N", "rate_statistic"]
    rows = []
    for index, series in enumerate(series_list):
        stats = averages.rate_statistic(series, epsilon, delta, series.target)
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
        "points": points,
        "final": {str(i): s.entries[-1][1] for i, s in enumerate(series_list)},
    }


def run_ratecheck(
    spec, epsilon: float, delta: float, points: int, seed: int, min_checkpoint, ctx: RunContext
) -> dict:
    members = functools.partial(pmap, workers=ctx.workers)
    summary = averages.ensemble_rate_experiment(
        spec, points, epsilon, delta, seed, min_checkpoint, members
    )
    ctx.count("symbols_sampled", summary.symbols_sampled)
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
    ctx.count("orbits", points)
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


def parse_dyadic(cfg: dict, seed: int):
    params = cfg.get("params", {})
    check_keys(
        params, {"multipliers", "sequence", "point_count", "n_grid", "exceptional"}, "params"
    )
    system, observables = parse_system(cfg)
    if not isinstance(system, systems.ShiftSystem):
        raise ConfigError("dyadic needs a shift system: its terms are sampled on shift paths")
    grid = params.get("n_grid")
    if not isinstance(grid, list) or len(grid) < 4:
        raise ConfigError("dyadic needs a params.n_grid list with at least 4 entries")
    n_grid = parse_int_list(grid, "params.n_grid")
    for j, n in enumerate(n_grid):
        if n < 2 or n & (n - 1):
            raise ConfigError(f"params.n_grid[{j}] must be a power of two >= 2, got {n}")
    spec = parse_average_spec(system, observables, params, max(n_grid))
    points = parse_int(params.get("point_count", 1000), "params.point_count", 2)
    s_values: tuple[int, ...] = ()
    thresholds = None
    exceptional = params.get("exceptional")
    if exceptional is not None:
        where = "params.exceptional"
        check_keys(exceptional, {"s_values", "epsilon", "sigma"}, where)
        if not exceptional.get("s_values"):
            raise ConfigError(f"{where}.s_values must be a non-empty list of integers")
        s_values = parse_int_list(exceptional["s_values"], f"{where}.s_values")
        for j, s in enumerate(s_values):
            # Term indices are int64, so 2^s columns need s <= 62.
            if not 1 <= s <= 62:
                raise ConfigError(f"{where}.s_values[{j}] must be in 1..62, got {s}")
        thresholds = tuple(
            parse_positive(exceptional.get(key, 1.0), f"{where}.{key}")
            for key in ("epsilon", "sigma")
        )
    # One (points, W) term matrix serves every grid N and every L_s; the
    # generator builds the first W terms of the sequence.
    columns = dyadic.term_columns(n_grid, s_values)
    if columns > MAX_TERMS:
        where = (
            f"params.n_grid[{n_grid.index(columns)}]"
            if columns in n_grid
            else f"params.exceptional.s_values[{s_values.index(columns.bit_length() - 1)}]"
        )
        raise ConfigError(f"{where} needs {columns} term columns, more than {MAX_TERMS}")
    # Batches are sized by bytes; the prediction bounds the positions a
    # row reads by sum_i (2 radius_i + 1) W.
    row_bytes, call_bytes = averages.term_bytes(spec, columns)
    batch = min(points, dyadic.batch_points(row_bytes))
    derived = {
        "term_columns": columns,
        "term_entries": points * columns,
        "batch_points": batch,
        "batch_bytes": batch * row_bytes + call_bytes,
    }
    return derived, functools.partial(
        run_dyadic, spec, points, n_grid, s_values, thresholds, seed, row_bytes
    )


def _task_dyadic_batch(args):
    generator, lo, hi, ns, s_values = args
    return dyadic.batch_moments(generator, lo, hi, ns, s_values)


def run_dyadic(
    spec, points: int, n_grid, s_values, thresholds, seed: int, row_bytes: int, ctx: RunContext
) -> dict:
    # One term matrix per fixed point batch feeds every E(0, N) and every
    # L_s profile; fixed batches keep the merge the same for any workers.
    # One generator serves every batch of a share, so its slab scratch is
    # allocated once per worker, not once per batch.
    generator = averages.product_term_generator(spec, seed)
    batches = dyadic.point_batches(points, row_bytes)
    tasks = [(generator, lo, hi, n_grid, s_values) for lo, hi in batches]
    blocks = pmap(_task_dyadic_batch, tasks, ctx.workers)
    del generator, tasks  # the slab scratch is not held while artifacts are written
    ctx.count("term_entries", sum(b.points * b.columns for b in blocks))
    # The largest batch, and its bytes at the positions the batches read.
    columns = blocks[0].columns
    read = spec.positions_read(sequences.generate(spec.sequence, columns)).size
    row_read, call_read = averages.term_bytes(spec, columns, read)
    batch = max(b.points for b in blocks)
    ctx.count("batch_points", batch)
    ctx.count("batch_bytes", batch * row_read + call_read)
    moments = dyadic.merge_moments(blocks)
    e_values = [e for e, _ in moments.e_values]
    rows = [[n, e, se] for n, (e, se) in zip(n_grid, moments.e_values)]
    ctx.csv("dyadic_e.csv", ["N", "E", "std_error"], rows)
    fit = dyadic.sigma_fit(n_grid, e_values)
    ctx.json("sigma_fit.json", fit.to_json_dict())
    ctx.count("grid_points", len(n_grid))
    summary = {"sigma_fit": fit.to_json_dict(), "E": dict(zip(map(str, n_grid), e_values))}
    if thresholds is not None:
        epsilon, sigma = thresholds
        exc_rows = []
        profile_rows = []
        partial = 0.0
        for profile in moments.profiles:
            s = profile.s
            for level, mean in enumerate(profile.level_means):
                profile_rows.append([s, level, mean])
            profile_rows.append([s, "total", profile.total_mean])
            fraction, bound = dyadic.exceptional_fraction(profile, epsilon, sigma)
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
        n_grid,
        [("E(0,N)", e_values)],
        "ensemble second moment growth",
        log_x=True,
        log_y=True,
    )
    return summary


def parse_growth(cfg: dict, seed: int):
    params = cfg.get("params", {})
    check_keys(params, {"matrices", "n_max", "pair"}, "params")
    descs = params.get("matrices", [])
    if not isinstance(descs, list):
        raise ConfigError("params.matrices must be a list of matrices")
    n_max = parse_int(params.get("n_max", 64), "params.n_max", 16, MAX_TERMS)
    matrices = [np.array(parse_matrix(m, f"params.matrices[{k}]")) for k, m in enumerate(descs)]
    for k, matrix in enumerate(matrices):
        build_at(f"params.matrices[{k}]", matrix_growth.growth_radius, matrix)
    pair = params.get("pair")
    pair_check = None
    balance = None
    if pair is not None:
        where = "params.pair"
        check_keys(pair, {"g", "h", "m_grid", "k_max", "n_max", "balance"}, where, ("g", "h"))
        commuting = build_at(
            where,
            matrix_growth.CommutingPair,
            g=np.array(parse_matrix(pair["g"], f"{where}.g")),
            h=np.array(parse_matrix(pair["h"], f"{where}.h")),
        )
        rows = parse_int(pair.get("m_grid", 32), f"{where}.m_grid", 1)
        k_max = parse_int(pair.get("k_max", 512), f"{where}.k_max", 2, MAX_TERMS)
        check_cells(where, "m_grid x k_max", rows, k_max)  # pair_norm_grid's array
        pair_check = (
            commuting,
            range(1, rows + 1),
            k_max,
            parse_int(pair.get("n_max", 512), f"{where}.n_max", 1, MAX_TERMS),
        )
        if pair.get("balance") is not None:
            where = "params.pair.balance"
            check_keys(pair["balance"], {"m", "n_max"}, where)
            balance = tuple(
                parse_int(pair["balance"].get(key, default), f"{where}.{key}", 0, MAX_TERMS)
                for key, default in (("m", 10), ("n_max", 40))
            )
    if not matrices and pair is None:
        raise ConfigError("growth needs params.matrices or params.pair")
    return {}, functools.partial(run_growth, matrices, n_max, pair_check, balance)


def run_growth(matrices, n_max: int, pair_check, balance, ctx: RunContext) -> dict:
    summary: dict = {}
    rows = []
    for idx, matrix in enumerate(matrices):
        profile = matrix_growth.growth_profile(matrix, n_max)
        for n, norm in enumerate(profile.norms, start=1):
            rows.append([idx, n, norm.value, norm.log])
        summary[f"matrix_{idx}"] = {
            "base": profile.base,
            "poly_degree": profile.poly_degree,
            "residual": profile.residual,
        }
    if rows:
        ctx.csv("growth_curves.csv", ["matrix", "n", "norm", "log_norm"], rows)
        ns = list(range(1, n_max + 1))
        ctx.chart(
            "growth_curves.svg",
            ns,
            [
                (f"matrix {idx}", [r[3] for r in rows if r[0] == idx])
                for idx in range(len(matrices))
            ],
            "log norm growth",
            log_x=True,
        )
    if pair_check is not None:
        result = matrix_growth.pair_counting_check(*pair_check)
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
        if balance is not None:
            m, bal_n_max = balance
            bound = matrix_growth.hyperbolic_balance_bound(
                pair_check[0], m, range(0, bal_n_max + 1)
            )
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
    ctx.count("matrices", len(matrices))
    return summary


# Integer keys of a counting check besides K: the default, the least
# value the checkers accept and the largest size (M_claim bounds a count).
CHECK_LIMITS = {
    "n_max": (1000, 1, MAX_TERMS),
    "s_max": (1000, 1, MAX_TERMS),
    "M_claim": (1, 0, None),
    "m_max": (100, 1, MAX_TERMS),
}


def parse_counting(cfg: dict, seed: int):
    params = cfg.get("params", {})
    check_keys(params, {"checks"}, "params")
    descs = params.get("checks")
    if not descs or not isinstance(descs, list):
        raise ConfigError("counting needs params.checks, a non-empty list of checks")
    checks = []
    for c, desc in enumerate(descs):
        where = f"params.checks[{c}]"
        check_keys(
            desc, {"type", "sequence", "values", "t_first", "t_second", "K", *CHECK_LIMITS}, where
        )
        kind = desc.get("type")
        if kind not in ("c", "b", "band"):
            raise ConfigError(f"{where}.type must be c, b or band")
        k_max = parse_int(desc.get("K", 1000), f"{where}.K", 1 if kind == "band" else 2, MAX_TERMS)
        limits = {
            key: parse_int(desc.get(key, default), f"{where}.{key}", minimum, maximum)
            for key, (default, minimum, maximum) in CHECK_LIMITS.items()
        }
        if desc.get("values") is not None:
            if kind == "b":
                raise ConfigError(f"{where}: b checks need a sequence source, not values")
            values = desc["values"]
            if not isinstance(values, list):
                raise ConfigError(f"{where}.values must be a list of numbers")
            if len(values) < k_max:
                raise ConfigError(f"{where}.values must supply at least K entries")
            source = [  # the checkers take +inf for a k the sequence never reaches
                x if x == math.inf else parse_exact(x, f"{where}.values[{j}]")
                for j, x in enumerate(values)
            ][:k_max]
            for j, x in enumerate(source):  # the checkers reject values below 1
                if x < 1.0:
                    raise ConfigError(f"{where}.values[{j}] must be >= 1 or infinite, got {x}")
        else:
            if kind == "b":  # one (m_max, K) grid of gaps per orientation
                check_cells(where, "m_max x K", limits["m_max"], k_max)
            spec = build_sequence(desc.get("sequence", {"kind": "linear"}), f"{where}.sequence")
            count = max(k_max, limits["m_max"]) if kind == "b" else k_max
            # The gaps are exact in int64 while |t| max r_n < 2^62.
            bound = sequences.gap_time_bound(
                build_at(f"{where}.sequence", sequences.generate, spec, count)
            )
            source = (
                spec,
                parse_int(desc.get("t_first", 1), f"{where}.t_first", -bound, bound),
                parse_int(desc.get("t_second", 2), f"{where}.t_second", -bound, bound),
            )
        checks.append((kind, source, k_max, limits))
    return {}, functools.partial(run_counting, checks)


def run_counting(checks, ctx: RunContext) -> dict:
    rows = []
    summary = []
    for kind, source, k_max, limits in checks:
        if kind == "b":
            # Parse gives b checks a sequence source.
            m_grid = range(1, limits["m_max"] + 1)
            grids = sequences.sequence_gap_b(*source, m_grid, k_max)
            reports = sequences.check_b_either(grids, m_grid, limits["n_max"])
        else:
            values = source if isinstance(source, list) else sequences.sequence_gap_c(*source, k_max)
            reports = [
                sequences.check_c_condition(values, limits["n_max"])
                if kind == "c"
                else sequences.check_band_condition(values, limits["s_max"], limits["M_claim"])
            ]
        for report in filter(None, reports):
            rows.append(report.to_csv_row())
            summary.append(report.to_json_dict())
    ctx.csv("counting.csv", sequences.CountingReport.CSV_HEADER, rows)
    ctx.count("checks", len(checks))
    return {"reports": summary}


EXPERIMENTS = {
    "correlate": parse_correlate,
    "cumulants": parse_cumulants,
    "average": parse_averages,
    "ratecheck": parse_averages,
    "dyadic": parse_dyadic,
    "growth": parse_growth,
    "counting": parse_counting,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(config_path: Path, out_dir: Path | None, workers: int, emit_svg: bool) -> int:
    try:
        cfg = load_config(config_path)
        step, report = validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if step is None:
        for message in report["errors"]:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    out = out_dir or Path(f"{config_path.stem}_out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"argument --out: cannot make directory {out}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    ctx = RunContext(out, workers, emit_svg)
    started = time.monotonic()
    try:
        summary = step(ctx)
        status = {"ok": True, "error": None}
    except Exception as exc:  # noqa: BLE001 - surfaced in the summary artifact
        summary = {}
        if isinstance(exc, ErgolabError):
            error = {"code": exc.code, "message": str(exc)}
        else:
            error = {"code": "runtime", "message": repr(exc)}
        # pmap tags a failed task's error with its index: the query, orbit
        # or point batch that failed.
        if hasattr(exc, "task"):
            error["task"] = exc.task
        status = {"ok": False, "error": error}
    elapsed = time.monotonic() - started
    summary_payload = {
        "experiment": cfg["experiment"],
        "seed": cfg.get("seed", 0),
        "status": status,
        "result": summary,
        "artifacts": [p.name for p in ctx.artifacts],
        "csv_columns": ctx.csv_columns,
    }
    ctx.json("summary.json", summary_payload)
    manifest = {
        "config": cfg,
        "artifacts": [
            {"name": p.name, "sha256": sha256_file(p), "bytes": p.stat().st_size}
            for p in ctx.artifacts
        ],
        "wall_seconds": elapsed,
        "steps": ctx.steps,
        "resources": _resources(),
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


def _resources() -> dict:
    """Peak RSS in MB and minor page faults of this process ("self") and
    of its reaped children ("children": the ``pmap`` shares), from
    ``getrusage``; empty where the ``resource`` module is missing."""
    try:
        import resource
    except ImportError:
        return {}
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    scale = 1 << 20 if sys.platform == "darwin" else 1 << 10
    usage = {
        "self": resource.getrusage(resource.RUSAGE_SELF),
        "children": resource.getrusage(resource.RUSAGE_CHILDREN),
    }
    return {
        who: {"peak_rss_mb": u.ru_maxrss / scale, "minor_faults": u.ru_minflt}
        for who, u in usage.items()
    }


def validate_command(config_path: Path) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(json.dumps({"ok": False, "errors": [str(exc)], "derived": {}}, indent=2))
        return EXIT_CONFIG
    _step, report = validate_config(cfg)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["ok"] else EXIT_CONFIG


def decompose_command(n: int, s: int | None) -> int:
    s = s if s is not None else dyadic.s_of(n)
    blocks = dyadic.decompose(n, s)
    print(f"n={n} s={s} blocks={len(blocks)}")
    for block in blocks:
        print(f"  level {block.level:2d}  [{block.lo}..{block.hi}]  length {len(block)}")
    return EXIT_OK


def positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")


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
        type=positive_int,
        metavar="N",
        default=os.environ.get("ERGOLAB_WORKERS", "1"),
        help="processes that share the tasks: the run forks N - 1 children, serial "
        "without os.fork; artifacts do not depend on N (default: ERGOLAB_WORKERS or 1)",
    )
    p_run.add_argument("--no-svg", action="store_true", help="skip SVG charts")

    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config", type=Path)

    p_dec = sub.add_parser("decompose", help="inspect a dyadic decomposition")
    p_dec.add_argument("n", type=positive_int)
    p_dec.add_argument("--s", type=positive_int, default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, args.workers, not args.no_svg)
    if args.command == "validate":
        return validate_command(args.config)
    try:
        return decompose_command(args.n, args.s)
    except DomainError as exc:  # n >= 2^s
        p_dec.error(f"argument --s: {exc}")


if __name__ == "__main__":
    sys.exit(main())
