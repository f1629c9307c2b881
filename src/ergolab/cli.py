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


REQUIRED = object()  # the default of a key that its object must set


def read(obj, schema: dict, where: str) -> dict:
    """The values of the JSON object ``obj`` at the JSON path ``where`` ("" at
    the root). ``schema`` maps each key the object may set to ``(parse,
    default)``; ``parse(value, path)`` reads a value at its JSON path. An
    absent key takes its default, a JSON value parsed like a given one, but
    ``None`` marks an optional key, which an absent key or a JSON null leaves
    None, and ``REQUIRED`` a key that must be set. Unknown keys, missing keys
    and bad values raise ConfigError at their path."""
    if not isinstance(obj, dict):
        needs = " and ".join(repr(key) for key, (_, d) in schema.items() if d is REQUIRED)
        got = f" with {needs}" if needs else f", got {obj!r}"
        raise ConfigError(f"{where or 'config'} must be an object{got}")
    unknown = obj.keys() - schema.keys()
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where or 'config'}")
    values = {}
    for key, (parse, default) in schema.items():
        path = f"{where}.{key}" if where else key
        value = obj.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{path} is missing")
        values[key] = None if value is None and default is None else parse(value, path)
    return values


# Parsers that schemas combine. The underscores keep a tracer that wraps
# public functions at one span per object read, not one per value.

def _int(minimum: int | None = None, maximum: int | None = None):
    return functools.partial(parse_int, minimum=minimum, maximum=maximum)


def _one_of(*choices):
    def parse(value, where: str):
        if value not in choices:
            *rest, last = map(str, choices)
            names = f"{', '.join(rest)} or {last}" if rest else last
            raise ConfigError(f"{where} must be {names}, got {value!r}")
        return value
    return parse


def _int_where(test, rule: str):
    """An integer that passes ``test``; ``rule`` says what that means."""
    def parse(value, where: str) -> int:
        number = parse_int(value, where)
        if not test(number):
            raise ConfigError(f"{where} must be {rule}, got {number}")
        return number
    return parse


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _as_is(value, where: str):
    return value  # checked by its owner: a domain class, or a later read


def _list(item, minimum: int = 0, message: str | None = None):
    """A JSON list of at least ``minimum`` values, each read by ``item``, as a
    tuple; ``message``, needed for a minimum above 1, replaces other errors."""
    def parse(values, where: str) -> tuple:
        if not isinstance(values, list) or len(values) < minimum:
            kind = "non-empty list" if isinstance(values, list) else "list"
            raise ConfigError(message or f"{where} must be a {kind}, got {values!r}")
        return tuple(item(value, f"{where}[{j}]") for j, value in enumerate(values))
    parse.item = item
    return parse


def _obj(schema: dict, make=None):
    """An object read by ``schema``, or the domain object ``make`` builds
    from its values, its errors named at the object's path."""
    def parse(obj, where: str):
        values = read(obj, schema, where)
        return values if make is None else build_at(where, make, **values)
    parse.schema = schema
    return parse


def _variant(key: str, schemas: dict, make=None):
    """An object whose ``key`` names its schema in ``schemas``: (name,
    values), or ``make(name, **values)``."""
    choose = _one_of(*schemas)

    def parse(obj, where: str):
        if not isinstance(obj, dict) or key not in obj:
            raise ConfigError(f"{where or 'config'} must be an object with {key!r}")
        name = choose(obj[key], f"{where}.{key}" if where else key)
        values = read({k: v for k, v in obj.items() if k != key}, schemas[name], where)
        return (name, values) if make is None else build_at(where, make, name, **values)
    parse.key, parse.schemas = key, schemas
    return parse


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


INTS = _list(parse_int)
SHIFT = {
    "adjacency": (functools.partial(parse_matrix, entry=_int(0, 1)), REQUIRED),
    "transition": (parse_matrix, REQUIRED),
}
TORUS = {
    "matrix": (functools.partial(parse_matrix, entry=parse_int), REQUIRED),
    "precision_bits": (parse_int, systems.DEFAULT_PRECISION_BITS),
}
SYSTEM = _variant(  # systems.build_shift or build_torus
    "kind", {"shift": SHIFT, "torus": TORUS}, lambda k, **f: getattr(systems, "build_" + k)(**f)
)
WORD_VALUE = {"word": (INTS, REQUIRED), "value": (parse_exact, REQUIRED)}
CYLINDER = {
    "radius": (_int(0), 0),
    "table": (_list(_obj(WORD_VALUE)), []),
    "default": (parse_exact, 0.0),
    "centered": (_flag, False),
}
TERM = {"freq": (INTS, REQUIRED), "cos": (parse_exact, 0.0), "sin": (parse_exact, 0.0)}
OBSERVABLE = _variant(
    "variant", {systems.CYLINDER: CYLINDER, systems.TRIG: {"terms": (_list(_obj(TERM)), [])}}
)
# SequenceSpec checks the kind. The lambda runs ``sequences`` only when a
# config reads a sequence.
SEQUENCE = _obj(
    {
        "kind": (_as_is, REQUIRED),
        "coefficients": (INTS, []),
        "values": (INTS, []),
        "multiplicity_bound": (parse_int, 1),
    },
    lambda **fields: sequences.SequenceSpec(**fields),
)
# The top level without and with a sampled system; EXPERIMENTS holds each
# experiment's params table.
TOP = {
    "schema_version": (_one_of(SCHEMA_VERSION), REQUIRED),
    "seed": (_int(0), 0),
    "params": (_as_is, {}),
}
SAMPLED = {**TOP, "system": (SYSTEM, REQUIRED), "observables": (_list(OBSERVABLE, 1), REQUIRED)}


def _observable(variant: str, fields: dict, system, where: str) -> systems.Observable:
    """A read observable built for ``system``: its variant must fit the
    system (cylinder on a shift, trig on a torus) whatever the experiment
    evaluates, and so must its words or frequencies."""
    need = systems.required_variant(system)
    if variant != need:
        raise ConfigError(
            f"observable variants do not match the system: {where} is {variant!r}, a "
            f"{'shift' if need == systems.CYLINDER else 'torus'} system needs {need!r} observables"
        )
    if variant == systems.TRIG:
        for j, term in enumerate(fields["terms"]):
            if len(term["freq"]) != system.dimension:
                raise ConfigError(
                    f"{where}.terms[{j}].freq has {len(term['freq'])} entries, "
                    f"the torus dimension is {system.dimension}"
                )
        terms = [tuple(term.values()) for term in fields["terms"]]
        return build_at(f"{where}.terms", systems.trig_observable, terms)
    radius, letters = fields["radius"], system.alphabet_size
    try:
        systems.cylinder_table_size(letters, radius)
    except DomainError as exc:
        raise ConfigError(f"{where}.radius is too large: {exc}") from exc
    for j, entry in enumerate(fields["table"]):
        for s in entry["word"]:
            if not 0 <= s < letters:
                raise ConfigError(
                    f"{where}.table[{j}].word: symbol {s} is outside the alphabet 0..{letters - 1}"
                )
    table = {entry["word"]: entry["value"] for entry in fields["table"]}
    obs = build_at(f"{where}.table", systems.cylinder_observable, radius, table, fields["default"])
    if fields["centered"]:
        mean = systems.exact_mean(obs, system)
        table = {w: v - mean for w, v in obs.table.items()}
        obs = build_at(where, systems.cylinder_observable, radius, table, obs.default - mean)
    return obs


def parse_config(cfg) -> tuple:
    """The derived planning quantities that ``validate`` reports and the
    run step, bound to every domain object it needs."""
    experiment, values = CONFIG(cfg, "")
    _, params, parse = EXPERIMENTS[experiment]
    values["params"] = read(values["params"], params, "params")
    if "system" in values:
        observables = enumerate(values["observables"])
        values["observables"] = tuple(
            _observable(*obs, values["system"], f"observables[{i}]") for i, obs in observables
        )
    return parse(values)


def validate_config(cfg) -> tuple:
    """Full validation without execution: (run step or None, report)."""
    try:
        derived, step = parse_config(cfg)
    except ErgolabError as exc:
        return None, {"ok": False, "errors": [str(exc)], "derived": {}}
    return step, {"ok": True, "errors": [], "derived": derived}


def load_config(path: Path) -> tuple:
    """(config, run step or None, report): the file at ``path`` validated;
    one that is not readable JSON is reported like an invalid config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        error = f"cannot load config {path}: {exc}"
        return None, None, {"ok": False, "errors": [error], "derived": {}}
    return (cfg, *validate_config(cfg))


# ---------------------------------------------------------------------------
# Experiments: a params table and parse_<name>(cfg) each. A parse takes the
# read config and returns the derived quantities and the run step, run_<name>
# bound to its domain objects. Run steps take a RunContext and raise no
# ConfigError. Worker task results are pickled.
# ---------------------------------------------------------------------------

QUERY = {"times": (INTS, REQUIRED)}
CORRELATE = {
    "queries": (
        _list(_obj(QUERY), 1, "correlate needs params.queries, a non-empty list of objects"),
        REQUIRED,
    ),
    "method": (_one_of("exact", "mc", "both"), "exact"),
    "samples": (_int(2), None),
}


def parse_correlate(cfg: dict):
    params, system = cfg["params"], cfg["system"]
    method, samples = params["method"], params["samples"]
    if method != "exact" and samples is None:
        raise ConfigError(f"params.samples is missing: method {method} draws samples")
    queries = [
        build_at(
            f"params.queries[{q}]",
            correlations.CorrelationQuery,
            system=system,
            observables=cfg["observables"],
            times=query["times"],
        )
        for q, query in enumerate(params["queries"])
    ]
    derived = {}
    if isinstance(system, systems.TorusAutomorphism):
        derived["torus_precision_bits"] = system.precision_bits
    else:
        # Each sample draws, and the oracle walks, exactly the read positions.
        derived["symbols_per_sample"] = max(q.read_positions.size for q in queries)
    return derived, functools.partial(run_correlate, queries, method, samples, cfg["seed"])


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


CUMULANTS = {"time_tuples": (_list(INTS, 1), REQUIRED)}


def parse_cumulants(cfg: dict):
    params, system, observables = cfg["params"], cfg["system"], cfg["observables"]
    if len(observables) > correlations.MAX_CUMULANT_ORDER + 1:
        raise ConfigError(
            f"observables: the cumulant guard allows at most "
            f"{correlations.MAX_CUMULANT_ORDER + 1}, got {len(observables)}"
        )
    time_tuples = params["time_tuples"]
    # Each query checks its times and their count.
    for r, times in enumerate(time_tuples):
        build_at(
            f"params.time_tuples[{r}]",
            correlations.CorrelationQuery,
            system=system,
            observables=observables,
            times=times,
        )
    return {}, functools.partial(run_cumulants, system, observables, time_tuples)


def run_cumulants(system, observables, time_tuples, ctx: RunContext) -> dict:
    fit, rows = correlations.cumulant_decay_scan(system, observables, time_tuples)
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


# The keys of an average along a sequence that dyadic shares.
SPEC = {"multipliers": (INTS, REQUIRED), "sequence": (SEQUENCE, {"kind": "linear"})}
AVERAGE = {
    **SPEC,
    "n_max": (_int(maximum=MAX_TERMS), 1024),
    "checkpoints": (INTS, None),
    "point_count": (_int(1), 1),
    "epsilon": (parse_positive, 1.0),
    "delta": (parse_positive, 2.0),
}
# The summary keeps the checkpoints from min_checkpoint on.
RATECHECK = {**AVERAGE, "point_count": (_int(10), 10), "min_checkpoint": (parse_int, None)}


def parse_average_spec(cfg: dict, n_max: int) -> averages.AverageSpec:
    params = cfg["params"]
    fields = (cfg["system"], cfg["observables"], params["multipliers"], params["sequence"], n_max)
    return build_at("params", averages.AverageSpec, *fields)


def parse_averages(cfg: dict):
    """average, or ratecheck: the same table with min_checkpoint."""
    params, system = cfg["params"], cfg["system"]
    n_max, points = params["n_max"], params["point_count"]
    # AverageSpec checks the multiplier count and distinctness, and then
    # the checkpoints, so that their errors name params.checkpoints.
    spec = parse_average_spec(cfg, n_max)
    if params["checkpoints"]:
        spec = build_at(
            "params.checkpoints", dataclasses.replace, spec, checkpoints=params["checkpoints"]
        )
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
    stats = (spec, params["epsilon"], params["delta"], points, cfg["seed"])
    if "min_checkpoint" not in params:
        return derived, functools.partial(run_average, *stats)
    min_checkpoint = params["min_checkpoint"]
    if min_checkpoint is not None:
        parse_int(min_checkpoint, "params.min_checkpoint", maximum=spec.checkpoint_schedule()[-1])
    return derived, functools.partial(run_ratecheck, *stats, min_checkpoint)


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


EXCEPTIONAL = {
    # Term indices are int64, so 2^s columns need s <= 62.
    "s_values": (_list(_int_where(lambda s: 1 <= s <= 62, "in 1..62"), 1), REQUIRED),
    "epsilon": (parse_positive, 1.0),
    "sigma": (parse_positive, 1.0),
}
DYADIC = {
    **SPEC,
    "point_count": (_int(2), 1000),
    "n_grid": (
        _list(
            _int_where(lambda n: n >= 2 and not n & (n - 1), "a power of two >= 2"),
            4,
            "dyadic needs a params.n_grid list with at least 4 entries",
        ),
        REQUIRED,
    ),
    "exceptional": (_obj(EXCEPTIONAL), None),
}


def parse_dyadic(cfg: dict):
    params, system = cfg["params"], cfg["system"]
    if not isinstance(system, systems.ShiftSystem):
        raise ConfigError("dyadic needs a shift system: its terms are sampled on shift paths")
    n_grid, points = params["n_grid"], params["point_count"]
    spec = parse_average_spec(cfg, max(n_grid))
    s_values, thresholds = (), None
    if params["exceptional"] is not None:
        s_values, *thresholds = params["exceptional"].values()  # epsilon, sigma
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
        run_dyadic, spec, points, n_grid, s_values, thresholds, cfg["seed"], row_bytes
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


BALANCE = {"m": (_int(0, MAX_TERMS), 10), "n_max": (_int(0, MAX_TERMS), 40)}
PAIR = {
    "g": (parse_matrix, REQUIRED),
    "h": (parse_matrix, REQUIRED),
    "m_grid": (_int(1), 32),
    "k_max": (_int(2, MAX_TERMS), 512),
    "n_max": (_int(1, MAX_TERMS), 512),
    "balance": (_obj(BALANCE), None),
}
GROWTH = {
    "matrices": (_list(parse_matrix), []),
    "n_max": (_int(16, MAX_TERMS), 64),
    "pair": (_obj(PAIR), None),
}


def parse_growth(cfg: dict):
    params = cfg["params"]
    matrices = [np.array(m) for m in params["matrices"]]
    for k, matrix in enumerate(matrices):
        build_at(f"params.matrices[{k}]", matrix_growth.growth_radius, matrix)
    pair, pair_check, balance = params["pair"], None, None
    if pair is not None:
        where = "params.pair"
        commuting = build_at(
            where, matrix_growth.CommutingPair, g=np.array(pair["g"]), h=np.array(pair["h"])
        )
        rows, k_max = pair["m_grid"], pair["k_max"]
        check_cells(where, "m_grid x k_max", rows, k_max)  # pair_norm_grid's array
        pair_check = (commuting, range(1, rows + 1), k_max, pair["n_max"])
        if pair["balance"] is not None:
            balance = tuple(pair["balance"].values())  # m, n_max
            build_at(f"{where}.balance", matrix_growth.balance_spectrum, commuting, balance[0])
    if not matrices and pair is None:
        raise ConfigError("growth needs params.matrices or params.pair")
    return {}, functools.partial(run_growth, matrices, params["n_max"], pair_check, balance)


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


def _gap_value(value, where: str) -> float:
    # The checkers take +inf for a k the sequence never reaches, and no
    # value below 1.
    x = value if value == math.inf else parse_exact(value, where)
    if x < 1.0:
        raise ConfigError(f"{where} must be >= 1 or infinite, got {x}")
    return x


# A check's least K depends on its type; M_claim bounds a count.
CHECK = {
    "type": (_one_of("c", "b", "band"), REQUIRED),
    "K": (_int(maximum=MAX_TERMS), 1000),
    "n_max": (_int(1, MAX_TERMS), 1000),
    "s_max": (_int(1, MAX_TERMS), 1000),
    "M_claim": (_int(0), 1),
    "m_max": (_int(1, MAX_TERMS), 100),
    "values": (_list(_gap_value), None),
    "sequence": (SEQUENCE, {"kind": "linear"}),
    "t_first": (parse_int, 1),
    "t_second": (parse_int, 2),
}
COUNTING = {"checks": (_list(_obj(CHECK), 1), REQUIRED)}


def parse_counting(cfg: dict):
    checks = []
    for c, check in enumerate(cfg["params"]["checks"]):
        where = f"params.checks[{c}]"
        kind, k_max, values = check["type"], check["K"], check["values"]
        parse_int(k_max, f"{where}.K", 1 if kind == "band" else 2)
        if values is not None:
            if kind == "b":
                raise ConfigError(f"{where}: b checks need a sequence source, not values")
            if len(values) < k_max:
                raise ConfigError(f"{where}.values must supply at least K entries")
            source = list(values[:k_max])
        else:
            if kind == "b":  # one (m_max, K) grid of gaps per orientation
                check_cells(where, "m_max x K", check["m_max"], k_max)
            count = max(k_max, check["m_max"]) if kind == "b" else k_max
            # The gaps are exact in int64 while |t| max r_n < 2^62.
            bound = sequences.gap_time_bound(
                build_at(f"{where}.sequence", sequences.generate, check["sequence"], count)
            )
            for key in ("t_first", "t_second"):
                parse_int(check[key], f"{where}.{key}", -bound, bound)
            source = (check["sequence"], check["t_first"], check["t_second"])
        checks.append((kind, source, k_max, check))
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


# Each experiment's top-level table, params table and parse.
EXPERIMENTS = {
    "correlate": (SAMPLED, CORRELATE, parse_correlate),
    "cumulants": (SAMPLED, CUMULANTS, parse_cumulants),
    "average": (SAMPLED, AVERAGE, parse_averages),
    "ratecheck": (SAMPLED, RATECHECK, parse_averages),
    "dyadic": (SAMPLED, DYADIC, parse_dyadic),
    "growth": (TOP, GROWTH, parse_growth),
    "counting": (TOP, COUNTING, parse_counting),
}
CONFIG = _variant("experiment", {name: top for name, (top, _, _) in EXPERIMENTS.items()})


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(config_path: Path, out_dir: Path | None, workers: int, emit_svg: bool) -> int:
    cfg, step, report = load_config(config_path)
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
    _cfg, _step, report = load_config(config_path)
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
