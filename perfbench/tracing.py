"""Traced ``ergolab`` invocation and the per-layer metrics read from its spans.

Run as a script, this file imports ``ergolab``, wraps every public function
of the lab's modules, runs ``ergolab.cli.main`` with the remaining arguments
in this process and writes the spans to a JSON file at exit::

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json run CONFIG --workers 1

A span is ``[name, start, end, parent]``; its self time is its duration
minus the durations of its child spans.  Work counts marked *computed* are
derived from the arguments a wrapper sees, never read from the program.
Imported as a module, it turns span files into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYER_MODULES = (
    "systems",
    "sequences",
    "correlations",
    "averages",
    "dyadic",
    "matrix_growth",
    "cli",
    "intmat",
    "seeding",
)

CHECKERS = (
    "sequences.check_c_condition",
    "sequences.check_b_condition",
    "sequences.check_b_either",
    "sequences.check_band_condition",
)
CUMULANT_SPANS = (
    "correlations.cumulant_decay_scan",
    "correlations.joint_cumulants",
    "correlations.joint_moment_table",
    "correlations.moments_to_cumulants",
    "correlations.cumulants_to_moments",
)
WRITE_SPANS = ("cli.write_csv", "cli.write_json", "cli.sha256_file", "svg.line_chart")
# Inner steps of ``intmat.mat_pow``: a span each would cost more than the
# work it times, so these calls are only counted.
COUNT_ONLY = ("intmat.mat_mul", "intmat.mat_identity")
# Metrics derived from call arguments and configs rather than timed.
COMPUTED = (
    "systems.shift_symbols",
    "systems.read_symbol_frac",
    "correlations.transfer_steps",
    "dyadic.useful_term_frac",
)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span store; wrappers push and pop a parent stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.counts: dict[str, int] = {}
        self.stack = [-1]

    def wrap(self, name: str, fn, counter=None, result_hook=None):
        spans, attrs, stack, clock = self.spans, self.attrs, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                attrs[sid] = counter(*args, **kwargs)
            if result_hook is not None:
                result = result_hook(result, *args, **kwargs)
            return result

        return wrapper

    def count_only(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))


class WorkCounters:
    """Computed work counts, from call arguments and the original functions."""

    def __init__(self, generate):
        self.generate = generate  # unwrapped, so counting records no spans
        self.union_cache: dict[int, int] = {}

    @staticmethod
    def sample_windows(system, radius, count, rng):
        return {"symbols": int(count) * (2 * int(radius) + 1)}

    @staticmethod
    def mc_correlation(query, samples, seed):
        from ergolab.systems import ShiftSystem

        if not isinstance(query.system, ShiftSystem):
            return {"kind": "torus", "samples": int(samples)}
        touched = set()
        for t, obs in zip(query.effective_times(), query.observables):
            touched.update(range(t - obs.radius, t + obs.radius + 1))
        return {"kind": "shift", "samples": int(samples), "touched": len(touched) * int(samples)}

    @staticmethod
    def exact_correlation_shift(query, span_limit=None):
        eff = query.effective_times()
        lo = min(t - obs.radius for t, obs in zip(eff, query.observables))
        hi = max(t + obs.radius for t, obs in zip(eff, query.observables))
        context = max(2 * obs.radius + 1 for obs in query.observables)
        return {"steps": (hi - lo + 1) * query.system.alphabet_size ** context}

    def ergodic_average_stream(self, spec, point, *args, **kwargs):
        from ergolab.systems import ShiftSystem

        if not isinstance(spec.system, ShiftSystem):
            return {"kind": "torus", "terms": spec.n_max}
        key = id(spec)
        if key not in self.union_cache:
            terms = self.generate(spec.sequence, spec.n_max)
            touched = [
                (m * terms)[:, None] + np.arange(-obs.radius, obs.radius + 1)[None, :]
                for m, obs in zip(spec.multipliers, spec.observables)
            ]
            self.union_cache[key] = int(np.unique(np.concatenate([t.ravel() for t in touched])).size)
        return {"kind": "shift", "terms": spec.n_max, "touched": self.union_cache[key]}


def install(tracer: Tracer) -> None:
    """Wrap public functions of the lab modules and rebind every copy.

    Modules bind functions of other modules by name (``from .systems
    import sample_windows``) and ``cli.RUNNERS`` holds runner objects, so
    each module namespace and each module-level dict is rewritten, not
    only the defining module.
    """
    import ergolab.cli  # noqa: F401 - imports every lab module
    from ergolab import sequences, svg

    counters = WorkCounters(sequences.generate)
    special = {
        "systems.sample_windows": counters.sample_windows,
        "correlations.mc_correlation": counters.mc_correlation,
        "correlations.exact_correlation_shift": counters.exact_correlation_shift,
        "averages.ergodic_average_stream": counters.ergodic_average_stream,
    }
    hooks = {
        "averages.product_term_generator": lambda gen, spec, seed: traced_generator(
            tracer, gen, spec, seed
        ),
    }
    replaced: dict[int, object] = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"ergolab.{short}"]
        for attr, value in list(vars(module).items()):
            if (
                isinstance(value, types.FunctionType)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
            ):
                name = f"{short}.{attr}"
                if name == "cli.pmap":
                    wrapper = tracer.wrap(name, traced_pmap(tracer, value))
                elif name in COUNT_ONLY:
                    wrapper = tracer.count_only(name, value)
                else:
                    wrapper = tracer.wrap(name, value, special.get(name), hooks.get(name))
                replaced[id(value)] = wrapper
    replaced[id(svg.line_chart)] = tracer.wrap("svg.line_chart", svg.line_chart)

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "ergolab" and not mod_name.startswith("ergolab."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, attr, replaced[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replaced:
                        value[key] = replaced[id(item)]


def traced_pmap(tracer: Tracer, pmap):
    """pmap whose tasks each run inside a ``cli.task`` span."""

    def run(fn, tasks, workers):
        return pmap(tracer.wrap("cli.task", fn), tasks, workers)

    return run


def traced_generator(tracer: Tracer, generator, spec, seed):
    """Term-matrix callback recording points x terms per call (computed)."""
    key = f"{id(spec)}:{seed}"

    def count(point_indices, ks):
        points = np.asarray(point_indices)
        ks = np.asarray(ks)
        return {
            "entries": int(points.size * ks.size),
            "points": int(points.max()) + 1,
            "kmax": int(ks.max()),
            "key": key,
        }

    return tracer.wrap("averages.term_matrix", generator, count)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from ergolab import cli

    try:
        code = cli.main(cli_args)
    finally:
        tracer.dump(spans_path)
    return code


# ---------------------------------------------------------------------------
# Per-layer metrics from span files
# ---------------------------------------------------------------------------

class SpanSet:
    """Spans of one traced invocation with parent/child structure."""

    def __init__(self, payload: dict):
        self.spans = payload["spans"]
        self.attrs = {int(k): v for k, v in payload["attrs"].items()}
        self.counts = payload["counts"]
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for sid, (name, _, _, parent) in enumerate(self.spans):
            self.children[parent].append(sid)
            self.by_name[name].append(sid)

    def duration(self, sid: int) -> float:
        return self.spans[sid][2] - self.spans[sid][1]

    def ids(self, names) -> list[int]:
        names = (names,) if isinstance(names, str) else names
        return [sid for name in names for sid in self.by_name.get(name, ())]

    def count(self, names) -> int:
        names = (names,) if isinstance(names, str) else names
        return len(self.ids(names)) + sum(self.counts.get(n, 0) for n in names)

    def total(self, names) -> float:
        """Time inside any of the named spans, nested ones counted once."""
        names = {names} if isinstance(names, str) else set(names)
        out = 0.0
        for sid in self.ids(names):
            parent = self.spans[sid][3]
            while parent != -1 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent == -1:
                out += self.duration(sid)
        return out

    def self_time(self, prefix: str) -> float:
        """Summed self time of spans whose name starts with ``prefix``."""
        out = 0.0
        for sid, span in enumerate(self.spans):
            if span[0].startswith(prefix):
                out += self.duration(sid) - sum(self.duration(c) for c in self.children[sid])
        return out

    def attr_sum(self, name: str, key: str, **match) -> float:
        out = 0
        for sid in self.ids(name):
            attrs = self.attrs.get(sid, {})
            if all(attrs.get(k) == v for k, v in match.items()):
                out += attrs.get(key, 0)
        return out

    def duration_where(self, name: str, **match) -> float:
        return sum(
            self.duration(sid)
            for sid in self.ids(name)
            if all(self.attrs.get(sid, {}).get(k) == v for k, v in match.items())
        )

    def roots_time(self) -> float:
        return sum(self.duration(sid) for sid in self.children[-1])

    def task_times(self) -> list[list[float]]:
        """Durations of the tasks of each pmap call."""
        return [
            [self.duration(c) for c in self.children[sid] if self.spans[c][0] == "cli.task"]
            for sid in self.ids("cli.pmap")
        ]

    def useful_terms(self) -> tuple[int, int]:
        """(terms needed, terms generated): points x max N per generator."""
        needed: dict[str, int] = {}
        generated = 0
        for sid in self.ids("averages.term_matrix"):
            a = self.attrs[sid]
            generated += a["entries"]
            needed[a["key"]] = max(needed.get(a["key"], 0), a["points"] * a["kmax"])
        return sum(needed.values()), generated


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(span_sets: list[SpanSet], sets: int) -> dict[str, float]:
    """Per-layer metrics over all traced invocations.

    Times and counts are per pass over the workload's configs (summed over
    all invocations, divided by ``sets``); rates and fractions are ratios
    of sums.
    """

    def total(names):
        return sum(s.total(names) for s in span_sets)

    def count(names):
        return sum(s.count(names) for s in span_sets)

    def attr(name, key, **match):
        return sum(s.attr_sum(name, key, **match) for s in span_sets)

    def where(name, **match):
        return sum(s.duration_where(name, **match) for s in span_sets)

    sample_s = total("systems.sample_windows")
    symbols = attr("systems.sample_windows", "symbols")
    touched = attr("correlations.mc_correlation", "touched", kind="shift") + attr(
        "averages.ergodic_average_stream", "touched", kind="shift"
    )
    shift_mc_s = where("correlations.mc_correlation", kind="shift")
    torus_mc_s = where("correlations.mc_correlation", kind="torus")
    shift_stream_s = where("averages.ergodic_average_stream", kind="shift")
    torus_stream_s = where("averages.ergodic_average_stream", kind="torus")
    members = [
        1e3 * s.duration(sid) for s in span_sets for sid in s.ids("averages.ensemble_member_statistics")
    ]
    term_s = total("averages.term_matrix")
    useful = [s.useful_terms() for s in span_sets]
    needed = sum(n for n, _ in useful)
    generated = sum(g for _, g in useful)
    tasks = [t for s in span_sets for t in s.task_times() if t]
    norm_calls = count("matrix_growth.norm_power")
    intmat_names = {n for s in span_sets for n, *_ in s.spans if n.startswith("intmat.")}

    per_set = {
        "systems.shift_sample_s": sample_s,
        "systems.shift_symbols": symbols,
        "systems.torus_power_calls": count("systems.torus_matrix_power"),
        "sequences.generate_calls": count("sequences.generate"),
        "sequences.generate_s": total("sequences.generate"),
        "sequences.check_s": total(CHECKERS),
        "correlations.shift_mc_s": shift_mc_s,
        "correlations.transfer_s": total("correlations.exact_correlation_shift"),
        "correlations.transfer_steps": attr("correlations.exact_correlation_shift", "steps"),
        "correlations.cumulant_s": total(CUMULANT_SPANS),
        "correlations.char_oracle_s": total("correlations.exact_correlation_torus"),
        "averages.stream_s": total("averages.ergodic_average_stream"),
        "averages.term_matrix_s": term_s,
        "dyadic.reduce_s": sum(s.self_time("dyadic.") for s in span_sets),
        "matrix_growth.norm_power_calls": norm_calls,
        "matrix_growth.growth_profile_s": total("matrix_growth.growth_profile"),
        "matrix_growth.pair_counting_s": total("matrix_growth.pair_counting_check"),
        "intmat.mat_vec_calls": count("intmat.mat_vec"),
        "intmat.mat_pow_calls": count("intmat.mat_pow"),
        "intmat.s": total(intmat_names),
        "seeding.rng_for_calls": count("seeding.rng_for"),
        "seeding.rng_for_s": total("seeding.rng_for"),
        "cli.validate_s": total("cli.validate_config"),
        "cli.write_s": total(WRITE_SPANS),
        "cli.self_s": sum(s.self_time("cli.") for s in span_sets),
    }
    out = {k: v / sets for k, v in per_set.items()}
    out.update(
        {
            "systems.shift_symbols_per_s": ratio(symbols, sample_s),
            "systems.read_symbol_frac": ratio(touched, symbols),
            "correlations.shift_mc_samples_per_s": ratio(
                attr("correlations.mc_correlation", "samples", kind="shift"), shift_mc_s
            ),
            "correlations.torus_mc_samples_per_s": ratio(
                attr("correlations.mc_correlation", "samples", kind="torus"), torus_mc_s
            ),
            "averages.member_ms_p50": float(np.percentile(members, 50)) if members else 0.0,
            "averages.member_ms_p90": float(np.percentile(members, 90)) if members else 0.0,
            "averages.shift_stream_terms_per_s": ratio(
                attr("averages.ergodic_average_stream", "terms", kind="shift"), shift_stream_s
            ),
            "averages.torus_stream_terms_per_s": ratio(
                attr("averages.ergodic_average_stream", "terms", kind="torus"), torus_stream_s
            ),
            "averages.term_entries_per_s": ratio(generated, term_s),
            "dyadic.useful_term_frac": ratio(needed, generated),
            "matrix_growth.norm_power_calls_per_s": ratio(
                norm_calls, total("matrix_growth.norm_power")
            ),
            "cli.max_task_frac": ratio(sum(max(t) for t in tasks), sum(sum(t) for t in tasks)),
        }
    )
    return out


def member_count(span_sets: list[SpanSet]) -> int:
    return sum(s.count("averages.ensemble_member_statistics") for s in span_sets)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
