"""ergolab benchmark: time ``ergolab run`` and ``ergolab validate`` end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed generates the workload's configs
(see ``workloads.py``); every ``ergolab`` invocation is a fresh
``python3 -m ergolab.cli`` process on the checkout's ``src/``.

``--trace 0`` repeats, until ``--seconds`` have passed, one pass of:
``validate`` on each config (``setup_s``), ``run --workers 1`` on each
config (``wall_s``, ``peak_rss_mb``) and ``run --workers $(nproc)``
(``wall_par_s``), and reports the median pass.  ``--trace 1`` alternates
untraced ``--workers 1`` passes with traced ones (``tracing.py``) and reports
the per-layer metrics.  Both check the workload's correctness gates and
that artifacts are byte-identical across reruns, worker counts and tracing.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing as layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A child still running this long after the run started is killed and no
# further child starts, so a hung program still ends the run within 180 s.
RUN_LIMIT_S = 120.0
MIN_PASSES = 3
MIN_MEMBER_SAMPLES = 100


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("ERGOLAB_WORKERS", None)
    # The warm-up writes the .pyc files, so no timed child compiles sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


class Ledger:
    """Operations attempted and failed; a failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAIL {what}", file=sys.stderr)
        return ok


def spawn(args: list[str], env: dict, log: Path, timeout: float) -> tuple[int, float, float]:
    """Run one child; return (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(args, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def artifacts(out: Path) -> list[Path]:
    """Every artifact except the manifest, whose timings differ per run."""
    return [p for p in sorted(out.iterdir()) if p.name != "manifest.json"]


def artifact_hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in artifacts(out)}


class Bench:
    """One workload's configs, child processes, outputs and ledger."""

    def __init__(self, root: Path, workload, why: str, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.work = work
        self.env = child_env(root)
        self.ledger = Ledger()
        self.configs: dict[str, Path] = {}
        self.reference: dict[str, dict[str, str]] = {}
        self.deadline = time.monotonic() + RUN_LIMIT_S
        configs = workload.make_configs(seed)
        cfg_dir = work / "configs"
        cfg_dir.mkdir(parents=True)
        for name, cfg in configs.items():
            path = cfg_dir / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
            self.configs[name] = path
        self.record_inputs(configs, why, seed)

    def record_inputs(self, configs: dict, why: str, seed: int) -> None:
        import numpy

        src = self.root / "src" / "ergolab"
        inputs = {
            "workload": self.workload.name,
            "why": why,
            "seed": seed,
            "configs": configs,
            "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "src_lines": {
                p.stem: sum(1 for _ in p.open(encoding="utf-8")) for p in sorted(src.glob("*.py"))
            },
        }
        (self.work / "inputs.json").write_text(json.dumps(inputs, indent=2) + "\n", encoding="utf-8")

    def cli(self, args: list[str], tag: str, traced_spans: Path | None = None):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return self.ledger.record(False, f"{tag}: not started, run time limit reached"), 0.0, 0.0
        log = self.work / f"{tag}.log"
        if traced_spans is None:
            argv = [sys.executable, "-m", "ergolab.cli"] + args
        else:
            argv = [sys.executable, str(HERE / "tracing.py"), str(traced_spans)] + args
        code, wall, rss = spawn(argv, self.env, log, remaining)
        ok = self.ledger.record(code == 0, f"{tag}: exit {code} (see {log})")
        if ok:
            log.unlink()
        return ok, wall, rss

    def validate(self, name: str) -> float:
        _, wall, _ = self.cli(["validate", str(self.configs[name])], f"validate-{name}")
        return wall

    def run(self, name: str, workers: int, spans: Path | None = None) -> tuple[float, float, int]:
        """One ``ergolab run``; checks gates on the first output of each
        config and byte-identity against it on every later one."""
        out = self.work / f"out-{name}"
        if out.exists():
            shutil.rmtree(out)
        tag = f"run-{name}-w{workers}{'-traced' if spans else ''}"
        args = ["run", str(self.configs[name]), "--out", str(out), "--workers", str(workers)]
        ok, wall, rss = self.cli(args, tag, spans)
        size = 0
        if ok:
            hashes = artifact_hashes(out)
            size = sum(p.stat().st_size for p in artifacts(out))
            if name not in self.reference:
                self.reference[name] = hashes
                self.check_gates(name, out)
            else:
                self.ledger.record(hashes == self.reference[name], f"{tag}: artifacts differ")
        shutil.rmtree(out, ignore_errors=True)
        return wall, rss, size

    def check_gates(self, name: str, out: Path) -> None:
        try:
            gates = self.workload.gates(name, out)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            self.ledger.record(False, f"gate {name}: unreadable output ({exc!r})")
            return
        for gate, ok, detail in gates:
            self.ledger.record(ok, f"gate {name}.{gate}: {detail}")

    def warm_up(self) -> None:
        """Untimed: compiles the ``.pyc`` files so no timed pass pays it."""
        self.validate(next(iter(self.configs)))


def more_passes(bench: Bench, started: float, durations: list[float], seconds: float, short=False) -> bool:
    """At least one pass; then stop at the run limit, else go on while
    passes are fewer than ``MIN_PASSES``, samples are ``short`` or the
    next pass is expected to end within ``seconds``."""
    if not durations:
        return True
    if time.monotonic() >= bench.deadline:
        return False
    if len(durations) < MIN_PASSES or short:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def measure(bench: Bench, seconds: float) -> dict[str, list[float]]:
    """Per-pass end-to-end values; passes stop once ``seconds`` would be exceeded."""
    workers = nproc()
    passes: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "wall_par_s": [], "peak_rss_mb": []}
    started = time.perf_counter()
    durations: list[float] = []
    while more_passes(bench, started, durations, seconds):
        t0 = time.perf_counter()
        passes["setup_s"].append(sum(bench.validate(n) for n in bench.configs))
        serial = [bench.run(n, 1) for n in bench.configs]
        passes["wall_s"].append(sum(w for w, _, _ in serial))
        passes["peak_rss_mb"].append(max(r for _, r, _ in serial))
        passes["wall_par_s"].append(sum(bench.run(n, workers)[0] for n in bench.configs))
        durations.append(time.perf_counter() - t0)
    return passes


def measure_traced(bench: Bench, seconds: float) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-layer metrics from traced passes, each preceded by an untraced
    one; ensemble workloads run until ``MIN_MEMBER_SAMPLES`` members are timed."""
    passes: dict[str, list[float]] = {"untraced_s": [], "traced_s": [], "artifact_bytes": []}
    unattributed: list[float] = []
    span_sets: list[layers.SpanSet] = []
    started = time.perf_counter()
    durations: list[float] = []
    while more_passes(
        bench, started, durations, seconds, 0 < layers.member_count(span_sets) < MIN_MEMBER_SAMPLES
    ):
        t0 = time.perf_counter()
        passes["untraced_s"].append(sum(bench.run(n, 1)[0] for n in bench.configs))
        traced = size = 0.0
        for name in bench.configs:
            spans_path = bench.work / f"spans-{name}.json"
            wall, _, written = bench.run(name, 1, spans_path)
            traced += wall
            size += written
            if spans_path.exists():
                with open(spans_path, encoding="utf-8") as fh:
                    span_set = layers.SpanSet(json.load(fh))
                spans_path.unlink()
                span_sets.append(span_set)
                unattributed.append((wall - span_set.roots_time()) / wall)
        passes["traced_s"].append(traced)
        passes["artifact_bytes"].append(size)
        durations.append(time.perf_counter() - t0)
    metrics = layers.layer_metrics(span_sets, len(durations))
    metrics["cli.artifact_bytes"] = statistics.median(passes["artifact_bytes"])
    ratios = [t / u - 1.0 for t, u in zip(passes["traced_s"], passes["untraced_s"]) if t and u]
    metrics["trace.overhead_frac"] = statistics.median(ratios) if ratios else 0.0
    metrics["trace.unattributed_frac"] = statistics.median(unattributed) if unattributed else 0.0
    return metrics, passes


def bench_workload(root: Path, spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print its metrics by name and return the result."""
    workload = WORKLOADS[name]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    work = HERE / "_work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(root, workload, why, seed, work)
    bench.warm_up()
    if trace:
        values, passes = measure_traced(bench, seconds)
        declared = spec["per_layer"]
        if set(values) != {m["name"] for m in declared}:
            raise RuntimeError(f"traced metrics differ from BENCHMARK.json: {sorted(values)}")
        samples = f"traced passes={len(passes['traced_s'])}"
    else:
        passes = measure(bench, seconds)
        values = {k: statistics.median(v) for k, v in passes.items()}
        declared = spec["end_to_end"]
        samples = f"median of n={len(passes['wall_s'])} passes"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for key, metric in metrics.items():
        note = ", computed" if key in layers.COMPUTED else ""
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']} ({samples}{note})")
    ledger = bench.ledger
    failed = len(ledger.failures)
    print(f"{name} fail_frac = {failed / ledger.attempted:.6g} ratio ({failed} of {ledger.attempted} operations)")
    result = {"correct": not failed, "attempted": ledger.attempted, "failed": failed, "metrics": metrics}
    record = dict(result, passes=passes, failures=ledger.failures)
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "ergolab" / "cli.py").is_file():
        print(f"no ergolab sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: bench_workload(root, spec, name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}/{key}": metric
                    for name, r in results.items()
                    for key, metric in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
