"""heisflag benchmark: one closed-loop caller in one process and one thread.

Run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Workloads: classify, curvature, flag-pairs, survey (see `workloads.py`).
A run builds its inputs from the seed during set-up, then calls the
workload's operations one after another, each only after the previous one
returned, in whole passes over the input set.  The number of passes is
round(seconds / PASS_SECONDS[workload]) (see `workloads.py`), so a run
measures about `--seconds` of calls, and its operation and failure counts
are fixed by the seed and `--seconds` alone.  Every answer is checked
outside the timed region.

Every input is timed once per pass.  Each call's wall time is scaled to a
fixed machine speed by the speed gauge in `reference.py`, which is timed
before, during and after each pass: the machine's speed drifts by about
1.5x in phases that can be longer than a run.  An input's latency is the
median of its scaled times over the passes.  `latency_p50_ms` and
`latency_p90_ms` are the nearest-rank median and 90th percentile of these
latencies over the inputs; `ops_per_s` is the correct operations divided by
the scaled timed seconds; `success_ratio` is correct operations over
attempted ones; `setup_s` is the median of three to nine scaled set-ups,
each a heisflag import in a fresh interpreter plus input generation;
`peak_rss_mb` is the process's peak resident memory.  The report lines give
the unscaled `ops_per_s` and the gauge's median.  A traced run spends half
of the passes untraced and half traced, so that `trace.overhead_ratio`
compares the two; its per-layer self times are not scaled.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics, and every call's time is written to `.bench_out/`; with
`--trace 1` it carries the per-layer metrics of a traced run, whose spans
are written to `.bench_out/`.  The lines before it give the environment,
the failures by cause and, when traced, the per-layer table.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import reference
from tracing import Tracer, layer_metrics, layer_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-ups per run: at least SETUP_MIN, more while they took under
# SETUP_FILL_S in all, at most SETUP_MAX
SETUP_MIN, SETUP_FILL_S, SETUP_MAX = 3, 2.0, 9
GAUGE_EVERY_S = 0.5
IMPORT_PROBE = ("import time; start = time.perf_counter(); import heisflag; "
                "print(time.perf_counter() - start)")


def load_program() -> None:
    """Put this checkout's heisflag first on the path, or exit without a result."""
    if not (SRC / "heisflag" / "__init__.py").is_file():
        sys.exit(f"error: heisflag sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import heisflag

    if SRC.resolve() not in Path(heisflag.__file__).resolve().parents:
        sys.exit(f"error: imported heisflag from {heisflag.__file__}, not from {SRC}")


@dataclass
class Stats:
    """Outcomes of the operations of one measurement phase."""

    times: list[list[float]]  # per input, its wall time in each pass
    scaled: list[list[float]]  # per input, its scaled time in each pass
    passes: int = 0
    gauge: list[float] = field(default_factory=list)  # every speed gauge sample
    ok: int = 0
    wrong: int = 0
    failures: Counter = field(default_factory=Counter)
    residuals: list[float] = field(default_factory=list)
    tallies: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.times) * self.passes

    def ops_per_s(self, scaled: bool = True) -> float:
        """Correct operations over the timed seconds."""
        return self.ok / sum(map(sum, self.scaled if scaled else self.times))

    def latencies(self) -> list[float]:
        """Each input's median scaled time over the passes."""
        return [statistics.median(times) for times in self.scaled]


def measure(ops, passes: int, tracer=None) -> Stats:
    """`passes` whole passes over `ops`, each input timed once per pass.

    The speed gauge is sampled at the start and end of each pass and after
    every GAUGE_EVERY_S seconds of calls.  A call's scaled time is its wall
    time times NOMINAL_SECONDS over the mean of the samples just before and
    just after it.
    """
    stats = Stats(times=[[] for _ in ops], scaled=[[] for _ in ops])
    for _ in range(passes):
        samples = [reference.sample()]
        before = []  # per input, the index of the last sample before its call
        since_sample = 0.0
        for op, times in zip(ops, stats.times):
            if op.before is not None:
                op.before()
            sid = tracer.begin_op() if tracer is not None else None
            start = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # every failure is counted by cause below
                result, error = None, exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op(sid)
            times.append(elapsed)
            before.append(len(samples) - 1)
            since_sample += elapsed
            if since_sample >= GAUGE_EVERY_S:
                samples.append(reference.sample())
                since_sample = 0.0
            failure = op.check(result, error)
            if failure is None:
                stats.ok += 1
                if op.tally is not None:
                    stats.tallies.update(op.tally(result))
                continue
            stats.failures[failure.cause] += 1
            stats.wrong += failure.wrong
            if failure.residual is not None:
                stats.residuals.append(failure.residual)
        samples.append(reference.sample())
        for times, scaled, k in zip(stats.times, stats.scaled, before):
            gauge = (samples[k] + samples[k + 1]) / 2
            scaled.append(times[-1] * reference.NOMINAL_SECONDS / gauge)
        stats.gauge.extend(samples)
        stats.passes += 1
    return stats


def import_seconds() -> float:
    """Time to import heisflag in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def set_up(generate, seed: int):
    """Set up several times; returns the inputs and the median scaled set-up time."""
    times = []
    ops = None
    while len(times) < SETUP_MIN or (sum(times) < SETUP_FILL_S and len(times) < SETUP_MAX):
        ops = None  # release the previous input set before building the next
        before = reference.sample()
        imported = import_seconds()
        start = time.perf_counter()
        ops = generate(seed)
        elapsed = imported + time.perf_counter() - start
        gauge = (before + reference.sample()) / 2
        times.append(elapsed * reference.NOMINAL_SECONDS / gauge)
    return ops, statistics.median(times)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, ops_per_pass: int, passes: int) -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "ops_per_pass": ops_per_pass,
        "passes": passes,
    }


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile: never a blend of two inputs' latencies."""
    return sorted(values)[math.ceil(fraction * len(values)) - 1]


def end_to_end(stats: Stats, setup_s: float) -> dict[str, tuple[float, str]]:
    latencies = stats.latencies()
    return {
        "ops_per_s": (stats.ops_per_s(), "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "success_ratio": (stats.ok / stats.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced: Stats, traced: Stats, tracer: Tracer) -> dict[str, tuple[float, str]]:
    metrics = layer_metrics(tracer.spans, tracer.ops)
    subsets = traced.tallies["subsets"]
    metrics.update({
        "linalg.max_entry_bits": (tracer.max_entry_bits, "bits"),
        "enumeration.distinct_subspace_ratio":
            (traced.tallies["subspaces"] / subsets if subsets else 0.0, "ratio"),
        # failure counts are per pass over the seeded input set
        "witness.fail.form_residual":
            (traced.failures["refused.form_residual"] / traced.passes, "count"),
        "witness.fail.flag_distance":
            (traced.failures["refused.flag_distance"] / traced.passes, "count"),
        "witness.rejected": (traced.tallies["rejected"] / traced.passes, "count"),
        "trace.overhead_ratio": (untraced.ops_per_s() / traced.ops_per_s(), "ratio"),
    })
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, generate=None) -> dict:
    """One benchmark run; returns the result object and the report lines before it."""
    # imports heisflag: only after load_program()
    from workloads import GENERATORS, PASS_SECONDS

    ops, setup_s = set_up(generate or GENERATORS[workload], seed)
    # the inputs live until the run ends: keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    passes = max(1, round((seconds / 2 if trace else seconds) / PASS_SECONDS[workload]))
    lines = [f"env: {json.dumps(environment(workload, seed, len(ops), passes))}"]
    if not trace:
        phases = [measure(ops, passes)]
        metrics = end_to_end(phases[0], setup_s)
        times_path = OUT / f"times-{workload}-{seed}.json"
        write_times(times_path, ops, phases[0])
        lines.append(f"call times written to {times_path.relative_to(ROOT)}")
    else:
        untraced = measure(ops, passes)
        tracer = Tracer()
        with tracer.installed():
            traced = measure(ops, passes, tracer=tracer)
        spans_path = OUT / f"spans-{workload}-{seed}.csv"
        tracer.write(spans_path)
        phases = [untraced, traced]
        metrics = per_layer(untraced, traced, tracer)
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        lines.extend(layer_table(metrics))

    gc.unfreeze()
    failures = sum((s.failures for s in phases), Counter())
    residuals = [r for s in phases for r in s.residuals]
    attempted = sum(s.attempted for s in phases)
    lines.append(f"passes: {[s.passes for s in phases]}, attempted: {attempted}, "
                 f"failures by cause: {json.dumps(dict(sorted(failures.items())))}")
    if residuals:
        lines.append(f"refusal residuals: {min(residuals):.3e} .. {max(residuals):.3e}")
    if not trace:
        lines.append("fail_ratio: " + repr(sum(failures.values()) / attempted))
        gauge = statistics.median(phases[0].gauge)
        lines.append(f"unscaled ops_per_s: {phases[0].ops_per_s(scaled=False)!r}, "
                     f"speed gauge: median {gauge * 1e3:.2f} ms, nominal "
                     f"{reference.NOMINAL_SECONDS * 1e3:.2f} ms, {len(phases[0].gauge)} samples")
    result = {
        "correct": not any(s.wrong for s in phases),
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return {"lines": lines, "result": result}


def write_times(path: Path, ops, stats: Stats) -> None:
    """Every call's wall time and scaled time in seconds, per input, one per pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([
        {"label": op.label, "wall": times, "scaled": scaled}
        for op, times, scaled in zip(ops, stats.times, stats.scaled)
    ]))


def layer_table(metrics: dict[str, tuple[float, str]]) -> list[str]:
    rows = [f"{'layer function':40s} {'calls/op':>12s} {'self ms/op':>12s}"]
    for name in layer_names():
        calls = metrics[f"{name}.calls_per_op"][0]
        if calls:
            rows.append(f"{name:40s} {calls:12.3f} {metrics[f'{name}.self_ms_per_op'][0]:12.4f}")
    rows.extend(f"{name:40s} {value!r}" for name, (value, _) in metrics.items()
                if not name.endswith(("calls_per_op", "self_ms_per_op")))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("classify", "curvature", "flag-pairs", "survey"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
