"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root, for example:

    python3 bench/spread.py --workloads classify survey --seeds 101-110

Each run is `bench/run.py` in its own process, one after another.  For every
workload and end-to-end metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from `BENCHMARK.json`.  It also prints each seed's attempted and failed
counts and the range of the witness's refusal residuals.

`--out FILE` writes the same figures as JSON, with the environment of the
first run; `--trace-seed N` adds one traced run per workload with seed N and
its per-layer metrics.  `bench/BASELINE.json` is such a file.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESIDUALS = re.compile(r"^refusal residuals: (\S+) \.\. (\S+)$")


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """The result object of one run and the report lines before it, the first
    of which gives the run's wall time."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    *lines, last = proc.stdout.splitlines()
    return json.loads(last), [f"wall: {wall}"] + lines


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def workload_report(workload: str, args, bounds: dict) -> tuple[dict, dict]:
    runs = {seed: one_run(workload, seed, args.seconds, 0) for seed in args.seeds}
    results = {seed: result for seed, (result, _) in runs.items()}
    residuals = [float(x) for _, lines in runs.values() for line in lines
                 if (found := RESIDUALS.match(line)) for x in found.groups()]
    report = {
        "seeds": args.seeds,
        "correct": all(r["correct"] for r in results.values()),
        "attempted_failed": {seed: [r["attempted"], r["failed"]] for seed, r in results.items()},
        "refusal_residual_range": [min(residuals), max(residuals)] if residuals else None,
        "metrics": {name: dict(summary([r["metrics"][name]["value"]
                                        for r in results.values()]),
                               unit=results[args.seeds[0]]["metrics"][name]["unit"])
                    for name in bounds},
    }
    env = json.loads(runs[args.seeds[0]][1][1].removeprefix("env: "))
    report.update(ops_per_pass=env.pop("ops_per_pass"), passes=env.pop("passes"),
                  run_wall_s=summary([float(lines[0].removeprefix("wall: "))
                                      for _, lines in runs.values()]))
    print(f"{workload}: correct {report['correct']}, attempted/failed by seed "
          f"{report['attempted_failed']}, refusal residuals {report['refusal_residual_range']}, "
          f"run wall time median {report['run_wall_s']['median']:.1f} s")
    for name, s in report["metrics"].items():
        print(f"  {name:16s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  "
              f"q3 {s['q3']:12.5g}  spread {s['spread']:.3f}  bound {bounds[name]}",
              flush=True)
    if args.trace_seed is not None:
        traced, _ = one_run(workload, args.trace_seed, args.seconds, 1)
        report["per_layer"] = {"seed": args.trace_seed,
                               "metrics": {name: m["value"]
                                           for name, m in traced["metrics"].items()}}
    return report, env


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("101-110"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    reports, env = {}, None
    for workload in args.workloads:
        reports[workload], env = workload_report(workload, args, bounds)
    if args.out:
        env = {k: v for k, v in env.items() if k not in ("workload", "seed")}
        out = {"run_seconds": args.seconds, "environment": env, "workloads": reports}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
