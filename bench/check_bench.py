"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q bench/check_bench.py
"""

from __future__ import annotations

import functools
import json
import math
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from heisflag import enumeration, forms, witness  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {
    "classify": functools.partial(workloads.generate_classify,
                                  rungs={4: (2, 2), 6: (1, 1), 8: (1, 1)}),
    "curvature": functools.partial(workloads.generate_curvature,
                                   plan=((3, 1, 2, 1), (1, 3, 0, 1))),
    "flag-pairs": functools.partial(workloads.generate_flag_pairs,
                                    plan=((2, 2, 2, 1), (3, 1, 2, 1))),
    "survey": functools.partial(workloads.generate_survey, plan=((2, 2, 10, 1), (3, 1, 6, 2))),
}


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        ("op", 0, 100, -1, 1),
        ("a", 10, 60, 0, 1),     # children b and c overlap: [20, 40] covered once
        ("b", 20, 30, 1, 1),
        ("c", 25, 40, 1, 1),
        ("hook", 60, 65, 0, 1),
        ("d", 70, 110, 0, 1),    # runs past its parent: only [70, 100] counts for op
        ("e", 75, 80, 5, 1),
    ]
    assert tracing.self_times(spans) == [100 - 50 - 5 - 30, 50 - 20, 10, 15, 5, 40 - 5, 5]


def test_layer_metrics_are_per_operation():
    ms = 1_000_000
    spans = [
        ("op", 0, 10 * ms, -1, 1),
        ("linalg.invert", 0, 4 * ms, 0, 1),
        ("linalg.mat_mul", 1 * ms, 2 * ms, 1, 1),
        ("op", 10 * ms, 20 * ms, -1, 2),
        ("linalg.invert", 10 * ms, 12 * ms, 3, 2),
    ]
    metrics = tracing.layer_metrics(spans, ops=2)
    assert metrics["linalg.invert.calls_per_op"] == (1.0, "count")
    assert metrics["linalg.invert.self_ms_per_op"] == (2.5, "ms")
    assert metrics["linalg.mat_mul.self_ms_per_op"] == (0.5, "ms")
    assert metrics["curvature.riemann.calls_per_op"] == (0.0, "count")


def test_tracer_rebinds_every_namespace_and_restores_it():
    original = forms.flag_invariants
    tracer = tracing.Tracer()
    with tracer.installed():
        assert witness.flag_invariants is forms.flag_invariants is not original
        forms.signature(forms.QuadraticSpace.standard(1, 1))  # outside an operation
        assert tracer.spans == []
        sid = tracer.begin_op()
        forms.signature(forms.QuadraticSpace.standard(2, 1))
        tracer.end_op(sid)
    assert witness.flag_invariants is forms.flag_invariants is original
    names = [span[0] for span in tracer.spans]
    assert names[:2] == ["op", "forms.signature"]
    congruence = names.index("linalg.congruence_diagonalize")
    assert tracer.spans[congruence][3] == names.index("forms.signature")
    assert tracer.max_entry_bits == 1


def test_inertia_oracle():
    f = Fraction
    assert workloads.inertia([[f(0), f(1)], [f(1), f(0)]]) == (1, 1, 0)
    assert workloads.inertia([[f(1), f(1), f(0)], [f(1), f(1), f(0)], [f(0), f(0), f(-3, 2)]]) \
        == (1, 1, 1)
    assert workloads.inertia([[f(0)] * 2] * 2) == (0, 0, 2)


def test_witness_checks_separate_refusals_from_wrong_answers():
    check = workloads._check_equivalent(2, 2, None, None)
    refusal = check(None, witness.WitnessFailureError("form residual 3.470e-08 exceeds 1.0e-09"))
    assert refusal == workloads.Failure("refused.form_residual", False, 3.47e-08)
    assert check(None, witness.InequivalentFlagsError("sig_big")).wrong

    rejection = workloads._check_inequivalent("sig_small")
    assert rejection(None, witness.InequivalentFlagsError(
        "inequivalent flags: sig_small (1, 0, 0) != (0, 1, 0)")) is None
    assert rejection(None, witness.InequivalentFlagsError(
        "inequivalent flags: sig_big (1, 0, 0) != (0, 1, 0)")).wrong
    assert rejection("a witness", None).wrong


def test_survey_never_times_a_warm_call():
    ops = TINY["survey"](seed=3)
    caches = [v for v in vars(enumeration).values() if hasattr(v, "cache_info")]
    assert caches
    stats = run.measure(ops, passes=2)
    assert stats.ok == 2 * len(ops)
    assert sum(c.cache_info().hits for c in caches) == 0


def test_latencies_are_per_input_medians_of_scaled_times():
    stats = run.Stats(times=[[1.0, 9.0, 2.0], [4.0, 3.0, 5.0]],
                      scaled=[[1.0, 4.5, 2.0], [4.0, 1.5, 5.0]], passes=3, ok=6)
    assert stats.latencies() == [2.0, 4.0]
    assert stats.attempted == 6
    assert stats.ops_per_s() == 6 / 18.0
    assert stats.ops_per_s(scaled=False) == 6 / 24.0


def test_scaled_times_use_the_gauge_samples_around_each_call(monkeypatch):
    samples = iter([0.01, 0.03, 0.02, 0.02, 0.04])
    monkeypatch.setattr(run.reference, "sample", lambda: next(samples))
    monkeypatch.setattr(run.reference, "NOMINAL_SECONDS", 0.02)
    monkeypatch.setattr(run, "GAUGE_EVERY_S", 0.0)  # a sample after every call
    ops = [workloads.Op(f"op {i}", lambda: None, lambda result, error: None) for i in range(3)]
    stats = run.measure(ops, passes=1)
    ratios = [scaled[0] / wall[0] for scaled, wall in zip(stats.scaled, stats.times)]
    assert ratios == pytest.approx([1.0, 0.8, 1.0])
    assert stats.gauge == [0.01, 0.03, 0.02, 0.02, 0.04]


def test_counts_are_fixed_by_seed_and_seconds():
    seconds = 2 * workloads.PASS_SECONDS["flag-pairs"]
    results = [run.run("flag-pairs", seed=5, seconds=seconds, trace=False,
                       generate=TINY["flag-pairs"])["result"] for _ in range(2)]
    assert results[0]["attempted"] == 2 * len(TINY["flag-pairs"](seed=5))
    assert [(r["attempted"], r["failed"]) for r in results] == \
        [(results[0]["attempted"], results[0]["failed"])] * 2


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(TINY))
def test_smoke_run_emits_exactly_the_configured_metrics(workload, trace):
    out = run.run(workload, seed=1, seconds=1e-6, trace=trace, generate=TINY[workload])
    result = out["result"]
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = CONFIG["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert math.isfinite(metric["value"])


def test_configured_names_are_valid():
    names = [w["name"] for w in CONFIG["workloads"]]
    names += [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert sorted(w["name"] for w in CONFIG["workloads"]) == sorted(workloads.GENERATORS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "survey", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
