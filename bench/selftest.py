"""Self-test of the benchmark harness.

Usage, from the repository root:

    python3 bench/selftest.py

Checks that
- BENCHMARK.json names exactly the metrics of bench/metrics.py;
- a planted wrong expected design is counted as a failed case;
- child self times sum back to their parent span, and merging span tables
  keeps that true;
- per-layer counts repeat exactly across two traced runs of each workload,
  every wrapper fires on its home workload, and
  ``special.mp_calls`` is above 0 on tails only;
- outside a checkout the benchmark exits non-zero without a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Instrumentation, Tracer, merge_spans, self_times  # noqa: E402
from worker import check_cases, run_cases  # noqa: E402


def expect(condition: bool, message) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(workloads.WORKLOADS), f"workloads {names}")
    expect(
        spec["end_to_end"] == [m._asdict() for m in metrics.END_TO_END],
        "end_to_end differs from metrics.END_TO_END",
    )
    per_layer = [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    expect(spec["per_layer"] == per_layer, "per_layer differs from metrics.PER_LAYER")
    print("ok  BENCHMARK.json matches bench/metrics.py")


def check_planted_error() -> None:
    configs = workloads.load_configs()
    planted = workloads.load_expected()
    planted["search"]["example1"] = dict(planted["search"]["example1"], n1=11)
    cases = [
        case
        for case in workloads.cases("search", 0, configs, expected=planted)
        if case.name == "search/example1"
    ]
    problems = check_cases(cases, run_cases(cases))
    error_rate = len(problems) / len(cases)
    expect(error_rate > 0, "a wrong expected design was not counted as failed")
    print(f"ok  planted wrong design: error_rate {error_rate}, {problems}")


def check_self_times() -> None:
    import bfdesign

    configs = workloads.load_configs()
    config = configs["example1"]
    tracer = Tracer()
    with Instrumentation(tracer):
        bfdesign.optimal_calibrate(
            config.constraints(), config.k, config.k_f, config.hypotheses(),
            config.analysis_prior(), config.power_prior,
        )
    arrays = tracer.spans()
    own = self_times(arrays)
    dur = arrays["end"] - arrays["start"]
    parent = arrays["parent"]
    expect((own >= -1e-9).all(), "negative self time")
    start, end = arrays["start"], arrays["end"]
    for child in np.flatnonzero(parent >= 0):
        p = parent[child]
        expect(start[p] <= start[child] <= end[child] <= end[p], f"span {child} leaves its parent")
    # Self times partition the root spans: nothing is counted twice or lost.
    roots = dur[parent < 0].sum()
    expect(abs(own.sum() - roots) <= 1e-9 * max(1.0, roots), (own.sum(), roots))
    for index in range(0, len(parent), max(1, len(parent) // 200)):
        children = dur[parent == index].sum()
        gap = abs(own[index] + children - dur[index])
        expect(gap <= 1e-12 + 1e-9 * dur[index], f"span {index}: self + children != duration")

    part = (tracer.names, arrays, tracer.counters)
    names, merged, _ = merge_spans([part, part])
    expect(names == tracer.names, "merge changed the span names")
    expect((self_times(merged) == np.concatenate([own, own])).all(), "merge broke parent links")
    print(f"ok  self times sum back to parent spans ({len(parent)} spans)")


def _traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    expect(result["correct"] and result["failed"] == 0, detail["problems"])
    expect(not detail["samples"]["not_fired"], detail["samples"]["not_fired"])
    return {
        name: value["value"]
        for name, value in result["metrics"].items()
        if value["unit"] == "count"
    }


def check_repeatable_counts(workload: str) -> None:
    first = _traced_counts(workload, 7)
    second = _traced_counts(workload, 7)
    differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    expect(not differ, f"{workload}: counts differ between traced runs: {differ}")
    mp_calls = first["special.mp_calls"]
    expect((mp_calls > 0) == (workload == "tails"), f"special.mp_calls = {mp_calls}")
    print(f"ok  {workload}: counts repeat exactly, special.mp_calls = {mp_calls}")


def check_outside_checkout() -> None:
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and not done.stdout.strip(), done.stdout)
    print(f"ok  outside a checkout: exit {done.returncode}, {done.stderr.strip()}")


def main() -> int:
    os.chdir(ROOT)
    check_benchmark_json()
    check_planted_error()
    check_self_times()
    check_outside_checkout()
    for workload in workloads.WORKLOADS:
        check_repeatable_counts(workload)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
