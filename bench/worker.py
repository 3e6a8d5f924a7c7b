"""One repetition of one workload, in a fresh interpreter.

Usage: python bench/worker.py '{"workload": W, "seed": N, "mode": M, "trace_dir": D}'

Mode ``setup`` times ``import bfdesign`` plus loading the shipped configs and
exits.  Mode ``solve`` then runs the workload's case list once and checks every
answer after the clock stops.  Mode ``trace`` does the same with every public
bfdesign function wrapped in a span, and writes the spans to D.  The worker
runs from the root of a checkout with ``src`` on ``PYTHONPATH`` and prints
one JSON object as its last line.

Set-up and solve are each timed twice: as wall time (``*_wall_s``) and as
wall time rescaled to a fixed CPU speed (``setup_s``, ``solve_s``).  The
host's single-core speed switches between two states about 1.5x apart for
tens of seconds at a time, which spreads wall-time medians of 30-second runs
by up to a quarter.  A ``SpeedProbe`` samples the speed of the CPU doing the
work while it works, and the rescaling removes that host-side drift but not
changes in the work itself.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time

import workloads


def run_cases(cases: list, tracer=None) -> list:
    """(ok, output) per case; an exception is recorded, not raised."""
    outputs = []
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.case_id = index
        try:
            outputs.append((True, case.run()))
        except Exception as exc:  # a crashing case is a wrong answer, not a crash
            outputs.append((False, f"{type(exc).__name__}: {exc}"))
    return outputs


def check_cases(cases: list, outputs: list) -> dict:
    """Problems found per case name; cases with right answers are absent."""
    problems = {}
    for case, (ok, value) in zip(cases, outputs):
        if not ok:
            found = [value]
        else:
            try:
                found = case.check(value)
            except Exception as exc:  # a crashing check is a wrong answer
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems[case.name] = found
    return problems


# Every PROBE_INTERVAL_S a SIGALRM handler times PROBE_STEPS additions on the
# CPU that runs this process.  One benchmark second is the time the host
# needs at REFERENCE_SPEED probes per second.
PROBE_INTERVAL_S = 0.005
PROBE_STEPS = 300
REFERENCE_SPEED = 1e5


class SpeedProbe:
    """Samples how fast this process's CPU runs while a block executes."""

    def __init__(self) -> None:
        self.speeds: list = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for step in range(PROBE_STEPS):
            total += step
        self.speeds.append(1.0 / (time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, wall_s: float) -> float:
        """Wall time converted to a CPU running REFERENCE_SPEED probes/s."""
        if not self.speeds:
            raise RuntimeError("the speed probe took no sample")
        return wall_s * statistics.fmean(self.speeds) / REFERENCE_SPEED


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _merge_children(tracer, trace_dir: str):
    from tracer import load_spans, merge_spans

    parts = [(tracer.names, tracer.spans(), tracer.counters)]
    for entry in sorted(os.listdir(trace_dir)):
        if entry.startswith("cli-") and entry.endswith(".npz"):
            path = os.path.join(trace_dir, entry)
            parts.append(load_spans(path))
            os.remove(path)
    return merge_spans(parts)


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode, workload = spec["mode"], spec["workload"]
    tracer = instrumentation = None
    # One CPU for the worker and the CLI children it starts, so that the
    # probe samples the CPU that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with SpeedProbe() as probe:
        start = time.perf_counter()
        import bfdesign

        if mode == "trace":
            from tracer import Instrumentation, Tracer

            tracer = Tracer()
            instrumentation = Instrumentation(tracer)
            instrumentation.__enter__()
        configs = workloads.load_configs()
        setup_wall_s = time.perf_counter() - start

    source = os.path.abspath("src")
    if os.path.commonpath([os.path.abspath(bfdesign.__file__), source]) != source:
        print(f"bfdesign was imported from {bfdesign.__file__}, not {source}", file=sys.stderr)
        return 2
    result = {"setup_s": probe.rescale(setup_wall_s), "setup_wall_s": setup_wall_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    trace_dir = spec.get("trace_dir") if tracer is not None else None
    cases = workloads.cases(workload, spec["seed"], configs, trace_dir=trace_dir)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        outputs = run_cases(cases, tracer)
        solve_wall_s = time.perf_counter() - start
    result.update(
        solve_s=probe.rescale(solve_wall_s),
        solve_wall_s=solve_wall_s,
        probe_speed=statistics.fmean(probe.speeds),
        peak_rss_mb=_peak_rss_mb(),
    )

    if tracer is not None:
        from tracer import cache_counters, save_spans, summarize

        instrumentation.__exit__(None, None, None)
        tracer.counters.update(cache_counters())
        names, arrays, counters = (
            _merge_children(tracer, trace_dir)
            if workload == "shipped"
            else (tracer.names, tracer.spans(), tracer.counters)
        )
        save_spans(os.path.join(trace_dir, f"{workload}.npz"), names, arrays, counters)
        result["summary"] = summarize(names, arrays)
        result["counters"] = dict(counters)
        result["spans"] = int(len(arrays["name"]))

    problems = check_cases(cases, outputs)
    result.update(
        cases=[case.name for case in cases],
        attempted=len(cases),
        failed=len(problems),
        problems=problems,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
