"""The paired-run summary of tools/bench_pairs.py, on synthetic run entries."""

import importlib.util
import json
import os
import subprocess

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bench_pairs.py")
BOUNDS = {"setup_s": 0.25, "solve_s": 0.24, "peak_rss_mb": 0.15}


@pytest.fixture
def bench_pairs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("summary started a subprocess")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(parent, change, failed_change=0):
    """Run entries of pairs whose (setup_s, solve_s, peak_rss_mb) are parent[i] and change[i]."""
    entries = []
    for pair, values in enumerate(zip(parent, change), start=1):
        for side, (setup, solve, rss) in zip(("parent", "change"), values):
            failed = int(side == "change" and pair <= failed_change)
            entries.append({
                "pair": pair, "side": side, "correct": True, "attempted": 100,
                "failed": failed, "setup_s": setup, "solve_s": solve, "peak_rss_mb": rss,
            })
    return entries


def verdicts(text):
    return {line.split()[1].rstrip(":"): line.rsplit(": ", 1)[1] for line in text.splitlines()}


def test_summary_verdicts(bench_pairs):
    parent = [(0.10 + 0.001 * i, 1.0 + 0.01 * i, 30.0 + 0.1 * i) for i in range(10)]
    change = [
        # setup 10% slower, solve 20% faster, rss 20% larger
        (1.1 * setup, 0.8 * solve, 1.2 * rss) for setup, solve, rss in parent
    ]
    text = bench_pairs.summary("search", runs(parent, change), BOUNDS)
    assert verdicts(text) == {
        "setup_s": "within bound", "solve_s": "gain", "peak_rss_mb": "worse"
    }
    first = text.splitlines()[0]
    # parent setup quartiles (exclusive method) 0.10175 and 0.10725
    assert "parent quartile spread 0.0055" in first
    assert "failed runs parent 0 change 0" in first
    assert "change lower in 0 of 10 pairs" in first


def test_summary_gain_needs_pairs_spread_and_no_more_failures(bench_pairs):
    # a spread of 0.55 at a median of 10.45, within the 0.24 bound
    parent = [(1.0, 10.0 + 0.1 * i, 30.0) for i in range(10)]
    # lower in 9 of 10 pairs but by less than the parent's spread
    close = [(1.0, solve - 0.1, 30.0) for _, solve, _ in parent]
    close[0] = (1.0, 10.5, 30.0)
    assert verdicts(bench_pairs.summary("w", runs(parent, close), BOUNDS))["solve_s"] == (
        "within bound"
    )
    # beyond the spread, lower in 8 of 10 pairs only
    far = [(1.0, solve - 0.9, 30.0) for _, solve, _ in parent]
    far[0] = far[1] = (1.0, 10.2, 30.0)
    assert verdicts(bench_pairs.summary("w", runs(parent, far), BOUNDS))["solve_s"] == (
        "within bound"
    )
    # lower in 9 of 10 pairs and beyond the spread: a gain, unless more runs failed
    far[1] = (1.0, 9.2, 30.0)
    assert verdicts(bench_pairs.summary("w", runs(parent, far), BOUNDS))["solve_s"] == "gain"
    text = bench_pairs.summary("w", runs(parent, far, failed_change=2), BOUNDS)
    assert verdicts(text)["solve_s"] == "within bound"
    assert "failed runs parent 0 change 2" in text


def test_summary_unresolved_when_the_spread_exceeds_the_bound(bench_pairs):
    # a solve spread of 0.55 at a median of 1.45 is wider than its 0.24 bound
    parent = [(1.0, 1.0 + 0.1 * i, 30.0) for i in range(10)]
    for solve, verdict in [
        (lambda s: s, "unresolved"),
        (lambda s: 2.0 * s, "unresolved"),
        # lower in every pair, but by less than the spread: no gain
        (lambda s: s - 0.05, "unresolved"),
        # every change run below every parent run, still no gain
        (lambda s: 0.95, "within bound"),
        (lambda s: s - 1.0, "gain"),
    ]:
        change = [(1.0, solve(s), 30.0) for _, s, _ in parent]
        found = verdicts(bench_pairs.summary("w", runs(parent, change), BOUNDS))
        assert found == {"setup_s": "within bound", "solve_s": verdict,
                         "peak_rss_mb": "within bound"}, verdict


def test_failed_run_is_kept_and_the_campaign_goes_on(bench_pairs, tmp_path, monkeypatch):
    # the change side exits 1 in pair 7; its entry keeps the exit code and
    # the stderr tail, the other 19 runs still land in the file, and the
    # summary counts the failure instead of comparing its pair
    roots = {side: tmp_path / side for side in ("parent", "change")}
    for root in roots.values():
        root.mkdir()
    benchmark = {
        "run_seconds": 1,
        "workloads": [{"name": "simon"}],
        "end_to_end": [{"name": name, "bound": bound} for name, bound in BOUNDS.items()],
    }
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps(benchmark))
    stderr = "x" * 3000 + "RuntimeError: the speed probe took no sample\n"
    calls = []

    def fake_run(command, cwd=None, **kwargs):
        if command[0] == "git":
            return subprocess.CompletedProcess(command, 128, "", "")
        side = os.path.basename(cwd)
        calls.append(side)
        if len(calls) == 14:  # pair 7 runs the parent first, then the change
            return subprocess.CompletedProcess(command, 1, "", stderr)
        value = 1.0 if side == "parent" else 0.5
        result = {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": value} for name in BOUNDS},
        }
        return subprocess.CompletedProcess(command, 0, "log\n" + json.dumps(result) + "\n", "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "machine", dict)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(roots["parent"]), "--change", str(roots["change"]),
            "--pr", "1", "--note", "test", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    runs = json.loads(out.read_text())["workloads"]["simon"]["runs"]
    assert len(runs) == 20 and len(calls) == 20
    broken = [r for r in runs if not r["correct"]]
    assert broken == [{
        "pair": 7, "seed": bench_pairs.SEED, "side": "change", "ran_first": "parent",
        "exit_code": 1, "stderr": stderr[-2000:], "correct": False,
    }]
    text = bench_pairs.summary("simon", runs, BOUNDS)
    # lower in the nine pairs it finished, beyond the spread, but with one
    # more failed run than the parent: no gain
    assert verdicts(text) == dict.fromkeys(BOUNDS, "within bound")
    assert "change lower in 9 of 10 pairs" in text
    assert "failed runs parent 0 change 1" in text


def test_summary_without_enough_measured_runs(bench_pairs):
    entries = runs([(1.0, 1.0, 30.0)] * 3, [(1.0, 1.0, 30.0)] * 3)
    for entry in entries:
        if entry["side"] == "change" and entry["pair"] > 1:
            for metric in BOUNDS:
                del entry[metric]
            entry.update(correct=False, exit_code=1, stderr="")
    text = bench_pairs.summary("w", entries, BOUNDS)
    assert verdicts(text) == dict.fromkeys(BOUNDS, "no verdict")
    assert "failed runs parent 0 change 2" in text
