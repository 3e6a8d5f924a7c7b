"""Paired, alternating benchmark runs of two checkouts, written as BENCH_<pr>.json.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N \\
        --note "what the change does" [--out FILE]

Every workload named in the change checkout's ``BENCHMARK.json`` gets
``PAIRS`` pairs.  Each pair runs
``bench/run.py --workload W --seed 9 --seconds T --trace 0``, with T the
file's ``run_seconds``, once from the root of each checkout, one after the
other; the parent goes first in odd pairs and the change first in even
pairs, so a drift of the machine's speed during a pair favors neither side.
Every run's last stdout line (the harness's JSON result) is kept as one
entry of ``runs``; a run that exits nonzero is kept as a failed entry with
its exit code and the tail of its stderr, and the campaign goes on.  A summary
is printed to stdout: per metric, the medians, the pairs the change wins,
the parent's quartile spread, each side's failed runs and a verdict against
the metric's ``bound`` in ``BENCHMARK.json`` (see ``summary``).
Standard library only, so it runs wherever the benchmark does.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

METRICS = ("setup_s", "solve_s", "peak_rss_mb")
PAIRS = 10
SEED = 9


def _git_head(root: str):
    done = subprocess.run(
        ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "cpu": _cpu_model(),
        "vcpus": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy,
        "os": platform.platform(),
    }


def run_once(root: str, workload: str, seconds: float) -> dict:
    """One harness run from the root of a checkout, as the fields of its ``runs`` entry.

    A run that exits 0 gives ``correct``, ``attempted``, ``failed`` and each
    of ``METRICS`` from its last stdout line (the harness's JSON result).
    Any other run gives its ``exit_code``, the last 2000 characters of its
    stderr and ``correct`` false, and no metrics.
    """
    command = [
        sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"exit_code": done.returncode, "stderr": done.stderr[-2000:], "correct": False}
    result = json.loads(lines[-1])
    fields = {key: result[key] for key in ("correct", "attempted", "failed")}
    fields.update({m: result["metrics"][m]["value"] for m in METRICS})
    return fields


def run_pairs(roots: dict, workload: str, seconds: float) -> list:
    runs = []
    for pair in range(1, PAIRS + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            entry = {"pair": pair, "seed": SEED, "side": side, "ran_first": order[0]}
            entry.update(run_once(roots[side], workload, seconds))
            runs.append(entry)
            print(json.dumps(entry), file=sys.stderr, flush=True)
    return runs


def summary(workload: str, runs: list, bounds: dict) -> str:
    """One line per metric: medians, pairs won, the parent's spread, failed runs, verdict.

    A run failed when it is not correct or any operation in it failed; a run
    that exited nonzero has no metrics, so it is left out of the medians and
    the spread, and its pair counts as not won.  Runs are matched by their
    ``pair`` number.  The spread is the distance between the quartiles of the
    parent's runs.  The verdict is ``gain`` when the change is lower in at
    least nine tenths of the pairs, its median is below the parent's by more
    than the spread and no more of its runs failed; else ``unresolved`` when
    the spread is wider than ``bounds[metric]`` of the parent's median, unless
    every change run is below every parent run; else ``within bound`` when
    its median exceeds the parent's by at most ``bounds[metric]`` of it;
    ``worse`` otherwise, and ``no verdict`` when a side has fewer than two
    measured runs.
    """
    sides = ("parent", "change")
    failed = {
        s: sum(not r["correct"] or bool(r["failed"]) for r in runs if r["side"] == s)
        for s in sides
    }
    pairs = len({r["pair"] for r in runs})
    lines = []
    for metric in METRICS:
        side = {s: {r["pair"]: r[metric] for r in runs if r["side"] == s and metric in r}
                for s in sides}
        tally = f"failed runs parent {failed['parent']} change {failed['change']}"
        if min(len(side[s]) for s in sides) < 2:
            lines.append(f"{workload} {metric}: too few measured runs, {tally}: no verdict")
            continue
        parent = statistics.median(side["parent"].values())
        change = statistics.median(side["change"].values())
        low, _, high = statistics.quantiles(side["parent"].values(), n=4)
        wins = sum(
            p in side["parent"] and c < side["parent"][p] for p, c in side["change"].items()
        )
        if (
            wins >= 0.9 * pairs
            and parent - change > high - low
            and failed["change"] <= failed["parent"]
        ):
            verdict = "gain"
        elif high - low > parent * bounds[metric] and not (
            max(side["change"].values()) < min(side["parent"].values())
        ):
            verdict = "unresolved"
        elif change <= parent * (1.0 + bounds[metric]):
            verdict = "within bound"
        else:
            verdict = "worse"
        lines.append(
            f"{workload} {metric}: parent median {parent:.4g}, change median {change:.4g}, "
            f"change lower in {wins} of {pairs} pairs, "
            f"parent quartile spread {high - low:.4g}, {tally}: {verdict}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    parser.add_argument("--pr", required=True, type=int, help="number in the file name")
    parser.add_argument("--note", required=True, help="one line on what the change does")
    parser.add_argument("--out", help="path; defaults to BENCH_<pr>.json in the change checkout")
    args = parser.parse_args(argv)

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    report = {
        "change": args.note,
        "parent_commit": _git_head(roots["parent"]),
        "command": f"python3 bench/run.py --workload W --seed {SEED} "
        f"--seconds {seconds:g} --trace 0",
        "protocol": f"pairs of parent/change runs with seed {SEED}, one after another "
        "on one machine; the parent runs first in odd pairs (1, 3, ...) and the change "
        "first in even pairs; each side runs from its own checkout root",
        "machine": machine(),
        "workloads": {},
    }
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    texts = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        runs = run_pairs(roots, workload, seconds)
        report["workloads"][workload] = {"pairs": PAIRS, "runs": runs}
        texts.append(summary(workload, runs, bounds))
    out = args.out or os.path.join(roots["change"], f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print("\n".join(texts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
