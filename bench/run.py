"""bfdesign benchmark: end-to-end timings and traced per-layer spans.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {search,simon,tails,shipped} --seed N \\
        --seconds S --trace {0,1}

Load model: a closed loop with one client.  Each repetition is a fresh
interpreter (``bench/worker.py``) that imports bfdesign, loads the shipped
configs and solves the workload's whole case list, one case after another,
so caches start cold and import cost counts.  Nothing runs in parallel.

With ``--trace 0`` the run repeats the workload for about S seconds and
reports the medians of ``setup_s``, ``solve_s`` and ``peak_rss_mb``; the two
times are rescaled to a fixed CPU speed (see ``bench/worker.py``), and the
wall times behind them are in the detail line.  With
``--trace 1`` it makes one untraced and one traced repetition and reports the
per-layer metrics of ``bench/metrics.py``.  Every answer is checked; a wrong
one counts as failed.  The last line of stdout is the JSON result, the line
before it the environment, samples and any problems found.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import metrics
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TRACE_DIR = os.path.join(".bench_build", "bfdesign-trace")
# A run must end within 180 s; no worker may outlive this.
HARD_LIMIT_S = 170.0
MIN_SETUPS = 5
MAX_SETUPS = 15
IMPORTTIME_RUNS = 3


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong answer)."""


def preflight(root: str) -> None:
    needed = [os.path.join("src", "bfdesign", "__init__.py")] + [
        os.path.join("configs", f"{name}.cfg") for name in workloads.CONFIG_NAMES
    ]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        raise HarnessError(
            f"not the root of a bfdesign checkout ({root}); missing: {', '.join(missing)}"
        )


def _git_commit(root: str):
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as handle:
            return handle.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "bfdesign")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, seed: int) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "seed": seed,
    }


class Runner:
    """Spawns worker interpreters from the checkout root under one deadline."""

    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.hard_deadline = time.monotonic() + HARD_LIMIT_S
        path = os.path.join(root, "src")
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")

    def _run(self, command: list) -> subprocess.CompletedProcess:
        """Run one child to completion; on timeout kill its whole process group,
        so that no CLI grandchild of a worker outlives the run."""
        timeout = self.hard_deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("out of time before the next repetition")
        with subprocess.Popen(
            command, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        ) as child:
            try:
                stdout, stderr = child.communicate(timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
                raise HarnessError(f"{command[1:3]} exceeded the run's time limit") from exc
        return subprocess.CompletedProcess(command, child.returncode, stdout, stderr)

    def worker(self, mode: str) -> dict:
        spec = {"workload": self.workload, "seed": self.seed, "mode": mode}
        if mode == "trace":
            spec["trace_dir"] = os.path.join(self.root, TRACE_DIR)
            os.makedirs(spec["trace_dir"], exist_ok=True)
        done = self._run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(spec)])
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise HarnessError(f"worker ({mode}) failed:\n{done.stderr[-2000:]}")
        return json.loads(lines[-1])

    def import_times(self) -> tuple[float, float]:
        """Cumulative import time of bfdesign and of scipy.stats, in seconds."""
        done = self._run([sys.executable, "-X", "importtime", "-c", "import bfdesign"])
        if done.returncode != 0:
            raise HarnessError(f"import bfdesign failed:\n{done.stderr[-2000:]}")
        cumulative = {}
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        if "bfdesign" not in cumulative:
            raise HarnessError("python -X importtime reported no bfdesign import")
        return cumulative["bfdesign"], cumulative.get("scipy.stats", 0.0)


def _value(name: str, value: float, unit: str) -> dict:
    return {name: {"value": value, "unit": unit}}


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, list]:
    """Repeat the workload for about `seconds`; report medians."""
    deadline = time.monotonic() + seconds
    runner.worker("setup")  # warm the file cache; not a sample
    reps = []
    while True:
        began = time.monotonic()
        reps.append(runner.worker("solve"))
        now = time.monotonic()
        if now + (now - began) > deadline:
            break
    setups = list(reps)
    while len(setups) < MAX_SETUPS:
        began = time.monotonic()
        setups.append(runner.worker("setup"))
        now = time.monotonic()
        if len(setups) >= MIN_SETUPS and now + (now - began) > deadline:
            break
    samples = {
        "setup_s": [r["setup_s"] for r in setups],
        "setup_wall_s": [r["setup_wall_s"] for r in setups],
        "solve_s": [r["solve_s"] for r in reps],
        "solve_wall_s": [r["solve_wall_s"] for r in reps],
        "probe_speed": [r["probe_speed"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    values = {}
    for m in metrics.END_TO_END:
        values.update(_value(m.name, statistics.median(samples[m.name]), m.unit))
    return values, samples, reps


def measure_per_layer(runner: Runner) -> tuple[dict, dict, list]:
    """One untraced and one traced repetition, plus python -X importtime."""
    imports = [runner.import_times() for _ in range(IMPORTTIME_RUNS)]
    plain = runner.worker("solve")
    traced = runner.worker("trace")
    found = metrics.span_values(traced["summary"], traced["counters"])
    found["setup.import_s"] = statistics.median(i[0] for i in imports)
    found["setup.scipy_stats_import_s"] = statistics.median(i[1] for i in imports)
    found["trace.overhead_ratio"] = traced["solve_s"] / plain["solve_s"]
    reps = [plain, traced]
    found["error_rate"] = sum(r["failed"] for r in reps) / sum(r["attempted"] for r in reps)
    values = {}
    for m in metrics.PER_LAYER:
        values.update(_value(m.name, found[m.name], m.unit))
    samples = {
        "solve_s": [plain["solve_s"]],
        "traced_solve_s": [traced["solve_s"]],
        "solve_wall_s": [plain["solve_wall_s"]],
        "traced_solve_wall_s": [traced["solve_wall_s"]],
        "spans": traced["spans"],
        "spans_file": os.path.join(TRACE_DIR, f"{runner.workload}.npz"),
        "not_fired": metrics.not_fired(traced["summary"], runner.workload),
    }
    return values, samples, reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        preflight(root)
        runner = Runner(root, args.workload, args.seed)
        if args.trace:
            values, samples, reps = measure_per_layer(runner)
        else:
            values, samples, reps = measure_end_to_end(runner, args.seconds)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    problems = {}
    for rep in reps:
        problems.update(rep["problems"])
    for span in samples.get("not_fired", []):
        print(f"bench: wrapper {span} recorded no call on {args.workload}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    detail = {
        "environment": environment(root, args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "cases": reps[0]["cases"],
        "samples": samples,
        "problems": problems,
    }
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": values,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
