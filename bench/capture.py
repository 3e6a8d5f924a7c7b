"""Pin the answers the benchmark checks against.

Usage (from the repository root): PYTHONPATH=src python3 bench/capture.py

Writes ``bench/expected.json`` (designs, objective, type-I and power of the
``search`` and ``simon`` workloads) and ``bench/goldens/`` (stdout and exit
code of the eleven ``shipped`` CLI commands).  Run it only on a commit whose
answers are known to be right; the pinned files then gate every later run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads


def _cli(argv: list) -> subprocess.CompletedProcess:
    command = [sys.executable, *workloads.CLI_COMMAND, *argv]
    return subprocess.run(command, capture_output=True, check=False, timeout=300)


def shipped_commands() -> list:
    """calibrate, oc at the optimum and scan at its n2 per config, plus simon."""
    commands = []
    for name in workloads.CONFIG_NAMES:
        config = ["--config", f"configs/{name}.cfg"]
        calibrate = _cli(["calibrate", *config])
        n1, n2 = calibrate.stdout.decode().splitlines()[1].split()[:2]
        commands += [
            (f"calibrate-{name}", ["calibrate", *config]),
            (f"oc-{name}", ["oc", *config, "--n1", n1, "--n2", n2]),
            (f"scan-{name}", ["scan", *config, "--n2", n2]),
        ]
    for name in workloads.SIMON_CONFIGS:
        commands.append((f"simon-{name}", ["simon", "--config", f"configs/{name}.cfg"]))
    return commands


def capture_goldens() -> None:
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    manifest = []
    for name, argv in shipped_commands():
        done = _cli(argv)
        stdout = f"{name}.stdout"
        with open(os.path.join(workloads.GOLDEN_DIR, stdout), "wb") as handle:
            handle.write(done.stdout)
        manifest.append(
            {"name": name, "argv": argv, "exit_code": done.returncode, "stdout": stdout}
        )
    with open(os.path.join(workloads.GOLDEN_DIR, "shipped.json"), "w") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")


def capture_expected() -> None:
    configs = workloads.load_configs()
    pinned = {}
    for workload in ("search", "simon"):
        empty = {"search": {}, "simon": {}}
        pinned[workload] = {
            case.name.split("/", 1)[1]: case.run()
            for case in workloads.cases(workload, 0, configs, expected=empty)
        }
    with open(workloads.EXPECTED_PATH, "w") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    capture_goldens()
    capture_expected()
