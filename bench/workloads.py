"""Case lists of the four benchmark workloads and the checks on their answers.

A case is one call into bfdesign's public entry points.  ``run`` does the
work and is timed; ``check`` runs afterwards, untimed, and returns a list of
problems (empty when the answer is right).  Every entry point is looked up on
its module at call time, so that the tracer's wrappers are the ones called.

Module-level imports stay in the standard library: the worker imports this
file before it starts the set-up clock, and numpy or bfdesign imported here
would hide their import cost from ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from typing import Any, Callable, NamedTuple, Optional

WORKLOADS = ("search", "simon", "tails", "shipped")
CONFIG_NAMES = ("example1", "example2_bayes", "example2_pce")
# The configs with a point alternative, which the Simon search requires.
SIMON_CONFIGS = ("example1", "example2_pce")
SEARCH_N_MAX = 120
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(BENCH_DIR, "goldens")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

# Tolerances for pinned floating-point answers: summation order may change
# in a later implementation, the exact sums may not.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Identity checks on the large tails designs (pmf totals, branch totals).
SUM_TOL = 1e-9

# Tails draws: (p0 range, n2 range, analysis prior shapes a0 b0 a1 b1, power
# prior shapes).  One design per band per draw, extreme p0 on both sides, so
# the incomplete-beta tails underflow doubles and the mpmath fallback runs.
TAILS_BANDS = (
    ((0.03, 0.04), (2950, 3000), (2.0, 20.0, 1.0, 1.0), (2.0, 10.0)),
    ((0.45, 0.55), (1950, 2000), (3.0, 3.0, 3.0, 3.0), (4.0, 4.0)),
    ((0.91, 0.93), (1000, 1050), (20.0, 2.0, 1.0, 1.0), (10.0, 1.0)),
)
TAILS_DRAWS = 3
TAILS_K = 1.0 / 3.0
TAILS_K_F = 3.0

# Interpreter command identical to the installed `bfdesign` console script.
CLI_COMMAND = ("-c", "import sys; from bfdesign.cli import main; sys.exit(main())")


class Case(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


def load_configs() -> dict:
    """Parse the shipped configs through the public loader (part of set-up)."""
    import bfdesign.config

    return {
        name: bfdesign.config.load_config(os.path.join("configs", f"{name}.cfg"))
        for name in CONFIG_NAMES
    }


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def load_goldens() -> list:
    with open(os.path.join(GOLDEN_DIR, "shipped.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare(got: dict, want: dict, where: str = "") -> list:
    """Problems where a flat or nested answer differs from the pinned one."""
    problems = []
    for key, expected in want.items():
        actual = got.get(key)
        label = f"{where}{key}"
        if isinstance(expected, dict):
            problems += compare(actual or {}, expected, f"{label}.")
        elif isinstance(expected, float):
            if not isinstance(actual, float) or not _close(actual, expected):
                problems.append(f"{label}: got {actual!r}, expected {expected!r}")
        elif actual != expected:
            problems.append(f"{label}: got {actual!r}, expected {expected!r}")
    return problems


def _pinned_check(want: Optional[dict]) -> Callable[[Any], list]:
    def check(got: Any) -> list:
        if got is None:
            return ["no design found"]
        if want is None:
            return ["no pinned answer for this case"]
        return compare(got, want)

    return check


def _search_case(name: str, config, want: Optional[dict]) -> Case:
    def run():
        import bfdesign

        cons = dataclasses.replace(config.constraints(), n_max=SEARCH_N_MAX)
        best = bfdesign.optimal_calibrate(
            cons,
            config.k,
            config.k_f,
            config.hypotheses(),
            config.analysis_prior(),
            config.power_prior,
        )
        if best is None:
            return None
        return {
            "n1": best.design.n1,
            "n2": best.design.n2,
            "objective": float(best.objective),
            "type_i": float(best.oc.type_i_adjusted),
            "power": float(best.oc.power_adjusted),
        }

    return Case(f"search/{name}", run, _pinned_check(want))


def _simon_row(design) -> dict:
    return {
        "r1": design.r1,
        "n1": design.n1,
        "r": design.r,
        "n2": design.n2,
        "type_i": float(design.alpha_attained),
        "power": float(design.power_attained),
        "en_h0": float(design.e_n_h0),
    }


def _simon_case(name: str, config, want: Optional[dict]) -> Case:
    def run():
        import bfdesign

        found = bfdesign.simon_search(
            config.p0, config.power_prior.p, config.alpha, config.beta, SEARCH_N_MAX
        )
        if found is None:
            return None
        optimal, minimax = found
        return {"optimal": _simon_row(optimal), "minimax": _simon_row(minimax)}

    return Case(f"simon/{name}", run, _pinned_check(want))


def draw_tails_designs(seed: int) -> list:
    """TAILS_DRAWS draws of one design per band, all from the workload seed."""
    rng = random.Random(seed)
    designs = []
    for _ in range(TAILS_DRAWS):
        for (p_lo, p_hi), (n_lo, n_hi), shapes, power in TAILS_BANDS:
            n2 = rng.randint(n_lo, n_hi)
            designs.append(
                {
                    "p0": round(rng.uniform(p_lo, p_hi), 3),
                    "n1": round(n2 * rng.uniform(0.38, 0.42)),
                    "n2": n2,
                    "analysis_shapes": shapes,
                    "power_shapes": power,
                }
            )
    return designs


def _tails_case(spec: dict) -> Case:
    def objects():
        import bfdesign

        hyp = bfdesign.Hypotheses(spec["p0"])
        ap = bfdesign.AnalysisPrior.from_shapes(spec["p0"], *spec["analysis_shapes"])
        a, b = spec["power_shapes"]
        power_prior = bfdesign.TruncatedBeta(a, b, spec["p0"], 1.0)
        design = bfdesign.TwoStageDesign(spec["n1"], spec["n2"], TAILS_K, TAILS_K_F)
        return bfdesign, design, hyp, ap, power_prior

    def run():
        bfdesign, design, hyp, ap, power_prior = objects()
        return bfdesign.evaluate(design, hyp, ap, power_prior)

    def check(oc) -> list:
        import numpy as np

        bfdesign, design, hyp, ap, power_prior = objects()
        problems = []
        null_prior = bfdesign.PointMass(hyp.p0)
        n1, n2 = design.n1, design.n2
        for prior in (power_prior, null_prior):
            for n in (n1, n2):
                total = float(bfdesign.predictive_vector(prior, n).sum())
                if abs(total - 1.0) > SUM_TOL:
                    problems.append(f"predictive pmf at n={n} sums to {total!r}")
            joint = float(bfdesign.joint_predictive_matrix(n1, n2 - n1, prior).sum())
            if abs(joint - 1.0) > SUM_TOL:
                problems.append(f"joint pmf ({n1}, {n2 - n1}) sums to {joint!r}")
        for n in (n1, n2):
            curve = np.asarray(bfdesign.bayesfactor.log_bf01_curve(n, hyp, ap))
            if not np.all(np.isfinite(curve)):
                problems.append(f"log BF01 at n={n} is not finite")
            elif not np.all(np.diff(curve) < 0):
                problems.append(f"log BF01 at n={n} is not strictly decreasing")
        if oc.type_i_adjusted > oc.type_i_unadjusted:
            problems.append("adjusted type-I exceeds unadjusted")
        if oc.power_adjusted > oc.power_unadjusted:
            problems.append("adjusted power exceeds unadjusted")
        for label, branches in (("h0", oc.branch_h0), ("h1", oc.branch_h1)):
            if abs(sum(branches) - 1.0) > SUM_TOL:
                problems.append(f"branch_{label} sums to {sum(branches)!r}")
        if not n1 <= oc.e_n_h0 <= n2:
            problems.append(f"E[N|H0] = {oc.e_n_h0!r} outside [{n1}, {n2}]")
        return problems

    name = f"tails/p0={spec['p0']},n1={spec['n1']},n2={spec['n2']}"
    return Case(name, run, check)


def _shipped_case(index: int, golden: dict, trace_dir: Optional[str]) -> Case:
    def run():
        if trace_dir is None:
            command = [sys.executable, *CLI_COMMAND, *golden["argv"]]
        else:
            spans = os.path.join(trace_dir, f"cli-{index}.npz")
            script = os.path.join(BENCH_DIR, "cli_case.py")
            command = [sys.executable, script, spans, str(index), *golden["argv"]]
        done = subprocess.run(command, capture_output=True, timeout=120)
        return {"exit_code": done.returncode, "stdout": done.stdout, "stderr": done.stderr}

    def check(got) -> list:
        with open(os.path.join(GOLDEN_DIR, golden["stdout"]), "rb") as handle:
            want_stdout = handle.read()
        problems = []
        if got["exit_code"] != golden["exit_code"]:
            problems.append(
                f"exit code {got['exit_code']}, expected {golden['exit_code']}: "
                + got["stderr"].decode(errors="replace")[-300:]
            )
        if got["stdout"] != want_stdout:
            problems.append("stdout differs from the golden output")
        return problems

    return Case(f"shipped/{golden['name']}", run, check)


def cases(
    workload: str,
    seed: int,
    configs: dict,
    expected: Optional[dict] = None,
    trace_dir: Optional[str] = None,
) -> list:
    """The workload's case list.  The seed orders the fixed-answer cases and
    draws the tails designs; ``expected`` overrides the pinned answers."""
    rng = random.Random(seed)
    if expected is None and workload in ("search", "simon"):
        expected = load_expected()
    if workload == "search":
        names = list(CONFIG_NAMES)
        rng.shuffle(names)
        return [_search_case(n, configs[n], expected["search"].get(n)) for n in names]
    if workload == "simon":
        names = list(SIMON_CONFIGS)
        rng.shuffle(names)
        return [_simon_case(n, configs[n], expected["simon"].get(n)) for n in names]
    if workload == "tails":
        return [_tails_case(spec) for spec in draw_tails_designs(seed)]
    if workload == "shipped":
        goldens = list(enumerate(load_goldens()))
        rng.shuffle(goldens)
        return [_shipped_case(i, g, trace_dir) for i, g in goldens]
    raise ValueError(f"unknown workload {workload!r}")
