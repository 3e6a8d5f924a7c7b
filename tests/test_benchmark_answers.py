"""The search answers pinned in bench/expected.json, checked in the test suite.

The benchmark asserts these optima after timing them; checking them here too
means a wrong answer from either search fails the tests, not only a benchmark
run.  The pinned file is read, never written.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from bfdesign import optimal_calibrate, simon_search
from bfdesign.config import load_config

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((REPO_ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
N_MAX = 120
REL_TOL = 1e-9
ABS_TOL = 1e-12


def assert_matches(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key, expected in want.items():
        if isinstance(expected, float):
            assert math.isclose(got[key], expected, rel_tol=REL_TOL, abs_tol=ABS_TOL), key
        else:
            assert got[key] == expected, key


def load(name: str):
    return load_config(str(REPO_ROOT / "configs" / f"{name}.cfg"))


@pytest.mark.parametrize("name", sorted(EXPECTED["search"]))
def test_optimal_design_at_n_max_120(name):
    config = load(name)
    cons = dataclasses.replace(config.constraints(), n_max=N_MAX)
    best = optimal_calibrate(
        cons,
        config.k,
        config.k_f,
        config.hypotheses(),
        config.analysis_prior(),
        config.power_prior,
    )
    assert best is not None
    got = {
        "n1": best.design.n1,
        "n2": best.design.n2,
        "objective": best.objective,
        "power": best.oc.power_adjusted,
        "type_i": best.oc.type_i_adjusted,
    }
    assert_matches(got, EXPECTED["search"][name])


@pytest.mark.parametrize("name", sorted(EXPECTED["simon"]))
def test_simon_designs_at_n_max_120(name):
    config = load(name)
    found = simon_search(
        config.p0, config.power_prior.p, config.alpha, config.beta, N_MAX
    )
    assert found is not None
    for label, design in zip(("optimal", "minimax"), found):
        got = {
            "r1": design.r1,
            "n1": design.n1,
            "r": design.r,
            "n2": design.n2,
            "type_i": design.alpha_attained,
            "power": design.power_attained,
            "en_h0": design.e_n_h0,
        }
        assert_matches(got, EXPECTED["simon"][name][label])
