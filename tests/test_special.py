"""Special-function layer: exact values, oracle cross-checks, properties.

A regularized incomplete beta value I_x(a, b) is the mass of Beta(a, b) on
[0, x], and ln B(a, b) is the log normalizer of an untruncated Beta prior;
the tests reach both through the functions that compute them.
"""

import ast
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate

import bfdesign
from bfdesign import special
from bfdesign.predictive import _log_norm
from bfdesign.priors import TruncatedBeta
from bfdesign.special import log_binom_coeff_vector, log_trunc_beta_mass, trunc_beta_mass


def mp_log_mass(a, b, l, u):
    """40-digit log Beta(a, b) mass on [l, u] and the share I_l / I_u it cancels.

    Both are taken from lower tails on the side of the mean where [l, u]
    lies, reflecting Beta(a, b) on [l, u] to Beta(b, a) on [1 - u, 1 - l].
    """
    with mpmath.workdps(40):
        if l > a / (a + b):
            a, b, l, u = b, a, 1 - mpmath.mpf(u), 1 - mpmath.mpf(l)
        lower = mpmath.betainc(a, b, 0, l, regularized=True)
        upper = mpmath.betainc(a, b, 0, u, regularized=True)
        return float(mpmath.log(upper - lower)), float(lower / upper)


def test_log_beta_trivial_values():
    assert _log_norm(TruncatedBeta(1, 1)) == 0.0
    assert math.isclose(_log_norm(TruncatedBeta(1, 2)), math.log(0.5), rel_tol=1e-15)


def test_log_beta_against_high_precision():
    # ln B(10.33, 15) from a 40-digit log-gamma evaluation
    value = _log_norm(TruncatedBeta(10.33, 15))
    assert math.isclose(value, -17.10073839610954654715748, rel_tol=1e-13)


def test_reg_inc_beta_endpoints_and_uniform():
    assert trunc_beta_mass(3.2, 4.5, 0.0, 0.0) == 0.0
    assert trunc_beta_mass(3.2, 4.5, 0.0, 1.0) == 1.0
    assert math.isclose(trunc_beta_mass(1, 1, 0.0, 0.5), 0.5, rel_tol=1e-15)


def test_reg_inc_beta_against_quadrature():
    # independent adaptive-quadrature oracle for the Beta(2, 3) cdf at 0.2
    raw, _ = integrate.quad(lambda t: t * (1 - t) ** 2, 0.0, 0.2)
    oracle = raw / (math.gamma(2) * math.gamma(3) / math.gamma(5))
    assert math.isclose(oracle, 0.1808, rel_tol=1e-10)
    assert math.isclose(trunc_beta_mass(2, 3, 0.0, 0.2), oracle, rel_tol=1e-12)


def test_reg_inc_beta_nondecreasing_in_x():
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 1.0, 1000)
    for _ in range(25):
        a = rng.uniform(1e-3, 50.0)
        b = rng.uniform(1e-3, 50.0)
        values = np.array([trunc_beta_mass(a, b, 0.0, x) for x in grid])
        assert np.all(np.diff(values) >= -1e-15)


def test_log_binom_coeff():
    assert math.isclose(log_binom_coeff_vector(10)[3], math.log(120), rel_tol=1e-14)
    assert log_binom_coeff_vector(7)[0] == pytest.approx(0.0, abs=1e-12)


def test_trunc_beta_mass_matches_cdf_difference():
    cases = [(2.0, 3.0, 0.1, 0.7), (5.5, 1.2, 0.0, 0.4), (1.0, 1.0, 0.25, 1.0)]
    for a, b, l, u in cases:
        direct = trunc_beta_mass(a, b, 0.0, u) - trunc_beta_mass(a, b, 0.0, l)
        assert math.isclose(trunc_beta_mass(a, b, l, u), direct, rel_tol=1e-12)


def test_trunc_beta_mass_upper_tail_avoids_cancellation():
    # mass of Beta(1, 201) on [0.1, 1] is 0.9^201, far below cdf-difference accuracy
    exact = 201 * math.log(0.9)
    assert math.isclose(log_trunc_beta_mass(1.0, 201.0, 0.1, 1.0), exact, rel_tol=1e-12)


def test_log_trunc_beta_mass_survives_double_underflow():
    # Beta(1, 5001) mass on [0.3, 1] is 0.7^5001 ~ 1e-775: underflows a double
    exact = 5001 * math.log(0.7)
    assert math.isclose(log_trunc_beta_mass(1.0, 5001.0, 0.3, 1.0), exact, rel_tol=1e-10)


@pytest.mark.parametrize(
    "a, b, l, u",
    [
        (2.0, 3.0, 0.05, 0.15),  # below the mean, double path
        (2.0, 3.0, 0.8, 0.95),  # above the mean, double path
        (1600.0, 160.0, 0.3, 0.5),  # below the mean, mass ~ 1e-300
        (160.0, 1600.0, 0.5, 0.7),  # above the mean, mass ~ 1e-300
        (1.5, 4000.0, 0.2, 0.3),  # above the mean, mass ~ 1e-390
        (4000.0, 1.5, 0.05, 0.8),  # below the mean, mass ~ 1e-390
        (1600.0, 160.0, 0.4996, 0.5),  # below the mean, I_l / I_u ~ 0.32, ~ 1e-299
        (5.0, 5000.0, 0.15, 0.1502),  # above the mean, I_l / I_u ~ 0.31, ~ 1e-343
    ],
)
def test_interior_interval_against_high_precision(a, b, l, u):
    oracle, cancelled = mp_log_mass(a, b, l, u)
    assert cancelled <= 0.5
    assert math.isclose(log_trunc_beta_mass(a, b, l, u), oracle, rel_tol=1e-12)


def test_vector_entries_equal_scalar_calls():
    a = np.array([1.0, 30.0, 400.0, 2500.0])
    b = np.array([2500.0, 400.0, 30.0, 1.0])
    for l, u in ((0.0, 0.1), (0.9, 1.0), (0.2, 0.6)):
        vector = log_trunc_beta_mass(a, b, l, u)
        assert np.isneginf(vector).sum() == 0
        for i in range(a.size):
            assert log_trunc_beta_mass(a[i], b[i], l, u) == vector[i]


def test_lower_tail_refuses_slow_regime():
    # x = 0.9 lies above (a+1)/(a+b+2) = 3/7: the fraction is not used there
    with pytest.raises(ArithmeticError):
        special._log_lower_tail(np.array([2.0, 2.0]), np.array([3.0, 3.0]), [0.1, 0.9])
    with pytest.raises(ArithmeticError):
        special._log_lower_tail(np.array([float("nan")]), np.array([3.0]), 0.1)


def test_lower_tail_refuses_unconverged_fraction(monkeypatch):
    monkeypatch.setattr(special, "_MAX_ITER", 2)
    with pytest.raises(ArithmeticError):
        special._log_lower_tail(np.array([1000.0]), np.array([1000.0]), 0.45)


def test_import_does_not_load_mpmath():
    src = os.path.dirname(os.path.dirname(bfdesign.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, bfdesign; print('mpmath' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_only_special_imports_scipy():
    package = os.path.dirname(bfdesign.__file__)
    importers = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                importers.add(name)
    assert importers == {"special.py"}


def test_only_the_kernel_is_cached():
    # the design grid is the one per-size store of everything derived from
    # the kernel, so lru_cache memoizes the kernel and nothing above it
    package = os.path.dirname(bfdesign.__file__)
    cached = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        uses = [
            node
            for node in ast.walk(tree)
            if getattr(node, "id", None) == "lru_cache"
            or getattr(node, "attr", None) == "lru_cache"
        ]
        decorated = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            for decorator in node.decorator_list
            if ast.unparse(getattr(decorator, "func", decorator)).endswith("lru_cache")
        ]
        # every use is a decorator on a named function
        assert len(uses) == len(decorated), name
        cached += [(name, function) for function in decorated]
    assert sorted(cached) == [
        ("predictive.py", "_log_norm"),
        ("predictive.py", "log_predictive_vector"),
    ]
