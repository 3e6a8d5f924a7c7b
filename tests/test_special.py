"""Special-function layer: exact values, oracle cross-checks, properties.

The kernel `log_beta_integrals(a, b, l, u, n)` is log J(s), the integral of
p^(a+s-1) (1-p)^(b+n-s-1) over [l, u] for s = 0..n; at n = 0 it is the log
normalizer of Beta(a, b) truncated to [l, u], so a Beta mass on [l, u] is
exp(J - ln B(a, b)).
"""

import ast
import math
import os
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate

import bfdesign
from bfdesign import special
from bfdesign.priors import TruncatedBeta
from bfdesign.special import (
    log_beta,
    log_beta_integrals,
    log_binom_coeff_vector,
    log_binom_pmf_vector,
    log_factorials,
)


def mp_log_integral(a, b, l, u):
    """40-digit log of the integral of p^(a-1) (1-p)^(b-1) over [0, u] or [l, 1].

    An upper tail is taken as the lower tail of Beta(b, a) on [0, 1 - l].
    """
    with mpmath.workdps(40):
        if l == 0.0:
            return float(mpmath.log(mpmath.betainc(a, b, 0, u)))
        return float(mpmath.log(mpmath.betainc(b, a, 0, 1 - mpmath.mpf(l))))


def log_integral(a, b, l, u):
    return float(log_beta_integrals(a, b, l, u, 0)[0])


def test_log_beta_trivial_values():
    assert TruncatedBeta(1, 1).log_norm == 0.0
    assert math.isclose(TruncatedBeta(1, 2).log_norm, math.log(0.5), rel_tol=1e-15)


def test_log_beta_against_high_precision():
    # ln B(10.33, 15) from a 40-digit log-gamma evaluation
    value = TruncatedBeta(10.33, 15).log_norm
    assert math.isclose(value, -17.10073839610954654715748, rel_tol=1e-13)
    # both sides of the switch to Stirling's series at 17, and shapes whose
    # log-gammas would cancel to nothing if differenced
    with mpmath.workdps(40):
        for a, b in [(16.9, 17.1), (17.0, 40.0), (0.5, 3000.0), (3000.0, 20.0), (2.0, 1e12)]:
            want = float(mpmath.log(mpmath.beta(a, b)))
            assert math.isclose(log_beta(a, b), want, rel_tol=1e-14), (a, b)


def test_log_factorials_against_high_precision():
    table = log_factorials(3000)
    assert table[0] == 0.0 and table[1] == 0.0
    with mpmath.workdps(40):
        for y in list(range(40)) + [100, 169, 170, 171, 172, 1000, 2999, 3000]:
            want = float(mpmath.loggamma(y + 1))
            assert math.isclose(table[y], want, rel_tol=1e-15), y
    assert np.array_equal(log_factorials(10), table[:11])


def per_size_log_factorials(n):
    """log y! for y = 0..n, built afresh for this one n: exact up to 170!,
    Stirling's series for log Gamma(x) at x = y + 1 above."""
    exact = np.log([float(math.factorial(y)) for y in range(171)])
    if n < exact.size:
        return exact[: n + 1].copy()
    x = np.arange(exact.size + 1.0, n + 2.0)
    r2 = 1.0 / (x * x)
    coeffs = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
    series = coeffs[-1]
    for c in coeffs[-2::-1]:
        series = c + r2 * series
    tail = (x - 0.5) * np.log(x) - x + 0.5 * math.log(2.0 * math.pi) + series / x
    return np.concatenate((exact, tail))


def test_log_factorial_table_matches_per_size_build_bit_for_bit():
    table = special._LOG_FACT
    for n in list(range(3001)) + [3001, 4000, 6000]:
        got = log_factorials(n)
        assert np.array_equal(got, per_size_log_factorials(n)), n
        assert not got.flags.writeable, n
    with pytest.raises(ValueError):
        log_factorials(10)[3] = 0.0
    with pytest.raises(ValueError):
        log_factorials(4000)[3500] = 0.0
    # extending past the table leaves the table itself alone
    log_factorials(6000)
    assert special._LOG_FACT is table and table.size == 3001
    assert not table.flags.writeable


def test_negative_sizes_are_refused():
    with pytest.raises(ValueError, match="n=-5"):
        log_factorials(-5)
    with pytest.raises(ValueError, match="n=-3"):
        log_binom_coeff_vector(-3)


def test_reg_inc_beta_endpoints_and_uniform():
    assert log_integral(3.2, 4.5, 0.0, 1.0) == log_beta(3.2, 4.5)
    assert math.isclose(math.exp(log_integral(1, 1, 0.0, 0.5)), 0.5, rel_tol=1e-15)
    assert math.isclose(math.exp(log_integral(1, 1, 0.25, 1.0)), 0.75, rel_tol=1e-15)


def test_reg_inc_beta_against_quadrature():
    # independent adaptive-quadrature oracle for the Beta(2, 3) integral on [0, 0.2]
    raw, _ = integrate.quad(lambda t: t * (1 - t) ** 2, 0.0, 0.2)
    oracle = raw / (math.gamma(2) * math.gamma(3) / math.gamma(5))
    assert math.isclose(oracle, 0.1808, rel_tol=1e-10)
    assert math.isclose(math.exp(log_integral(2, 3, 0.0, 0.2)), raw, rel_tol=1e-12)


def test_reg_inc_beta_nondecreasing_in_x():
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 1.0, 1000)[1:]
    for _ in range(25):
        a = rng.uniform(1e-3, 50.0)
        b = rng.uniform(1e-3, 50.0)
        values = np.exp([log_integral(a, b, 0.0, x) - log_beta(a, b) for x in grid])
        assert np.all(np.diff(values) >= -1e-15)


def test_log_binom_coeff():
    assert math.isclose(log_binom_coeff_vector(10)[3], math.log(120), rel_tol=1e-14)
    assert log_binom_coeff_vector(7)[0] == pytest.approx(0.0, abs=1e-12)


def test_trunc_beta_mass_matches_cdf_difference():
    cases = [(2.0, 3.0, 0.7, 1.0), (5.5, 1.2, 0.0, 0.4), (1.0, 1.0, 0.25, 1.0)]
    for a, b, l, u in cases:
        direct = math.exp(log_integral(a, b, 0.0, u))
        if l > 0.0:
            direct -= math.exp(log_integral(a, b, 0.0, l))
        assert math.isclose(math.exp(log_integral(a, b, l, u)), direct, rel_tol=1e-12)


def test_trunc_beta_mass_upper_tail_avoids_cancellation():
    # the integral of (1-p)^200 over [0.1, 1] is 0.9^201 / 201, far below
    # cdf-difference accuracy; the vector reaches it at s = 0 of n = 200
    exact = 201 * math.log(0.9) - math.log(201)
    assert math.isclose(log_integral(1.0, 201.0, 0.1, 1.0), exact, rel_tol=1e-12)
    assert math.isclose(log_beta_integrals(1.0, 1.0, 0.1, 1.0, 200)[0], exact, rel_tol=1e-12)


def test_log_trunc_beta_mass_survives_double_underflow():
    # the integral of (1-p)^5000 over [0.3, 1] is 0.7^5001 / 5001 ~ 1e-778
    exact = 5001 * math.log(0.7) - math.log(5001)
    assert math.isclose(log_integral(1.0, 5001.0, 0.3, 1.0), exact, rel_tol=1e-10)
    assert math.isclose(log_beta_integrals(1.0, 1.0, 0.3, 1.0, 5000)[0], exact, rel_tol=1e-10)


@pytest.mark.parametrize(
    "a, b, l, u",
    [
        (1600.0, 160.0, 0.0, 0.5),  # below the mean, mass ~ 1e-300
        (160.0, 1600.0, 0.5, 1.0),  # above the mean, mass ~ 1e-300
        (1.5, 4000.0, 0.2, 1.0),  # above the mean, mass ~ 1e-390
        (4000.0, 1.5, 0.0, 0.8),  # below the mean, mass ~ 1e-390
        (2.0, 3.0, 0.0, 0.15),  # below the mean
        (2.0, 3.0, 0.8, 1.0),  # above the mean
    ],
)
def test_tail_against_high_precision(a, b, l, u):
    oracle = mp_log_integral(a, b, l, u)
    assert math.isclose(log_integral(a, b, l, u), oracle, rel_tol=1e-12)
    # the same integral as an inner entry of a vector: shapes (a - s, b - n + s)
    s, t = int(a) // 2, int(b) // 2
    vector = log_beta_integrals(a - s, b - t, l, u, s + t)
    assert math.isclose(vector[s], oracle, rel_tol=1e-12)


@pytest.mark.parametrize(
    "a, b, l, u, n",
    [
        (1e-15, 1e-15, 0.2, 0.7, 20),  # both tails hold a spike outside [l, u]
        (1600.0, 160.0, 0.5 - 1e-13, 0.5, 0),  # the two tails agree to ~10 digits
        (2.0, 3.0, 0.1, 0.7, 5),
    ],
)
def test_interior_interval_refused_by_name(a, b, l, u, n):
    # an interior mass is a difference of two tails that may keep no digits
    named = re.escape(f"[{l}, {u}]")
    with pytest.raises(ValueError, match=named):
        log_beta_integrals(a, b, l, u, n)
    with pytest.raises(ValueError, match=named):
        TruncatedBeta(a, b, l, u)


# runs of sizes: from 1, across the exact-factorial edge at 170/171, across
# the end of the log-factorial table at 3000, a lone size as a one-row
# block, and gaps between sizes
BLOCKS = [
    range(1, 17),
    range(160, 182),
    range(2985, 3001),
    range(2995, 3006),
    [1200],
    [3, 40, 41, 129],
    [1000, 1200, 2950],
]


def assert_rows_keep_their_bits(rows, sizes, one_size):
    """Row i is one_size(sizes[i]) bit for bit, then -inf to the block's end."""
    assert rows.shape == (len(sizes), sizes[-1] + 1)
    for row, n in zip(rows, sizes):
        assert np.array_equal(row[: n + 1], one_size(n)), n
        assert (row[n + 1 :] == -np.inf).all(), n


@pytest.mark.parametrize(
    "a, b, l, u",
    [
        (1.0, 1.0, 0.0, 0.1),
        (1.0, 1.0, 0.1, 1.0),
        (2.0, 20.0, 0.0, 0.01),
        (20.0, 2.0, 0.99, 1.0),
        (0.5, 0.5, 0.0, 0.3),
        (1e-3, 2.0, 0.0, 0.5),
        (4.0, 1e-3, 0.5, 1.0),
        (10.33, 15.0, 0.2, 1.0),
        (1.0, 1.0, 0.0, 1.0),
    ],
)
def test_kernel_blocks_keep_the_bits_of_each_size(a, b, l, u):
    for block in BLOCKS:
        sizes = np.array(block)
        rows = log_beta_integrals(a, b, l, u, sizes)
        assert_rows_keep_their_bits(rows, sizes, lambda n: log_beta_integrals(a, b, l, u, n))


def test_binomial_blocks_keep_the_bits_of_each_size():
    for block in BLOCKS + [[0, 1, 2]]:
        sizes = np.array(block)
        rows = log_binom_coeff_vector(sizes)
        assert_rows_keep_their_bits(rows, sizes, log_binom_coeff_vector)
        for p in (0.0, 1e-3, 0.3, 0.999, 1.0):
            rows = log_binom_pmf_vector(sizes, p)
            assert_rows_keep_their_bits(rows, sizes, lambda n: log_binom_pmf_vector(n, p))


def test_lower_tail_refuses_unconverged_fraction(monkeypatch):
    monkeypatch.setattr(special, "_MAX_ITER", 2)
    with pytest.raises(ArithmeticError):
        log_beta_integrals(1000.0, 1000.0, 0.0, 0.45, 0)
    with pytest.raises(ArithmeticError):
        log_beta_integrals(1000.0, 1000.0, 0.55, 1.0, 3)


@pytest.mark.parametrize("module", ["mpmath", "scipy"])
def test_import_does_not_load_mpmath(module):
    src = os.path.dirname(os.path.dirname(bfdesign.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, bfdesign; print({module!r} in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_no_module_imports_scipy():
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
    assert importers == set()


def test_nothing_is_cached():
    # every route from the kernel builds fresh arrays (the design grid is the
    # one per-size store), so no module memoizes anything or imports functools
    package = os.path.dirname(bfdesign.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(name, a.name) for a in node.names if a.name == "functools"]
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                found.append((name, "functools"))
            elif getattr(node, "id", getattr(node, "attr", None)) in (
                "lru_cache", "cache", "cached_property"
            ):
                found.append((name, ast.unparse(node)))
    assert found == []
