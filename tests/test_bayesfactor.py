"""Bayes factor layer: marginal likelihoods, symmetry, critical values."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import binom

from bfdesign import (
    AnalysisPrior,
    Hypotheses,
    TruncatedBeta,
    bf01,
    critical_efficacy,
    critical_futility,
    predictive_pmf,
)
from bfdesign.bayesfactor import ParameterError
from bfdesign.operating import DesignGrid


def quadrature_marginal(y, n, prior):
    from scipy.stats import beta as beta_dist

    norm = beta_dist.cdf(prior.u, prior.a, prior.b) - beta_dist.cdf(
        prior.l, prior.a, prior.b
    )
    value, _ = integrate.quad(
        lambda t: binom.pmf(y, n, t) * beta_dist.pdf(t, prior.a, prior.b) / norm,
        prior.l,
        prior.u,
        epsabs=1e-300,
        epsrel=1e-11,
        limit=200,
    )
    return value


def test_marginal_likelihood_flat_single_trial():
    assert math.isclose(
        predictive_pmf(0, 1, TruncatedBeta(1, 1, 0.0, 1.0)), 0.5, rel_tol=1e-14
    )


def test_marginal_likelihood_reflection_symmetry():
    low = predictive_pmf(1, 2, TruncatedBeta(1, 1, 0.0, 0.5))
    high = predictive_pmf(1, 2, TruncatedBeta(1, 1, 0.5, 1.0))
    assert math.isclose(low, high, rel_tol=1e-13)


def test_marginal_likelihood_against_quadrature():
    prior = TruncatedBeta(1, 1, 0.0, 0.2)
    oracle = quadrature_marginal(4, 10, prior)
    assert math.isclose(oracle, 0.02291344290909092, rel_tol=1e-10)
    assert math.isclose(predictive_pmf(4, 10, prior), oracle, rel_tol=1e-10)


def test_bf01_symmetric_at_half():
    hyp = Hypotheses(0.5)
    ap = AnalysisPrior.flat(0.5)
    assert math.isclose(bf01(1, 2, hyp, ap), 1.0, rel_tol=1e-12)
    # reciprocal pairs across the midpoint at even n
    for n in (2, 8, 20, 50, 100, 200):
        for y in range(n + 1):
            product = bf01(y, n, hyp, ap) * bf01(n - y, n, hyp, ap)
            assert abs(product - 1.0) < 1e-10


def test_bf01_against_quadrature_table():
    hyp = Hypotheses(0.2)
    ap = AnalysisPrior.flat(0.2)
    h0 = TruncatedBeta(1, 1, 0.0, 0.2)
    h1 = TruncatedBeta(1, 1, 0.2, 1.0)
    for y in range(38):
        oracle = quadrature_marginal(y, 37, h0) / quadrature_marginal(y, 37, h1)
        assert math.isclose(bf01(y, 37, hyp, ap), oracle, rel_tol=1e-8)


def test_bf01_strictly_decreasing_in_successes():
    from bfdesign.bayesfactor import log_bf01_curve

    for p0 in (0.1, 0.2, 0.3, 0.5):
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        for n in range(1, 201):
            curve = log_bf01_curve(n, hyp, ap)
            assert np.all(np.diff(curve) < 0.0)


def test_bf01_beyond_double_range_is_infinite():
    # no successes in 3000 trials at p0 = 0.5: log BF01 is about 2080, past
    # the largest double, so BF01 is inf while the log stays finite
    from bfdesign.bayesfactor import log_bf01_curve

    hyp = Hypotheses(0.5)
    ap = AnalysisPrior.flat(0.5)
    log_bf = log_bf01_curve(3000, hyp, ap)[0]
    assert math.isfinite(log_bf) and log_bf > math.log(np.finfo(float).max)
    assert bf01(0, 3000, hyp, ap) == math.inf
    assert bf01(3000, 3000, hyp, ap) == 0.0


def test_critical_values_match_brute_force_filter():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p0 = float(rng.choice([0.1, 0.2, 0.3, 0.5]))
        n = int(rng.integers(1, 60))
        k = float(rng.choice([1 / 3, 1 / 10]))
        k_f = float(rng.choice([3.0, 10.0]))
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        below = [y for y in range(n + 1) if bf01(y, n, hyp, ap) < k]
        above = [y for y in range(n + 1) if bf01(y, n, hyp, ap) > k_f]
        assert critical_efficacy(n, k, hyp, ap) == (min(below) if below else None)
        assert critical_futility(n, k_f, hyp, ap) == (max(above) if above else None)
        efficacy = critical_efficacy(n, k, hyp, ap)
        futility = critical_futility(n, k_f, hyp, ap)
        if efficacy is not None and futility is not None:
            assert futility < efficacy


def test_critical_efficacy_absent_for_extreme_threshold():
    hyp = Hypotheses(0.3)
    ap = AnalysisPrior.flat(0.3)
    assert critical_efficacy(10, 1e-12, hyp, ap) is None


def test_critical_futility_absent_for_single_observation():
    hyp = Hypotheses(0.3)
    ap = AnalysisPrior.flat(0.3)
    assert critical_futility(1, 100.0, hyp, ap) is None


def test_interim_critical_count_reproduces_reference_stop_probability():
    # p0 = 0.1, flat priors, k_f = 3, n = 10: largest count still above the
    # futility threshold is 1, so P(stop | p = 0.1) = P(Bin(10, 0.1) <= 1)
    hyp = Hypotheses(0.1)
    ap = AnalysisPrior.flat(0.1)
    assert critical_futility(10, 3.0, hyp, ap) == 1
    assert round(float(binom.cdf(1, 10, 0.1)), 4) == 0.7361


def test_interim_critical_count_second_example():
    # p0 = 0.2, flat priors, k_f = 3, n = 30: stop probability prints as 0.6070
    hyp = Hypotheses(0.2)
    ap = AnalysisPrior.flat(0.2)
    y_fut = critical_futility(30, 3.0, hyp, ap)
    assert y_fut == 6
    assert round(float(binom.cdf(y_fut, 30, 0.2)), 4) == 0.6070


def test_final_critical_count_reference_design():
    # p0 = 0.1, flat priors, k = 1/3, n = 29: the smallest rejecting count is 6
    hyp = Hypotheses(0.1)
    ap = AnalysisPrior.flat(0.1)
    assert critical_efficacy(29, 1 / 3, hyp, ap) == 6


def test_critical_counts_index_rectangle_structure():
    # at p0 = 0.5 with k = 1/10, k_f = 3: interim size 10 stops at counts
    # 0..3 and final size 40 rejects from a total of 25, so the erased cells
    # are columns 0..3 crossed with second-batch counts 25 - y1 .. 30
    hyp = Hypotheses(0.5)
    ap = AnalysisPrior.flat(0.5)
    assert critical_futility(10, 3.0, hyp, ap) == 3
    assert critical_efficacy(40, 1 / 10, hyp, ap) == 25


def test_threshold_preconditions():
    hyp = Hypotheses(0.3)
    ap = AnalysisPrior.flat(0.3)
    with pytest.raises(ValueError):
        critical_efficacy(10, 1.0, hyp, ap)
    with pytest.raises(ValueError):
        critical_futility(10, 1.0, hyp, ap)
    for y_s in (5, -1):
        with pytest.raises(ParameterError) as err:
            bf01(y_s, 4, hyp, ap)
        assert err.value.name == "y_s"
    with pytest.raises(ParameterError) as err:
        bf01(3, 10.0, hyp, ap)
    assert err.value.name == "n"
    with pytest.raises(ParameterError) as err:
        bf01(2.5, 10, Hypotheses(0.1), AnalysisPrior.flat(0.1))
    assert err.value.name == "y_s"


def test_analysis_prior_region_validation():
    hyp = Hypotheses(0.3)
    mismatched = AnalysisPrior(
        h0=TruncatedBeta(1, 1, 0.0, 0.4), h1=TruncatedBeta(1, 1, 0.4, 1.0)
    )
    with pytest.raises(ValueError):
        bf01(1, 4, hyp, mismatched)


def test_hypotheses_validation():
    with pytest.raises(ValueError):
        Hypotheses(0.0)
    with pytest.raises(ValueError):
        Hypotheses(1.0)


# Critical counts at n = 1, 10, 60, 120, 1000, 3000, each row
# (critical_efficacy at k = 1/3, at k = 1/30, critical_futility at k_f = 3,
# at k_f = 30), for analysis shapes (a0, b0, a1, b1); integers only, so a
# kernel change that moves no decision keeps this table.  The design grid
# reads the same counts off its blocks.
PINNED_SIZES = (1, 10, 60, 120, 1000, 3000)
PINNED_COUNTS = {
    (0.01, (1, 1, 1, 1)): [
        (1, 1, None, None), (2, 2, 0, None), (3, 5, 1, 0),
        (5, 6, 3, 1), (19, 22, 15, 11), (46, 50, 40, 33),
    ],
    (0.01, (2, 20, 0.5, 2)): [
        (1, 1, None, None), (1, 2, 0, None), (3, 4, 1, None),
        (4, 6, 2, None), (18, 21, 13, 8), (43, 48, 36, 27),
    ],
    (0.2, (1, 1, 1, 1)): [
        (1, None, None, None), (4, 6, 1, 0), (17, 20, 12, 8),
        (31, 35, 24, 18), (218, 231, 201, 184), (632, 653, 603, 573),
    ],
    (0.2, (2, 20, 0.5, 2)): [
        (1, None, None, None), (3, 5, 1, None), (14, 18, 9, 6),
        (26, 31, 20, 16), (202, 219, 186, 173), (603, 631, 574, 553),
    ],
    (0.5, (1, 1, 1, 1)): [
        (None, None, None, None), (7, 9, 3, 1), (33, 38, 27, 22),
        (64, 71, 56, 49), (511, 530, 489, 470), (1519, 1551, 1481, 1449),
    ],
    (0.5, (2, 20, 0.5, 2)): [
        (1, None, None, None), (4, 6, 2, 1), (23, 26, 20, 18),
        (48, 52, 44, 42), (454, 464, 444, 436), (1414, 1432, 1398, 1384),
    ],
    (0.99, (1, 1, 1, 1)): [
        (None, None, 0, 0), (10, None, 8, 8), (59, 60, 57, 55),
        (117, 119, 115, 114), (985, 989, 981, 978), (2960, 2967, 2954, 2950),
    ],
    (0.99, (2, 20, 0.5, 2)): [
        (1, None, 0, 0), (8, 8, 7, 6), (51, 51, 49, 49),
        (105, 106, 104, 103), (947, 948, 945, 944), (2896, 2898, 2894, 2892),
    ],
}


@pytest.mark.parametrize("p0, shapes", list(PINNED_COUNTS))
def test_pinned_critical_counts(p0, shapes):
    hyp, ap = Hypotheses(p0), AnalysisPrior.from_shapes(p0, *shapes)
    got = [
        (
            critical_efficacy(n, 1 / 3, hyp, ap),
            critical_efficacy(n, 1 / 30, hyp, ap),
            critical_futility(n, 3.0, hyp, ap),
            critical_futility(n, 30.0, hyp, ap),
        )
        for n in PINNED_SIZES
    ]
    assert got == PINNED_COUNTS[(p0, shapes)]
    # each size tabled beside its neighbours, so a row has padding after it
    sizes = sorted({m for n in PINNED_SIZES for m in (n - 1, n, n + 1) if m >= 1})
    strict = DesignGrid(sizes, 1 / 30, 30.0, hyp, ap, ap.h1)
    loose = DesignGrid(sizes, 1 / 3, 3.0, hyp, ap, ap.h1)
    from_grid = [
        (loose.y_eff[n], strict.y_eff[n], loose.y_fut[n], strict.y_fut[n]) for n in PINNED_SIZES
    ]
    assert from_grid == PINNED_COUNTS[(p0, shapes)]
