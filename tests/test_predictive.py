"""Predictive pmf layer: frozen oracle values, normalization, marginals."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import beta as beta_dist
from scipy.stats import binom

from bfdesign import (
    AnalysisPrior,
    Hypotheses,
    PointMass,
    TruncatedBeta,
    joint_predictive_matrix,
    predictive_pmf,
    predictive_vector,
)
from bfdesign.bayesfactor import ParameterError, log_bf01_curve
from bfdesign.predictive import log_predictive_rows
from bfdesign.special import log_binom_coeff_vector

FLAT = TruncatedBeta(1, 1, 0.0, 1.0)


def quadrature_predictive(y, n, prior):
    """Independent oracle: numerically integrate Bin(y; n, theta) against the prior."""
    norm = beta_dist.cdf(prior.u, prior.a, prior.b) - beta_dist.cdf(prior.l, prior.a, prior.b)
    value, _ = integrate.quad(
        lambda t: binom.pmf(y, n, t) * beta_dist.pdf(t, prior.a, prior.b) / norm,
        prior.l,
        prior.u,
    )
    return value


def test_uniform_prior_gives_discrete_uniform():
    assert math.isclose(predictive_pmf(2, 4, FLAT), 0.2, rel_tol=1e-14)
    for n in range(1, 101):
        mass = predictive_vector(FLAT, n)
        assert np.allclose(mass, 1.0 / (n + 1), rtol=1e-12, atol=0.0)


def test_point_mass_is_binomial():
    expected = 10 * 0.1 * 0.9**9
    assert math.isclose(predictive_pmf(1, 10, PointMass(0.1)), expected, rel_tol=1e-13)
    assert math.isclose(expected, 0.38742, rel_tol=1e-4)
    mass = predictive_vector(PointMass(0.35), 17)
    assert np.allclose(mass, binom.pmf(np.arange(18), 17, 0.35), rtol=1e-12)


def test_point_mass_degenerate_probabilities():
    assert predictive_pmf(0, 5, PointMass(0.0)) == 1.0
    assert predictive_pmf(3, 5, PointMass(0.0)) == 0.0
    assert predictive_pmf(5, 5, PointMass(1.0)) == 1.0


def test_truncated_prior_against_quadrature():
    prior = TruncatedBeta(7, 15, 0.1, 1.0)
    oracle = quadrature_predictive(3, 10, prior)
    assert math.isclose(oracle, 0.2208145972039371, rel_tol=1e-10)
    assert math.isclose(predictive_pmf(3, 10, prior), oracle, rel_tol=1e-10)


def test_predictive_normalizes_for_all_sizes():
    priors = [
        FLAT,
        TruncatedBeta(7, 15, 0.1, 1.0),
        TruncatedBeta(2.5, 0.8, 0.0, 0.35),
        PointMass(0.2),
    ]
    for prior in priors:
        for n in range(1, 201):
            total = float(predictive_vector(prior, n).sum())
            assert abs(total - 1.0) < 1e-12


def test_predictive_domain_errors():
    with pytest.raises(ValueError):
        predictive_pmf(5, 4, FLAT)
    with pytest.raises(ValueError):
        predictive_pmf(-1, 4, FLAT)
    with pytest.raises(ValueError):
        predictive_pmf(0, 0, FLAT)
    # sizes are counts: a float is refused by name, not by a numpy IndexError
    for prior in (PointMass(0.3), TruncatedBeta(1, 1)):
        for n in (10.5, 10.0):
            with pytest.raises(ParameterError) as err:
                predictive_vector(prior, n)
            assert err.value.name == "n"
    # so are success counts, and counts outside 0..n
    for y_s, n in [(2.0, 10), (2.5, 10), (True, 10), (5, 4), (-1, 4)]:
        with pytest.raises(ParameterError) as err:
            predictive_pmf(y_s, n, PointMass(0.3))
        assert err.value.name == "y_s"
    # and batch sizes below 1
    for n1, m, name in [(0, 3, "n1"), (3, 0, "m")]:
        with pytest.raises(ParameterError) as err:
            joint_predictive_matrix(n1, m, FLAT)
        assert err.value.name == name


@pytest.mark.parametrize(
    "prior",
    [TruncatedBeta(1, b) for b in (1e-15, 1e-13, 1e-10, 1e-8)]
    + [
        TruncatedBeta(1e-15, 0.3, 0.2, 1.0),
        TruncatedBeta(1e-10, 2.0, 0.05, 1.0),
        TruncatedBeta(0.3, 1e-15, 0.0, 0.6),
        TruncatedBeta(1e-15, 1e-15, 0.2, 1.0),
        TruncatedBeta(1e-15, 1e-15, 0.0, 0.7),
    ],
)
def test_tiny_shape_pmf_normalizes(prior):
    # b + n - s rounds b away at s = n (to 0 for b = 1e-15 at n = 29), so
    # the kernel forms each shape with its integer part first; in the last
    # five, nearly all of the untruncated Beta is a spike outside [l, u] that
    # no normalizer may take as a cancelling difference
    assert abs(predictive_vector(prior, 29).sum() - 1.0) < 1e-12


def test_returned_arrays_belong_to_the_caller():
    # every pmf and Bayes factor curve is a fresh array the caller may write into
    hyp, ap = Hypotheses(0.2), AnalysisPrior.flat(0.2)
    for prior in (TruncatedBeta(2, 3, 0.2, 1.0), PointMass(0.4)):
        first = predictive_vector(prior, 30)
        expected = first.copy()
        first[:] = -1.0
        assert np.array_equal(predictive_vector(prior, 30), expected)
    first = log_bf01_curve(30, hyp, ap)
    expected = first.copy()
    first[:] = 0.0
    assert np.array_equal(log_bf01_curve(30, hyp, ap), expected)


def test_joint_flat_hand_value():
    # C(2,1) C(2,1) B(3,3) / B(1,1) = 4/30
    assert math.isclose(
        joint_predictive_matrix(2, 2, FLAT)[1, 1], 4.0 / 30.0, rel_tol=1e-14
    )


def test_joint_point_mass_factorizes():
    prior = PointMass(0.3)
    for y1, y2, n1, m in [(0, 0, 3, 4), (2, 1, 3, 4), (3, 4, 3, 4)]:
        expected = binom.pmf(y1, n1, 0.3) * binom.pmf(y2, m, 0.3)
        assert math.isclose(
            joint_predictive_matrix(n1, m, prior)[y1, y2], expected, rel_tol=1e-12
        )


def test_joint_against_quadrature():
    prior = TruncatedBeta(3, 6, 0.15, 1.0)
    norm = beta_dist.sf(0.15, 3, 6)
    y1, y2, n1, m = 4, 2, 7, 5
    oracle, _ = integrate.quad(
        lambda t: binom.pmf(y1, n1, t)
        * binom.pmf(y2, m, t)
        * beta_dist.pdf(t, 3, 6)
        / norm,
        0.15,
        1.0,
    )
    assert math.isclose(
        joint_predictive_matrix(n1, m, prior)[y1, y2], oracle, rel_tol=1e-10
    )


def test_joint_normalizes_and_marginalizes():
    rng = np.random.default_rng(7)
    priors = [
        FLAT,
        TruncatedBeta(7, 15, 0.1, 1.0),
        TruncatedBeta(1, 1, 0.2, 1.0),
        PointMass(0.1),
    ]
    for prior in priors:
        for _ in range(6):
            n1 = int(rng.integers(1, 40))
            m = int(rng.integers(1, 80))
            joint = joint_predictive_matrix(n1, m, prior)
            assert abs(float(joint.sum()) - 1.0) < 1e-10
            marginal = joint.sum(axis=1)
            single = predictive_vector(prior, n1)
            assert np.allclose(marginal, single, atol=1e-10, rtol=0.0)


def test_joint_domain_errors():
    with pytest.raises(ValueError):
        joint_predictive_matrix(0, 2, FLAT)
    with pytest.raises(ValueError):
        joint_predictive_matrix(2, 0, FLAT)
    with pytest.raises(ValueError):
        joint_predictive_matrix(2, -1, PointMass(0.3))


def test_truncated_beta_validation():
    with pytest.raises(ValueError):
        TruncatedBeta(0.0, 1.0)
    with pytest.raises(ValueError):
        TruncatedBeta(1.0, 1.0, 0.6, 0.4)
    with pytest.raises(ValueError):
        TruncatedBeta(1.0, 1.0, 0.5, 0.5)
    nan = float("nan")
    for p in (1.5, -0.1, nan):
        with pytest.raises(ParameterError) as err:
            PointMass(p)
        assert err.value.name == "p"
    for args in [(nan, 1.0), (1.0, nan), (nan, 1.0, 0.1, 1.0), (1.0, 1.0, nan, 0.5)]:
        with pytest.raises(ValueError):
            TruncatedBeta(*args)
    # shapes above the cap would be answered with pmfs that do not sum to 1:
    # at 1e20 every kernel entry is equal, at 1e8 the totals drift by 2e-7
    # the cap is checked before the normalizer, which would give up after
    # 10,000 continued-fraction steps at 1e15 and overflow at 1.7e308
    for args in [(1e20, 1e20, 0.2, 0.7), (1e8, 2e8, 0.2, 1.0), (1e15, 1e15, 0.5, 1.0),
                 (1.7e308, 1.7e308)]:
        with pytest.raises(ValueError, match="at most 100000"):
            TruncatedBeta(*args)
    # the cap itself is answered
    assert abs(predictive_vector(TruncatedBeta(1e5, 1e5), 3000).sum() - 1.0) < 1e-9


def test_degenerate_truncation_rejected():
    # Beta(400, 1) carries ~1e-970 mass below 0.004: no usable normalization
    with pytest.raises(ValueError):
        TruncatedBeta(400.0, 1.0, 0.0, 0.004)


def test_multi_prior_rows_have_the_bits_of_each_prior_alone():
    # one coefficient block serves every prior of a call: point masses
    # (inside (0, 1) and at its ends), flat and shaped tail priors, each in
    # a one-size call, a one-row block and a multi-row block, repeats too
    priors = (
        PointMass(0.3),
        PointMass(0.0),
        PointMass(1.0),
        FLAT,
        TruncatedBeta(1, 1, 0.0, 0.2),
        TruncatedBeta(2.5, 7.0, 0.0, 0.35),
        TruncatedBeta(0.7, 3.0, 0.35, 1.0),
    )
    for n in (9, np.array([9]), np.array([4, 5, 6, 7]), np.arange(60, 76)):
        together = log_predictive_rows(priors + priors[:2], n)
        assert len(together) == len(priors) + 2
        for prior, rows in zip(priors + priors[:2], together):
            (alone,) = log_predictive_rows((prior,), n)
            assert rows.shape == alone.shape == np.shape(log_binom_coeff_vector(n))
            assert rows.tobytes() == alone.tobytes(), (prior, n)
