"""Numerical properties of the kernel over the whole supported range.

Random settings with n up to 3000, p0 in [0.01, 0.99] and non-flat analysis
and design priors: the log-space tails that replace underflowed double masses
match 40-digit mpmath, every pmf sums to 1, and log BF01 is finite and
strictly decreasing in the success count.  Examples are derandomized so the
suite checks the same settings on every run.
"""

import math

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from bfdesign import AnalysisPrior, Hypotheses, TruncatedBeta, predictive_vector
from bfdesign.bayesfactor import log_bf01_curve
from bfdesign.special import _UNDERFLOW, log_trunc_beta_mass, trunc_beta_mass

# mpmath comparisons per prior and example
SAMPLE = 50

SHAPE = st.floats(0.2, 30.0)
SHAPES = st.tuples(SHAPE, SHAPE).filter(lambda ab: ab != (1.0, 1.0))
SETTING = dict(
    n=st.integers(1, 3000),
    p0=st.floats(0.01, 0.99),
    h0=SHAPES,
    h1=SHAPES,
    design=SHAPES,
)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def mp_log_mass(a, b, l, u):
    """40-digit log Beta(a, b) mass on [0, u] or [l, 1]."""
    with mpmath.workdps(40):
        if l == 0.0:
            mass = mpmath.betainc(a, b, 0, u, regularized=True)
        else:
            mass = mpmath.betainc(b, a, 0, 1 - mpmath.mpf(l), regularized=True)
        return float(mpmath.log(mass))


def priors(p0, h0, h1, design):
    return [
        TruncatedBeta(*h0, 0.0, p0),
        TruncatedBeta(*h1, p0, 1.0),
        TruncatedBeta(*design, p0, 1.0),
    ]


@PROPERTY
@given(**SETTING)
@example(n=3000, p0=0.01, h0=(2.0, 20.0), h1=(0.5, 2.0), design=(2.0, 10.0))
@example(n=3000, p0=0.99, h0=(20.0, 2.0), h1=(2.0, 0.5), design=(10.0, 1.0))
@example(n=2000, p0=0.5, h0=(3.0, 3.0), h1=(0.2, 30.0), design=(30.0, 0.2))
def test_underflowed_masses_match_high_precision(n, p0, h0, h1, design):
    rng = np.random.default_rng(n)
    s = np.arange(n + 1.0)
    for prior in priors(p0, h0, h1, design):
        a, b = prior.a + s, prior.b + n - s
        # an entry outside the fraction's regime would raise ArithmeticError here
        got = log_trunc_beta_mass(a, b, prior.l, prior.u)
        low = np.flatnonzero(~(trunc_beta_mass(a, b, prior.l, prior.u) > _UNDERFLOW))
        for i in rng.permutation(low)[:SAMPLE]:
            want = mp_log_mass(a[i], b[i], prior.l, prior.u)
            assert math.isclose(got[i], want, rel_tol=1e-12), (prior, i)


@PROPERTY
@given(**SETTING)
@example(n=3000, p0=0.01, h0=(2.0, 20.0), h1=(0.5, 2.0), design=(2.0, 10.0))
@example(n=3000, p0=0.99, h0=(20.0, 2.0), h1=(2.0, 0.5), design=(10.0, 1.0))
def test_pmfs_normalize_and_bf01_decreases(n, p0, h0, h1, design):
    # every log pmf entry shares the term gammaln(n + 1), about 21000 at
    # n = 3000, so its rounding (about 4e-12 there) moves the whole pmf
    tol = 1e-12 + 2 * np.spacing(gammaln(n + 1))
    for prior in priors(p0, h0, h1, design):
        assert abs(float(predictive_vector(prior, n).sum()) - 1.0) < tol
    log_bf = log_bf01_curve(n, Hypotheses(p0), AnalysisPrior.from_shapes(p0, *h0, *h1))
    assert np.all(np.isfinite(log_bf))
    assert np.all(np.diff(log_bf) < 0.0)
