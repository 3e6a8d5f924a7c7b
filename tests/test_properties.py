"""Numerical properties of the kernel over the whole supported range.

Random settings with n up to 3000, p0 in [0.01, 0.99] and non-flat analysis
and design priors: sampled entries of the log kernel match 40-digit mpmath,
every pmf sums to 1, and log BF01 is finite and strictly decreasing in the
success count.  Examples are derandomized so the suite checks the same
settings on every run.
"""

import math

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from bfdesign import AnalysisPrior, Hypotheses, TruncatedBeta, predictive_vector
from bfdesign.bayesfactor import log_bf01_curve
from bfdesign.special import log_beta_integrals

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


def mp_log_integral(a, b, l, u):
    """40-digit log of the integral of p^(a-1) (1-p)^(b-1) over [0, u] or [l, 1].

    Unregularized, so no double log-beta is subtracted: that alone would cost
    about 1e-11 at n = 3000.
    """
    with mpmath.workdps(40):
        if l == 0.0:
            return float(mpmath.log(mpmath.betainc(a, b, 0, u)))
        return float(mpmath.log(mpmath.betainc(b, a, 0, 1 - mpmath.mpf(l))))


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
def test_kernel_matches_high_precision(n, p0, h0, h1, design):
    rng = np.random.default_rng(n)
    for prior in priors(p0, h0, h1, design):
        kernel = log_beta_integrals(prior.a, prior.b, prior.l, prior.u, n)
        for s in rng.permutation(n + 1)[:SAMPLE]:
            want = mp_log_integral(prior.a + s, prior.b + (n - s), prior.l, prior.u)
            assert math.isclose(kernel[s], want, rel_tol=1e-12), (prior, s)


def test_band_where_double_betainc_was_off():
    # masses between 1e-290 and 1e-270 are where a double incomplete beta
    # lost up to 0.38 in the log; 80-digit mpmath gives -653.8735330578011
    log_bf = log_bf01_curve(719, Hypotheses(0.35), AnalysisPrior.flat(0.35))
    assert abs(log_bf[699] - (-653.8735330578011)) < 1e-9


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
