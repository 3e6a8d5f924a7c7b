"""Exact predictive distributions of binomial success counts.

Under a truncated Beta prior the marginal probability of y successes in n
trials has a closed form built from binomial coefficients, beta functions and
incomplete-beta masses:

    P(Y = y) = C(n, y) * B(a+y, b+n-y) * M(a+y, b+n-y) / (B(a, b) * M(a, b))

where M(p, q) is the Beta(p, q) probability mass on the truncation interval
[l, u].  The same kernel serves two further purposes.  Under a region prior
of the analysis (a Beta truncated to [0, p0] or [p0, 1]) it is the marginal
likelihood behind the Bayes factor, so BF01 is the difference of two log
predictive pmfs.  Evaluated at the pooled success count, it yields the joint
law of the two batch counts of a split sample, because both batches share
one latent success probability.

All evaluation is in log space with a single final exponentiation.  Each
product B(p, q) * M(p, q) is the integral of t^(p-1) (1-t)^(q-1) over
[l, u].  `special.log_beta_integrals` gives its log for every y at once from
one recurrence, so the kernel stays finite and accurate for counts in the
thousands.  The normalizer is the same integral at n = 0, kept on the prior
as `TruncatedBeta.log_norm`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .priors import DesignPrior, ParameterError, PointMass, TruncatedBeta, check_size
from .special import log_beta_integrals, log_binom_coeff_vector, log_binom_pmf_vector

_CACHE_SIZE = 4096


@lru_cache(maxsize=_CACHE_SIZE)
def log_predictive_vector(prior: TruncatedBeta, n: int) -> np.ndarray:
    """Log predictive pmf over y = 0..n under a truncated Beta (read-only, cached)."""
    kernel = log_beta_integrals(prior.a, prior.b, prior.l, prior.u, n)
    out = log_binom_coeff_vector(n) + kernel - prior.log_norm
    out.flags.writeable = False
    return out


def predictive_vector(prior: DesignPrior, n: int) -> np.ndarray:
    """Predictive pmf over y = 0..n."""
    check_size("n", n)
    if n < 1:
        raise ParameterError("n", f"must be at least 1, got {n}")
    if isinstance(prior, PointMass):
        return np.exp(log_binom_pmf_vector(n, prior.p))
    return np.exp(log_predictive_vector(prior, n))


def predictive_pmf(y_s: int, n: int, prior: DesignPrior) -> float:
    """Predictive probability of exactly y_s successes in n trials."""
    check_size("y_s", y_s)
    if y_s < 0 or y_s > n:
        raise ValueError(f"success count out of range: y_s={y_s}, n={n}")
    return float(predictive_vector(prior, n)[y_s])


def joint_predictive_matrix(n1: int, m: int, prior: DesignPrior) -> np.ndarray:
    """Joint pmf of the two batch counts as an (n1+1, m+1) array.

    Entry [y1, y2] is the probability of y1 successes in the first batch of
    n1 trials and y2 in the second batch of m trials, with the success
    probability shared between batches.  Under a point mass the batches are
    independent and the matrix is an outer product of binomial pmfs.  It is
    not cached: only the path oracle needs it, and a cache of these matrices
    would hold far more memory than the predictive vectors they are built
    from.
    """
    check_size("n1", n1)
    check_size("m", m)
    if n1 < 1 or m < 1:
        raise ValueError(f"batch sizes must be at least 1, got n1={n1}, m={m}")
    if isinstance(prior, PointMass):
        return np.outer(
            np.exp(log_binom_pmf_vector(n1, prior.p)),
            np.exp(log_binom_pmf_vector(m, prior.p)),
        )
    kernel = log_beta_integrals(prior.a, prior.b, prior.l, prior.u, n1 + m)
    pooled = np.add.outer(np.arange(n1 + 1), np.arange(m + 1))
    log_mass = (
        log_binom_coeff_vector(n1)[:, None]
        + log_binom_coeff_vector(m)[None, :]
        + kernel[pooled]
        - prior.log_norm
    )
    return np.exp(log_mass)
