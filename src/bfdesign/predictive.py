"""Exact predictive distributions of binomial success counts.

Under a truncated Beta prior the marginal probability of y successes in n
trials has a closed form built from binomial coefficients, beta functions and
incomplete-beta masses:

    P(Y = y) = C(n, y) * B(a+y, b+n-y) * M(a+y, b+n-y) / (B(a, b) * M(a, b))

where M(p, q) is the Beta(p, q) probability mass on the truncation interval
[l, u].  The same kernel, evaluated at the pooled success count, yields the
joint law of the two batch counts of a split sample, because both batches
share one latent success probability.

All evaluation is in log space with a single final exponentiation, so counts
up to a thousand or so stay far from underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betaln

from .priors import DesignPrior, PointMass, TruncatedBeta
from .special import (
    log_beta,
    log_binom_coeff_vector,
    log_binom_pmf_vector,
    log_trunc_beta_mass,
    log_trunc_beta_mass_vector,
)

_CACHE_SIZE = 4096


@dataclass(frozen=True)
class PredictivePmf:
    """Predictive distribution of the success count of one batch.

    mass[y] is the probability of exactly y successes out of n trials.
    """

    n: int
    mass: tuple[float, ...]


@lru_cache(maxsize=_CACHE_SIZE)
def _log_pooled_kernel(prior: TruncatedBeta, n: int) -> np.ndarray:
    """log[B(a+s, b+n-s) * M(a+s, b+n-s)] for pooled success counts s = 0..n."""
    s = np.arange(n + 1, dtype=float)
    a_post = prior.a + s
    b_post = prior.b + n - s
    out = betaln(a_post, b_post) + log_trunc_beta_mass_vector(
        a_post, b_post, prior.l, prior.u
    )
    out.flags.writeable = False
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def _log_norm(prior: TruncatedBeta) -> float:
    return log_beta(prior.a, prior.b) + log_trunc_beta_mass(
        prior.a, prior.b, prior.l, prior.u
    )


@lru_cache(maxsize=_CACHE_SIZE)
def _predictive_vector(prior: DesignPrior, n: int) -> np.ndarray:
    if isinstance(prior, PointMass):
        out = np.exp(log_binom_pmf_vector(n, prior.p))
    else:
        log_mass = (
            log_binom_coeff_vector(n) + _log_pooled_kernel(prior, n) - _log_norm(prior)
        )
        out = np.exp(log_mass)
    out.flags.writeable = False
    return out


def predictive_vector(prior: DesignPrior, n: int) -> np.ndarray:
    """Predictive pmf over y = 0..n as a read-only array (cached)."""
    if n < 1:
        raise ValueError(f"batch size must be at least 1, got n={n}")
    return _predictive_vector(prior, n)


def predictive_distribution(prior: DesignPrior, n: int) -> PredictivePmf:
    """Predictive pmf of the success count of a batch of n trials."""
    return PredictivePmf(n=n, mass=tuple(predictive_vector(prior, n)))


def predictive_pmf(y_s: int, n: int, prior: DesignPrior) -> float:
    """Predictive probability of exactly y_s successes in n trials."""
    if n < 1:
        raise ValueError(f"batch size must be at least 1, got n={n}")
    if y_s < 0 or y_s > n:
        raise ValueError(f"success count out of range: y_s={y_s}, n={n}")
    return float(predictive_vector(prior, n)[y_s])


def joint_predictive_matrix(n1: int, m: int, prior: DesignPrior) -> np.ndarray:
    """Joint pmf of the two batch counts as an (n1+1, m+1) array.

    Entry [y1, y2] is the probability of y1 successes in the first batch of
    n1 trials and y2 in the second batch of m trials, with the success
    probability shared between batches.  Under a point mass the batches are
    independent and the matrix is an outer product of binomial pmfs.  It is
    not cached: only the path oracle and the reject-by-branch split of a
    single design need it, and a cache of these matrices would hold far more
    memory than the predictive vectors they are built from.
    """
    if n1 < 1 or m < 1:
        raise ValueError(f"batch sizes must be at least 1, got n1={n1}, m={m}")
    if isinstance(prior, PointMass):
        return np.outer(
            np.exp(log_binom_pmf_vector(n1, prior.p)),
            np.exp(log_binom_pmf_vector(m, prior.p)),
        )
    kernel = _log_pooled_kernel(prior, n1 + m)
    pooled = np.add.outer(np.arange(n1 + 1), np.arange(m + 1))
    log_mass = (
        log_binom_coeff_vector(n1)[:, None]
        + log_binom_coeff_vector(m)[None, :]
        + kernel[pooled]
        - _log_norm(prior)
    )
    return np.exp(log_mass)


def joint_predictive_pmf(y1: int, y2: int, n1: int, m: int, prior: DesignPrior) -> float:
    """Joint predictive probability of batch success counts (y1, y2)."""
    if y1 < 0 or y1 > n1:
        raise ValueError(f"first-batch count out of range: y1={y1}, n1={n1}")
    if y2 < 0 or y2 > m:
        raise ValueError(f"second-batch count out of range: y2={y2}, m={m}")
    return float(joint_predictive_matrix(n1, m, prior)[y1, y2])
