"""Exact predictive distributions of binomial success counts.

Under a truncated Beta prior the marginal probability of y successes in n
trials has a closed form built from binomial coefficients, beta functions and
incomplete-beta masses:

    P(Y = y) = C(n, y) * B(a+y, b+n-y) * M(a+y, b+n-y) / (B(a, b) * M(a, b))

where M(p, q) is the Beta(p, q) probability mass on the truncation interval
[l, u].  Under a region prior of the analysis (a Beta truncated to [0, p0]
or [p0, 1]) the same kernel is the marginal likelihood behind the Bayes
factor, so BF01 is the difference of two log predictive pmfs.  The joint law
of the two batch counts of a split sample, `joint_predictive_matrix`, serves
the path oracle in `bfdesign.oracle`.

All evaluation is in log space with a single final exponentiation.  Each
product B(p, q) * M(p, q) is the integral of t^(p-1) (1-t)^(q-1) over
[l, u].  `special.log_beta_integrals` gives its log for every y at once from
one recurrence, so the kernel stays finite and accurate for counts in the
thousands.  The normalizer is the same integral at n = 0, kept on the prior
as `TruncatedBeta.log_norm`.  `log_predictive_rows` tables a block of sizes
in one pass, one left-aligned row per size (see `special`), for every
distinct prior it is given at once: one log binomial coefficient block
serves all their rows, the point masses' through `log_binom_pmf_vector`.
It is the one route from the kernel: a single size is its one-row case, a
single prior its one-prior case, and nothing is cached.
"""

from __future__ import annotations

import numpy as np

from .priors import DesignPrior, PointMass, check_size
from .special import log_beta_integrals, log_binom_coeff_vector, log_binom_pmf_vector


def log_predictive_rows(priors: tuple[DesignPrior, ...], n) -> list[np.ndarray]:
    """Log predictive pmf over y = 0..n under each of priors, in their order.

    n is one size, or a block of sorted distinct sizes: then one row per
    size, left-aligned and -inf past its size.  A prior given twice is built
    once, and every prior's rows have the bits they have alone.
    """
    coeff = log_binom_coeff_vector(n)
    logs = {
        prior: log_binom_pmf_vector(n, prior.p, coeff) if isinstance(prior, PointMass)
        else coeff + log_beta_integrals(prior.a, prior.b, prior.l, prior.u, n) - prior.log_norm
        for prior in set(priors)
    }
    return [logs[prior] for prior in priors]


def predictive_vector(prior: DesignPrior, n: int) -> np.ndarray:
    """Predictive pmf over y = 0..n."""
    check_size("n", n, 1)
    (rows,) = log_predictive_rows((prior,), n)
    return np.exp(rows)


def predictive_pmf(y_s: int, n: int, prior: DesignPrior) -> float:
    """Predictive probability of exactly y_s successes in n trials."""
    check_size("y_s", y_s, 0, n)
    return float(predictive_vector(prior, n)[y_s])


def joint_predictive_matrix(n1: int, m: int, prior: DesignPrior) -> np.ndarray:
    """Joint pmf of the two batch counts as an (n1+1, m+1) array.

    Entry [y1, y2] is the probability of y1 successes in the first batch of
    n1 trials and y2 in the second batch of m trials, with the success
    probability shared between batches.  Under a point mass the batches are
    independent and the matrix is an outer product of binomial pmfs.
    """
    check_size("n1", n1, 1)
    check_size("m", m, 1)
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
