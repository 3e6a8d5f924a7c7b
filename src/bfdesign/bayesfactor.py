"""Bayes factors for a binomial success count and their critical values.

The test compares H0: p <= p0 against H1: p > p0.  Each hypothesis carries a
Beta analysis prior truncated to its region, and the Bayes factor BF01 is the
ratio of the two marginal likelihoods of the observed count.  The marginal
likelihood under a region prior is the truncated beta-binomial predictive
pmf, so log BF01 is the difference of two log predictive pmfs from
`predictive`, one per region.  Flat shapes (a = b = 1) on both regions are
the default.

Decision thresholds act on BF01 directly: values below k count as compelling
evidence for H1 (efficacy), values above k_f as compelling evidence for H0
(futility).  Because the marginal likelihood ratio decreases as successes
accumulate, each threshold corresponds to a critical success count, found
by exhaustive scan rather than root-finding so that no monotonicity
assumption is baked in.  `critical_counts` is the one scan: it finds both
counts of every row of a log BF01 block, for one size here and for a block
of sizes in `operating.DesignGrid`.  Its last step, `first_and_last`, turns
decision masks into counts, also for the grid's route under flat analysis
priors, which reads the masks off binomial tails (`operating.flat_decisions`).
Whether a size can stop for futility at all is its value at zero successes,
`log_bf01_at_zero`, found in O(1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .predictive import log_predictive_rows
from .priors import ParameterError, TruncatedBeta, check_interval, check_size
from .special import log_beta_integrals


def check_thresholds(k: Optional[float] = None, k_f: Optional[float] = None) -> None:
    """Require 0 < k < 1 and k_f > 1 (NaN fails both); None skips a threshold."""
    if k is not None:
        check_interval("k", k)
    if k_f is not None and not k_f > 1.0:
        raise ParameterError("k_f", f"must exceed 1, got {k_f}")


@dataclass(frozen=True)
class Hypotheses:
    """One-sided hypotheses H0: p <= p0 versus H1: p > p0."""

    p0: float

    def __post_init__(self) -> None:
        # at or below 2**-54, 1 - p0 rounds to 1, and H1's region [p0, 1] would be [0, 1]
        check_interval("p0", self.p0, 2.0**-54)


@dataclass(frozen=True)
class AnalysisPrior:
    """Pair of truncated Beta priors, one on each hypothesis region.

    h0 must be truncated to exactly [0, p0] and h1 to [p0, 1]; use the
    factories to get that right.
    """

    h0: TruncatedBeta
    h1: TruncatedBeta

    @classmethod
    def flat(cls, p0: float) -> "AnalysisPrior":
        """Flat (a = b = 1) priors on both regions, the default choice."""
        return cls.from_shapes(p0, 1.0, 1.0, 1.0, 1.0)

    @classmethod
    def from_shapes(
        cls, p0: float, a0: float, b0: float, a1: float, b1: float
    ) -> "AnalysisPrior":
        return cls(
            h0=TruncatedBeta(a0, b0, 0.0, p0),
            h1=TruncatedBeta(a1, b1, p0, 1.0),
        )


def _check_regions(hyp: Hypotheses, ap: AnalysisPrior) -> None:
    h0, h1 = ap.h0, ap.h1
    if (h0.l, h0.u, h1.l, h1.u) != (0.0, hyp.p0, hyp.p0, 1.0):
        raise ValueError(
            f"analysis priors must be truncated to [0, {hyp.p0}] and [{hyp.p0}, 1], "
            f"got [{h0.l}, {h0.u}] and [{h1.l}, {h1.u}]"
        )


def log_bf01_curve(n: int, hyp: Hypotheses, ap: AnalysisPrior) -> np.ndarray:
    """log BF01 for every success count y = 0..n."""
    check_size("n", n, 1)
    _check_regions(hyp, ap)
    log_h0, log_h1 = log_predictive_rows((ap.h0, ap.h1), n)
    return log_h0 - log_h1


def log_bf01_at_zero(n: int, ap: AnalysisPrior) -> float:
    """log BF01 of zero successes in n trials in O(1), `log_bf01_curve(n)[0]` to rounding.

    A region's predictive mass of zero successes is its prior's normalizer
    at shapes (a, b + n) over the one at (a, b).  The value never falls as
    n grows: its derivative in n is E0[log(1 - p)] - E1[log(1 - p)], the
    means under each region's prior tilted by (1 - p)^n, and log(1 - p) is
    at least log(1 - p0) on [0, p0] and at most that on [p0, 1].

    A size past the double range, as an integer n_max can be, is taken at
    the largest double, a lower bound that still settles the search's
    futility check.  The value grows like -n log(1 - p0), less terms of
    order shape times log n, so it is least at the smallest p0 `Hypotheses`
    accepts.  At n = 10**400, over every shape corner in {1e-3, 1, 1e5}^4
    that constructs, it is at least 1.99e292 at p0 = nextafter(2**-54, 1),
    1.8e298 at 1e-10 and 1.2e308 at 0.5, and inf at 0.99: each above the
    log of the largest double, so above log k_f for every finite k_f.  At
    k_f = inf no size can stop, and None is the exact answer.  The search
    calls it with a size and regions it has checked.
    """
    n = min(n, sys.float_info.max)
    h0, h1 = (log_beta_integrals(r.a, r.b + n, r.l, r.u, 0)[0] - r.log_norm for r in (ap.h0, ap.h1))
    return float(h0 - h1)


def bf01(y_s: int, n: int, hyp: Hypotheses, ap: AnalysisPrior) -> float:
    """Bayes factor BF01 of y_s successes in n trials (H0 over H1).

    math.inf when log BF01 lies beyond the double range (about 709.8), as
    for no successes in thousands of trials at p0 = 0.5; `log_bf01_curve`
    keeps the finite log.
    """
    check_size("y_s", y_s, 0, n)
    try:
        return math.exp(log_bf01_curve(n, hyp, ap)[y_s])
    except OverflowError:
        return math.inf


def critical_counts(log_bf: np.ndarray, log_k: float, log_k_f: float) -> tuple[list, list]:
    """Lists (y_eff, y_fut) of the critical counts of each row of a 2-d log BF01 block.

    y_eff is the first count with log BF01 < log_k and y_fut the last with
    log BF01 > log_k_f, None where no count qualifies; NaN, as in the
    padding of a block, matches neither, and so do log_k = -inf and
    log_k_f = inf.
    """
    return first_and_last(log_bf < log_k, log_bf > log_k_f)


def first_and_last(efficacy: np.ndarray, futility: np.ndarray) -> tuple[list, list]:
    """Lists (y_eff, y_fut): each row's first True of efficacy and last True of futility.

    None where a row has no True.  The one step from decision masks to
    critical counts, for the log BF01 block above and for the design grid's
    flat-prior route (`operating.flat_decisions`).
    """
    first = efficacy.argmax(axis=1).tolist()
    last = (futility.shape[1] - 1 - futility[:, ::-1].argmax(axis=1)).tolist()
    y_eff = [y if hit else None for y, hit in zip(first, efficacy.any(axis=1).tolist())]
    y_fut = [y if hit else None for y, hit in zip(last, futility.any(axis=1).tolist())]
    return y_eff, y_fut


def critical_efficacy(
    n: int, k: float, hyp: Hypotheses, ap: AnalysisPrior
) -> Optional[int]:
    """Smallest success count at size n with BF01 < k, or None.

    None means no count up to n can produce evidence for H1 past k.
    """
    check_thresholds(k=k)
    return critical_counts(log_bf01_curve(n, hyp, ap)[None], math.log(k), math.inf)[0][0]


def critical_futility(
    n: int, k_f: float, hyp: Hypotheses, ap: AnalysisPrior
) -> Optional[int]:
    """Largest success count at size n with BF01 > k_f, or None.

    None means even zero successes out of n cannot carry evidence for H0
    past k_f, so a futility stop is impossible at this size.
    """
    check_thresholds(k_f=k_f)
    return critical_counts(log_bf01_curve(n, hyp, ap)[None], -math.inf, math.log(k_f))[1][0]
