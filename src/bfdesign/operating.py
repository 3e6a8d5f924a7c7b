"""Exact operating characteristics of the two-stage Bayes factor design.

A trial of final size n2 makes one interim look after n1 outcomes.  At the
interim the trial stops when BF01 exceeds the futility threshold k_f; it is
never stopped early for efficacy.  At the final analysis H0 is rejected when
BF01 falls below the evidence threshold k.

Each look branches three ways: efficacy (BF01 < k), indecisive and futility
(BF01 > k_f).  BF01 decreases in the success count, so each branch is a
slice of the predictive pmf at the look's size, cut at the critical counts
y_eff and y_fut; `split_branches` is the one place that cuts.  The efficacy
mass at n2 is the single-look rejection rate, and the futility mass at n1 is
the stop probability (the PCE under a point prior at p0).

Computed without an interim look, the rejection probability at n2 counts
sample paths that would in fact have been halted at n1.  The correction
subtracts the erased mass: the joint probability of {stop for futility at
n1} and {final BF below k had the trial continued}, that is of
{Y1 <= y_fut(n1)} and {S >= y_eff(n2)} for the interim count Y1 and the pooled
count S at n2.  Both batches share one latent success probability, so given
S = s the interim count is hypergeometric (n2, s, n1) whatever the design
prior, and

    erased(n1) = sum_{s >= y_eff(n2)} P(S = s) * P(Y1 <= y_fut(n1) | S = s).

One predictive vector at n2 and one log-factorial table therefore serve every
interim size of a final size at once (`erased_mass_column`), and the closed
form never builds the two-batch joint table.  That table is the oracle's
alone: an exhaustive enumeration of all its (y1, y2) cells, classifying each
by direct Bayes factor comparisons and never touching critical values,
serves as an independent check of the same quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .bayesfactor import (
    AnalysisPrior,
    Hypotheses,
    check_thresholds,
    critical_efficacy,
    critical_futility,
    log_bf01_curve,
)
from .predictive import joint_predictive_matrix, predictive_vector
from .priors import DesignPrior, PointMass
from .special import log_factorials

# Adjusted rates may dip this far below zero from rounding; anything worse
# indicates inconsistent critical values and raises.
_NEGATIVITY_TOL = 1e-12


class BranchProbabilities(NamedTuple):
    """Interim-analysis outcome probabilities (sum to 1)."""

    efficacy: float
    indecisive: float
    futility: float


@dataclass(frozen=True)
class TwoStageDesign:
    """Interim/final sample sizes with evidence and futility thresholds."""

    n1: int
    n2: int
    k: float
    k_f: float

    def __post_init__(self) -> None:
        if not 1 <= self.n1 < self.n2:
            raise ValueError(f"need 1 <= n1 < n2, got n1={self.n1}, n2={self.n2}")
        check_thresholds(self.k, self.k_f)


@dataclass(frozen=True)
class PathProbabilities:
    """Rates of one design under a single design prior.

    unadjusted is the single-look rejection mass at n2, futility_erased its
    part on paths stopped at the interim, and adjusted what is left.
    branches are the interim outcome masses; their futility branch is the
    stop probability behind expected_n, the expected enrolled size.
    """

    unadjusted: float
    futility_erased: float
    adjusted: float
    expected_n: float
    branches: BranchProbabilities


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Every figure of merit of a two-stage design.

    The type-I side is evaluated under the null design prior, the power side
    under the alternative design prior.  pce_p0 is the probability of
    compelling evidence for H0 at the interim, always under a point prior at
    p0 regardless of the null prior used for the error rate.
    """

    type_i_unadjusted: float
    type_i_adjusted: float
    power_unadjusted: float
    power_adjusted: float
    futility_erased_power: float
    futility_erased_type_i: float
    pce_p0: float
    e_n_h0: float
    e_n_h1: float
    branch_h0: BranchProbabilities
    branch_h1: BranchProbabilities


def erased_mass_column(
    n1: Sequence[int],
    y_fut: Sequence[Optional[int]],
    n2: int,
    y_eff: Optional[int],
    prior: DesignPrior,
) -> np.ndarray:
    """Erased mass of every interim size n1[i] at one final size n2.

    y_fut[i] is the futility critical count at n1[i] and y_eff the efficacy
    critical count at n2; None marks an unreachable threshold, which erases
    nothing.  The hypergeometric cdf of Y1 given the pooled count s is built
    one y1 at a time in log space from a log-factorial table, as an
    (interim size, s) array, and then weighted by the predictive pmf at n2.
    Each entry depends only on its own n1, so a design gives the same bits
    alone as inside its column.
    """
    n1 = np.asarray(n1, dtype=np.int64)
    y_fut = np.array([-1 if y is None else y for y in y_fut], dtype=np.int64)
    if np.any(n1 < 1) or np.any(n1 >= n2):
        raise ValueError(f"need 1 <= n1 < n2 = {n2} for every interim size")
    if y_eff is None or y_fut.size == 0 or y_fut.max() < 0:
        return np.zeros(n1.shape)
    log_fact = log_factorials(n2)
    m = n2 - n1
    m_max = int(m.max())
    s = np.arange(y_eff, n2 + 1)
    log_total = log_fact[n2] - log_fact[s] - log_fact[n2 - s]
    log_n1 = log_fact[n1]
    log_m = log_fact[m][:, None]
    cdf = np.zeros((n1.size, s.size))
    for y1 in range(int(y_fut.max()) + 1):
        # pooled counts s with 0 <= s - y1 <= m for some interim size
        lo = max(y1 - y_eff, 0)
        hi = min(y1 + m_max - y_eff, s.size - 1)
        if lo > hi:
            continue
        y2 = s[lo : hi + 1] - y1
        live = (y_fut >= y1)[:, None] & (y2[None, :] <= m[:, None])
        rest = np.maximum(m[:, None] - y2[None, :], 0)
        interim = np.maximum(n1 - y1, 0)
        log_pmf = (
            (log_n1 - log_fact[y1] - log_fact[interim])[:, None]
            + (log_m - log_fact[y2][None, :] - log_fact[rest])
            - log_total[None, lo : hi + 1]
        )
        cdf[:, lo : hi + 1] += np.exp(np.where(live, log_pmf, -np.inf))
    return (cdf * predictive_vector(prior, n2)[y_eff:]).sum(axis=1)


def futility_erased(
    n1: int,
    n2: int,
    k: float,
    k_f: float,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    prior: DesignPrior,
) -> float:
    """Joint probability of an interim futility stop and a final BF below k.

    This is the rejection mass erased by allowing the futility stop: paths
    the single-look computation counts but the two-stage trial never walks.
    It is the one-n1 case of `erased_mass_column`, so a single design and a
    whole column share one route.  Zero whenever either critical value is
    unreachable.
    """
    y_fut = critical_futility(n1, k_f, hyp, ap)
    y_eff = critical_efficacy(n2, k, hyp, ap)
    return float(erased_mass_column([n1], [y_fut], n2, y_eff, prior)[0])


def checked_adjusted(unadjusted: float, erased: float | np.ndarray) -> np.ndarray:
    """unadjusted - erased, clipped at zero after the negativity check.

    Works elementwise on a whole column; a dip below zero larger than
    rounding means inconsistent critical values and raises.
    """
    value = unadjusted - erased
    if np.any(value < -_NEGATIVITY_TOL):
        raise ArithmeticError(
            f"adjusted rate {np.min(value)} is negative beyond tolerance; "
            "critical values are inconsistent"
        )
    return np.maximum(value, 0.0)


def expected_size(n1, n2, p_stop):
    """Expected enrolled size given the interim stop probability, elementwise."""
    return n2 - (n2 - n1) * p_stop


def split_branches(
    pmf: np.ndarray, y_eff: Optional[int], y_fut: Optional[int]
) -> BranchProbabilities:
    """Cut a predictive pmf at its critical counts into the three branch masses.

    Efficacy is pmf[y_eff:], futility pmf[:y_fut + 1] and indecisive what
    lies between; None for a critical count leaves that branch empty.
    """
    hi = pmf.size if y_eff is None else y_eff
    lo = 0 if y_fut is None else y_fut + 1
    return BranchProbabilities(
        efficacy=float(pmf[hi:].sum()),
        indecisive=float(pmf[lo:hi].sum()),
        futility=float(pmf[:lo].sum()),
    )


def branch_probabilities(
    n: int, k: float, k_f: float, hyp: Hypotheses, ap: AnalysisPrior, prior: DesignPrior
) -> BranchProbabilities:
    """Predictive mass of the three outcomes of a look after n outcomes.

    efficacy: BF01 < k.  indecisive: k <= BF01 <= k_f.  futility: BF01 > k_f.
    The efficacy mass at the final size is the single-look rejection rate,
    the futility mass at the interim size the stop probability.
    """
    return split_branches(
        predictive_vector(prior, n),
        critical_efficacy(n, k, hyp, ap),
        critical_futility(n, k_f, hyp, ap),
    )


def path_probabilities(
    design: TwoStageDesign, hyp: Hypotheses, ap: AnalysisPrior, prior: DesignPrior
) -> PathProbabilities:
    """All rates of one design under one design prior via the closed form."""
    n1, n2, k, k_f = design.n1, design.n2, design.k, design.k_f
    branches = branch_probabilities(n1, k, k_f, hyp, ap, prior)
    unadj = branch_probabilities(n2, k, k_f, hyp, ap, prior).efficacy
    erased = futility_erased(n1, n2, k, k_f, hyp, ap, prior)
    return PathProbabilities(
        unadjusted=unadj,
        futility_erased=erased,
        adjusted=float(checked_adjusted(unadj, erased)),
        expected_n=expected_size(n1, n2, branches.futility),
        branches=branches,
    )


def _characteristics(
    paths: Callable[..., PathProbabilities],
    design: TwoStageDesign,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    null_prior: Optional[DesignPrior],
) -> OperatingCharacteristics:
    """Operating characteristics from one route's rates under each prior.

    paths is the closed form or the oracle.  The null design prior defaults
    to a point mass at p0, whose interim futility mass is also the PCE.
    """
    point_null = PointMass(hyp.p0)
    if null_prior is None:
        null_prior = point_null
    h0_side = paths(design, hyp, ap, null_prior)
    h1_side = paths(design, hyp, ap, power_prior)
    pce_side = h0_side
    if null_prior != point_null:
        pce_side = paths(design, hyp, ap, point_null)
    return OperatingCharacteristics(
        type_i_unadjusted=h0_side.unadjusted,
        type_i_adjusted=h0_side.adjusted,
        power_unadjusted=h1_side.unadjusted,
        power_adjusted=h1_side.adjusted,
        futility_erased_power=h1_side.futility_erased,
        futility_erased_type_i=h0_side.futility_erased,
        pce_p0=pce_side.branches.futility,
        e_n_h0=h0_side.expected_n,
        e_n_h1=h1_side.expected_n,
        branch_h0=h0_side.branches,
        branch_h1=h1_side.branches,
    )


def evaluate(
    design: TwoStageDesign,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    null_prior: Optional[DesignPrior] = None,
) -> OperatingCharacteristics:
    """Full operating characteristics via the closed-form path.

    The null design prior defaults to a point mass at p0, which makes the
    type-I side a plain frequentist error rate.
    """
    return _characteristics(path_probabilities, design, hyp, ap, power_prior, null_prior)


def enumerate_paths(
    design: TwoStageDesign, hyp: Hypotheses, ap: AnalysisPrior, prior: DesignPrior
) -> PathProbabilities:
    """Rates of one design by brute-force enumeration of all (y1, y2) paths.

    Every cell of the joint predictive table is classified by direct Bayes
    factor comparisons at the interim and final sizes; no critical values and
    no rectangle algebra are involved.  This is the independent oracle the
    closed-form path is tested against.
    """
    n1, n2, k, k_f = design.n1, design.n2, design.k, design.k_f
    m = n2 - n1
    log_bf1 = log_bf01_curve(n1, hyp, ap)
    log_bf2 = log_bf01_curve(n2, hyp, ap)
    joint = joint_predictive_matrix(n1, m, prior)
    log_k, log_kf = math.log(k), math.log(k_f)

    unadjusted = 0.0
    adjusted = 0.0
    erased = 0.0
    branch = {"efficacy": 0.0, "indecisive": 0.0, "futility": 0.0}
    for y1 in range(n1 + 1):
        if log_bf1[y1] < log_k:
            name = "efficacy"
        elif log_bf1[y1] > log_kf:
            name = "futility"
        else:
            name = "indecisive"
        stops = name == "futility"
        branch[name] += float(joint[y1, :].sum())
        for y2 in range(m + 1):
            cell = float(joint[y1, y2])
            if log_bf2[y1 + y2] < log_k:
                unadjusted += cell
                if stops:
                    erased += cell
                else:
                    adjusted += cell
    return PathProbabilities(
        unadjusted=unadjusted,
        futility_erased=erased,
        adjusted=adjusted,
        expected_n=expected_size(n1, n2, branch["futility"]),
        branches=BranchProbabilities(
            branch["efficacy"], branch["indecisive"], branch["futility"]
        ),
    )


def enumerate_oracle(
    design: TwoStageDesign,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    null_prior: Optional[DesignPrior] = None,
) -> OperatingCharacteristics:
    """Full operating characteristics via path enumeration only."""
    return _characteristics(enumerate_paths, design, hyp, ap, power_prior, null_prior)
