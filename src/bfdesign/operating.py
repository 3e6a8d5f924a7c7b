"""Exact operating characteristics of the two-stage Bayes factor design.

A trial of final size n2 makes one interim look after n1 outcomes.  At the
interim the trial stops when BF01 exceeds the futility threshold k_f; it is
never stopped early for efficacy.  At the final analysis H0 is rejected when
BF01 falls below the evidence threshold k.

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
interim size of a final size at once (`erased_mass_column`).  An exhaustive
path enumeration over all (y1, y2) outcomes of the two-batch joint pmf,
classifying each cell by direct Bayes factor comparisons and never touching
critical values, serves as an independent oracle for the same quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .bayesfactor import (
    AnalysisPrior,
    Hypotheses,
    critical_efficacy,
    critical_futility,
    log_bf01_curve,
)
from .predictive import joint_predictive_matrix, predictive_vector
from .priors import DesignPrior, PointMass

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
        if not 0.0 < self.k < 1.0:
            raise ValueError(f"evidence threshold must satisfy 0 < k < 1, got {self.k}")
        if self.k_f <= 1.0:
            raise ValueError(f"futility threshold must satisfy k_f > 1, got {self.k_f}")


@dataclass(frozen=True)
class PathProbabilities:
    """Rates of one design under a single design prior.

    reject_by_branch splits the unadjusted rejection mass by interim branch;
    its futility component is exactly the futility-erased mass.
    """

    unadjusted: float
    futility_erased: float
    adjusted: float
    prob_stop: float
    expected_n: float
    branches: BranchProbabilities
    reject_by_branch: BranchProbabilities


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


def prob_futility_stop(
    n1: int, k_f: float, hyp: Hypotheses, ap: AnalysisPrior, prior: DesignPrior
) -> float:
    """Probability of stopping for futility at the interim analysis."""
    y_fut = critical_futility(n1, k_f, hyp, ap)
    if y_fut is None:
        return 0.0
    return float(predictive_vector(prior, n1)[: y_fut + 1].sum())


def unadjusted_rate(
    n2: int, k: float, hyp: Hypotheses, ap: AnalysisPrior, prior: DesignPrior
) -> float:
    """Probability that BF01 at the final size falls below k, ignoring the interim."""
    y_eff = critical_efficacy(n2, k, hyp, ap)
    if y_eff is None:
        return 0.0
    return float(predictive_vector(prior, n2)[y_eff:].sum())


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
    log_fact = gammaln(np.arange(n2 + 1) + 1.0)
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


def adjusted_rate(
    n1: int,
    n2: int,
    k: float,
    k_f: float,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    prior: DesignPrior,
) -> float:
    """Final rejection probability corrected for the interim futility stop."""
    return float(
        checked_adjusted(
            unadjusted_rate(n2, k, hyp, ap, prior),
            futility_erased(n1, n2, k, k_f, hyp, ap, prior),
        )
    )


def expected_n(
    n1: int, n2: int, k_f: float, hyp: Hypotheses, ap: AnalysisPrior, prior: DesignPrior
) -> float:
    """Expected enrolled sample size: n1 on a stop, n2 otherwise."""
    p_stop = prob_futility_stop(n1, k_f, hyp, ap, prior)
    return n2 - (n2 - n1) * p_stop


def branch_probabilities(
    n1: int, k: float, k_f: float, hyp: Hypotheses, ap: AnalysisPrior, prior: DesignPrior
) -> BranchProbabilities:
    """Predictive mass of the three interim outcomes.

    efficacy: BF01 < k.  indecisive: k <= BF01 <= k_f.  futility: BF01 > k_f.
    """
    if not 0.0 < k < 1.0:
        raise ValueError(f"evidence threshold must satisfy 0 < k < 1, got {k}")
    if k_f <= 1.0:
        raise ValueError(f"futility threshold must satisfy k_f > 1, got {k_f}")
    log_bf = log_bf01_curve(n1, hyp, ap)
    pmf = predictive_vector(prior, n1)
    eff = log_bf < math.log(k)
    fut = log_bf > math.log(k_f)
    return BranchProbabilities(
        efficacy=float(pmf[eff].sum()),
        indecisive=float(pmf[~eff & ~fut].sum()),
        futility=float(pmf[fut].sum()),
    )


def path_probabilities(
    design: TwoStageDesign, hyp: Hypotheses, ap: AnalysisPrior, prior: DesignPrior
) -> PathProbabilities:
    """All rates of one design under one design prior via the closed form."""
    n1, n2, k, k_f = design.n1, design.n2, design.k, design.k_f
    unadj = unadjusted_rate(n2, k, hyp, ap, prior)
    erased = futility_erased(n1, n2, k, k_f, hyp, ap, prior)
    adj = float(checked_adjusted(unadj, erased))
    branches = branch_probabilities(n1, k, k_f, hyp, ap, prior)
    p_stop = prob_futility_stop(n1, k_f, hyp, ap, prior)
    reject_split = _reject_by_branch(design, hyp, ap, prior)
    return PathProbabilities(
        unadjusted=unadj,
        futility_erased=erased,
        adjusted=adj,
        prob_stop=p_stop,
        expected_n=n2 - (n2 - n1) * p_stop,
        branches=branches,
        reject_by_branch=reject_split,
    )


def _reject_by_branch(
    design: TwoStageDesign, hyp: Hypotheses, ap: AnalysisPrior, prior: DesignPrior
) -> BranchProbabilities:
    """Unadjusted rejection mass split by the interim branch of each path."""
    n1, n2, k, k_f = design.n1, design.n2, design.k, design.k_f
    m = n2 - n1
    y_eff = critical_efficacy(n2, k, hyp, ap)
    if y_eff is None:
        return BranchProbabilities(0.0, 0.0, 0.0)
    log_bf1 = log_bf01_curve(n1, hyp, ap)
    joint = joint_predictive_matrix(n1, m, prior)
    masses = {"efficacy": 0.0, "indecisive": 0.0, "futility": 0.0}
    log_k, log_kf = math.log(k), math.log(k_f)
    for y1 in range(n1 + 1):
        lo = max(y_eff - y1, 0)
        if lo > m:
            continue
        if log_bf1[y1] < log_k:
            branch = "efficacy"
        elif log_bf1[y1] > log_kf:
            branch = "futility"
        else:
            branch = "indecisive"
        masses[branch] += float(joint[y1, lo:].sum())
    return BranchProbabilities(
        masses["efficacy"], masses["indecisive"], masses["futility"]
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
    if null_prior is None:
        null_prior = PointMass(hyp.p0)
    h0_side = path_probabilities(design, hyp, ap, null_prior)
    h1_side = path_probabilities(design, hyp, ap, power_prior)
    pce = prob_futility_stop(design.n1, design.k_f, hyp, ap, PointMass(hyp.p0))
    return OperatingCharacteristics(
        type_i_unadjusted=h0_side.unadjusted,
        type_i_adjusted=h0_side.adjusted,
        power_unadjusted=h1_side.unadjusted,
        power_adjusted=h1_side.adjusted,
        futility_erased_power=h1_side.futility_erased,
        futility_erased_type_i=h0_side.futility_erased,
        pce_p0=pce,
        e_n_h0=h0_side.expected_n,
        e_n_h1=h1_side.expected_n,
        branch_h0=h0_side.branches,
        branch_h1=h1_side.branches,
    )


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
    p_stop = 0.0
    branch = {"efficacy": 0.0, "indecisive": 0.0, "futility": 0.0}
    reject_split = {"efficacy": 0.0, "indecisive": 0.0, "futility": 0.0}
    for y1 in range(n1 + 1):
        if log_bf1[y1] < log_k:
            name = "efficacy"
        elif log_bf1[y1] > log_kf:
            name = "futility"
        else:
            name = "indecisive"
        stops = name == "futility"
        row_mass = float(joint[y1, :].sum())
        branch[name] += row_mass
        if stops:
            p_stop += row_mass
        for y2 in range(m + 1):
            cell = float(joint[y1, y2])
            if log_bf2[y1 + y2] < log_k:
                unadjusted += cell
                reject_split[name] += cell
                if stops:
                    erased += cell
                else:
                    adjusted += cell
    return PathProbabilities(
        unadjusted=unadjusted,
        futility_erased=erased,
        adjusted=adjusted,
        prob_stop=p_stop,
        expected_n=n2 - (n2 - n1) * p_stop,
        branches=BranchProbabilities(
            branch["efficacy"], branch["indecisive"], branch["futility"]
        ),
        reject_by_branch=BranchProbabilities(
            reject_split["efficacy"], reject_split["indecisive"], reject_split["futility"]
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
    if null_prior is None:
        null_prior = PointMass(hyp.p0)
    h0_side = enumerate_paths(design, hyp, ap, null_prior)
    h1_side = enumerate_paths(design, hyp, ap, power_prior)
    pce = enumerate_paths(design, hyp, ap, PointMass(hyp.p0)).prob_stop
    return OperatingCharacteristics(
        type_i_unadjusted=h0_side.unadjusted,
        type_i_adjusted=h0_side.adjusted,
        power_unadjusted=h1_side.unadjusted,
        power_adjusted=h1_side.adjusted,
        futility_erased_power=h1_side.futility_erased,
        futility_erased_type_i=h0_side.futility_erased,
        pce_p0=pce,
        e_n_h0=h0_side.expected_n,
        e_n_h1=h1_side.expected_n,
        branch_h0=h0_side.branches,
        branch_h1=h1_side.branches,
    )
