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
form never builds the two-batch joint table.

`DesignGrid` is the one closed-form route from a design to its operating
characteristics.  It tables the critical counts and branch masses of a set
of sizes once and adds the erased masses one final size at a time.  The
searches build it over every size they search; `evaluate` builds it over a
design's two sizes and reads it at (n1, n2).

The two-batch joint table is the oracle's alone.  `enumerate_oracle`
classifies all its (y1, y2) cells at once by direct Bayes factor
comparisons, as boolean masks over the table, and never touches critical
values; it serves as an independent check of the same quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bayesfactor import (
    AnalysisPrior,
    Hypotheses,
    check_size,
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
        check_size("n1", self.n1)
        check_size("n2", self.n2)
        if not 1 <= self.n1 < self.n2:
            raise ValueError(f"need 1 <= n1 < n2, got n1={self.n1}, n2={self.n2}")
        check_thresholds(self.k, self.k_f)


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


class GridColumn(NamedTuple):
    """Rates of a set of interim sizes at one final size, one entry per n1."""

    n1: np.ndarray
    power_adjusted: np.ndarray
    type_i_adjusted: np.ndarray
    erased_power: np.ndarray
    erased_type_i: np.ndarray
    pce: np.ndarray
    e_n_h0: np.ndarray

    def feasible(self, cons) -> np.ndarray:
        """Mask of the interim sizes meeting every `CalibrationConstraints` target."""
        ok = (self.type_i_adjusted <= cons.alpha) & (
            self.power_adjusted >= 1.0 - cons.beta
        )
        if cons.f is not None:
            ok &= self.pce > cons.f
        return ok


class DesignGrid:
    """Every design (n1, n2) with n1 < n2 drawn from a given set of sizes.

    The constructor tables, for each size n of `sizes`, its critical counts
    `y_eff[n]` and `y_fut[n]` (None when k or k_f is out of reach), and cuts
    each design prior's pmf at n there once: `h1[n]` holds the three branch
    masses under the power prior and `h0[n]` under the null prior.  Their
    efficacy columns are the single-look `power` and `type_i`, the null
    futility column the stop probability `p_stop`, and `pce` the futility
    mass under a point prior at p0 (`p_stop` itself when the null prior is
    that point).  Tables are indexed by n itself.  The counts are looked up
    by size, so reading a size the grid did not table raises KeyError.

    `rows` adds the erased mass of a set of interim sizes at one final size,
    one `erased_mass_column` call per design prior, and keeps nothing; `oc`
    reads one design's full characteristics off the tables and one row.
    """

    def __init__(
        self,
        sizes: Iterable[int],
        k: float,
        k_f: float,
        hyp: Hypotheses,
        ap: AnalysisPrior,
        power_prior: DesignPrior,
        null_prior: Optional[DesignPrior] = None,
    ) -> None:
        self.power_prior = power_prior
        self.null_prior = null_prior if null_prior is not None else PointMass(hyp.p0)
        self.y_eff = {n: critical_efficacy(n, k, hyp, ap) for n in sizes}
        self.y_fut = {n: critical_futility(n, k_f, hyp, ap) for n in self.y_eff}
        self.h1 = self._branches(power_prior)
        self.h0 = self._branches(self.null_prior)
        self.power = self.h1[:, 0]
        self.type_i = self.h0[:, 0]
        self.p_stop = self.pce = self.h0[:, 2]
        point_null = PointMass(hyp.p0)
        if self.null_prior != point_null:
            self.pce = self._branches(point_null)[:, 2]

    def _branches(self, prior: DesignPrior) -> np.ndarray:
        """Branch masses of prior in row n for every tabled size, NaN elsewhere."""
        table = np.full((max(self.y_eff) + 1, 3), np.nan)
        for n, y_eff in self.y_eff.items():
            table[n] = split_branches(predictive_vector(prior, n), y_eff, self.y_fut[n])
        return table

    def rows(self, n2: int, n1: Sequence[int]) -> GridColumn:
        """Rates of the designs (n1[i], n2)."""
        n1 = np.asarray(n1, dtype=np.int64)
        y_fut = [self.y_fut[i] for i in n1]
        y_eff = self.y_eff[n2]
        erased_power = erased_mass_column(n1, y_fut, n2, y_eff, self.power_prior)
        erased_type_i = erased_mass_column(n1, y_fut, n2, y_eff, self.null_prior)
        return GridColumn(
            n1=n1,
            power_adjusted=checked_adjusted(self.power[n2], erased_power),
            type_i_adjusted=checked_adjusted(self.type_i[n2], erased_type_i),
            erased_power=erased_power,
            erased_type_i=erased_type_i,
            pce=self.pce[n1],
            e_n_h0=expected_size(n1, n2, self.p_stop[n1]),
        )

    def oc(self, n1: int, n2: int) -> OperatingCharacteristics:
        """Operating characteristics of the design (n1, n2)."""
        row = self.rows(n2, [n1])
        branch_h1 = BranchProbabilities(*map(float, self.h1[n1]))
        return OperatingCharacteristics(
            type_i_unadjusted=float(self.type_i[n2]),
            type_i_adjusted=float(row.type_i_adjusted[0]),
            power_unadjusted=float(self.power[n2]),
            power_adjusted=float(row.power_adjusted[0]),
            futility_erased_power=float(row.erased_power[0]),
            futility_erased_type_i=float(row.erased_type_i[0]),
            pce_p0=float(row.pce[0]),
            e_n_h0=float(row.e_n_h0[0]),
            e_n_h1=expected_size(n1, n2, branch_h1.futility),
            branch_h0=BranchProbabilities(*map(float, self.h0[n1])),
            branch_h1=branch_h1,
        )


def evaluate(
    design: TwoStageDesign,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    null_prior: Optional[DesignPrior] = None,
) -> OperatingCharacteristics:
    """Full operating characteristics via the closed form.

    The design grid of the two sizes n1 and n2, read at (n1, n2).  The null
    design prior defaults to a point mass at p0, which makes the type-I side
    a plain frequentist error rate.
    """
    n1, n2 = design.n1, design.n2
    grid = DesignGrid((n1, n2), design.k, design.k_f, hyp, ap, power_prior, null_prior)
    return grid.oc(n1, n2)


def _enumerate_side(
    design: TwoStageDesign, log_bf1: np.ndarray, log_bf2: np.ndarray, prior: DesignPrior
) -> tuple[float, float, float, BranchProbabilities]:
    """Unadjusted, erased and adjusted rejection mass and the interim branches.

    Every cell (y1, y2) of the joint predictive table under prior is
    classified by direct Bayes factor comparisons at the interim and final
    sizes; no critical values and no rectangle algebra are involved.  The
    adjusted mass is summed over its own cells, not taken as unadjusted -
    erased, so it checks `checked_adjusted` independently.
    """
    n1, m = design.n1, design.n2 - design.n1
    log_k = math.log(design.k)
    joint = joint_predictive_matrix(n1, m, prior)
    efficacy = log_bf1 < log_k
    stops = log_bf1 > math.log(design.k_f)
    reject = log_bf2[np.add.outer(np.arange(n1 + 1), np.arange(m + 1))] < log_k
    rows = joint.sum(axis=1)
    return (
        float(joint[reject].sum()),
        float(joint[reject & stops[:, None]].sum()),
        float(joint[reject & ~stops[:, None]].sum()),
        BranchProbabilities(
            float(rows[efficacy].sum()),
            float(rows[~efficacy & ~stops].sum()),
            float(rows[stops].sum()),
        ),
    )


def enumerate_oracle(
    design: TwoStageDesign,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    null_prior: Optional[DesignPrior] = None,
) -> OperatingCharacteristics:
    """Full operating characteristics by brute-force enumeration of all paths.

    The independent oracle the closed form is tested against.  The null
    design prior defaults to a point mass at p0, whose interim futility mass
    is also the PCE.
    """
    n1, n2 = design.n1, design.n2
    point_null = PointMass(hyp.p0)
    if null_prior is None:
        null_prior = point_null
    curves = (log_bf01_curve(n1, hyp, ap), log_bf01_curve(n2, hyp, ap))
    type_i, erased_type_i, type_i_adjusted, branch_h0 = _enumerate_side(
        design, *curves, null_prior
    )
    power, erased_power, power_adjusted, branch_h1 = _enumerate_side(
        design, *curves, power_prior
    )
    pce = branch_h0.futility
    if null_prior != point_null:
        pce = _enumerate_side(design, *curves, point_null)[-1].futility
    return OperatingCharacteristics(
        type_i_unadjusted=type_i,
        type_i_adjusted=type_i_adjusted,
        power_unadjusted=power,
        power_adjusted=power_adjusted,
        futility_erased_power=erased_power,
        futility_erased_type_i=erased_type_i,
        pce_p0=pce,
        e_n_h0=expected_size(n1, n2, branch_h0.futility),
        e_n_h1=expected_size(n1, n2, branch_h1.futility),
        branch_h0=branch_h0,
        branch_h1=branch_h1,
    )
