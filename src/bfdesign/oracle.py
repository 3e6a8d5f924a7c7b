"""Brute-force path oracle for the closed form of `operating`.

`enumerate_oracle` sums the two-batch joint predictive table over its cells
(y1, y2), each classified by direct Bayes factor comparisons at the interim
and final sizes, with no critical counts, branch cuts or erased-mass
identity.  No runtime path calls it, and `import bfdesign` does not load
this module: import it as `from bfdesign.oracle import enumerate_oracle`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .bayesfactor import AnalysisPrior, Hypotheses, log_bf01_curve
from .operating import (
    BranchProbabilities,
    OperatingCharacteristics,
    TwoStageDesign,
    expected_size,
)
from .predictive import joint_predictive_matrix
from .priors import DesignPrior, PointMass


def enumerate_oracle(
    design: TwoStageDesign,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    null_prior: Optional[DesignPrior] = None,
) -> OperatingCharacteristics:
    """Full operating characteristics by enumeration of every sample path.

    The null design prior defaults to a point mass at p0, whose interim
    futility mass is also the PCE.  Each adjusted rate is summed over its
    own cells, not taken as unadjusted - erased, so it checks
    `checked_adjusted` too.
    """
    n1, n2 = design.n1, design.n2
    log_k = math.log(design.k)
    log_bf1 = log_bf01_curve(n1, hyp, ap)
    efficacy = log_bf1 < log_k
    stops = log_bf1 > math.log(design.k_f)
    pooled = np.add.outer(np.arange(n1 + 1), np.arange(n2 - n1 + 1))
    reject = log_bf01_curve(n2, hyp, ap)[pooled] < log_k
    # rejection cells unadjusted, erased and adjusted; the interim branches
    rejections = (reject, reject & stops[:, None], reject & ~stops[:, None])
    branches = (efficacy, ~efficacy & ~stops, stops)

    def cells(prior):
        joint = joint_predictive_matrix(n1, n2 - n1, prior)
        rows = joint.sum(axis=1)
        return (
            *(float(joint[mask].sum()) for mask in rejections),
            BranchProbabilities(*(float(rows[mask].sum()) for mask in branches)),
        )

    point_null = PointMass(hyp.p0)
    if null_prior is None:
        null_prior = point_null
    type_i, erased_type_i, type_i_adjusted, branch_h0 = cells(null_prior)
    power, erased_power, power_adjusted, branch_h1 = cells(power_prior)
    pce = branch_h0.futility
    if null_prior != point_null:
        pce = cells(point_null)[-1].futility
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
