"""Exact two-stage Bayes factor trial designs with binary endpoints.

The package computes the operating characteristics of two-stage single-arm
designs whose decisions are driven by Bayes factors, corrects them exactly
for the interim futility look, and searches for the design minimizing the
expected sample size under the null, all without simulation.
"""

from .bayesfactor import (
    AnalysisPrior,
    Hypotheses,
    bf01,
    critical_efficacy,
    critical_futility,
)
from .calibration import (
    CalibratedDesign,
    CalibrationConstraints,
    ScanRow,
    base_sample_size,
    calibrate,
    optimal_calibrate,
    scan,
)
from .operating import (
    BranchProbabilities,
    OperatingCharacteristics,
    TwoStageDesign,
    enumerate_oracle,
    evaluate,
)
from .predictive import (
    joint_predictive_matrix,
    predictive_pmf,
    predictive_vector,
)
from .priors import DesignPrior, PointMass, TruncatedBeta
from .simon import SimonDesign, simon_oc, simon_search

__all__ = [
    "AnalysisPrior",
    "BranchProbabilities",
    "CalibratedDesign",
    "CalibrationConstraints",
    "DesignPrior",
    "Hypotheses",
    "OperatingCharacteristics",
    "PointMass",
    "ScanRow",
    "SimonDesign",
    "TruncatedBeta",
    "TwoStageDesign",
    "base_sample_size",
    "bf01",
    "calibrate",
    "critical_efficacy",
    "critical_futility",
    "enumerate_oracle",
    "evaluate",
    "joint_predictive_matrix",
    "optimal_calibrate",
    "predictive_pmf",
    "predictive_vector",
    "scan",
    "simon_oc",
    "simon_search",
]

__version__ = "0.1.0"
