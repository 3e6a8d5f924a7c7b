"""Search for calibrated and optimal two-stage designs.

A design (n1, n2) is calibrated when its adjusted type-I error stays at or
below alpha, its adjusted power reaches 1 - beta, and (optionally) the
probability of compelling evidence for H0 at the interim exceeds a floor f.

Binomial error rates oscillate in the sample size, so the smallest n whose
single-look power clears the target may be followed by sizes that miss it
again.  The non-sequential baseline search therefore requires the power to
keep holding for the next `window` sample sizes before accepting n.  The
two-stage grid searches themselves use plain per-design feasibility: the
published reference designs are only reproduced without a lookahead on the
(n1, n2) grid, where the interim adjustment already absorbs the worst of the
oscillation.

The grid is evaluated a column at a time: all interim sizes n1 of one final
size n2 share one predictive vector at n2, so one vectorized erased-mass call
per design prior gives the adjusted rates of the whole column, and the
searches compare columns with numpy masks.  Stop probabilities, PCE and
E[N|H0] depend on n1 alone and cost one partial sum each.

The optimal design minimizes the expected sample size under the null design
prior over the whole feasible rectangle.  Final sizes whose single-look power
already misses the target cannot become feasible by adding an interim look
(the adjustment only lowers power), so those columns are skipped wholesale.
Once a feasible design is known, a later column can only win with a strictly
smaller E[N|H0]; since E[N|H0] >= n1, only a short prefix of interim sizes
below the incumbent's objective is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .bayesfactor import AnalysisPrior, Hypotheses, critical_efficacy, critical_futility
from .operating import (
    OperatingCharacteristics,
    TwoStageDesign,
    checked_adjusted,
    erased_mass_column,
    evaluate,
    prob_futility_stop,
    unadjusted_rate,
)
from .priors import DesignPrior, PointMass


@dataclass(frozen=True)
class CalibrationConstraints:
    """Targets and search bounds for calibration.

    f is the optional floor on the probability of compelling evidence for H0
    at the interim (strict inequality).  window is the stability lookahead of
    the single-look baseline; 0 disables it.
    """

    alpha: float
    beta: float
    f: Optional[float] = None
    n_min: int = 5
    n_max: int = 60
    window: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if self.f is not None and not 0.0 < self.f < 1.0:
            raise ValueError(f"f must lie in (0, 1) when given, got {self.f}")
        if not 1 <= self.n_min < self.n_max:
            raise ValueError(
                f"need 1 <= n_min < n_max, got n_min={self.n_min}, n_max={self.n_max}"
            )
        if self.window < 0:
            raise ValueError(f"window must be nonnegative, got {self.window}")


@dataclass(frozen=True)
class CalibratedDesign:
    """A design returned by a search, with its operating characteristics."""

    design: TwoStageDesign
    oc: OperatingCharacteristics
    feasible: bool
    objective: float


@dataclass(frozen=True)
class ScanRow:
    """One interim size of a design-characteristic sweep at fixed n2."""

    n2: int
    n1: int
    power_adjusted: float
    type_i_adjusted: float
    pce: float
    e_n_h0: float
    feasible: bool


class GridColumn(NamedTuple):
    """Rates of a set of interim sizes at one final size, one entry per n1."""

    n1: np.ndarray
    power_adjusted: np.ndarray
    type_i_adjusted: np.ndarray
    pce: np.ndarray
    e_n_h0: np.ndarray

    def feasible(self, cons: CalibrationConstraints) -> np.ndarray:
        """Mask of the interim sizes meeting every constraint."""
        ok = (self.type_i_adjusted <= cons.alpha) & (
            self.power_adjusted >= 1.0 - cons.beta
        )
        if cons.f is not None:
            ok &= self.pce > cons.f
        return ok


class DesignGrid:
    """Column-at-a-time rates for one calibration scenario.

    A column is every interim size n1 = 1..n2-1 of one final size n2.  Its
    adjusted rates come from one `erased_mass_column` call per design prior,
    and its stop probabilities, PCE and critical counts depend on n1 alone,
    so they are computed once per interim size and shared by all columns.
    Whole columns are cached per n2; `rates` and `feasible` are lookups into
    that cache.  `rows` evaluates any subset of a column without caching it;
    the optimal search visits each column once and, under its expected-size
    bound, only a prefix of it.  Every entry carries the same bits as
    `evaluate` on that design.
    """

    def __init__(
        self,
        k: float,
        k_f: float,
        hyp: Hypotheses,
        ap: AnalysisPrior,
        power_prior: DesignPrior,
        null_prior: Optional[DesignPrior] = None,
    ) -> None:
        self.k = k
        self.k_f = k_f
        self.hyp = hyp
        self.ap = ap
        self.power_prior = power_prior
        self.null_prior = null_prior if null_prior is not None else PointMass(hyp.p0)
        self._columns: dict[int, GridColumn] = {}
        self._nonseq: dict[int, tuple[float, float]] = {}
        # per interim size n1 = 1, 2, ...: futility critical count, stop
        # probability under the null design prior, PCE
        self._y_fut: list[Optional[int]] = []
        self._p_stop: list[float] = []
        self._pce: list[float] = []

    def _interim(self, n1_max: int) -> None:
        point_null = PointMass(self.hyp.p0)
        for n1 in range(len(self._y_fut) + 1, n1_max + 1):
            self._y_fut.append(critical_futility(n1, self.k_f, self.hyp, self.ap))
            self._p_stop.append(
                prob_futility_stop(n1, self.k_f, self.hyp, self.ap, self.null_prior)
            )
            self._pce.append(
                prob_futility_stop(n1, self.k_f, self.hyp, self.ap, point_null)
            )

    def _single_look(self, n2: int) -> tuple[float, float]:
        """(power, type-I) at n2 without an interim look."""
        cached = self._nonseq.get(n2)
        if cached is None:
            cached = (
                unadjusted_rate(n2, self.k, self.hyp, self.ap, self.power_prior),
                unadjusted_rate(n2, self.k, self.hyp, self.ap, self.null_prior),
            )
            self._nonseq[n2] = cached
        return cached

    def nonsequential_power(self, n2: int) -> float:
        """Single-look power at n2, the upper bound for any interim split."""
        return self._single_look(n2)[0]

    def expected_n_h0(self, n2: int, n1: np.ndarray) -> np.ndarray:
        """E[N|H0] of the designs (n1, n2), cheap: no erased mass needed."""
        self._interim(int(n1.max(initial=0)))
        p_stop = np.asarray(self._p_stop)[n1 - 1]
        return n2 - (n2 - n1) * p_stop

    def rows(self, n2: int, n1: np.ndarray) -> GridColumn:
        """Rates of the designs (n1[i], n2), computed without caching."""
        n1 = np.asarray(n1, dtype=np.int64)
        self._interim(int(n1.max(initial=0)))
        y_fut = [self._y_fut[i - 1] for i in n1]
        y_eff = critical_efficacy(n2, self.k, self.hyp, self.ap)
        power, type_i = self._single_look(n2)
        return GridColumn(
            n1=n1,
            power_adjusted=checked_adjusted(
                power, erased_mass_column(n1, y_fut, n2, y_eff, self.power_prior)
            ),
            type_i_adjusted=checked_adjusted(
                type_i, erased_mass_column(n1, y_fut, n2, y_eff, self.null_prior)
            ),
            pce=np.asarray(self._pce)[n1 - 1],
            e_n_h0=self.expected_n_h0(n2, n1),
        )

    def column(self, n2: int) -> GridColumn:
        """Every interim size n1 = 1..n2-1 of final size n2 (cached)."""
        cached = self._columns.get(n2)
        if cached is None:
            cached = self.rows(n2, np.arange(1, n2))
            self._columns[n2] = cached
        return cached

    def _cached_column(self, n1: int, n2: int) -> GridColumn:
        if not 1 <= n1 < n2:
            raise ValueError(f"need 1 <= n1 < n2, got n1={n1}, n2={n2}")
        return self.column(n2)

    def rates(self, n1: int, n2: int) -> tuple[float, float, float, float]:
        """(adjusted power, adjusted type-I, PCE, E[N|H0]) at one design."""
        col = self._cached_column(n1, n2)
        i = n1 - 1
        return (
            float(col.power_adjusted[i]),
            float(col.type_i_adjusted[i]),
            float(col.pce[i]),
            float(col.e_n_h0[i]),
        )

    def feasible(self, n1: int, n2: int, cons: CalibrationConstraints) -> bool:
        """Whether one design meets every constraint."""
        return bool(self._cached_column(n1, n2).feasible(cons)[n1 - 1])

    def calibrated(self, n1: int, n2: int) -> CalibratedDesign:
        design = TwoStageDesign(n1, n2, self.k, self.k_f)
        oc = evaluate(design, self.hyp, self.ap, self.power_prior, self.null_prior)
        return CalibratedDesign(
            design=design, oc=oc, feasible=True, objective=oc.e_n_h0
        )


def base_sample_size(
    k: float,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    cons: CalibrationConstraints,
    null_prior: Optional[DesignPrior] = None,
) -> Optional[int]:
    """Smallest single-look sample size meeting both error-rate targets.

    The power requirement must hold at n and at each of the next `window`
    sample sizes, which irons out the oscillations of the discrete binomial
    power curve; the type-I requirement is checked at n itself.  None when no
    n up to n_max qualifies.
    """
    if null_prior is None:
        null_prior = PointMass(hyp.p0)
    power_ok: dict[int, bool] = {}

    def power_holds(n: int) -> bool:
        cached = power_ok.get(n)
        if cached is None:
            cached = unadjusted_rate(n, k, hyp, ap, power_prior) >= 1.0 - cons.beta
            power_ok[n] = cached
        return cached

    for n in range(1, cons.n_max + 1):
        if not all(power_holds(n + w) for w in range(cons.window + 1)):
            continue
        if unadjusted_rate(n, k, hyp, ap, null_prior) <= cons.alpha:
            return n
    return None


def calibrate(
    cons: CalibrationConstraints,
    k: float,
    k_f: float,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    null_prior: Optional[DesignPrior] = None,
) -> Optional[CalibratedDesign]:
    """First calibrated design in the plain iteration order.

    Walks n1 upward within each n2 and bumps n2 once the interim sizes are
    exhausted.  Final sizes whose single-look power misses the target are
    skipped outright, since no interim split can repair power.  None when no
    design with n2 <= n_max qualifies, including the case of a futility
    threshold no interim size can realize.
    """
    grid = DesignGrid(k, k_f, hyp, ap, power_prior, null_prior)
    for n2 in range(cons.n_min + 1, cons.n_max + 1):
        if grid.nonsequential_power(n2) < 1.0 - cons.beta:
            continue
        col = grid.column(n2)
        hits = np.flatnonzero(col.feasible(cons)[cons.n_min - 1 :])
        if hits.size:
            return grid.calibrated(cons.n_min + int(hits[0]), n2)
    return None


def optimal_calibrate(
    cons: CalibrationConstraints,
    k: float,
    k_f: float,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    null_prior: Optional[DesignPrior] = None,
    prune: bool = True,
) -> Optional[CalibratedDesign]:
    """Feasible design minimizing the expected sample size under H0.

    Ties go to the smaller n2, then the smaller n1.  With prune enabled, two
    bounds cut the work without changing the argmin:

    - final sizes whose single-look power misses the target are skipped
      without an interim search, because the interim adjustment only ever
      lowers power;
    - once a feasible design is known, a later (larger) n2 can only win with
      a strictly smaller E[N|H0], so only its interim sizes below that
      objective get their rates computed.  E[N|H0] >= n1, so that is a short
      prefix of the column, found from the stop probabilities alone.
    """
    grid = DesignGrid(k, k_f, hyp, ap, power_prior, null_prior)
    best: Optional[tuple[float, int, int]] = None
    for n2 in range(cons.n_min + 1, cons.n_max + 1):
        if prune and grid.nonsequential_power(n2) < 1.0 - cons.beta:
            continue
        n1 = np.arange(cons.n_min, n2)
        if prune and best is not None:
            n1 = n1[grid.expected_n_h0(n2, n1) < best[0]]
            if n1.size == 0:
                continue
        rows = grid.rows(n2, n1)
        ok = np.flatnonzero(rows.feasible(cons))
        if ok.size == 0:
            continue
        i = ok[np.argmin(rows.e_n_h0[ok])]
        key = (float(rows.e_n_h0[i]), n2, int(rows.n1[i]))
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return grid.calibrated(best[2], best[1])


def scan(
    n2_values: int | Iterable[int],
    cons: CalibrationConstraints,
    k: float,
    k_f: float,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    null_prior: Optional[DesignPrior] = None,
) -> list[ScanRow]:
    """Characteristics of every interim size below each requested n2.

    One row per n1 in [n_min, n2 - 1], in deterministic ascending order;
    exposes the error-rate oscillations in the interim size.
    """
    if isinstance(n2_values, int):
        n2_values = [n2_values]
    grid = DesignGrid(k, k_f, hyp, ap, power_prior, null_prior)
    rows: list[ScanRow] = []
    for n2 in n2_values:
        col = grid.column(n2)
        feasible = col.feasible(cons)
        for n1 in range(cons.n_min, n2):
            i = n1 - 1
            rows.append(
                ScanRow(
                    n2=n2,
                    n1=n1,
                    power_adjusted=float(col.power_adjusted[i]),
                    type_i_adjusted=float(col.type_i_adjusted[i]),
                    pce=float(col.pce[i]),
                    e_n_h0=float(col.e_n_h0[i]),
                    feasible=bool(feasible[i]),
                )
            )
    return rows
