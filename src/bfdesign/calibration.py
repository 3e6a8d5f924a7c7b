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

Both two-stage searches are one walk over the final sizes n2 upward, which
returns the feasible design with the smallest (key, n2, n1); the key is read
off the per-size tables of one `operating.DesignGrid`.  `optimal_calibrate`
keys by E[N|H0] from the tabled stop probabilities, formed as
`operating.walk_key` forms it for Simon's search too, and `calibrate` by a
constant, so the first feasible design in the order (n2, n1) wins.  The only
per-design work is the erased mass, one vectorized call for both design
priors for a set of interim sizes of one final size (`DesignGrid.rows`).
Five cuts spare it without changing the answer; each is proved where it is
made, the first and third past the decision margin `operating.MARGIN`.
They skip:

- interim sizes that no final size can make feasible (`_can_be_feasible`);
- final sizes whose single-look power misses, as the interim only lowers it;
- interim sizes whose type-I floor exceeds alpha (`_type_i_floor`);
- once a design is known, interim sizes whose key is not below its key;
- once a design is known, every final size from the first at which no key
  is below its key (`operating.walk_key`).

The walk tables at most `operating.WALK_BLOCK` consecutive sizes in one
pass when it reaches an untabled size; once a design is known (only under
the E[N|H0] key, as a constant one ends at its hit), exactly the sizes ahead
at which some live key is below the incumbent's, a prefix by the walk-end
proof (`operating.walk_key`).  Only waste, never the answer, depends on it.
The first cut and the stop probabilities behind the key read only n1, so
the walk takes them once per tabled block for every tabled interim size,
and each final size reads the prefix below it.  A final size forms keys
only where they are read: for its whole prefix once a design is known, to
test the walk end and the key cut, and for the feasible interim sizes the
erased-mass step returns, to pick the least.

A search also needs an interim size in [n_min, n_max - 1] that can stop
for futility.  One can if and only if n_max - 1 can, as log BF01 at zero
successes never falls in n, so the search compares that O(1) value
(`bayesfactor.log_bf01_at_zero`) with log k_f before it walks; its
docstring shows that the comparison is settled at any n_max.  The winner's
operating characteristics are read off the same grid, which is what
`evaluate` does on a grid of its two sizes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .bayesfactor import AnalysisPrior, Hypotheses, log_bf01_at_zero
from .operating import (
    MARGIN, WALK_BLOCK, DesignGrid, OperatingCharacteristics, TwoStageDesign, walk_key
)
from .priors import DesignPrior, check_interval, check_size


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
        check_size("n_max", self.n_max)
        check_size("n_min", self.n_min, 1, self.n_max - 1)
        check_size("window", self.window, 0)
        check_interval("alpha", self.alpha)
        check_interval("beta", self.beta)
        if self.f is not None:
            check_interval("f", self.f)


@dataclass(frozen=True)
class CalibratedDesign:
    """A design returned by a search, with its operating characteristics."""

    design: TwoStageDesign
    oc: OperatingCharacteristics
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
    power curve; the type-I requirement is checked at n itself.  Both are
    read off a design grid at k_f = inf, where no size can stop for
    futility, so its efficacy masses are the single-look rates.  A size
    whose power misses rules out every n up to it whose window holds it, so
    the scan steps past the last miss in the window of n, and tables the
    sizes up to the next n + window in one block: every size it tables is
    one the scan at the answer reads.  None when no n up to n_max qualifies.
    """
    grid = DesignGrid((), k, math.inf, hyp, ap, power_prior, null_prior)
    n = 1  # every smaller n is ruled out, and the grid holds the sizes 1..len(grid.y_eff)
    while n <= cons.n_max:
        grid.add(range(len(grid.y_eff) + 1, n + cons.window + 1))
        misses = np.flatnonzero(~(grid.power[n : n + cons.window + 1] >= 1.0 - cons.beta))
        if misses.size == 0 and grid.type_i[n] <= cons.alpha:
            return n
        n += int(misses[-1]) + 1 if misses.size else 1
    return None


def _can_be_feasible(grid: DesignGrid, n1: np.ndarray, cons: CalibrationConstraints) -> np.ndarray:
    """Mask of the interim sizes that some final size might make feasible.

    Both tests read only n1, so they hold at every final size.  The PCE must
    exceed f, the very comparison `GridColumn.feasible` makes.  And adjusted
    power is P1(reject at n2, no stop at n1) <= 1 - P1(stop at n1), so a
    futility mass under the power prior above beta + `operating.MARGIN`
    rules n1 out.  Simon's PET(p1) cap is the same bound.
    """
    ok = grid.h1[n1, 2] <= cons.beta + MARGIN
    if cons.f is not None:
        ok &= grid.pce[n1] > cons.f
    return ok


def _type_i_floor(grid: DesignGrid, n1: np.ndarray, n2: int) -> np.ndarray:
    """Harris-FKG lower bound on the adjusted type-I error of each design (n1[i], n2).

    The adjusted type-I error is P0(Y1 > y_fut(n1), S >= y_eff(n2)) for the
    interim count Y1 and the pooled count S.  Given p, both events are
    increasing in the Bernoulli outcomes, so they are positively correlated
    (Harris 1960; Fortuin, Kasteleyn and Ginibre 1971), and both
    conditional probabilities increase in p.  Chebyshev's sum inequality
    carries the product bound through any null design prior:
    E[f(p) g(p)] >= E[f(p)] E[g(p)] for f, g increasing.  So the adjusted
    type-I error is at least (1 - p_stop[n1]) type_i[n2].  A size that
    cannot stop (p_stop 0) gets the single-look rate, which it has
    exactly; a size with no efficacy count gets 0.  The search compares
    the floor with alpha + `operating.MARGIN`.
    """
    return (1.0 - grid.p_stop[n1]) * grid.type_i[n2]


def _search(
    cons: CalibrationConstraints,
    optimal: bool,
    k: float,
    k_f: float,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    null_prior: Optional[DesignPrior],
) -> Optional[CalibratedDesign]:
    """Feasible design with the smallest (key, n2, n1), or None.

    The key of the interim sizes n1 at n2 is `operating.walk_key` of their
    tabled stop probabilities when optimal, else a constant, formed only
    where read.  The stop rule, the cuts and the blocks tabled are those of
    the module docstring.
    """
    grid = DesignGrid((), k, k_f, hyp, ap, power_prior, null_prior)
    if not log_bf01_at_zero(cons.n_max - 1, ap) > math.log(k_f):
        return None  # no interim size can stop: no two-stage design exists

    def keyed(n1: np.ndarray, n2: int, p_stop: np.ndarray) -> np.ndarray:
        return walk_key(n1, n2, p_stop) if optimal else np.zeros(n1.size)

    best: Optional[tuple[float, int, int]] = None
    # the tabled interim sizes `_can_be_feasible` keeps, with their stop
    # probabilities, set once per block (module docstring)
    kept = p_stop = np.arange(0)
    for n2 in range(cons.n_min, cons.n_max + 1):
        n1 = kept[: kept.searchsorted(n2)]
        if best is not None:
            below = keyed(n1, n2, p_stop[: n1.size]) < best[0]
            if not below.any():
                break  # the walk end (`operating.walk_key`)
            n1 = n1[below]
        if n2 not in grid.y_eff:
            ahead = np.arange(n2, min(n2 + WALK_BLOCK, cons.n_max + 1))
            if best is not None:  # a prefix (module docstring)
                live = walk_key(n1, ahead[:, None], grid.p_stop[n1]) < best[0]
                ahead = ahead[: np.count_nonzero(live.any(axis=1))]
            grid.add(ahead)
            kept = np.arange(cons.n_min, ahead[-1] + 1)
            kept = kept[_can_be_feasible(grid, kept, cons)]
            p_stop = grid.p_stop[kept]
        if n1.size == 0 or grid.power[n2] < 1.0 - cons.beta:
            continue
        below = _type_i_floor(grid, n1, n2) <= cons.alpha + MARGIN
        if not below.any():
            continue
        n1 = n1[below]
        ok = grid.rows(n2, n1).feasible(cons).nonzero()[0]
        if ok.size:
            n1 = n1[ok]
            keys = keyed(n1, n2, grid.p_stop[n1])
            i = keys.argmin()
            best = (float(keys[i]), n2, int(n1[i]))
    if best is None:
        return None
    _, n2, n1 = best
    oc = grid.oc(n1, n2)
    return CalibratedDesign(TwoStageDesign(n1, n2, k, k_f), oc, oc.e_n_h0)


def calibrate(
    cons: CalibrationConstraints,
    k: float,
    k_f: float,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    null_prior: Optional[DesignPrior] = None,
) -> Optional[CalibratedDesign]:
    """First calibrated design in the order (n2, n1), both ascending.

    The search walk with a constant key, which ends at the first hit.  None
    when no design with n2 <= n_max qualifies, and when no interim size in
    [n_min, n_max - 1] can stop for futility at k_f.
    """
    return _search(cons, False, k, k_f, hyp, ap, power_prior, null_prior)


def optimal_calibrate(
    cons: CalibrationConstraints,
    k: float,
    k_f: float,
    hyp: Hypotheses,
    ap: AnalysisPrior,
    power_prior: DesignPrior,
    null_prior: Optional[DesignPrior] = None,
) -> Optional[CalibratedDesign]:
    """Feasible design minimizing the expected sample size under H0.

    The search walk keyed by E[N|H0] as `operating.walk_key` forms it from
    the tabled stop probabilities; ties go to the smaller n2, then the
    smaller n1.  Since E[N|H0] >= n1, the key bound keeps a short prefix of
    interim sizes, and the walk ends soon after n2 passes the optimum's
    E[N|H0].  None when no design with n2 <= n_max is feasible, and when no
    interim size in [n_min, n_max - 1] can stop for futility at k_f.
    """
    return _search(cons, True, k, k_f, hyp, ap, power_prior, null_prior)


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

    One row per n1 in [n_min, n2 - 1], in deterministic ascending order, so
    a final size n2 <= n_min gives none; exposes the error-rate oscillations
    in the interim size.
    """
    n2_values = [n2_values] if isinstance(n2_values, numbers.Integral) else list(n2_values)
    for n2 in n2_values:
        check_size("n2", n2)
    sizes = [n2 for n2 in n2_values if n2 > cons.n_min]
    if not sizes:
        return []
    grid = DesignGrid(
        range(cons.n_min, max(sizes) + 1), k, k_f, hyp, ap, power_prior, null_prior
    )
    rows: list[ScanRow] = []
    for n2 in sizes:
        col = grid.rows(n2, np.arange(cons.n_min, n2))
        feasible = col.feasible(cons)
        for i, n1 in enumerate(range(cons.n_min, n2)):
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
