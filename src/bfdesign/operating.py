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
subtracts the erased mass, the probability of {Y1 <= y} and {S >= y_eff} for
the interim count Y1, the pooled count S at n2, y = y_fut(n1) and
y_eff = y_eff(n2).  Given S = s, Y1 is hypergeometric (n2, s, n1) whatever
the design prior.  Turn one of the n2 - s failures, chosen at random, into a
success: Y1 rises exactly when it lies among the n1 - Y1 interim failures,
so P(Y1 <= y | s + 1) = P(Y1 <= y | s) - P(Y1 = y | s) (n1 - y) / (n2 - s).
Telescoped from s = n2 and summed against the predictive pmf at n2, with
w(t) = C(n1, y) C(n2 - n1, t - y) / (n2 C(n2 - 1, t)), it is a positive sum

    erased(n1) = [y >= n1] P(S >= y_eff)
                 + (n1 - y) sum_{t=y_eff}^{n2-1} w(t) P(y_eff <= S <= t).

One predictive vector and one log-factorial table thus serve all interim
sizes of a final size (`erased_mass_column`), with no two-batch joint table.

`DesignGrid` is the one closed-form route from a design to its operating
characteristics.  It tables the critical counts and branch masses of each
size once, a block of consecutive sizes per vectorized pass (see its
docstring), and adds the erased masses one final size at a time.  The
searches table a block of sizes as their walk reaches it; `evaluate` builds
the grid over a design's two sizes and reads it at (n1, n2).

`bfdesign.oracle` checks all of this by enumerating every sample path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bayesfactor import (
    AnalysisPrior, Hypotheses, _check_regions, check_thresholds, critical_counts
)
from .predictive import log_predictive_rows
from .priors import DesignPrior, PointMass, check_size
from .special import _BLOCK, log_factorials

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
        check_size("n2", self.n2)
        check_size("n1", self.n1, 1, self.n2 - 1)
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
    pmfs: Sequence[np.ndarray],
) -> np.ndarray:
    """Erased mass of every interim size n1[i] at one final size n2.

    Entry [j, i] is the erased mass of n1[i] under the design prior whose
    predictive pmf at n2 is pmfs[j].  y_fut[i] is the futility critical
    count at n1[i] and y_eff the efficacy critical count at n2; None marks
    an unreachable threshold, which erases nothing.  Rows take the
    telescoped sum of the module docstring in blocks of at most `_BLOCK`
    (row, t) weights.  The weights do not depend on the prior, so a block
    serves every prior: the priors' cdfs are stacked, and one product and
    one sum form every (prior, row, t), a temporary of at most
    len(pmfs) * `_BLOCK` entries.  Each (prior, row) is reduced along its
    own contiguous axis over all of t = y_eff..n2 - 1, as a lone row is: a
    design gives the same bits alone as inside its column, and under one
    prior as under several.
    """
    n1 = np.asarray(n1, dtype=np.int64)
    y_fut = np.array([-1 if y is None else y for y in y_fut], dtype=np.int64)
    if (n1 < 1).any() or (n1 >= n2).any():
        raise ValueError(f"need 1 <= n1 < n2 = {n2} for every interim size")
    erased = np.zeros((len(pmfs), n1.size))
    if y_eff is None:
        return erased
    pmfs = np.asarray(pmfs)[:, y_eff:]
    cdfs = pmfs[:, None, :-1].cumsum(axis=2)
    tops = pmfs.sum(axis=1)[:, None]
    log_fact = log_factorials(n2)
    t = np.arange(y_eff, n2)
    log_t = log_fact[t] + log_fact[n2 - 1 - t] - log_fact[n2]
    live_rows = (y_fut >= 0).nonzero()[0]
    step = max(1, _BLOCK // max(t.size, 1))
    for start in range(0, live_rows.size, step):
        i = live_rows[start : start + step]
        k = n1[i]
        y, m = np.minimum(y_fut[i], k), (n2 - k)[:, None]
        j = t - y[:, None]  # successes among the m final-batch outcomes
        clipped = np.minimum(np.maximum(j, 0), m)
        log_w = (
            (log_fact[k] - log_fact[y] - log_fact[k - y])[:, None]
            + (log_fact[m] - log_fact[clipped] - log_fact[m - clipped])
            + log_t
        )
        w = np.exp(np.where(clipped == j, log_w, -np.inf))
        erased[:, i] = (k - y) * (w * cdfs).sum(axis=2) + (y == k) * tops
    return erased


def checked_adjusted(unadjusted: float, erased: np.ndarray) -> np.ndarray:
    """unadjusted - erased, clipped at zero after the negativity check.

    Works elementwise on a whole column; a dip below zero larger than
    rounding means inconsistent critical values and raises.
    """
    value = unadjusted - erased
    if (value < -_NEGATIVITY_TOL).any():
        raise ArithmeticError(
            f"adjusted rate {np.min(value)} is negative beyond tolerance; "
            "critical values are inconsistent"
        )
    return np.maximum(value, 0.0)


def expected_size(n1, n2, p_stop):
    """Expected enrolled size given the interim stop probability, elementwise."""
    return n2 - (n2 - n1) * p_stop


# Decision margin of both searches, far above the rounding of any sum
# compared: a cut skips only a bound that misses its target by more.
MARGIN = 1e-9
# Most sizes a search walk tables in one pass when it reaches an untabled size.
WALK_BLOCK = 16


def walk_key(n1, n2, p_stop):
    """Expected enrolled size as the searches rank it, n1 + (n2 - n1) max(1 - p_stop, 0).

    Both search walks, over n2 upward, key a row (n1, stop rule) by this
    and end at the first n2 where no row's key is below the incumbent's.
    That end is exact in doubles.  The factor max(1 - p_stop, 0) is fixed
    per row and at least 0, and rounding is monotone, so a row's key never
    falls as n2 grows.  A row added later has a key of at least its n1,
    which is at least the current n2.  That is above the incumbent's n2,
    and so above its key, since the factor is at most 1.  The reported
    E[N|H0] keeps `expected_size`, whose bits the acceptance tests pin.
    """
    return n1 + (n2 - n1) * np.maximum(1.0 - p_stop, 0.0)


def split_branches(
    pmfs: np.ndarray,
    sizes: Sequence[int],
    y_eff: Sequence[Optional[int]],
    y_fut: Sequence[Optional[int]],
    out: np.ndarray,
) -> None:
    """Cut a block of predictive pmfs at their critical counts into branch masses.

    pmfs[j, i] is prior j's pmf at sizes[i], padded past it.  out[i, j]
    gets its efficacy, indecisive and futility masses: efficacy is
    pmf[y_eff:n + 1], futility pmf[:y_fut + 1] and indecisive what lies
    between; None for a critical count leaves that branch empty.  Each
    branch is one `np.add.reduce` over every prior, each prior's slice
    reduced along its own contiguous axis as `ndarray.sum` reduces it
    alone, so a size has the same bits in any block.
    """
    for i, (n, eff, fut) in enumerate(zip(sizes, y_eff, y_fut)):
        hi = n + 1 if eff is None else eff
        lo = 0 if fut is None else fut + 1
        row, masses = pmfs[:, i], out[i].T
        np.add.reduce(row[:, hi : n + 1], axis=1, out=masses[0])
        np.add.reduce(row[:, lo:hi], axis=1, out=masses[1])
        np.add.reduce(row[:, :lo], axis=1, out=masses[2])


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
    """Every design (n1, n2) with n1 < n2 drawn from a set of tabled sizes.

    Tabling a size n finds its critical counts `y_eff[n]` and `y_fut[n]`
    (None when k or k_f is out of reach) and cuts each design prior's pmf
    at n there once: `h1[n]` holds the three branch masses under the power
    prior and `h0[n]` under the null prior.  Their efficacy columns are the
    single-look `power` and `type_i`, the null futility column the stop
    probability `p_stop`, and `pce` the futility mass under a point prior
    at p0 (`p_stop` itself when the null prior is that point).  Tables are
    indexed by n itself.  The counts are looked up by size, so reading a
    size the grid has not tabled raises KeyError.

    `add` tables exactly the sizes it is given, each run of consecutive
    sizes as blocks of at most `_BLOCK` entries (`_table`).  A block takes
    the log predictive rows of every distinct prior among the analysis and
    design priors from one `log_predictive_rows` call, which builds one
    binomial coefficient block for them all, the critical counts of all its
    sizes from one log BF01 block (`critical_counts`, which
    `critical_efficacy` uses too), and one `split_branches` call, which
    cuts every size's own rows straight into the tables, so every size has
    the bits it has alone.  A lone size is a one-row block.
    The constructor adds `sizes`, as `evaluate` and `scan` need; a walk
    over final sizes adds a block at a time as it reaches them, so little
    past the point where the walk ends is built.

    `rows` adds the erased mass of a set of interim sizes at one final size,
    one `erased_mass_column` call for both design priors, and keeps nothing.
    It reads the pmfs at the final size off the latest block, stacked by
    prior as `erased_mass_column` takes them, and builds
    them as a one-row block for a size tabled before it.  `oc` reads one
    design's full characteristics off the tables and one row.
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
        check_thresholds(k, k_f)
        _check_regions(hyp, ap)
        self.k, self.k_f, self.ap = k, k_f, ap
        self.power_prior = power_prior
        point_null = PointMass(hyp.p0)
        self.null_prior = null_prior if null_prior is not None else point_null
        # the last prior tabled is always the point null at p0, behind pce
        self._priors = (power_prior, self.null_prior)
        if self.null_prior != point_null:
            self._priors += (point_null,)
        self.y_eff: dict[int, Optional[int]] = {}
        self.y_fut: dict[int, Optional[int]] = {}
        self._masses = np.full((0, len(self._priors), 3), np.nan)
        # (first size, power and null pmf rows) of the latest block
        self._latest: tuple[int, np.ndarray] = (0, np.empty((2, 0, 0)))
        self.add(sizes)

    def add(self, sizes: Iterable[int]) -> None:
        """Table each of sizes; rows stay NaN until tabled."""
        block: list[int] = []
        for n in sorted(sizes):
            check_size("n", n, 1)
            if block and (n != block[-1] + 1 or (len(block) + 1) * (n + 1) > _BLOCK):
                self._table(np.array(block))
                block = []
            block.append(n)
        if block:
            self._table(np.array(block))

    def _table(self, sizes: np.ndarray) -> None:
        """Table one block of consecutive sizes (class docstring)."""
        # a prior both analysis and design use (a flat power prior is the H1
        # analysis prior) is built once
        log_h0, log_h1, *logs = log_predictive_rows((self.ap.h0, self.ap.h1) + self._priors, sizes)
        with np.errstate(invalid="ignore"):  # padding is -inf in both rows: NaN
            log_bf = log_h0 - log_h1
        y_eff, y_fut = critical_counts(log_bf, math.log(self.k), math.log(self.k_f))
        pmfs = np.exp(logs)  # (prior, size, y)
        size = len(self._masses)
        first, top = int(sizes[0]), log_bf.shape[1] - 1
        if top >= size:  # double the capacity, so a walk copies O(n) rows in all
            grown = np.full((max(top + 1, 2 * size),) + self._masses.shape[1:], np.nan)
            grown[:size] = self._masses
            self._masses = grown
        sizes = sizes.tolist()
        for n, eff, fut in zip(sizes, y_eff, y_fut):
            self.y_eff[n], self.y_fut[n] = eff, fut
        split_branches(pmfs, sizes, y_eff, y_fut, self._masses[first : top + 1])
        self._latest = (first, pmfs[:2])

    @property
    def h1(self) -> np.ndarray:
        return self._masses[:, 0]

    @property
    def h0(self) -> np.ndarray:
        return self._masses[:, 1]

    @property
    def power(self) -> np.ndarray:
        return self._masses[:, 0, 0]

    @property
    def type_i(self) -> np.ndarray:
        return self._masses[:, 1, 0]

    @property
    def p_stop(self) -> np.ndarray:
        return self._masses[:, 1, 2]

    @property
    def pce(self) -> np.ndarray:
        return self._masses[:, -1, 2]

    def rows(self, n2: int, n1: Sequence[int]) -> GridColumn:
        """Rates of the designs (n1[i], n2)."""
        n1 = np.asarray(n1, dtype=np.int64)
        y_fut = [self.y_fut[i] for i in n1.tolist()]
        y_eff = self.y_eff[n2]
        first, latest = self._latest
        i = n2 - first
        if 0 <= i < latest.shape[1]:
            pmfs = latest[:, i, : n2 + 1]
        else:
            pmfs = np.exp(log_predictive_rows(self._priors[:2], n2))
        erased_power, erased_type_i = erased_mass_column(n1, y_fut, n2, y_eff, pmfs)
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

