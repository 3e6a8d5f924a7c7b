"""Exact search for Simon's two-stage phase II designs.

A Simon design (r1, n1, r, n2) enrolls n1 patients, stops for futility when
at most r1 respond, otherwise continues to n2 patients and rejects H0 when
the total number of responders exceeds r.  Everything here is computed by
exact binomial enumeration; the optimal and minimax designs provide an
independent cross-check for the Bayes factor design search, which recovers
the optimal design under frequentist power and moderate evidence thresholds.

One search builds the pmf and upper-tail vectors of Bin(n, p) for every
n <= n_max once per success rate, from the log-space kernel in `special`,
and every (n1, n2) pair indexes those tables.  `simon_oc` goes through the
same tables and the same rejection matrix, so a design has the same bits
alone as in the search.  Once an optimal design is known, only a strictly
smaller E[N|p0] can win, so the search evaluates only the interim sizes n1
below the incumbent's E[N|p0] (E[N|p0] >= n1) and, within a pair, only the
futility bounds r1 whose E[N|p0] is below it (E[N|p0] depends on r1 alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .priors import check_size
from .special import log_binom_pmf_vector


@dataclass(frozen=True)
class SimonDesign:
    """One two-stage design with its attained operating characteristics."""

    r1: int
    n1: int
    r: int
    n2: int
    alpha_attained: float
    power_attained: float
    pet_p0: float
    e_n_h0: float


def _binomial_table(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(pmf, tail) of Bin(n, p): pmf[x] for x = 0..n, tail[t + 1] = P(X > t) for t = -1..n."""
    pmf = np.exp(log_binom_pmf_vector(n, p))
    tail = np.zeros(n + 2)
    tail[: n + 1] = np.cumsum(pmf[::-1])[::-1]
    return pmf, tail


def _pet(pmf1: np.ndarray) -> np.ndarray:
    """pet[r1] = P(X1 <= r1): the running sum clipped at 1, and 1 at r1 = n1."""
    pet = np.minimum(np.cumsum(pmf1), 1.0)
    pet[-1] = 1.0
    return pet


def _shifted_tails(tail2: np.ndarray, n1_max: int) -> np.ndarray:
    """shifted[n1_max - x1, r] = P(X2 > r - x1) for x1 = 0..n1_max, r = 0..n1_max + m.

    `tail2` is the upper tail of the second-stage count X2 ~ Bin(m, p) from
    `_binomial_table`; r - x1 is clipped into [-1, m].  The result is a
    read-only strided view, so building it copies only one padded vector.
    """
    ext = np.concatenate((np.full(n1_max, tail2[0]), tail2[1:], np.zeros(n1_max)))
    return sliding_window_view(ext, ext.size - n1_max)


def _reject_matrix(pmf1: np.ndarray, shifted: np.ndarray, r1_min: int = 0) -> np.ndarray:
    """reject[r1 - r1_min, r] = P(X1 > r1, X1 + X2 > r) for r1 = r1_min..n1, r = 0..n2.

    `pmf1` is the pmf of the first-stage count X1 from `_binomial_table` and
    `shifted` comes from `_shifted_tails` with any n1_max >= n1.  The sums run
    from x1 = n1 down, so a row has the same bits whatever r1_min and n1_max
    are.
    """
    n1 = pmf1.size - 1
    n1_max = shifted.shape[0] - 1
    n2 = n1 + shifted.shape[1] - 1 - n1_max
    rows = shifted[n1_max - n1 : n1_max - r1_min, : n2 + 1]
    reject = np.zeros((n1 + 1 - r1_min, n2 + 1))  # the row of r1 = n1 stays 0
    reject[:-1] = np.cumsum(pmf1[n1:r1_min:-1, None] * rows, axis=0)[::-1]
    return reject


def simon_oc(r1: int, n1: int, r: int, n2: int, p: float) -> tuple[float, float, float]:
    """(rejection probability, PET, E[N]) of a design at success rate p.

    PET is the probability of early termination, P(X1 <= r1).  H0 is
    rejected when the trial continues and the total count exceeds r.
    """
    for name, value in (("r1", r1), ("n1", n1), ("r", r), ("n2", n2)):
        check_size(name, value)
    if not (0 <= r1 <= n1 < n2 and r1 <= r <= n2):
        raise ValueError(f"invalid design bounds: r1={r1}, n1={n1}, r={r}, n2={n2}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    pmf1, _ = _binomial_table(n1, p)
    _, tail2 = _binomial_table(n2 - n1, p)
    reject = float(_reject_matrix(pmf1, _shifted_tails(tail2, n1))[r1, r])
    pet = float(_pet(pmf1)[r1])
    e_n = n1 + (1.0 - pet) * (n2 - n1)
    return reject, pet, e_n


def simon_search(
    p0: float,
    p1: float,
    alpha: float,
    beta: float,
    n_max: int = 60,
) -> Optional[tuple[SimonDesign, SimonDesign]]:
    """Exhaustive (optimal, minimax) Simon design search.

    Optimal minimizes the expected sample size under p0; minimax minimizes
    the maximum sample size n2 and breaks ties by the same expectation.
    None when no design with n2 <= n_max meets the error targets.
    """
    check_size("n_max", n_max)
    if not 0.0 < p0 < p1 < 1.0:
        raise ValueError(f"need 0 < p0 < p1 < 1, got p0={p0}, p1={p1}")
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ValueError(f"error targets must lie in (0, 1), got {alpha}, {beta}")

    tables0 = [_binomial_table(n, p0) for n in range(n_max + 1)]
    tables1 = [_binomial_table(n, p1) for n in range(n_max + 1)]
    pets = [_pet(pmf) for pmf, _ in tables0]
    # the second stage of size m serves every n1 <= n_max - m
    shifted0 = [_shifted_tails(tail, n_max - m) for m, (_, tail) in enumerate(tables0)]
    shifted1 = [_shifted_tails(tail, n_max - m) for m, (_, tail) in enumerate(tables1)]
    # valid[r1, r]: a design needs r1 <= r
    valid = np.arange(n_max + 1)[None, :] >= np.arange(n_max + 1)[:, None]

    best_optimal: Optional[SimonDesign] = None
    best_minimax: Optional[SimonDesign] = None
    for n2 in range(2, n_max + 1):
        for n1 in range(1, n2):
            pet = pets[n1]
            e_n = n1 + (1.0 - pet) * (n2 - n1)  # E[N|p0] of each r1
            r1_min = 0
            if best_optimal is not None:
                # Only a strictly smaller E[N|p0] can win, and E[N|p0] >= n1.
                # The minimax design is fixed in the first column with a
                # feasible design, where both answers share this strict test.
                if n1 >= best_optimal.e_n_h0:
                    break
                r1_min = int(np.argmax(e_n < best_optimal.e_n_h0))
                if e_n[r1_min] >= best_optimal.e_n_h0:
                    continue
            reject_p0 = _reject_matrix(tables0[n1][0], shifted0[n2 - n1], r1_min)
            reject_p1 = _reject_matrix(tables1[n1][0], shifted1[n2 - n1], r1_min)
            feasible = (
                (reject_p0 <= alpha)
                & (reject_p1 >= 1.0 - beta)
                & valid[r1_min : n1 + 1, : n2 + 1]
            )
            rows = np.flatnonzero(feasible.any(axis=1))
            if rows.size == 0:
                continue
            # E[N|p0] depends on r1 only; the largest feasible r1 wins
            row = int(rows[np.argmax(pet[r1_min + rows])])
            r1 = r1_min + row
            r = int(np.flatnonzero(feasible[row])[0])
            design = SimonDesign(
                r1=r1,
                n1=n1,
                r=r,
                n2=n2,
                alpha_attained=float(reject_p0[row, r]),
                power_attained=float(reject_p1[row, r]),
                pet_p0=float(pet[r1]),
                e_n_h0=float(e_n[r1]),
            )
            if best_optimal is None or design.e_n_h0 < best_optimal.e_n_h0:
                best_optimal = design
            if best_minimax is None or (design.n2, design.e_n_h0) < (
                best_minimax.n2,
                best_minimax.e_n_h0,
            ):
                best_minimax = design
    if best_optimal is None or best_minimax is None:
        return None
    return best_optimal, best_minimax
