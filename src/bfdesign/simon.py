"""Exact search for Simon's two-stage phase II designs.

A Simon design (r1, n1, r, n2) enrolls n1 patients, stops for futility when
at most r1 respond, otherwise continues to n2 patients and rejects H0 when
the total number of responders exceeds r.  Everything here is computed by
exact binomial enumeration; the optimal and minimax designs provide an
independent cross-check for the Bayes factor design search, which recovers
the optimal design under frequentist power and moderate evidence thresholds.

A search walks the final size n2 upward in one vectorized step each:
`_reject_tensor` gives P(X1 > r1, X1 + X2 > r) for every live (n1, r1, r)
at once, from one gather of the tails and a read-only strided view of it.
Each entry is the same sequential sum from x1 = n1 down, so `simon_oc`
gives a design the same bits alone as in the search.  Bin(n, p) is tabled
once per success rate, a block of up to `operating.WALK_BLOCK` consecutive
sizes in one pass when the walk reaches an untabled size (`_table_block`):
one log-space pmf block from `special`, whose rows have the bits of each
size alone, gives the reversed pmf, the upper tail and, under p0, the PET
of every futility bound.  The tables grow by doubling in rows and width
up to n_max, so memory follows the walk and not n_max.  Feasibility is
read off the tensors with the decision margin `operating.MARGIN` in the
design's favor; a step's winner, the least feasible entry in a fixed
order, is decided and reported in exact rationals on a side inside the
margin (`_exact_reject`), correctly rounded, so there alone its bits may
differ from `simon_oc`'s.  Four cuts spare work without changing an
answer, each only where a bound misses its target by more than the margin:

- Neyman-Pearson ceiling.  A step whose randomized UMP test misses the
  power target builds no tensor (`_ump_short`).  Its rows still fill the
  tables.
- Power cap.  P(X1 > r1, X1 + X2 > r) <= P(X1 + X2 > r) = P(Bin(n2, p1) > r),
  so a feasible r has single-look power >= 1 - beta: a step takes only the
  r whose single-look tail reaches it, and is skipped when there is none.
  Likewise P(X1 > r1, X1 + X2 > r) <= 1 - PET(p1), so a row (n1, r1) whose
  PET under p1 exceeds beta is never feasible, at any n2.
- Incumbent bound and walk end.  Once an optimal design is known, only a
  strictly smaller E[N|p0] can win.  E[N|p0] is `operating.walk_key` of the
  PET of (n1, r1), the key of the Bayes factor search too, so a step
  evaluates only the rows whose key is below the incumbent's, and the walk
  ends as proved there: at the first n2 where no row is both below the
  incumbent and under the PET cap.  The minimax design, fixed at the first
  n2 with a design, stands too.

A step splits its interim sizes into blocks whose tensors hold at most
`special._BLOCK` entries, so memory stays bounded at any n_max.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .operating import MARGIN, WALK_BLOCK, walk_key
from .priors import check_interval, check_size
from .special import _BLOCK, _mirror, log_binom_pmf_vector


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


def _pets(top: np.ndarray) -> np.ndarray:
    """pets[..., n, d] = P(X <= n - 1 - d), the PET of r1 = n - 1 - d.

    The running sum of each row of `top` from its far end, clipped at 1.
    """
    return np.minimum(np.cumsum(top[..., :0:-1], axis=-1)[..., ::-1], 1.0)


def _table_block(
    tables: np.ndarray, capped: np.ndarray, n_max: int, p0: float, p1: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """(tables, capped) with the next block of at most `operating.WALK_BLOCK` rows tabled.

    tables stacks top0, tails0, pets, top1, tails1, indexed by the size n:
    top[n, d] = P(X = n - d) and tails[n, t + 1] = P(X > t) for t = -1..n
    under p0 and p1, pets[n, d] the PET of r1 = n - 1 - d under p0, and
    entries past a row's size 0.  capped[n] counts the rows d whose
    PET(p1) exceeds beta, and its length is the number of rows tabled.
    The capacity doubles up to n_max + 1 when a block does not fit.  Row n
    has the bits of `_binomial_table(n, p)` alone: the pmf block's rows
    have them (`special`), the reversals only move them, and a row-wise
    cumsum runs from x = n down as the one-size sum does, the zeros past a
    row adding exactly.
    """
    lo = capped.size
    hi = min(lo + WALK_BLOCK, n_max + 1)
    size = tables.shape[1]
    if hi > size:  # a walk copies O(n_max^2) entries in all
        cap = min(max(hi, 2 * size), n_max + 1)
        grown = np.zeros((5, cap, cap + 1))
        grown[:, :size, : size + 1] = tables
        tables = grown
    sizes = np.arange(lo, hi)
    for i, p in ((0, p0), (3, p1)):
        top = _mirror(np.exp(log_binom_pmf_vector(sizes, p)), sizes[:, None], 0.0)
        tables[i, lo:hi, :hi] = top
        tables[i + 1, lo:hi, :hi] = _mirror(np.cumsum(top, axis=1), sizes[:, None], 0.0)
    pets = _pets(tables[0:4:3, lo:hi, :hi])  # under p0 and p1
    tables[2, lo:hi, : hi - 1] = pets[0]
    return tables, np.append(capped, np.count_nonzero(pets[1] > beta + MARGIN, axis=1))


def _reject_tensor(top: np.ndarray, tails: np.ndarray, n1s: np.ndarray, cols: int) -> np.ndarray:
    """rej[d, i, r] = P(X1 > n1s[i] - 1 - d, X1 + X2 > r) for d < top.shape[1], r < cols.

    Row i of `top` and `tails` are `_table_block` rows of the first-stage
    count X1 ~ Bin(n1s[i], p) and of the second-stage count X2; r - x1 is
    clipped into [-1, tails.shape[1] - 2].  One gather lays out, per row,
    the tail at r - x1 for every d + r, and a read-only strided view reads
    it as windows[d, i, r].  Every entry is the sequential sum from x1 = n1
    down, so it has the same bits whatever the depth, cols or batch.
    """
    depth, width = top.shape[1], tails.shape[1]
    index = np.arange(1, depth + cols) - n1s[:, None]  # at d + r: r - x1 + 1
    np.maximum(index, 0, out=index)
    np.minimum(index, width - 1, out=index)
    ext = tails[np.arange(n1s.size)[:, None], index]
    row, step = ext.strides
    windows = as_strided(ext, (depth, n1s.size, cols), (step, row, step), writeable=False)
    rej = np.multiply(top.T[:, :, None], windows, out=np.empty((depth, n1s.size, cols)))
    return np.cumsum(rej, axis=0, out=rej)


def _exact_reject(r1: int, n1: int, r: int, n2: int, p: float):
    """P(X1 > r1, X1 + X2 > r) as an exact Fraction at the double p = a / b.

    c counts the outcome paths with X1 > r1 and X1 + X2 = s, and the sum of
    c a^s (b - a)^(n2 - s) over s > r is taken by Horner's rule from s = n2
    down, so the running sum is only ever multiplied by a.
    """
    from fractions import Fraction  # a winner at a bound only: kept off the import path

    a, b = p.as_integer_ratio()
    m = n2 - n1
    first = [comb(n1, x) for x in range(n1 + 1)]
    second = [comb(m, y) for y in range(m + 1)]
    paths, power = 0, 1
    for s in range(n2, r, -1):
        c = sum(first[x] * second[s - x] for x in range(max(r1 + 1, s - m), min(n1, s) + 1))
        paths, power = paths * a + c * power, power * (b - a)
    return Fraction(paths * a ** (r + 1), b**n2)


def _ump_short(
    pmf0: np.ndarray, tail0: np.ndarray, pmf1: np.ndarray, tail1: np.ndarray,
    alpha: float, target: float,
) -> bool:
    """Whether the randomized UMP level-alpha test of p0 against p1 > p0 has power below target.

    pmf[x] = P(S = x) and tail[t + 1] = P(S > t) of one Bin(n, p) under p0
    and p1, as `_binomial_table` gives them.  The test rejects when S > c,
    and with probability gamma when S = c, where c is the least count with
    P0(S > c) <= alpha and gamma P0(S = c) = alpha - P0(S > c).  A Simon
    design at n rejects on an event of the n outcomes, so it is a
    non-randomized level-alpha test of p0 against p1, and its power is at
    most this test's (the Neyman-Pearson lemma).  The UMP power
    P1(S > c) + gamma P1(S = c) is compared times P0(S = c), so a zero mass
    never divides; c = -1, a test that always rejects, is never short.
    """
    c = int(np.count_nonzero(tail0 > alpha)) - 1
    if c < 0:
        return False
    power = tail1[c + 1] * pmf0[c] + (alpha - tail0[c + 1]) * pmf1[c]
    return bool(power < target * pmf0[c])


def simon_oc(r1: int, n1: int, r: int, n2: int, p: float) -> tuple[float, float, float]:
    """(rejection probability, PET, E[N]) of a design at success rate p.

    PET is the probability of early termination, P(X1 <= r1).  H0 is
    rejected when the trial continues and the total count exceeds r.
    """
    check_size("n2", n2)
    check_size("n1", n1, 0, n2 - 1)
    check_size("r1", r1, 0, n1)
    check_size("r", r, r1, n2)
    check_interval("p", p, closed=True)
    reject, pet = 0.0, 1.0  # r1 = n1 always stops
    if r1 < n1:
        d = n1 - 1 - r1
        top = _binomial_table(n1, p)[0][None, ::-1]
        tails = _binomial_table(n2 - n1, p)[1][None]
        reject = float(_reject_tensor(top[:, : d + 1], tails, np.array([n1]), r + 1)[d, 0, r])
        pet = float(_pets(top)[0, d])
    return reject, pet, float(walk_key(n1, n2, pet))


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
    check_interval("p0", p0)
    check_interval("p1", p1, p0)
    check_interval("alpha", alpha)
    check_interval("beta", beta)

    tables = np.zeros((5, 0, 1))  # top0, tails0, pets, top1, tails1 (`_table_block`)
    capped = np.zeros(0, dtype=np.int64)  # rows d < capped[n1] have PET(p1) > beta
    best_optimal: Optional[SimonDesign] = None
    best_minimax: Optional[SimonDesign] = None
    for n2 in range(2, n_max + 1):
        # a step reads top rows n1 < n2, tails rows n2 - n1 and row n2
        if n2 >= capped.size:
            tables, capped = _table_block(tables, capped, n_max, p0, p1, beta)
            top0, tails0, pets, top1, tails1 = tables
        if _ump_short(
            top0[n2, n2::-1], tails0[n2], top1[n2, n2::-1], tails1[n2], alpha, 1.0 - beta - MARGIN
        ):
            continue  # the Neyman-Pearson ceiling
        # the minimax design is fixed at the first n2 with a design, where
        # both answers share this strict bound
        bound = np.inf if best_optimal is None else best_optimal.e_n_h0
        n1s = np.arange(1, n2)
        n1s = n1s[n1s < bound]  # E[N|p0] >= n1
        e_n = walk_key(n1s[:, None], n2, pets[n1s, : n2 - 1])
        live = np.minimum((e_n < bound).sum(axis=1), n1s)  # rows d < live
        keep = live > capped[n1s]
        if best_optimal is not None and not keep.any():
            break  # the horizon: no row here or later can win
        cols = int(np.count_nonzero(tails1[n2, 1 : n2 + 2] >= 1.0 - beta - MARGIN))  # power cap
        n1s, e_n, live = n1s[keep], e_n[keep], live[keep]
        if cols == 0 or n1s.size == 0:
            continue
        step = max(1, _BLOCK // (int(live.max()) * cols))
        for lo in range(0, n1s.size, step):
            n1b, k = n1s[lo : lo + step], live[lo : lo + step]
            depth = int(k.max())
            rej0 = _reject_tensor(top0[n1b, :depth], tails0[n2 - n1b], n1b, cols)
            rej1 = _reject_tensor(top1[n1b, :depth], tails1[n2 - n1b], n1b, cols)
            ds = np.arange(depth)[:, None]
            feasible = (rej0 <= alpha + MARGIN) & (rej1 >= 1.0 - beta - MARGIN)
            feasible &= np.arange(cols) >= (n1b - 1 - ds)[:, :, None]  # r >= r1
            while (rows := feasible.any(axis=2) & (ds < k)).any():
                # within an n1 the largest PET wins, then the first r1 (the last d);
                # across n1 the smallest E[N|p0], then the first n1
                pet = np.where(rows, pets[n1b, :depth].T, -1.0)
                best_d = depth - 1 - pet[::-1].argmax(axis=0)
                e_best = e_n[np.arange(lo, lo + n1b.size), best_d]
                i = int(np.where(rows.any(axis=0), e_best, np.inf).argmin())
                d, n1 = int(best_d[i]), int(n1b[i])
                r1, r = n1 - 1 - d, int(feasible[d, i].argmax())
                alpha_at, power_at, ok = float(rej0[d, i, r]), float(rej1[d, i, r]), True
                # a side inside the margin is decided, and reported, exactly
                if alpha_at > alpha - MARGIN:
                    exact = _exact_reject(r1, n1, r, n2, p0)
                    ok, alpha_at = exact <= alpha, float(exact)
                if ok and power_at < 1.0 - beta + MARGIN:
                    exact = _exact_reject(r1, n1, r, n2, p1)
                    ok, power_at = 1 - exact <= beta, float(exact)
                if not ok:
                    feasible[d, i, r] = False  # the next entry in the order is tried
                    continue
                design = SimonDesign(
                    r1=r1,
                    n1=n1,
                    r=r,
                    n2=n2,
                    alpha_attained=alpha_at,
                    power_attained=power_at,
                    pet_p0=float(pets[n1, d]),
                    e_n_h0=float(e_n[lo + i, d]),
                )
                if best_optimal is None or design.e_n_h0 < best_optimal.e_n_h0:
                    best_optimal = design
                break
        if best_minimax is None:
            best_minimax = best_optimal
    if best_optimal is None:
        return None
    return best_optimal, best_minimax
