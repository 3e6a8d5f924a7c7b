"""Log-domain special functions for beta-binomial computations.

Everything downstream (predictive masses, Bayes factors) is assembled from
log factorials, log beta functions and the Beta mass of a truncation
interval, all taken from here: this is the one module that imports scipy,
whose cephes routines are the double precision path.  Masses that underflow
a double are recomputed in log space from the continued fraction of the
incomplete beta function, so log-scale quantities stay finite and accurate
far into the tails.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, betaincc, betaln, gammaln

# Below this, a mass computed in doubles is recomputed in log space.
_UNDERFLOW = 1e-290

# Modified Lentz iteration: floor for vanishing denominators, the
# convergence tolerance on each step's factor, and the iteration cap.
_TINY = 1e-300
_EPS = np.finfo(float).eps
_MAX_ITER = 10_000


def log_factorials(n: int) -> np.ndarray:
    """log y! for y = 0..n."""
    return gammaln(np.arange(n + 1) + 1.0)


def log_binom_coeff_vector(n: int) -> np.ndarray:
    """log C(n, y) for y = 0..n."""
    log_fact = log_factorials(n)
    return log_fact[n] - log_fact - log_fact[::-1]


def trunc_beta_mass(
    a: np.ndarray | float, b: np.ndarray | float, l: float, u: float
) -> np.ndarray:
    """Beta(a, b) probability mass on [l, u], elementwise over a and b.

    An interior interval is I_u - I_l, taken from the complemented cdfs
    (survival functions) when I_l > 1/2, where the direct difference would
    cancel.
    """
    if l == 0.0:
        return betainc(a, b, u)
    if u == 1.0:
        return betaincc(a, b, l)
    lo = betainc(a, b, l)
    return np.where(lo > 0.5, betaincc(a, b, l) - betaincc(a, b, u), betainc(a, b, u) - lo)


def _floor(v: np.ndarray) -> np.ndarray:
    """Lentz's guard: replace near-zero denominators by a tiny number."""
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _log_lower_tail(a: np.ndarray, b: np.ndarray, x: np.ndarray | float) -> np.ndarray:
    """log I_x(a, b) from the incomplete beta continued fraction.

    I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) * cf, with cf evaluated by the
    modified Lentz method (Numerical Recipes, section 6.4) on every entry at
    once; the prefactor is summed in logs, so it never underflows.  The
    fraction converges fast only for x < (a + 1) / (a + b + 2); outside that
    regime, or without convergence, this raises ArithmeticError rather than
    return a value it cannot vouch for.
    """
    a, b, x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, x)))
    if not np.all(x < (a + 1.0) / (a + b + 2.0)):
        raise ArithmeticError("continued fraction asked outside x < (a+1)/(a+b+2)")
    cf = np.empty(a.shape)
    live = np.arange(a.size)
    p, q, t = a.ravel(), b.ravel(), x.ravel()
    c = np.ones(a.size)
    d = 1.0 / _floor(1.0 - (p + q) * t / (p + 1.0))
    h = d.copy()
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (q - m) * t / ((p + m2 - 1.0) * (p + m2))
        d = 1.0 / _floor(1.0 + even * d)
        c = _floor(1.0 + even / c)
        h *= d * c
        odd = -(p + m) * (p + q + m) * t / ((p + m2) * (p + m2 + 1.0))
        d = 1.0 / _floor(1.0 + odd * d)
        c = _floor(1.0 + odd / c)
        step = d * c
        h *= step
        done = np.abs(step - 1.0) < _EPS
        cf.flat[live[done]] = h[done]
        if done.all():
            break
        keep = ~done
        live, p, q, t, c, d, h = (v[keep] for v in (live, p, q, t, c, d, h))
    else:
        raise ArithmeticError(f"continued fraction unconverged after {_MAX_ITER} steps")
    return a * np.log(x) + b * np.log1p(-x) - np.log(a) - betaln(a, b) + np.log(cf)


def log_trunc_beta_mass(
    a: np.ndarray | float, b: np.ndarray | float, l: float, u: float
) -> np.ndarray:
    """log of the Beta(a, b) probability mass on [l, u], elementwise over a and b.

    a and b are scalars or arrays of one shape.

    Entries whose double-precision mass underflows are recomputed by the
    log-space continued fraction: a lower tail [0, u] directly, an upper tail
    [l, 1] as the lower tail of Beta(b, a) at 1 - l, and an interior interval
    as the log-difference of its two tails on the side of (a+1)/(a+b+2) where
    it lies.

    A narrow interior interval cancels: its mass carries a relative error of
    about 1e-16 / (1 - I_l / I_u) or more.  For a = 1600, b = 160 on
    [0.5 - 1e-13, 0.5] the result is off by 4.5e-7 in the log (3e-4 in the
    mass) against 60-digit mpmath.  A config builds only the tails [0, p0]
    and [p0, 1], which do not cancel.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mass = np.asarray(trunc_beta_mass(a, b, l, u), dtype=float)
    out = np.full(mass.shape, -np.inf)
    ok = mass > _UNDERFLOW
    out[ok] = np.log(mass[ok])
    low = ~ok
    if not low.any():
        return out
    a, b = a[low], b[low]
    if l == 0.0:
        out[low] = _log_lower_tail(a, b, u)
    elif u == 1.0:
        out[low] = _log_lower_tail(b, a, 1.0 - l)
    else:
        flip = l > (a + 1.0) / (a + b + 2.0)
        p, q = np.where(flip, b, a), np.where(flip, a, b)
        outer = _log_lower_tail(p, q, np.where(flip, 1.0 - l, u))
        inner = _log_lower_tail(p, q, np.where(flip, 1.0 - u, l))
        with np.errstate(divide="ignore"):
            out[low] = outer + np.log(-np.expm1(inner - outer))
    return out


def log_binom_pmf_vector(n: int, p: float) -> np.ndarray:
    """log Bin(y; n, p) for y = 0..n, with exact handling of p in {0, 1}."""
    if p in (0.0, 1.0):
        out = np.full(n + 1, -np.inf)
        out[0 if p == 0.0 else n] = 0.0
        return out
    y = np.arange(n + 1)
    return log_binom_coeff_vector(n) + y * math.log(p) + (n - y) * math.log1p(-p)
