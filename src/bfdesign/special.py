"""Log-domain special functions for beta-binomial computations, numpy only.

Everything downstream is assembled from log factorials and one kernel,
`log_beta_integrals`.  On [0, u], with alpha = a + s and beta = b + n - s,
its integrals J(s) obey the backward recurrence (DLMF 8.17(iv))
alpha J(s) = u^alpha (1-u)^(beta-1) + (beta-1) J(s+1), whose terms are all
positive.  It runs from one anchor J(n), taken from the incomplete beta
continued fraction, and stays finite far below the double range.

The log factorials log y! for y = 0..3000 are one read-only table, built
once at import: exact up to 170!, Stirling's series above.  It is a fixed
constant, not a memo, and never grows; `log_factorials` hands out prefix
views of it and extends a copy by the same series past 3000.
"""

from __future__ import annotations

import math

import numpy as np

# Modified Lentz iteration: denominator floor, step tolerance, iteration cap.
_TINY = 1e-300
_EPS = np.finfo(float).eps
_MAX_ITER = 10_000
# Most entries of one block of work: `operating` and `simon` split their
# vectorized steps so no temporary holds more, and memory stays bounded.
_BLOCK = 2**17

# log y! from exact factorials up to 170! (171! overflows a double), and
# Stirling's series for log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2,
# whose omitted terms are below 1e-18 at x >= 17.
_LOG_FACT_EXACT = np.log([float(math.factorial(y)) for y in range(171)])
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Largest y in the import-time table (24 KB): the largest final sizes the
# tests and benchmark evaluate.  Past it, `log_factorials` extends a copy.
_LOG_FACT_MAX = 3000


def _stirling(x):
    """Stirling's series at x >= 17, elementwise."""
    r2 = 1.0 / (x * x)
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = c + r2 * series
    return series / x


def _log_factorial_range(lo: int, hi: int) -> np.ndarray:
    """log y! for y = lo..hi, lo >= 171, by Stirling's series at x = y + 1."""
    x = np.arange(lo + 1.0, hi + 2.0)
    return (x - 0.5) * np.log(x) - x + _HALF_LOG_2PI + _stirling(x)


_LOG_FACT = np.concatenate(
    (_LOG_FACT_EXACT, _log_factorial_range(_LOG_FACT_EXACT.size, _LOG_FACT_MAX))
)
_LOG_FACT.flags.writeable = False


def log_factorials(n: int) -> np.ndarray:
    """log y! for y = 0..n, read-only.

    Up to n = 3000 a prefix view of the import-time table; above it, that
    table extended by the same Stirling series, so every prefix of a longer
    result has the bits of a shorter one.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got n={n}")
    if n < _LOG_FACT.size:
        return _LOG_FACT[: n + 1]
    out = np.concatenate((_LOG_FACT, _log_factorial_range(_LOG_FACT.size, n)))
    out.flags.writeable = False
    return out


def log_binom_coeff_vector(n: int) -> np.ndarray:
    """log C(n, y) for y = 0..n."""
    log_fact = log_factorials(n)
    return log_fact[n] - log_fact - log_fact[::-1]


def log_beta(a: float, b: float) -> float:
    """log B(a, b); Stirling's series keeps large shapes from cancelling."""
    a, b = min(a, b), max(a, b)
    if b < 17.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    c = a + b
    tail = _stirling(b) - _stirling(c) - (b - 0.5) * math.log1p(a / b)
    return math.lgamma(a) + tail - a * math.log(c) + a


def _guard(v: float) -> float:
    return _TINY if abs(v) < _TINY else v


def _log_fraction(a: float, b: float, x: float) -> float:
    """log of the integral of p^(a-1) (1-p)^(b-1) over [0, x], 0 < x < 1.

    x^a (1-x)^b / a times the continued fraction by modified Lentz (Numerical
    Recipes 6.4), fast for x < (a+1)/(a+b+2); unconverged, it raises.
    """
    d = 1.0 / _guard(1.0 - (a + b) * x / (a + 1.0))
    c, h = 1.0, d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) / (a + m2 - 1.0) * x / (a + m2)
        d = 1.0 / _guard(1.0 + even * d)
        c = _guard(1.0 + even / c)
        h *= d * c
        odd = -(a + m) / (a + m2) * (a + b + m) / (a + m2 + 1.0) * x
        d = 1.0 / _guard(1.0 + odd * d)
        c = _guard(1.0 + odd / c)
        h *= d * c
        if abs(d * c - 1.0) < _EPS:
            return a * math.log(x) + b * math.log1p(-x) - math.log(a) + math.log(h)
    raise ArithmeticError(f"continued fraction unconverged after {_MAX_ITER} steps")


def _log_lower_tails(a: float, b: float, u: float, n: int) -> np.ndarray:
    """log J(s), s = 0..n, on [0, u], 0 < u <= 1.

    With P(s) the sum of log((beta-1)/alpha) below s, J(s) exp(P(s)) is the
    sum over j >= s of exp(P(j)) u^alpha (1-u)^(beta-1) / alpha, plus
    exp(P(n)) J(n): one reversed logaddexp accumulation.  beta - 1 is formed
    as b + (n - s - 1), so a tiny b is not rounded away.  Above the fraction's
    regime the anchor is B(a+n, b) less the upper tail, unless that tail
    holds over half of it (b tiny): then the fraction runs there, slowly
    as u nears 1.
    """
    s = np.arange(n, dtype=float)
    alpha, beta_m1 = a + s, b + (n - 1 - s)
    log_alpha = np.log(alpha)
    log_p = np.zeros(n + 1)
    np.cumsum(np.log(beta_m1) - log_alpha, out=log_p[1:])
    log_1mu = math.log1p(-u) if u < 1.0 else -math.inf
    terms = np.empty(n + 1)
    terms[:n] = log_p[:n] + alpha * math.log(u) + beta_m1 * log_1mu - log_alpha
    top = a + n
    if u < (top + 1.0) / (top + b + 2.0):
        anchor = _log_fraction(top, b, u)
    else:
        anchor = log_beta(top, b)
        share = math.exp(_log_fraction(b, top, 1.0 - u) - anchor) if u < 1.0 else 0.0
        anchor = _log_fraction(top, b, u) if share > 0.5 else anchor + math.log1p(-share)
    terms[n] = log_p[n] + anchor
    return np.logaddexp.accumulate(terms[::-1])[::-1] - log_p


def log_beta_integrals(a: float, b: float, l: float, u: float, n: int) -> np.ndarray:
    """log of the integral of p^(a+s-1) (1-p)^(b+n-s-1) over [l, u], s = 0..n.

    At n = 0, the log normalizer of Beta(a, b) on [l, u].  [l, u] is a tail,
    as every hypothesis region is: a lower tail [0, u], or an upper tail
    [l, 1] run as a lower tail under p -> 1 - p.  On a tail no entry is a
    cancelling difference.  An interior interval would be the difference of
    two tails, which keeps no digits when they nearly cancel, so it is
    refused here, for the kernel and every `TruncatedBeta` alike.
    """
    if l == 0.0:
        return _log_lower_tails(a, b, u, n)
    if u == 1.0:
        return _log_lower_tails(b, a, 1.0 - l, n)[::-1]
    raise ValueError(f"truncation must be a tail [0, u] or [l, 1], got [{l}, {u}]")


def log_binom_pmf_vector(n: int, p: float) -> np.ndarray:
    """log Bin(y; n, p) for y = 0..n, with exact handling of p in {0, 1}."""
    if p in (0.0, 1.0):
        out = np.full(n + 1, -np.inf)
        out[0 if p == 0.0 else n] = 0.0
        return out
    y = np.arange(n + 1)
    return log_binom_coeff_vector(n) + y * math.log(p) + (n - y) * math.log1p(-p)
