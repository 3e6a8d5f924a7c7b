"""Log-domain special functions for beta-binomial computations, numpy only.

Everything downstream is assembled from log factorials and one kernel,
`log_beta_integrals`.  On [0, u], with alpha = a + s and beta = b + n - s,
its integrals J(s) obey the backward recurrence (DLMF 8.17(iv))
alpha J(s) = u^alpha (1-u)^(beta-1) + (beta-1) J(s+1), whose terms are all
positive.  It runs from one anchor J(n), taken from the incomplete beta
continued fraction, and stays finite far below the double range.

The kernel, `log_binom_coeff_vector` and `log_binom_pmf_vector` take one
size n or a block: a sorted array of distinct sizes, tabled in one
vectorized pass with one row per size.  Rows are left-aligned, entry y of a
row being the value at y, and padded with -inf past their size, so a
reversed `logaddexp.accumulate` passes the padding unchanged.  Every entry
is formed by the same operations in the same order as for its size alone,
and each size keeps its own continued-fraction anchor, so a row has the
bits of its one-size result.  A single size is the one-row block, which
uses no mask or gather.

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


def _sizes(n) -> tuple[int, int | np.ndarray]:
    """The largest size, and the sizes as they broadcast against counts y.

    One size, an int or a one-row block, is an int, so its rows are
    vectors and take no mask or gather; several sizes are a column.
    """
    if not isinstance(n, np.ndarray):
        return n, n
    top = int(n[-1])
    return top, (top if n.size == 1 else n[:, None])


def _shaped(n, rows: np.ndarray) -> np.ndarray:
    """rows as n asks for them: a vector for an int, one row per size for an array.

    Rows built on a one-row block (a reused `log_binom_coeff_vector`) stay as they are.
    """
    return rows[None] if isinstance(n, np.ndarray) and rows.ndim == 1 else rows


def _mirror(rows: np.ndarray, m, fill: float) -> np.ndarray:
    """Each row reversed over its first m + 1 entries, fill past them.

    One size (int m) is a reversed view; several (column m) take one
    gather from the reversed rows followed by fill.
    """
    if not isinstance(m, np.ndarray):
        return rows[..., ::-1]
    top = rows.shape[-1] - 1
    rows = np.broadcast_to(rows, (m.size, top + 1))
    shifted = np.concatenate((rows[:, ::-1], np.full((m.size, top), fill)), axis=1)
    return np.take_along_axis(shifted, (top - m) + np.arange(top + 1), axis=1)


def _log_binom_coeff(top: int, m) -> np.ndarray:
    log_fact = log_factorials(top)
    return log_fact[m] - log_fact - _mirror(log_fact, m, np.inf)


def log_binom_coeff_vector(n) -> np.ndarray:
    """log C(n, y) for y = 0..n; for a block of sizes, rows padded with -inf."""
    return _shaped(n, _log_binom_coeff(*_sizes(n)))


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


def _lower_anchor(a: float, b: float, u: float, n: int) -> float:
    """log J(n) on [0, u].

    Above the fraction's regime the anchor is B(a+n, b) less the upper
    tail, unless that tail holds over half of it (b tiny): then the
    fraction runs there, slowly as u nears 1.
    """
    top = a + n
    if u < (top + 1.0) / (top + b + 2.0):
        return _log_fraction(top, b, u)
    anchor = log_beta(top, b)
    share = math.exp(_log_fraction(b, top, 1.0 - u) - anchor) if u < 1.0 else 0.0
    return _log_fraction(top, b, u) if share > 0.5 else anchor + math.log1p(-share)


def _log_lower_tails(a: float, b: float, u: float, top: int, m) -> np.ndarray:
    """log J(s), s = 0..n, on [0, u], 0 < u <= 1, for the sizes m (`_sizes`).

    With P(s) the sum of log((beta-1)/alpha) below s, J(s) exp(P(s)) is the
    sum over j >= s of exp(P(j)) u^alpha (1-u)^(beta-1) / alpha, plus
    exp(P(n)) J(n): one reversed logaddexp accumulation per row.  beta - 1
    is formed as b + (n - s - 1), so a tiny b is not rounded away.  In a
    block it is clipped to b past a row's size, which keeps the padding
    finite until it is set to -inf.
    """
    padded = isinstance(m, np.ndarray)
    s = np.arange(top, dtype=float)
    alpha = a + s
    log_alpha = np.log(alpha)
    gap = m - 1 - s
    if padded:
        np.maximum(gap, 0.0, out=gap)
    beta_m1 = b + gap
    log_p = np.zeros(gap.shape[:-1] + (top + 1,))
    np.cumsum(np.log(beta_m1) - log_alpha, axis=-1, out=log_p[..., 1:])
    log_1mu = math.log1p(-u) if u < 1.0 else -math.inf
    terms = np.empty_like(log_p)
    terms[..., :top] = log_p[..., :top] + alpha * math.log(u) + beta_m1 * log_1mu - log_alpha
    if padded:
        sizes, rows = m[:, 0], np.arange(m.size)
        anchors = [_lower_anchor(a, b, u, n) for n in sizes.tolist()]
        terms[rows, sizes] = log_p[rows, sizes] + anchors
        terms[np.arange(top + 1) > m] = -np.inf
    else:
        terms[top] = log_p[top] + _lower_anchor(a, b, u, top)
    return np.logaddexp.accumulate(terms[..., ::-1], axis=-1)[..., ::-1] - log_p


def log_beta_integrals(a: float, b: float, l: float, u: float, n) -> np.ndarray:
    """log of the integral of p^(a+s-1) (1-p)^(b+n-s-1) over [l, u], s = 0..n.

    n is one size, or a block of sorted distinct sizes with one row each
    (module docstring).  At n = 0, the log normalizer of Beta(a, b) on
    [l, u].  [l, u] is a tail, as every hypothesis region is: a lower tail
    [0, u], or an upper tail [l, 1] run as a lower tail under p -> 1 - p.
    On a tail no entry is a cancelling difference.  An interior interval
    would be the difference of two tails, which keeps no digits when they
    nearly cancel, so it is refused here, for the kernel and every
    `TruncatedBeta` alike.
    """
    top, m = _sizes(n)
    if l == 0.0:
        rows = _log_lower_tails(a, b, u, top, m)
    elif u == 1.0:
        rows = _mirror(_log_lower_tails(b, a, 1.0 - l, top, m), m, -np.inf)
    else:
        raise ValueError(f"truncation must be a tail [0, u] or [l, 1], got [{l}, {u}]")
    return _shaped(n, rows)


def log_binom_pmf_vector(n, p: float, log_coeff=None) -> np.ndarray:
    """log Bin(y; n, p) for y = 0..n, with exact handling of p in {0, 1}.

    For a block of sizes, one row per size, padded with -inf.  log_coeff,
    when given, is `log_binom_coeff_vector(n)`, reused rather than rebuilt.
    """
    top, m = _sizes(n)
    y = np.arange(top + 1)
    if p in (0.0, 1.0):
        # all mass at y = n, or at y = 0 in every row
        rows = np.where(y == (m if p == 1.0 else 0 * m), 0.0, -np.inf)
    else:
        coeff = _log_binom_coeff(top, m) if log_coeff is None else log_coeff
        rows = coeff + y * math.log(p) + (m - y) * math.log1p(-p)
    return _shaped(n, rows)
