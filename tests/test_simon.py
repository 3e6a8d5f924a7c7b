"""Classical two-stage design search: enumeration identities and references."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.stats import binom

import bfdesign
import bfdesign.simon
from bfdesign import (
    AnalysisPrior,
    CalibrationConstraints,
    Hypotheses,
    PointMass,
    critical_efficacy,
    critical_futility,
    optimal_calibrate,
    simon_oc,
    simon_search,
)
from bfdesign.operating import MARGIN
from bfdesign.priors import ParameterError
from numpy.lib.stride_tricks import sliding_window_view

from bfdesign.simon import (
    SimonDesign,
    _binomial_table,
    _exact_reject,
    _pets,
    _reject_tensor,
    _table_block,
    _ump_short,
)


def brute_force_oc(r1, n1, r, n2, p):
    """Direct double loop over every (x1, x2) outcome."""
    m = n2 - n1
    pet = 0.0
    reject = 0.0
    for x1 in range(n1 + 1):
        w1 = float(binom.pmf(x1, n1, p))
        if x1 <= r1:
            pet += w1
            continue
        for x2 in range(m + 1):
            if x1 + x2 > r:
                reject += w1 * float(binom.pmf(x2, m, p))
    return reject, pet, n1 + (1 - pet) * m


def _reference_reject_matrix(n1, n2, p):
    """reject[r1, r] = P(X1 > r1, X1 + X2 > r), from scipy.stats per pair."""
    m = n2 - n1
    pmf1 = binom.pmf(np.arange(n1 + 1), n1, p)
    sf2 = binom.sf(np.arange(-1, m + 1), m, p)
    idx = np.clip(np.arange(n2 + 1)[None, :] - np.arange(n1 + 1)[:, None], -1, m)
    tail = np.cumsum((pmf1[:, None] * sf2[idx + 1])[::-1, :], axis=0)[::-1, :]
    reject = np.zeros((n1 + 1, n2 + 1))
    reject[:n1, :] = tail[1:, :]
    return reject


def reference_search(p0, p1, alpha, beta, n_max):
    """Every (n1, n2) pair with its own scipy.stats binomial vectors, no bound."""
    best_optimal = best_minimax = None
    for n2 in range(2, n_max + 1):
        for n1 in range(1, n2):
            reject_p0 = _reference_reject_matrix(n1, n2, p0)
            reject_p1 = _reference_reject_matrix(n1, n2, p1)
            valid = np.arange(n2 + 1)[None, :] >= np.arange(n1 + 1)[:, None]
            feasible = (reject_p0 <= alpha) & (reject_p1 >= 1.0 - beta) & valid
            if not feasible.any():
                continue
            pet = binom.cdf(np.arange(n1 + 1), n1, p0)
            r1_candidates = np.flatnonzero(feasible.any(axis=1))
            r1 = int(r1_candidates[np.argmax(pet[r1_candidates])])
            r = int(np.flatnonzero(feasible[r1, :])[0])
            design = SimonDesign(
                r1=r1,
                n1=n1,
                r=r,
                n2=n2,
                alpha_attained=float(reject_p0[r1, r]),
                power_attained=float(reject_p1[r1, r]),
                pet_p0=float(pet[r1]),
                e_n_h0=n1 + (1.0 - float(pet[r1])) * (n2 - n1),
            )
            if best_optimal is None or design.e_n_h0 < best_optimal.e_n_h0:
                best_optimal = design
            if best_minimax is None or (design.n2, design.e_n_h0) < (
                best_minimax.n2,
                best_minimax.e_n_h0,
            ):
                best_minimax = design
    if best_optimal is None:
        return None
    return best_optimal, best_minimax


def _reference_settings():
    """Seeded and chosen (p0, p1, alpha, beta, n_max), the last one without a design."""
    rng = np.random.default_rng(20)
    settings = []
    for _ in range(19):
        p0 = float(rng.uniform(0.05, 0.6))
        p1 = min(p0 + float(rng.uniform(0.2, 0.35)), 0.95)
        alpha = float(rng.choice([0.05, 0.1]))
        beta = float(rng.choice([0.1, 0.2]))
        settings.append((p0, p1, alpha, beta, int(rng.integers(30, 41))))
    # small effects: many steps before the first design, and the power cap
    settings.append((0.1, 0.25, 0.1, 0.2, 60))
    settings.append((0.05, 0.17, 0.1, 0.2, 60))
    # a single look at n2 = 3 is feasible, so the r1 = -1 row must stay out
    settings.append((0.011, 0.489, 0.05, 0.2, 28))
    settings.append((0.2, 0.25, 0.05, 0.1, 15))
    # the optimum has n2 = 29 and E[N|p0] 15.01: the walk ends long before n_max
    settings.append((0.1, 0.3, 0.05, 0.2, 60))
    # (0, 1, 0, 2) has a type-I error of exactly alpha, which the log-space
    # pmf rounds one ulp above it: decided in exact rationals
    settings.append((0.05, 0.9, 0.05, 0.2, 17))
    # tables of one block, of one row past it and two (blocks hold 16 rows)
    for n_max in (2, 3, 17, 18):
        settings.append((0.011, 0.489, 0.05, 0.2, n_max))
        settings.append((0.3, 0.75, 0.1, 0.2, n_max))
    return settings


@pytest.mark.parametrize("setting", _reference_settings())
def test_search_matches_scipy_reference(setting):
    p0, p1, alpha, beta, n_max = setting
    got = simon_search(p0, p1, alpha, beta, n_max)
    expected = reference_search(p0, p1, alpha, beta, n_max)
    if expected is None:
        assert got is None
        return
    for design, want in zip(got, expected):
        bounds = (design.r1, design.n1, design.r, design.n2)
        assert bounds == (want.r1, want.n1, want.r, want.n2)
        for field in ("alpha_attained", "power_attained", "pet_p0", "e_n_h0"):
            assert math.isclose(
                getattr(design, field), getattr(want, field), rel_tol=1e-12, abs_tol=1e-12
            ), field
        # one design, the same bits alone as in the search; a rate within
        # the search's margin of its bound is the exact rate, rounded
        reject0, pet, e_n = simon_oc(*bounds, p0)
        reject1, _, _ = simon_oc(*bounds, p1)
        if reject0 > alpha - MARGIN:
            reject0 = float(_exact_reject(*bounds, p0))
        if reject1 < 1.0 - beta + MARGIN:
            reject1 = float(_exact_reject(*bounds, p1))
        assert (reject0, reject1, pet, e_n) == (
            design.alpha_attained,
            design.power_attained,
            design.pet_p0,
            design.e_n_h0,
        )


def _exact_tables(p, n_max):
    """(n, pmf, tail) of Bin(n, p) for n = 0..n_max, by Pascal's rule in 40 digits."""
    with mpmath.workdps(40):
        success = mpmath.mpf(p)
        failure = 1 - success
        pmf = [mpmath.mpf(1)]
        for n in range(n_max + 1):
            tail = [mpmath.mpf(0)]
            for mass in reversed(pmf):
                tail.append(tail[-1] + mass)
            yield n, np.array([float(v) for v in pmf]), np.array([float(v) for v in tail[::-1]])
            pmf = [failure * a + success * b for a, b in zip(pmf + [0], [0] + pmf)]


@pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.99])
def test_binomial_tables(p):
    # scipy.stats.binom.sf is no reference in the far tail: for Bin(193, 0.01)
    # it reads 1.148e-283 for P(X > 159), whose exact value is 1.204e-283,
    # and 0 for P(X > 161), about 5e-289; so the tail is checked against
    # 40-digit arithmetic and the pmf against scipy as well
    for n, exact_pmf, exact_tail in _exact_tables(p, 200):
        pmf, tail = _binomial_table(n, p)
        assert abs(pmf.sum() - 1.0) < 1e-12
        for got, want in (
            (pmf, binom.pmf(np.arange(n + 1), n, p)),
            (pmf, exact_pmf),
            (tail, exact_tail),
        ):
            shown = want > 1e-300
            assert np.allclose(got[shown], want[shown], rtol=1e-12, atol=0.0), n
        assert tail[-1] == 0.0


@pytest.mark.parametrize("p0, p1", [(0.011, 0.3), (0.3, 0.99), (0.99, 0.011)])
def test_block_tables_match_each_size_alone(p0, p1):
    # every row of every block, right after its block and after the last
    # capacity doubling, has the bits of the size tabled alone
    n_max, beta = 200, 0.2
    tables, capped = np.zeros((5, 0, 1)), np.zeros(0, dtype=np.int64)
    blocks, capacities = [], []
    while capped.size <= n_max:
        lo = capped.size
        tables, capped = _table_block(tables, capped, n_max, p0, p1, beta)
        blocks.append((lo, capped.size))
        capacities.append(tables.shape[1])
        for n in range(lo, capped.size):
            assert_row_alone(tables, capped, n, p0, p1, beta)
    assert blocks == [(lo, lo + 16) for lo in range(0, 192, 16)] + [(192, 201)]
    assert sorted(set(capacities)) == [16, 32, 64, 128, 201]
    for n in range(n_max + 1):
        assert_row_alone(tables, capped, n, p0, p1, beta)


def assert_row_alone(tables, capped, n, p0, p1, beta):
    """Row n of the walk's tables against `_binomial_table(n, p)` alone, zeros past it."""
    width = tables.shape[2]
    rows = []
    for p in (p0, p1):
        pmf, tail = _binomial_table(n, p)
        top, tails = np.zeros(width), np.zeros(width)
        top[: n + 1], tails[: n + 2] = pmf[::-1], tail
        rows += [top, tails]
    pets = np.zeros(width)
    pets[:-1] = _pets(rows[0][None])[0]
    for got, want in zip(tables[:, n], (rows[0], rows[1], pets, rows[2], rows[3])):
        assert np.array_equal(got, want), n
    assert capped[n] == np.count_nonzero(_pets(rows[2][None]) > beta + MARGIN), n


def _sliding_reject_tensor(top, tails, n1s, cols):
    """`_reject_tensor` by a clipped take_along_axis and sliding windows."""
    depth = top.shape[1]
    shift = np.arange(depth + cols - 1) - n1s[:, None]  # at d + r: r - x1
    ext = np.take_along_axis(tails, np.clip(shift, -1, tails.shape[1] - 2) + 1, axis=1)
    windows = sliding_window_view(ext, cols, axis=1).transpose(1, 0, 2)
    rej = np.multiply(top.T[:, :, None], windows, out=np.empty((depth, n1s.size, cols)))
    return np.cumsum(rej, axis=0, out=rej)


def test_strided_reject_tensor_matches_sliding_windows():
    rng = np.random.default_rng(21)
    # (batch, depth, width, cols): depth 1, one n1, cols wider than the tails
    shapes = [(1, 1, 2, 1), (1, 5, 4, 12), (3, 1, 6, 3), (1, 9, 3, 1)]
    shapes += [tuple(int(v) for v in rng.integers(1, [8, 12, 14, 30])) for _ in range(40)]
    for batch, depth, width, cols in shapes:
        width = max(width, 2)
        top = rng.random((batch, depth))
        tails = rng.random((batch, width))
        n1s = rng.integers(1, depth + width + 3, size=batch)
        got = _reject_tensor(top, tails, n1s, cols)
        assert got.shape == (depth, batch, cols)
        assert np.array_equal(got, _sliding_reject_tensor(top, tails, n1s, cols))
    # rows of the walk's own tables, zero past each size
    empty = np.zeros((5, 0, 1)), np.zeros(0, dtype=np.int64)
    tables, _ = _table_block(*empty, 40, 0.2, 0.4, 0.1)
    n1s = np.array([3, 5, 8])
    top, tails = tables[0, n1s, :6], tables[1, 12 - n1s]
    assert np.array_equal(
        _reject_tensor(top, tails, n1s, 13), _sliding_reject_tensor(top, tails, n1s, 13)
    )


def test_walk_tables_sixteen_rows_a_block(monkeypatch):
    # each block is one pmf build per rate: at most 2 ceil(rows / 16) in all
    sizes = []
    original = bfdesign.simon.log_binom_pmf_vector

    def counted(n, p):
        sizes.append(np.atleast_1d(n).tolist())
        return original(n, p)

    monkeypatch.setattr(bfdesign.simon, "log_binom_pmf_vector", counted)
    setting, optimal, minimax = PINNED_SEARCHES[0]
    assert simon_search(*setting) == (optimal, minimax)
    rows = len({n for block in sizes for n in block})
    assert len(sizes) <= 2 * math.ceil(rows / 16), (len(sizes), rows)
    assert rows == 48  # three blocks: the walk ends before n2 = 48, far below n_max 120


def test_import_does_not_load_scipy_stats():
    src = os.path.dirname(os.path.dirname(bfdesign.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, bfdesign; print('scipy.stats' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_simon_oc_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n1 = int(rng.integers(2, 20))
        n2 = int(rng.integers(n1 + 1, 35))
        r1 = int(rng.integers(0, n1 + 1))
        r = int(rng.integers(r1, n2 + 1))
        p = float(rng.uniform(0.05, 0.6))
        got = simon_oc(r1, n1, r, n2, p)
        expected = brute_force_oc(r1, n1, r, n2, p)
        assert abs(got[0] - expected[0]) < 1e-14
        assert abs(got[1] - expected[1]) < 1e-14
        assert math.isclose(got[2], expected[2], rel_tol=1e-14)


def test_exact_rejection_matches_brute_force():
    # exact rationals against scipy's pmf and a double sum over (x1, x2) in
    # Fractions; r1 = n1, a design that always stops, gives 0
    rng = np.random.default_rng(4)
    for _ in range(25):
        n1 = int(rng.integers(1, 20))
        n2 = int(rng.integers(n1 + 1, 35))
        r1 = int(rng.integers(0, n1 + 1))
        r = int(rng.integers(r1, n2 + 1))
        p = float(rng.uniform(0.01, 0.99))
        exact = _exact_reject(r1, n1, r, n2, p)
        assert abs(float(exact) - brute_force_oc(r1, n1, r, n2, p)[0]) < 1e-14
        q = Fraction(p)
        assert exact == sum(
            math.comb(n1, x1) * math.comb(n2 - n1, x2) * q ** (x1 + x2) * (1 - q) ** (n2 - x1 - x2)
            for x1 in range(r1 + 1, n1 + 1)
            for x2 in range(max(r - x1 + 1, 0), n2 - n1 + 1)
        )
    assert _exact_reject(0, 1, 0, 2, 0.05) == Fraction(0.05)  # the pmf reads one ulp more


def test_simon_oc_always_stops_when_bound_is_full():
    for n1, p in [(8, 0.3), (2, 0.05), (3, 0.2), (40, 0.45)]:
        reject, pet, e_n = simon_oc(n1, n1, n1 + 2, n1 + 12, p)
        assert pet == 1.0
        assert reject == 0.0
        assert e_n == n1


def test_simon_oc_rejects_rate_outside_unit_interval():
    # NaN used to come back as (nan, nan, nan) and the others as a bare
    # "math domain error"; every one now names p
    for p in (float("nan"), 1.5, -0.1):
        with pytest.raises(ParameterError, match="p must lie in") as err:
            simon_oc(1, 10, 5, 29, p)
        assert err.value.name == "p"


def test_simon_oc_reference_design():
    reject0, pet, e_n = simon_oc(1, 10, 5, 29, 0.1)
    assert round(reject0, 4) == 0.0471
    assert round(pet, 4) == 0.7361
    assert round(e_n, 2) == 15.01
    reject1, _, _ = simon_oc(1, 10, 5, 29, 0.3)
    assert round(reject1, 4) == 0.8051


def test_simon_oc_validates_bounds():
    with pytest.raises(ValueError):
        simon_oc(5, 4, 6, 10, 0.2)
    with pytest.raises(ValueError):
        simon_oc(2, 4, 1, 10, 0.2)
    # counts are refused by name, not by a TypeError inside numpy
    for args, name in [
        ((1.0, 10, 3, 29), "r1"),
        ((1, 10.5, 3, 29), "n1"),
        ((1, 10, 3.5, 29), "r"),
        ((1, 10, 3, True), "n2"),
    ]:
        with pytest.raises(ParameterError) as err:
            simon_oc(*args, 0.1)
        assert err.value.name == name


def test_search_first_reference_setting():
    optimal, minimax = simon_search(0.1, 0.3, 0.05, 0.2, n_max=40)
    assert (optimal.n1, optimal.n2) == (10, 29)
    assert (optimal.r1, optimal.r) == (1, 5)
    assert round(optimal.alpha_attained, 4) == 0.0471
    assert round(optimal.power_attained, 4) == 0.8051
    assert round(optimal.e_n_h0, 2) == 15.01
    assert round(optimal.pet_p0, 4) == 0.7361
    assert (minimax.n1, minimax.n2) == (15, 25)
    assert round(minimax.alpha_attained, 4) == 0.0328
    assert round(minimax.power_attained, 4) == 0.8017
    assert round(minimax.e_n_h0, 2) == 19.51
    assert round(minimax.pet_p0, 4) == 0.5490


def test_search_second_reference_setting():
    optimal, minimax = simon_search(0.2, 0.4, 0.1, 0.1, n_max=40)
    assert (optimal.n1, optimal.n2) == (17, 37)
    assert round(optimal.alpha_attained, 4) == 0.0948
    assert round(optimal.power_attained, 4) == 0.9033
    assert round(optimal.e_n_h0, 2) == 26.02
    assert round(optimal.pet_p0, 4) == 0.5489
    assert (minimax.n1, minimax.n2) == (19, 36)
    assert round(minimax.alpha_attained, 4) == 0.0861
    assert round(minimax.power_attained, 4) == 0.9024
    assert round(minimax.e_n_h0, 2) == 28.26
    assert round(minimax.pet_p0, 4) == 0.4551


def test_search_degenerate_alternative_is_tiny():
    optimal, minimax = simon_search(0.05, 0.9, 0.05, 0.2, n_max=20)
    assert optimal.n2 <= 5
    assert minimax.n2 <= optimal.n2


def test_search_absent_when_bound_too_small():
    assert simon_search(0.2, 0.25, 0.05, 0.1, n_max=15) is None


def test_search_validates_inputs():
    nan = float("nan")
    for args, name in [
        ((0.4, 0.2, 0.05, 0.2), "p1"),
        ((0.2, 0.4, 0.0, 0.2), "alpha"),
        ((0.0, 0.4, 0.05, 0.2), "p0"),
        ((nan, 0.4, 0.05, 0.2), "p0"),
        ((0.2, 1.0, 0.05, 0.2), "p1"),
        ((0.2, nan, 0.05, 0.2), "p1"),
        ((0.2, 0.4, nan, 0.2), "alpha"),
        ((0.2, 0.4, 0.05, 1.0), "beta"),
        ((0.2, 0.4, 0.05, nan), "beta"),
    ]:
        with pytest.raises(ParameterError) as err:
            simon_search(*args)
        assert err.value.name == name
    for n_max in (20.5, True):
        with pytest.raises(ParameterError) as err:
            simon_search(0.1, 0.3, 0.05, 0.2, n_max)
        assert err.value.name == "n_max"


# (optimal, minimax) at three settings, to be matched bit for bit; the n_max 160
# one takes many final sizes before its first design
PINNED_SEARCHES = [
    (
        (0.1, 0.3, 0.05, 0.2, 120),
        SimonDesign(1, 10, 5, 29, 0.047086306643891365, 0.8050629131503259,
                    0.7360989291000004, 15.014120347099993),
        SimonDesign(1, 15, 5, 25, 0.03280866681522383, 0.8017005704188653,
                    0.5490430189190643, 19.509569810809356),
    ),
    (
        (0.2, 0.4, 0.1, 0.1, 120),
        SimonDesign(3, 17, 10, 37, 0.09478437433149584, 0.9032742865924438,
                    0.5488762045857807, 26.022475908284385),
        SimonDesign(3, 19, 10, 36, 0.08609446068332044, 0.9023530139479216,
                    0.4550887423457888, 28.263491380121593),
    ),
    (
        (0.2, 0.3, 0.05, 0.2, 160),
        SimonDesign(10, 46, 35, 141, 0.04956819745877057, 0.800588747837591,
                    0.6939676687405415, 75.07307146964855),
        SimonDesign(13, 66, 30, 116, 0.04748443875597729, 0.8006611928224832,
                    0.5489258102070549, 88.55370948964725),
    ),
]


def test_search_answers_are_pinned_bit_for_bit():
    for setting, optimal, minimax in PINNED_SEARCHES:
        # blocks keep every rejection tensor small: unsplit, the steps
        # before the first design at n_max 160 would build 1M-entry tensors
        tracemalloc.start()
        try:
            got = simon_search(*setting)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (optimal, minimax), setting
        assert peak < 8 * 2**20, (setting, peak)


def test_pinned_answers_hold_at_n_max_300():
    # each walk ends at its optimum's horizon, so a larger n_max changes nothing
    for setting, optimal, minimax in PINNED_SEARCHES:
        assert simon_search(*setting[:4], 300) == (optimal, minimax), setting


def test_search_ends_at_the_horizon(monkeypatch):
    # rows whose PET under p1 exceeds beta can never reach the power target,
    # and the others pass the optimum's E[N|p0] = 26.02 by n2 = 46: at
    # n_max 300 the walk builds exactly the rejection tensors it builds at 46
    calls = []
    original = bfdesign.simon._reject_tensor

    def counted(top, tails, n1s, cols):
        calls.append(n1s.size)
        return original(top, tails, n1s, cols)

    monkeypatch.setattr(bfdesign.simon, "_reject_tensor", counted)
    found = {}
    for n_max in (46, 300):
        calls.clear()
        found[n_max] = (simon_search(0.2, 0.4, 0.1, 0.1, n_max), list(calls))
    assert found[300] == found[46]
    assert found[300][0][0].n2 == 37


def _designs_by_final_size(p0, p1, n2_max):
    """(n2, alpha, power) over every design (r1, n1, r, n2) with n2 <= n2_max, by scipy."""
    for n2 in range(2, n2_max + 1):
        for n1 in range(1, n2):
            reject0 = _reference_reject_matrix(n1, n2, p0)[:n1]
            reject1 = _reference_reject_matrix(n1, n2, p1)[:n1]
            valid = np.arange(n2 + 1)[None, :] >= np.arange(n1)[:, None]  # r >= r1
            yield n2, reject0[valid], reject1[valid]


@pytest.mark.parametrize("p0, p1, alpha", [(0.1, 0.3, 0.05), (0.2, 0.4, 0.1), (0.5, 0.7, 0.05)])
def test_ump_power_bounds_every_design(p0, p1, alpha):
    # the Neyman-Pearson lemma: no design of type-I <= alpha beats the
    # randomized UMP test at its final size
    best = {}
    for n2, reject0, reject1 in _designs_by_final_size(p0, p1, 25):
        level = reject0 <= alpha
        if level.any():
            best[n2] = max(best.get(n2, 0.0), float(reject1[level].max()))
    assert len(best) > 15
    for n2, power in best.items():
        tables = (*_binomial_table(n2, p0), *_binomial_table(n2, p1))
        assert not _ump_short(*tables, alpha, power), n2
        assert _ump_short(*tables, alpha, 1.0)


# designs (r1, n1, r, n2) whose own exact type-I and power are taken as
# alpha and 1 - beta, each rounded to the double on its feasible side: the
# search must find a design at n2, though the Neyman-Pearson ceiling or the
# power cap meet the target only within rounding
BOUNDARY_DESIGNS = [
    (0.75, 0.9, (6, 12, 15, 18)),
    (0.65, 0.75, (2, 18, 16, 24)),
    (0.6, 0.75, (3, 10, 13, 18)),
]


@pytest.mark.parametrize("p0, p1, bounds", BOUNDARY_DESIGNS)
def test_designs_at_the_error_bounds_are_found(p0, p1, bounds):
    type_i, power = (_exact_reject(*bounds, p) for p in (p0, p1))
    alpha, beta = float(type_i), float(1 - power)
    while Fraction(alpha) < type_i:
        alpha = math.nextafter(alpha, 1.0)
    while 1 - Fraction(beta) > power:
        beta = math.nextafter(beta, 1.0)
    found = simon_search(p0, p1, alpha, beta, bounds[-1])
    assert found is not None
    for d in found:
        assert d.alpha_attained <= alpha and d.power_attained >= 1.0 - beta
        design = (d.r1, d.n1, d.r, d.n2)
        assert _exact_reject(*design, p0) <= Fraction(alpha)
        assert _exact_reject(*design, p1) >= 1 - Fraction(beta)
    assert found[1].n2 <= bounds[-1] and found[0].e_n_h0 <= simon_oc(*bounds, p0)[2]


def _exact_search(p0, p1, alpha, beta, n_max):
    """(least E[N|p0], least n2) over every design feasible in exact rationals, or None."""
    found = []
    for n2 in range(2, n_max + 1):
        for n1 in range(1, n2):
            for r1 in range(n1):
                for r in range(r1, n2 + 1):
                    if _exact_reject(r1, n1, r, n2, p0) <= Fraction(alpha) and (
                        _exact_reject(r1, n1, r, n2, p1) >= 1 - Fraction(beta)
                    ):
                        found.append((simon_oc(r1, n1, r, n2, p0)[2], n2))
                        break  # E[N|p0] does not depend on r
    return found and (min(found)[0], min(n2 for _, n2 in found))


def test_search_decides_every_entry_exactly():
    # bounds taken from a random design's exact rates, rounded to the
    # nearest double, put entries on either side of alpha and 1 - beta by
    # less than the pmf's rounding
    rng = np.random.default_rng(8)
    for _ in range(20):
        n_max = int(rng.integers(4, 9))
        p0 = float(rng.choice([0.05, 0.1, 0.3, rng.uniform(0.01, 0.6)]))
        p1 = min(p0 + float(rng.uniform(0.2, 0.5)), 0.97)
        n2 = int(rng.integers(2, n_max + 1))
        n1 = int(rng.integers(1, n2))
        r1 = int(rng.integers(0, n1))
        design = (r1, n1, int(rng.integers(r1, n2 + 1)), n2)
        alpha = float(_exact_reject(*design, p0))
        beta = 1.0 - float(_exact_reject(*design, p1))
        if not (0 < alpha < 1 and 0 < beta < 1):
            continue
        got = simon_search(p0, p1, alpha, beta, n_max)
        want = _exact_search(p0, p1, alpha, beta, n_max)
        assert (got is None) == (not want), (p0, p1, alpha, beta, n_max)
        if got:
            assert (got[0].e_n_h0, got[1].n2) == want, (p0, p1, alpha, beta, n_max)
            for d in got:
                assert d.alpha_attained <= alpha and d.power_attained >= 1.0 - beta


def test_infeasible_search_builds_no_tensor(monkeypatch):
    # the UMP power at p1 = 0.25 stays below 0.9 for every n2 <= 150
    calls = []
    monkeypatch.setattr(bfdesign.simon, "_reject_tensor", lambda *args: calls.append(args))
    assert simon_search(0.2, 0.25, 0.05, 0.1, 150) is None
    assert calls == []


def test_tables_grow_no_further_than_n_max():
    # an infeasible walk tables every size up to n_max; the capacity doubles
    # 16, 32, 64, 128, so at n_max = 193 the last growth must stop at 194 rows
    # and not take 256.  The peak holds the old tables and the new ones.
    n_max = 193
    block = 5 * (n_max + 1) * (n_max + 2) * 8
    tracemalloc.start()
    try:
        assert simon_search(0.2, 0.25, 0.05, 0.1, n_max) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * block, (peak, block)


def test_bayes_factor_optima_are_simon_designs():
    # under point priors the Bayes factor design (n1, n2) rejects exactly on
    # {Y1 > y_fut(n1), S >= y_eff(n2)}, which is the Simon design
    # (y_fut(n1), n1, max(y_eff(n2) - 1, y_fut(n1)), n2): the two give the
    # same rates, and no Bayes factor optimum beats Simon's optimal E[N|p0].
    # Outside the map: y_fut None, which r1 >= 0 cannot express, and a
    # winner within MARGIN of a target, which the Bayes factor search
    # decides in floats and Simon's exactly; each is named, none is skipped
    rng = np.random.default_rng(2025)
    thresholds = [(1 / 3, 3.0), (1 / 10, 10.0), (1 / 3, 10.0)]
    mapped, ties, excluded = 0, 0, []
    for case in range(150):
        p0 = round(float(rng.uniform(0.05, 0.6)), 3)
        p1 = round(p0 + float(rng.uniform(0.15, 0.35)), 3)
        alpha, beta = float(rng.choice([0.05, 0.1])), float(rng.choice([0.1, 0.2]))
        k, k_f = thresholds[rng.integers(3)]
        hyp, ap = Hypotheses(p0), AnalysisPrior.flat(p0)
        cons = CalibrationConstraints(alpha=alpha, beta=beta, n_min=1, n_max=60)
        result = optimal_calibrate(cons, k, k_f, hyp, ap, PointMass(p1))
        if result is None:
            continue
        setting = (case, p0, p1, alpha, beta, k, k_f)
        n1, n2, oc = result.design.n1, result.design.n2, result.oc
        r1 = critical_futility(n1, k_f, hyp, ap)
        if r1 is None:
            excluded.append((setting, "y_fut None"))
            continue
        if min(abs(oc.type_i_adjusted - alpha), abs(oc.power_adjusted - (1 - beta))) <= MARGIN:
            excluded.append((setting, "within MARGIN of a target"))
            continue
        r = max(critical_efficacy(n2, k, hyp, ap) - 1, r1)
        type_i, pet, e_n = simon_oc(r1, n1, r, n2, p0)
        power = simon_oc(r1, n1, r, n2, p1)[0]
        assert math.isclose(type_i, oc.type_i_adjusted, rel_tol=0, abs_tol=1e-12), setting
        assert math.isclose(power, oc.power_adjusted, rel_tol=0, abs_tol=1e-12), setting
        assert math.isclose(pet, oc.pce_p0, rel_tol=0, abs_tol=1e-12), setting
        assert math.isclose(e_n, oc.e_n_h0, rel_tol=0, abs_tol=1e-12), setting
        optimal = simon_search(p0, p1, alpha, beta, cons.n_max)[0]
        assert oc.e_n_h0 >= optimal.e_n_h0 - 1e-12, setting
        ties += oc.e_n_h0 - optimal.e_n_h0 <= 1e-12
        mapped += 1
    assert excluded == []
    assert (mapped, ties) == (66, 10)
