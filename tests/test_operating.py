"""Operating characteristics: closed form versus enumeration, hand cases."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import bfdesign.calibration
import bfdesign.operating
import bfdesign.oracle
import bfdesign.predictive
from bfdesign import (
    AnalysisPrior,
    CalibrationConstraints,
    Hypotheses,
    PointMass,
    TruncatedBeta,
    TwoStageDesign,
    base_sample_size,
    critical_efficacy,
    critical_futility,
    evaluate,
    optimal_calibrate,
    predictive_vector,
)
from bfdesign.bayesfactor import ParameterError, log_bf01_curve
from bfdesign.operating import DesignGrid, erased_mass_column
from bfdesign.oracle import enumerate_oracle

FLAT01 = TruncatedBeta(1, 1, 0.0, 1.0)


def random_scenarios(n_configs, seed=20260811, n1_max=15, n2_max=30):
    rng = np.random.default_rng(seed)
    scenarios = []
    while len(scenarios) < n_configs:
        p0 = float(rng.choice([0.1, 0.2, 0.3, 0.5]))
        n1 = int(rng.integers(2, n1_max + 1))
        n2 = int(rng.integers(n1 + 1, n2_max + 1))
        k = float(rng.choice([1 / 3, 1 / 10]))
        k_f = float(rng.choice([3.0, 10.0]))
        if rng.random() < 0.5:
            power_prior = PointMass(float(rng.uniform(p0 + 0.05, 0.95)))
        else:
            power_prior = TruncatedBeta(
                float(rng.uniform(0.5, 25.0)), float(rng.uniform(0.5, 25.0)), p0, 1.0
            )
        null_prior = (
            TruncatedBeta(1.0, 1.0, 0.0, p0) if rng.random() < 0.3 else PointMass(p0)
        )
        scenarios.append((p0, n1, n2, k, k_f, power_prior, null_prior))
    return scenarios


def test_two_stage_design_validation():
    with pytest.raises(ValueError):
        TwoStageDesign(5, 5, 1 / 3, 3.0)
    with pytest.raises(ValueError):
        TwoStageDesign(0, 5, 1 / 3, 3.0)
    with pytest.raises(ValueError):
        TwoStageDesign(2, 5, 1.5, 3.0)
    with pytest.raises(ValueError):
        TwoStageDesign(2, 5, 1 / 3, 0.5)
    # sizes are counts: a float, even a whole one, or a bool is refused by name
    for n1, n2, name in [
        (5, 5, "n1"),
        (0, 5, "n1"),
        (10.5, 29, "n1"),
        (10.0, 29, "n1"),
        (True, 29, "n1"),
        (10, 29.0, "n2"),
        (10, np.float64(29), "n2"),
    ]:
        with pytest.raises(ParameterError) as err:
            TwoStageDesign(n1, n2, 1 / 3, 3.0)
        assert err.value.name == name
    assert TwoStageDesign(np.int64(10), np.int32(29), 1 / 3, 3.0).n2 == 29


def test_nan_futility_threshold_rejected():
    # a NaN k_f fails every comparison: the checks must not let it through
    nan = float("nan")
    hyp = Hypotheses(1 / 3)
    ap = AnalysisPrior.flat(1 / 3)
    with pytest.raises(ValueError):
        TwoStageDesign(10, 29, 1 / 3, nan)
    with pytest.raises(ValueError):
        critical_futility(10, nan, hyp, ap)
    with pytest.raises(ValueError):
        DesignGrid((10, 11), 1 / 3, nan, hyp, ap, PointMass(0.5))


def test_reference_design_operating_characteristics():
    # the expected-size-optimal design of the first worked setting
    design = TwoStageDesign(10, 29, 1 / 3, 3.0)
    hyp = Hypotheses(0.1)
    ap = AnalysisPrior.flat(0.1)
    oc = evaluate(design, hyp, ap, PointMass(0.3))
    assert round(oc.type_i_adjusted, 4) == 0.0471
    assert round(oc.power_adjusted, 4) == 0.8051
    assert round(oc.e_n_h0, 2) == 15.01
    assert round(oc.pce_p0, 4) == 0.7361
    # the adjustment strictly lowers both rates here
    assert oc.type_i_adjusted < oc.type_i_unadjusted
    assert oc.power_adjusted < oc.power_unadjusted
    assert round(oc.type_i_unadjusted, 4) == 0.0637


def test_flat_power_prior_reference_design():
    design = TwoStageDesign(5, 15, 1 / 3, 3.0)
    hyp = Hypotheses(0.1)
    ap = AnalysisPrior.flat(0.1)
    oc = evaluate(design, hyp, ap, TruncatedBeta(1, 1, 0.1, 1.0))
    assert round(oc.type_i_adjusted, 4) == 0.0480
    assert round(oc.power_adjusted, 4) == 0.8107
    assert round(oc.e_n_h0, 2) == 9.10
    assert round(oc.pce_p0, 4) == 0.5905


@pytest.mark.parametrize(
    "scenarios, scale_e_n",
    [
        (random_scenarios(60), False),
        # the full characteristics at sizes up to 320k joint cells; an
        # expected size carries the stop probability's rounding times n2 - n1
        (random_scenarios(30, seed=7, n1_max=150, n2_max=400), True),
    ],
    ids=["small", "large"],
)
def test_closed_form_matches_enumeration_on_random_grid(scenarios, scale_e_n):
    for p0, n1, n2, k, k_f, power_prior, null_prior in scenarios:
        design = TwoStageDesign(n1, n2, k, k_f)
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        closed = evaluate(design, hyp, ap, power_prior, null_prior)
        oracle = enumerate_oracle(design, hyp, ap, power_prior, null_prior)
        for name in (
            "type_i_unadjusted",
            "type_i_adjusted",
            "power_unadjusted",
            "power_adjusted",
            "futility_erased_power",
            "futility_erased_type_i",
            "pce_p0",
        ):
            assert abs(getattr(closed, name) - getattr(oracle, name)) < 1e-12, name
        e_n_tol = 1e-12 * n2 if scale_e_n else 1e-12
        for name in ("e_n_h0", "e_n_h1"):
            assert abs(getattr(closed, name) - getattr(oracle, name)) < e_n_tol, name
        for branch in ("branch_h0", "branch_h1"):
            for a, b in zip(getattr(closed, branch), getattr(oracle, branch)):
                assert abs(a - b) < 1e-12


def test_closed_form_never_builds_a_joint_matrix(monkeypatch):
    # the two-batch joint table is the oracle's alone
    def refuse(*args, **kwargs):
        raise RuntimeError("the closed form built a joint predictive matrix")

    designs = [
        (TwoStageDesign(n1, n2, k, k_f), Hypotheses(p0), AnalysisPrior.flat(p0), power, null)
        for p0, n1, n2, k, k_f, power, null in random_scenarios(20)
    ]
    example1 = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40)
    with monkeypatch.context() as patch:
        patch.setattr(bfdesign.oracle, "joint_predictive_matrix", refuse)
        closed = [evaluate(*args) for args in designs]
        best = optimal_calibrate(
            example1, 1 / 3, 3.0, Hypotheses(0.1), AnalysisPrior.flat(0.1), PointMass(0.3)
        )
        with pytest.raises(RuntimeError):
            enumerate_oracle(*designs[0])
    assert (best.design.n1, best.design.n2) == (10, 29)
    for oc, args in zip(closed, designs):
        oracle = enumerate_oracle(*args)
        assert abs(oc.power_adjusted - oracle.power_adjusted) < 1e-12
        assert abs(oc.type_i_adjusted - oracle.type_i_adjusted) < 1e-12


def test_evaluate_finds_critical_counts_once_per_size(monkeypatch):
    # the grid behind evaluate tables only the design's two sizes, each as a
    # one-row block, so one evaluate finds each critical count once at n1
    # and once at n2, whatever the null design prior
    calls = []
    original = DesignGrid._table

    def counted(self, sizes):
        calls.append(tuple(sizes.tolist()))
        return original(self, sizes)

    monkeypatch.setattr(DesignGrid, "_table", counted)
    design = TwoStageDesign(400, 1000, 1 / 10, 10.0)
    hyp, ap = Hypotheses(0.05), AnalysisPrior.flat(0.05)
    power_prior = TruncatedBeta(3.0, 2.0, 0.05, 1.0)
    for null_prior in (None, TruncatedBeta(1.0, 1.0, 0.0, 0.05)):
        calls.clear()
        evaluate(design, hyp, ap, power_prior, null_prior)
        assert sorted(calls) == [(400,), (1000,)]


@pytest.mark.parametrize("null", ["point", "flat"])
@pytest.mark.parametrize(
    "p0, shapes, power_prior",
    [
        # the power prior is the H1 analysis prior, so one kernel serves both
        (0.2, (1.0, 1.0, 1.0, 1.0), TruncatedBeta(1.0, 1.0, 0.2, 1.0)),
        (0.05, (2.0, 20.0, 1.0, 1.0), PointMass(0.15)),
    ],
)
def test_block_tabled_grid_keeps_the_bits_of_each_size(p0, shapes, power_prior, null, monkeypatch):
    # blocks across the exact-factorial edge at 170/171, a run at n 2985-3000
    # split by the entry cap, and the baseline's k_f = inf, where no size
    # can stop, against the same sizes tabled one at a time
    hyp, ap = Hypotheses(p0), AnalysisPrior.from_shapes(p0, *shapes)
    null_prior = None if null == "point" else TruncatedBeta(1.0, 1.0, 0.0, p0)
    blocks = []
    original = DesignGrid._table

    def recorded(self, sizes):
        blocks.append(sizes.tolist())
        return original(self, sizes)

    monkeypatch.setattr(DesignGrid, "_table", recorded)
    monkeypatch.setattr(bfdesign.operating, "_BLOCK", 5 * 3001)
    for sizes, k_f in [(range(160, 182), 3.0), (range(2985, 3001), 3.0), (range(1, 40), math.inf)]:
        args = (1 / 3, k_f, hyp, ap, power_prior, null_prior)
        blocks.clear()
        grid = DesignGrid(sizes, *args)
        assert [n for block in blocks for n in block] == list(sizes)
        assert max(map(len, blocks)) == (5 if sizes[0] > 2000 else len(sizes))
        alone = DesignGrid((), *args)
        for n in sizes:
            alone.add([n])
        assert grid.y_eff == alone.y_eff and grid.y_fut == alone.y_fut
        assert np.array_equal(grid._masses[sizes], alone._masses[sizes])
        # the pmfs of the last block, and of an earlier size built alone
        for n2 in (sizes[-1], sizes[len(sizes) // 2]):
            n1 = np.arange(sizes[0], n2)
            for got, want in zip(grid.rows(n2, n1), alone.rows(n2, n1)):
                assert np.array_equal(got, want)


def test_grid_read_at_a_size_it_did_not_build_raises():
    # an untabled size must not read as "no critical count"
    hyp, ap = Hypotheses(0.1), AnalysisPrior.flat(0.1)
    grid = DesignGrid((10, 29), 1 / 3, 3.0, hyp, ap, PointMass(0.3))
    with pytest.raises(KeyError):
        grid.rows(29, [11])
    with pytest.raises(KeyError):
        grid.rows(30, [10])
    with pytest.raises(KeyError):
        grid.oc(9, 29)
    assert grid.oc(10, 29) == evaluate(
        TwoStageDesign(10, 29, 1 / 3, 3.0), hyp, ap, PointMass(0.3)
    )


def test_unadjusted_rate_decomposes_over_interim_branches():
    # the oracle's rejection paths split into those the trial walks and those
    # its interim stop erases, and together they are the single-look rate
    for p0, n1, n2, k, k_f, power_prior, null_prior in random_scenarios(20, seed=5):
        design = TwoStageDesign(n1, n2, k, k_f)
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        oracle = enumerate_oracle(design, hyp, ap, power_prior)
        total = oracle.power_adjusted + oracle.futility_erased_power
        single_look = evaluate(design, hyp, ap, power_prior).power_unadjusted
        assert abs(total - single_look) < 1e-12


def test_erased_mass_column_matches_enumeration():
    # whole columns up to n2 = 300 against the path oracle on sampled rows,
    # with unreachable futility (small n1, k_f = 10) and efficacy thresholds
    rng = np.random.default_rng(31)
    columns = [
        (0.1, 300, 1 / 3, 3.0, PointMass(0.3)),
        (0.2, 240, 1 / 10, 10.0, TruncatedBeta(10.33, 15.0, 0.2, 1.0)),
        (0.5, 120, 1 / 3, 10.0, FLAT01),
        (0.3, 60, 1 / 10, 3.0, TruncatedBeta(1.0, 1.0, 0.0, 0.3)),
        (0.05, 150, 1 / 10, 10.0, PointMass(0.05)),
        (0.5, 2, 1 / 10, 3.0, PointMass(0.7)),
    ]
    saw_no_futility = saw_no_efficacy = False
    for p0, n2, k, k_f, prior in columns:
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        n1 = np.arange(1, n2)
        y_fut = [critical_futility(int(i), k_f, hyp, ap) for i in n1]
        y_eff = critical_efficacy(n2, k, hyp, ap)
        saw_no_futility |= None in y_fut
        saw_no_efficacy |= y_eff is None
        (column,) = erased_mass_column(n1, y_fut, n2, y_eff, [predictive_vector(prior, n2)])
        assert column.shape == n1.shape
        unreachable = np.array([y is None for y in y_fut]) | (y_eff is None)
        assert not column[unreachable].any()
        for i in sorted(rng.choice(n1.size, size=min(8, n1.size), replace=False)):
            design = TwoStageDesign(int(n1[i]), n2, k, k_f)
            oracle = enumerate_oracle(design, hyp, ap, prior).futility_erased_power
            assert abs(column[i] - oracle) < 1e-12
            # one interim size alone gives the same bits as inside its column
            alone = evaluate(design, hyp, ap, prior).futility_erased_power
            assert alone == column[i]
    assert saw_no_futility and saw_no_efficacy


def exact_erased(n1, y_fut, n2, y_eff, pmf):
    """Direct sum of pmf[s] P(Y1 <= y_fut | S = s) over s >= y_eff.

    The hypergeometric cdf is a ratio of exact integers, rounded once; only
    the predictive pmf is in double precision.  At y_fut >= n1 the cdf is 1
    by Vandermonde's identity.
    """
    if y_fut >= n1:
        return math.fsum(pmf[y_eff:])
    m = n2 - n1
    head = [math.comb(n1, y1) for y1 in range(y_fut + 1)]
    tail = [math.comb(m, j) for j in range(m + 1)]
    terms = []
    for s in range(y_eff, n2 + 1):
        y1 = range(max(0, s - m), min(y_fut, s) + 1)
        cdf = sum(head[i] * tail[s - i] for i in y1) / math.comb(n2, s)
        terms.append(float(pmf[s]) * cdf)
    return math.fsum(terms)


def test_erased_mass_column_is_exact_at_large_n2():
    # one design from each band of the benchmark's tails workload, plus
    # interim counts that stop only at zero or always (y_fut >= n1: then
    # everything that rejects is erased), and an efficacy count of n2 itself,
    # which erases nothing unless the interim always stops
    for p0, n1, n2, shapes, power in [
        (0.035, 1192, 2979, (2.0, 20.0, 1.0, 1.0), (2.0, 10.0)),
        (0.5, 792, 1980, (3.0, 3.0, 3.0, 3.0), (4.0, 4.0)),
        (0.92, 408, 1020, (20.0, 2.0, 1.0, 1.0), (10.0, 1.0)),
    ]:
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.from_shapes(p0, *shapes)
        prior = TruncatedBeta(*power, p0, 1.0)
        pmf = predictive_vector(prior, n2)
        y_fut = critical_futility(n1, 3.0, hyp, ap)
        y_eff = critical_efficacy(n2, 1 / 3, hyp, ap)
        for y, eff in [(y_fut, y_eff), (0, y_eff), (n1, y_eff), (n1 + 3, y_eff),
                       (y_fut, n2), (n1, n2)]:
            got = erased_mass_column([n1], [y], n2, eff, [pmf])[0, 0]
            want = exact_erased(n1, y, n2, eff, pmf)
            assert abs(got - want) <= 1e-11 * want, (p0, n1, n2, y, eff)


def test_erased_mass_column_blocks_bound_memory_and_keep_bits():
    # a full column at n2 = 2000 (example2_bayes): 1999 interim sizes, each
    # row spanning the 1574 counts t = y_eff..n2 - 1, under the power prior
    # and a flat null prior, which share every block of weights
    hyp = Hypotheses(0.2)
    ap = AnalysisPrior.flat(0.2)
    priors = (TruncatedBeta(1.0, 1.0, 0.2, 1.0), TruncatedBeta(1.0, 1.0, 0.0, 0.2))
    n2 = 2000
    n1 = np.arange(1, n2)
    y_fut = [critical_futility(int(i), 3.0, hyp, ap) for i in n1]
    y_eff = critical_efficacy(n2, 1 / 3, hyp, ap)
    pmfs = [predictive_vector(prior, n2) for prior in priors]  # not the column's memory
    tracemalloc.start()
    try:
        column = erased_mass_column(n1, y_fut, n2, y_eff, pmfs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block holds at most 2**17 entries, 1 MiB of float64 per temporary,
    # and a handful of temporaries are alive at once; one unblocked
    # temporary alone would take 1999 * 1574 * 8 bytes, 24 MiB
    assert peak < 8 * 2**20, peak
    assert column.shape == (2, n1.size)
    # rows on both sides of every block boundary, and the two ends, give
    # the bits of their design alone, under each prior alone
    live = [i for i, y in enumerate(y_fut) if y is not None]
    step = bfdesign.special._BLOCK // (n2 - y_eff)
    assert len(live) > step
    edges = {live[0], live[-1]}
    for start in range(step, len(live), step):
        edges |= {live[start - 1], live[start]}
    for i in sorted(edges):
        for j, pmf in enumerate(pmfs):
            alone = erased_mass_column([n1[i]], [y_fut[i]], n2, y_eff, [pmf])[0, 0]
            assert alone == column[j, i], (j, int(n1[i]))


def test_adjustment_only_lowers_rates_and_exactly_when_erased():
    for p0, n1, n2, k, k_f, power_prior, null_prior in random_scenarios(60):
        design = TwoStageDesign(n1, n2, k, k_f)
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        for prior in (power_prior, null_prior):
            side = evaluate(design, hyp, ap, prior)
            assert side.power_adjusted <= side.power_unadjusted + 1e-15
            if side.futility_erased_power > 0.0:
                assert side.power_adjusted < side.power_unadjusted
            else:
                assert side.power_adjusted == side.power_unadjusted


def test_expected_n_identity_is_exact():
    hyp = Hypotheses(0.2)
    ap = AnalysisPrior.flat(0.2)
    for prior in (PointMass(0.2), TruncatedBeta(2, 5, 0.0, 0.2)):
        for n1, n2 in [(5, 12), (10, 29), (30, 36)]:
            design = TwoStageDesign(n1, n2, 1 / 3, 3.0)
            oc = evaluate(design, hyp, ap, prior)
            p_stop, value = oc.branch_h1.futility, oc.e_n_h1
            assert value == n2 - (n2 - n1) * p_stop
            assert abs(value - (n1 * p_stop + n2 * (1.0 - p_stop))) < 1e-12
            assert n1 <= value <= n2


def test_expected_n_reference_values():
    hyp1 = Hypotheses(0.1)
    ap1 = AnalysisPrior.flat(0.1)
    design1 = TwoStageDesign(10, 29, 1 / 3, 3.0)
    value1 = evaluate(design1, hyp1, ap1, PointMass(0.1)).e_n_h1
    assert round(value1, 2) == 15.01
    hyp2 = Hypotheses(0.2)
    ap2 = AnalysisPrior.flat(0.2)
    design2 = TwoStageDesign(30, 36, 1 / 3, 3.0)
    value2 = evaluate(design2, hyp2, ap2, PointMass(0.2)).e_n_h1
    assert round(value2, 2) == 32.36


def test_prob_futility_stop_reference_values():
    hyp1 = Hypotheses(0.1)
    ap1 = AnalysisPrior.flat(0.1)
    design1 = TwoStageDesign(10, 11, 1 / 3, 3.0)
    stop1 = evaluate(design1, hyp1, ap1, PointMass(0.1)).branch_h1.futility
    assert round(stop1, 4) == 0.7361
    hyp2 = Hypotheses(0.2)
    ap2 = AnalysisPrior.flat(0.2)
    design2 = TwoStageDesign(30, 31, 1 / 3, 3.0)
    stop2 = evaluate(design2, hyp2, ap2, PointMass(0.2)).branch_h1.futility
    assert round(stop2, 4) == 0.6070


def test_pce_is_stop_probability_under_point_null():
    design = TwoStageDesign(10, 29, 1 / 3, 3.0)
    hyp = Hypotheses(0.1)
    ap = AnalysisPrior.flat(0.1)
    oc = evaluate(design, hyp, ap, PointMass(0.3))
    interim = TwoStageDesign(10, 11, 1 / 3, 3.0)
    stop = evaluate(interim, hyp, ap, PointMass(0.1)).branch_h1.futility
    assert oc.pce_p0 == stop


def test_unfulfillable_futility_threshold_degenerates_to_single_stage():
    # one interim observation cannot carry a Bayes factor above 100, so the
    # futility branch vanishes and the adjustment is a no-op
    hyp = Hypotheses(0.3)
    ap = AnalysisPrior.flat(0.3)
    design = TwoStageDesign(1, 12, 1 / 3, 100.0)
    prior = PointMass(0.3)
    interim = TwoStageDesign(1, 2, 1 / 3, 100.0)
    assert evaluate(interim, hyp, ap, prior).branch_h1.futility == 0.0
    assert evaluate(design, hyp, ap, prior).futility_erased_power == 0.0
    oc = evaluate(design, hyp, ap, PointMass(0.5))
    assert oc.type_i_adjusted == oc.type_i_unadjusted
    assert oc.power_adjusted == oc.power_unadjusted
    assert oc.branch_h0.futility == 0.0
    assert oc.e_n_h0 == design.n2
    oracle = enumerate_oracle(design, hyp, ap, PointMass(0.5))
    assert oracle.futility_erased_power == 0.0
    assert abs(oracle.power_adjusted - oc.power_adjusted) < 1e-12


def test_branch_probabilities_sum_to_one():
    for p0, n1, n2, k, k_f, power_prior, null_prior in random_scenarios(30, seed=9):
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        interim = TwoStageDesign(n1, n1 + 1, k, k_f)
        triple = evaluate(interim, hyp, ap, power_prior).branch_h1
        assert abs(sum(triple) - 1.0) < 1e-10
        assert all(0.0 <= value <= 1.0 for value in triple)


def test_slice_cut_equals_bayes_factor_classification():
    # the design grid slices the pmf at the critical counts, which
    # assumes BF01 is monotone in the success count; classifying every count
    # by its own Bayes factor must give the same three sums, bit for bit
    for p0, n1, n2, k, k_f, power_prior, null_prior in random_scenarios(200, seed=3):
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        for n in (n1, n2):
            log_bf = log_bf01_curve(n, hyp, ap)
            eff = log_bf < math.log(k)
            fut = log_bf > math.log(k_f)
            for prior in (power_prior, null_prior):
                pmf = predictive_vector(prior, n)
                masks = (pmf[eff].sum(), pmf[~eff & ~fut].sum(), pmf[fut].sum())
                look = TwoStageDesign(n, n + 1, k, k_f)
                triple = evaluate(look, hyp, ap, prior).branch_h1
                assert tuple(triple) == tuple(float(mass) for mass in masks)


def test_point_mass_branches_are_binomial_masses():
    from scipy.stats import binom

    from bfdesign import critical_efficacy, critical_futility

    hyp = Hypotheses(0.2)
    ap = AnalysisPrior.flat(0.2)
    n1, k, k_f, p = 18, 1 / 3, 3.0, 0.35
    y_eff = critical_efficacy(n1, k, hyp, ap)
    y_fut = critical_futility(n1, k_f, hyp, ap)
    triple = evaluate(TwoStageDesign(n1, n1 + 1, k, k_f), hyp, ap, PointMass(p)).branch_h1
    assert math.isclose(triple.efficacy, float(binom.sf(y_eff - 1, n1, p)), rel_tol=1e-12)
    assert math.isclose(triple.futility, float(binom.cdf(y_fut, n1, p)), rel_tol=1e-12)


def test_hand_enumerated_toy_design():
    # (n1, n2) = (2, 4) at p0 = 0.5 with flat priors everywhere: the interim
    # count partitions as futility/indecisive/efficacy = {0}/{1}/{2}, the
    # final analysis rejects from a total of 3, and the flat predictive is
    # uniform, so every figure is a small exact fraction
    hyp = Hypotheses(0.5)
    ap = AnalysisPrior.flat(0.5)
    design = TwoStageDesign(2, 4, 1 / 3, 3.0)
    oc = evaluate(design, hyp, ap, FLAT01)
    third = float(Fraction(1, 3))
    assert math.isclose(oc.branch_h1.futility, third, rel_tol=1e-13)
    assert math.isclose(oc.power_unadjusted, 0.4, rel_tol=1e-13)
    assert oc.futility_erased_power == 0.0
    assert math.isclose(oc.power_adjusted, 0.4, rel_tol=1e-13)
    assert math.isclose(oc.e_n_h1, 4 - 2 * third, rel_tol=1e-13)
    for value, expected in zip(oc.branch_h1, (third, third, third)):
        assert math.isclose(value, expected, rel_tol=1e-12)
    oracle = enumerate_oracle(design, hyp, ap, FLAT01)
    assert abs(oracle.power_unadjusted - oc.power_unadjusted) < 1e-14
    assert abs(oracle.branch_h1.futility - oc.branch_h1.futility) < 1e-14


def test_hand_computed_erased_mass():
    # (n1, n2) = (2, 6) at p0 = 0.5, flat priors: stopping needs zero interim
    # successes and rejection a total of 4, so the erased mass is the single
    # joint cell (0, 4) = B(5, 3) / B(1, 1) = 1/105
    hyp = Hypotheses(0.5)
    ap = AnalysisPrior.flat(0.5)
    design = TwoStageDesign(2, 6, 1 / 3, 3.0)
    value = evaluate(design, hyp, ap, FLAT01).futility_erased_power
    assert math.isclose(value, float(Fraction(1, 105)), rel_tol=1e-13)


def test_adjusted_rate_free_function_consistency():
    hyp = Hypotheses(0.1)
    ap = AnalysisPrior.flat(0.1)
    prior = PointMass(0.1)
    design = TwoStageDesign(10, 29, 1 / 3, 3.0)
    direct = evaluate(design, hyp, ap, prior).power_adjusted
    via_evaluate = evaluate(design, hyp, ap, PointMass(0.3)).type_i_adjusted
    assert direct == via_evaluate
    assert round(direct, 4) == 0.0471


# float.hex() of every float field of `evaluate`, pinned before the log
# factorials became one import-time table: large designs like the benchmark's
# tails bands, at p0 near 0, 1/2 and near 1
TAILS_PINS = [
    (
        (0.035, 1190, 2980, (2.0, 20.0, 1.0, 1.0), (2.0, 10.0)),
        {
            "type_i_unadjusted": "0x1.37c9307789ba2p-7",
            "type_i_adjusted": "0x1.973b82ebe2780p-8",
            "power_unadjusted": "0x1.f25e293f8ef74p-1",
            "power_adjusted": "0x1.ef7f9e970f27ep-1",
            "futility_erased_power": "0x1.6f45543fe7b39p-8",
            "futility_erased_type_i": "0x1.b0adbc0661f88p-9",
            "pce_p0": "0x1.d4c391907fdd4p-1",
            "e_n_h0": "0x1.4f4a1185f43e6p+10",
            "e_n_h1": "0x1.6ea98709a2b3fp+11",
            "branch_h0": ("0x1.13933e7e3d01cp-7", "0x1.37710bac3759cp-4", "0x1.d4c391907fdd4p-1"),
            "branch_h1": ("0x1.e86885a1d95b2p-1", "0x1.47772c3352b96p-6", "0x1.ab781f9163d6bp-6"),
        },
    ),
    (
        (0.5, 780, 1975, (3.0, 3.0, 3.0, 3.0), (4.0, 4.0)),
        {
            "type_i_unadjusted": "0x1.ffa4ce35f0e7ep-3",
            "type_i_adjusted": "0x1.ecdd3a831112ep-3",
            "power_unadjusted": "0x1.eb46127ebbc14p-1",
            "power_adjusted": "0x1.ea5740f81371fp-1",
            "futility_erased_power": "0x1.dda30d509ea2ap-10",
            "futility_erased_type_i": "0x1.2c793b2dfd502p-7",
            "pce_p0": "0x1.fc3edc8883c6bp-3",
            "e_n_h0": "0x1.a39c348476070p+10",
            "e_n_h1": "0x1.ea4d4fe8afc48p+10",
            "branch_h0": ("0x1.fc3edc8883b1ap-3", "0x1.01e091bbbf0c4p-1", "0x1.fc3edc8883c6bp-3"),
            "branch_h1": ("0x1.def6ac0b4dcdcp-1", "0x1.b209223b896dap-5", "0x1.7a30743ea74f6p-7"),
        },
    ),
    (
        (0.92, 410, 1020, (20.0, 2.0, 1.0, 1.0), (10.0, 1.0)),
        {
            "type_i_unadjusted": "0x1.a97aab89ebe36p-3",
            "type_i_adjusted": "0x1.9f60f161fbc55p-3",
            "power_unadjusted": "0x1.dd64ce7aa1aaep-1",
            "power_adjusted": "0x1.dc8ddee0e2589p-1",
            "futility_erased_power": "0x1.addf337ea4936p-10",
            "futility_erased_type_i": "0x1.433744fe03c23p-8",
            "pce_p0": "0x1.f78bc77ae4b8bp-3",
            "e_n_h0": "0x1.b3024eead2b00p+9",
            "e_n_h1": "0x1.f9127a115f4bep+9",
            "branch_h0": ("0x1.c20ded4a928e9p-3", "0x1.119992cea12eap-1", "0x1.f78bc77ae4b8bp-3"),
            "branch_h1": ("0x1.caf3800bd2fafp-1", "0x1.66365cde9cc66p-4", "0x1.08b68b0b0f213p-6"),
        },
    ),
]


@pytest.mark.parametrize("case, pinned", TAILS_PINS)
def test_large_tails_designs_keep_their_bits(case, pinned):
    p0, n1, n2, shapes, (a, b) = case
    oc = evaluate(
        TwoStageDesign(n1, n2, 1 / 3, 3.0),
        Hypotheses(p0),
        AnalysisPrior.from_shapes(p0, *shapes),
        TruncatedBeta(a, b, p0, 1.0),
    )
    got = {}
    for field in dataclasses.fields(oc):
        value = getattr(oc, field.name)
        got[field.name] = (
            value.hex() if isinstance(value, float) else tuple(v.hex() for v in value)
        )
    assert got == pinned


# (k, k_f) of the flat-prior sweeps; k_f = inf is the single-look baseline's
FLAT_PAIRS = [(1 / 3, 3.0), (1 / 10, 10.0), (1 / 30, 30.0), (1 / 3, 1e6), (1 / 3, math.inf)]


def _kernel_counts(n, k, k_f, hyp, ap):
    futility = None if k_f == math.inf else critical_futility(n, k_f, hyp, ap)
    return critical_efficacy(n, k, hyp, ap), futility


def test_flat_route_counts_equal_the_kernels():
    # a flat-prior grid reads its counts off the point null's binomial tails
    # (`flat_decisions`); they must be the kernel's: all sizes up to 60 and a
    # seeded sample up to 800 at p0 across (0, 1), and a few sizes up to 3000
    rng = np.random.default_rng(20261021)
    p0s = [0.01, 0.5, 0.99, 1e-4, 1e-8, 1 - 1e-4, 1 - 1e-8]
    p0s += [round(float(p), 4) for p in rng.uniform(0.01, 0.99, 8)]
    checks = [(p0, [*range(1, 61), *rng.choice(np.arange(61, 801), 30, replace=False)])
              for p0 in p0s]
    checks += [(p0, rng.choice(np.arange(801, 3001), 3, replace=False))
               for p0 in (0.05, 0.3, 0.9)]
    for p0, sizes in checks:
        hyp, ap = Hypotheses(p0), AnalysisPrior.flat(p0)
        sizes = sorted(int(n) for n in sizes)
        for k, k_f in FLAT_PAIRS:
            grid = DesignGrid(sizes, k, k_f, hyp, ap, PointMass(p0))
            assert grid._flat is not None
            for n in sizes:
                got = grid.y_eff[n], grid.y_fut[n]
                assert got == _kernel_counts(n, k, k_f, hyp, ap), (p0, k, k_f, n)


def test_flat_route_serves_the_baseline_at_an_infinite_futility_threshold(monkeypatch):
    # base_sample_size tables its sizes at k_f = inf: no size gets a futility
    # count, no NaN is formed (warnings are errors), and the counts are the kernel's
    grids = []

    class Recorded(DesignGrid):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            grids.append(self)

    monkeypatch.setattr(bfdesign.calibration, "DesignGrid", Recorded)
    hyp, ap = Hypotheses(0.2), AnalysisPrior.flat(0.2)
    cons = CalibrationConstraints(alpha=0.1, beta=0.1, n_max=200)
    assert base_sample_size(1 / 3, hyp, ap, PointMass(0.4), cons) == 36
    (grid,) = grids
    assert grid._flat is not None and len(grid.y_eff) >= 46
    for n, y_eff in grid.y_eff.items():
        assert (y_eff, grid.y_fut[n]) == (critical_efficacy(n, 1 / 3, hyp, ap), None)


# Sizes up to 60 whose counts the band hands to the kernel, per p0 and
# (k, k_f): exact ties (p0 = 0.5, n = 1: I = 3/4 = tau_f and 1/4 = tau) and
# near ties where the all-success or no-success count meets a threshold in
# the limit p0 -> 0 or 1.  Every other size is decided by the tails.
NEAR_TIES = {
    (0.5, (1 / 3, 3.0)): [1],
    (0.5, (1 / 10, 10.0)): [],
    (1e-16, (1 / 3, 3.0)): [2],
    (1e-16, (1 / 10, 10.0)): [9],
    (1 - 2**-50, (1 / 3, 3.0)): [2],
    (1 - 2**-50, (1 / 10, 10.0)): [9],
    (1 - 2**-53, (1 / 3, 3.0)): [2],
    (1 - 2**-53, (1 / 10, 10.0)): [9],
}


@pytest.mark.parametrize("p0, pair", list(NEAR_TIES))
def test_flat_route_defers_near_ties_to_the_kernel(p0, pair, monkeypatch):
    # without the band the tails decide the near ties against the kernel
    # (p0 = 1e-16 at n = 2); comparing I rather than the smaller tail loses
    # every decision where tau_f rounds to 1 (p0 = 1 - 2**-53), and with the
    # band it sends every size to the kernel
    deferred = []
    original = bfdesign.operating.log_bf01_curve

    def recorded(n, hyp, ap):
        deferred.append(n)
        return original(n, hyp, ap)

    monkeypatch.setattr(bfdesign.operating, "log_bf01_curve", recorded)
    hyp, ap = Hypotheses(p0), AnalysisPrior.flat(p0)
    k, k_f = pair
    grid = DesignGrid(range(1, 61), k, k_f, hyp, ap, PointMass(p0))
    assert deferred == NEAR_TIES[(p0, pair)]
    for n in range(1, 61):
        assert (grid.y_eff[n], grid.y_fut[n]) == _kernel_counts(n, k, k_f, hyp, ap), n


def test_only_a_non_flat_grid_builds_analysis_prior_kernels(monkeypatch):
    # under flat analysis priors a kernel row is built only for a design
    # prior; any other analysis prior keeps both kernel rows, as in `tails`
    built = set()
    original = bfdesign.predictive.log_beta_integrals

    def recorded(a, b, l, u, n):
        built.add((a, b, l, u))
        return original(a, b, l, u, n)

    monkeypatch.setattr(bfdesign.predictive, "log_beta_integrals", recorded)
    p0 = 0.2
    h0, h1 = (1.0, 1.0, 0.0, p0), (1.0, 1.0, p0, 1.0)
    flat, point = AnalysisPrior.flat(p0), PointMass(0.4)
    cases = [
        (flat, 3.0, point, None, set()),
        (flat, 3.0, TruncatedBeta(1.0, 1.0, p0, 1.0), None, {h1}),
        (flat, 3.0, point, TruncatedBeta(1.0, 1.0, 0.0, p0), {h0}),
        (AnalysisPrior.from_shapes(p0, 2.0, 20.0, 1.0, 1.0), 3.0, point, None,
         {(2.0, 20.0, 0.0, p0), h1}),
        # 1 - tau_f = 1 / (1 + k_f c), 4e-300, is below `_FLAT_FLOOR`
        (flat, 1e300, point, None, {h0, h1}),
    ]
    for ap, k_f, power_prior, null_prior, kernels in cases:
        built.clear()
        DesignGrid(range(5, 61), 1 / 3, k_f, Hypotheses(p0), ap, power_prior, null_prior)
        assert built == kernels
