"""Operating characteristics: closed form versus enumeration, hand cases."""

import math
from fractions import Fraction

import numpy as np
import pytest

import bfdesign.operating
from bfdesign import (
    AnalysisPrior,
    CalibrationConstraints,
    Hypotheses,
    PointMass,
    TruncatedBeta,
    TwoStageDesign,
    critical_efficacy,
    critical_futility,
    enumerate_oracle,
    evaluate,
    optimal_calibrate,
    predictive_vector,
)
from bfdesign.bayesfactor import ParameterError, log_bf01_curve
from bfdesign.operating import DesignGrid, erased_mass_column

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
        patch.setattr(bfdesign.operating, "joint_predictive_matrix", refuse)
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
    # the grid behind evaluate tables only the design's two sizes, so one
    # evaluate looks up each critical count once at n1 and once at n2,
    # whatever the null design prior
    calls = []
    for name in ("critical_efficacy", "critical_futility"):
        original = getattr(bfdesign.operating, name)

        def counted(n, *args, _original=original, _name=name):
            calls.append((_name, n))
            return _original(n, *args)

        monkeypatch.setattr(bfdesign.operating, name, counted)
    design = TwoStageDesign(400, 1000, 1 / 10, 10.0)
    hyp, ap = Hypotheses(0.05), AnalysisPrior.flat(0.05)
    power_prior = TruncatedBeta(3.0, 2.0, 0.05, 1.0)
    for null_prior in (None, TruncatedBeta(1.0, 1.0, 0.0, 0.05)):
        calls.clear()
        evaluate(design, hyp, ap, power_prior, null_prior)
        assert sorted(calls) == [
            ("critical_efficacy", 400),
            ("critical_efficacy", 1000),
            ("critical_futility", 400),
            ("critical_futility", 1000),
        ]


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
        column = erased_mass_column(n1, y_fut, n2, y_eff, prior)
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
