"""Operating characteristics: closed form versus enumeration, hand cases."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bfdesign import (
    AnalysisPrior,
    Hypotheses,
    PointMass,
    TruncatedBeta,
    TwoStageDesign,
    adjusted_rate,
    branch_probabilities,
    critical_efficacy,
    critical_futility,
    enumerate_oracle,
    enumerate_paths,
    evaluate,
    expected_n,
    futility_erased,
    path_probabilities,
    prob_futility_stop,
    unadjusted_rate,
)
from bfdesign.operating import erased_mass_column

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


def test_closed_form_matches_enumeration_on_random_grid():
    for p0, n1, n2, k, k_f, power_prior, null_prior in random_scenarios(60):
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
            "e_n_h0",
            "e_n_h1",
        ):
            assert abs(getattr(closed, name) - getattr(oracle, name)) < 1e-12, name
        for branch in ("branch_h0", "branch_h1"):
            for a, b in zip(getattr(closed, branch), getattr(oracle, branch)):
                assert abs(a - b) < 1e-12


def test_unadjusted_rate_decomposes_over_interim_branches():
    for p0, n1, n2, k, k_f, power_prior, null_prior in random_scenarios(20, seed=5):
        design = TwoStageDesign(n1, n2, k, k_f)
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        paths = enumerate_paths(design, hyp, ap, power_prior)
        total = sum(paths.reject_by_branch)
        assert abs(total - unadjusted_rate(n2, k, hyp, ap, power_prior)) < 1e-12


def test_reject_by_branch_futility_is_the_erased_mass():
    # the joint-matrix split and the hypergeometric erased mass are two routes
    # to the same number
    for p0, n1, n2, k, k_f, power_prior, null_prior in random_scenarios(60):
        design = TwoStageDesign(n1, n2, k, k_f)
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        for prior in (power_prior, null_prior):
            side = path_probabilities(design, hyp, ap, prior)
            assert abs(side.reject_by_branch.futility - side.futility_erased) < 1e-12
            assert abs(sum(side.reject_by_branch) - side.unadjusted) < 1e-12


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
            oracle = enumerate_paths(design, hyp, ap, prior).futility_erased
            assert abs(column[i] - oracle) < 1e-12
            # one interim size alone gives the same bits as inside its column
            alone = futility_erased(int(n1[i]), n2, k, k_f, hyp, ap, prior)
            assert alone == column[i]
    assert saw_no_futility and saw_no_efficacy


def test_adjustment_only_lowers_rates_and_exactly_when_erased():
    for p0, n1, n2, k, k_f, power_prior, null_prior in random_scenarios(60):
        design = TwoStageDesign(n1, n2, k, k_f)
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        for prior in (power_prior, null_prior):
            side = path_probabilities(design, hyp, ap, prior)
            assert side.adjusted <= side.unadjusted + 1e-15
            if side.futility_erased > 0.0:
                assert side.adjusted < side.unadjusted
            else:
                assert side.adjusted == side.unadjusted


def test_expected_n_identity_is_exact():
    hyp = Hypotheses(0.2)
    ap = AnalysisPrior.flat(0.2)
    for prior in (PointMass(0.2), TruncatedBeta(2, 5, 0.0, 0.2)):
        for n1, n2 in [(5, 12), (10, 29), (30, 36)]:
            p_stop = prob_futility_stop(n1, 3.0, hyp, ap, prior)
            value = expected_n(n1, n2, 3.0, hyp, ap, prior)
            assert value == n2 - (n2 - n1) * p_stop
            assert abs(value - (n1 * p_stop + n2 * (1.0 - p_stop))) < 1e-12
            assert n1 <= value <= n2


def test_expected_n_reference_values():
    hyp1 = Hypotheses(0.1)
    ap1 = AnalysisPrior.flat(0.1)
    assert round(expected_n(10, 29, 3.0, hyp1, ap1, PointMass(0.1)), 2) == 15.01
    hyp2 = Hypotheses(0.2)
    ap2 = AnalysisPrior.flat(0.2)
    assert round(expected_n(30, 36, 3.0, hyp2, ap2, PointMass(0.2)), 2) == 32.36


def test_prob_futility_stop_reference_values():
    hyp1 = Hypotheses(0.1)
    ap1 = AnalysisPrior.flat(0.1)
    assert round(prob_futility_stop(10, 3.0, hyp1, ap1, PointMass(0.1)), 4) == 0.7361
    hyp2 = Hypotheses(0.2)
    ap2 = AnalysisPrior.flat(0.2)
    assert round(prob_futility_stop(30, 3.0, hyp2, ap2, PointMass(0.2)), 4) == 0.6070


def test_pce_is_stop_probability_under_point_null():
    design = TwoStageDesign(10, 29, 1 / 3, 3.0)
    hyp = Hypotheses(0.1)
    ap = AnalysisPrior.flat(0.1)
    oc = evaluate(design, hyp, ap, PointMass(0.3))
    assert oc.pce_p0 == prob_futility_stop(10, 3.0, hyp, ap, PointMass(0.1))


def test_unfulfillable_futility_threshold_degenerates_to_single_stage():
    # one interim observation cannot carry a Bayes factor above 100, so the
    # futility branch vanishes and the adjustment is a no-op
    hyp = Hypotheses(0.3)
    ap = AnalysisPrior.flat(0.3)
    design = TwoStageDesign(1, 12, 1 / 3, 100.0)
    prior = PointMass(0.3)
    assert prob_futility_stop(1, 100.0, hyp, ap, prior) == 0.0
    assert futility_erased(1, 12, 1 / 3, 100.0, hyp, ap, prior) == 0.0
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
        triple = branch_probabilities(n1, k, k_f, hyp, ap, power_prior)
        assert abs(sum(triple) - 1.0) < 1e-10
        assert all(0.0 <= value <= 1.0 for value in triple)


def test_point_mass_branches_are_binomial_masses():
    from scipy.stats import binom

    from bfdesign import critical_efficacy, critical_futility

    hyp = Hypotheses(0.2)
    ap = AnalysisPrior.flat(0.2)
    n1, k, k_f, p = 18, 1 / 3, 3.0, 0.35
    y_eff = critical_efficacy(n1, k, hyp, ap)
    y_fut = critical_futility(n1, k_f, hyp, ap)
    triple = branch_probabilities(n1, k, k_f, hyp, ap, PointMass(p))
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
    paths = path_probabilities(design, hyp, ap, FLAT01)
    third = float(Fraction(1, 3))
    assert math.isclose(paths.prob_stop, third, rel_tol=1e-13)
    assert math.isclose(paths.unadjusted, 0.4, rel_tol=1e-13)
    assert paths.futility_erased == 0.0
    assert math.isclose(paths.adjusted, 0.4, rel_tol=1e-13)
    assert math.isclose(paths.expected_n, 4 - 2 * third, rel_tol=1e-13)
    for value, expected in zip(paths.branches, (third, third, third)):
        assert math.isclose(value, expected, rel_tol=1e-12)
    oracle = enumerate_paths(design, hyp, ap, FLAT01)
    assert abs(oracle.unadjusted - paths.unadjusted) < 1e-14
    assert abs(oracle.prob_stop - paths.prob_stop) < 1e-14


def test_hand_computed_erased_mass():
    # (n1, n2) = (2, 6) at p0 = 0.5, flat priors: stopping needs zero interim
    # successes and rejection a total of 4, so the erased mass is the single
    # joint cell (0, 4) = B(5, 3) / B(1, 1) = 1/105
    hyp = Hypotheses(0.5)
    ap = AnalysisPrior.flat(0.5)
    value = futility_erased(2, 6, 1 / 3, 3.0, hyp, ap, FLAT01)
    assert math.isclose(value, float(Fraction(1, 105)), rel_tol=1e-13)


def test_adjusted_rate_free_function_consistency():
    hyp = Hypotheses(0.1)
    ap = AnalysisPrior.flat(0.1)
    prior = PointMass(0.1)
    direct = adjusted_rate(10, 29, 1 / 3, 3.0, hyp, ap, prior)
    via_paths = path_probabilities(
        TwoStageDesign(10, 29, 1 / 3, 3.0), hyp, ap, prior
    ).adjusted
    assert direct == via_paths
    assert round(direct, 4) == 0.0471
