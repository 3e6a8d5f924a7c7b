"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS line once its assertions have held (visible under
pytest -s).  Expected designs and characteristics are the published reference
values; searches run over the documented ranges (first setting n in [5, 40],
second setting n in [5, 60], extended to 100 for the strong-evidence flat
prior row, whose reported design sits exactly at that bound).
"""

import math

import numpy as np
from scipy.stats import binom

from bfdesign import (
    AnalysisPrior,
    CalibrationConstraints,
    Hypotheses,
    PointMass,
    TruncatedBeta,
    TwoStageDesign,
    base_sample_size,
    evaluate,
    joint_predictive_matrix,
    optimal_calibrate,
    predictive_vector,
    scan,
    simon_search,
)
from bfdesign.bayesfactor import log_bf01_curve
from bfdesign.oracle import enumerate_oracle


def _passed(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def _optimal(p0, alpha, beta, k, k_f, power_prior, n_min, n_max, f=None):
    cons = CalibrationConstraints(
        alpha=alpha, beta=beta, f=f, n_min=n_min, n_max=n_max
    )
    return optimal_calibrate(
        cons, k, k_f, Hypotheses(p0), AnalysisPrior.flat(p0), power_prior
    )


def _assert_row(result, n1, n2, type_i, power, e_n, pce):
    assert result is not None
    assert (result.design.n1, result.design.n2) == (n1, n2)
    assert round(result.oc.type_i_adjusted, 4) == type_i
    assert round(result.oc.power_adjusted, 4) == power
    assert round(result.oc.e_n_h0, 2) == e_n
    assert round(result.oc.pce_p0, 4) == pce


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


def test_criterion_1_first_setting_designs():
    """First worked setting: optimal designs for five power priors."""
    _assert_row(
        _optimal(0.1, 0.05, 0.2, 1 / 3, 3.0, PointMass(0.3), 5, 40),
        10, 29, 0.0471, 0.8051, 15.01, 0.7361,
    )
    _assert_row(
        _optimal(0.1, 0.05, 0.2, 1 / 3, 3.0, TruncatedBeta(1, 1, 0.1, 1), 5, 40),
        5, 15, 0.0480, 0.8107, 9.10, 0.5905,
    )
    _assert_row(
        _optimal(0.1, 0.05, 0.2, 1 / 3, 3.0, TruncatedBeta(7, 15, 0.1, 1), 5, 40),
        11, 36, 0.0470, 0.8017, 18.57, 0.6974,
    )
    # the published shape 11.29 is the rounded display of 79/7, the unique
    # value placing the prior mode exactly at 0.3 alongside the (7, 15) and
    # (22, 50) members of the family; the exact shape reproduces the row
    _assert_row(
        _optimal(0.1, 0.05, 0.2, 1 / 3, 3.0, TruncatedBeta(79 / 7, 25, 0.1, 1), 5, 40),
        12, 28, 0.0477, 0.8020, 17.46, 0.6590,
    )
    rounded = _optimal(0.1, 0.05, 0.2, 1 / 3, 3.0, TruncatedBeta(11.29, 25, 0.1, 1), 5, 40)
    assert (rounded.design.n1, rounded.design.n2) == (12, 28)
    assert abs(rounded.oc.power_adjusted - 0.8020) < 2e-4
    _assert_row(
        _optimal(0.1, 0.05, 0.2, 1 / 3, 3.0, TruncatedBeta(22, 50, 0.1, 1), 5, 40),
        10, 36, 0.0432, 0.8038, 16.86, 0.7361,
    )
    _passed(1, "first-setting optimal designs reproduce all five reference rows")


def test_criterion_2_second_setting_designs():
    """Second worked setting: five reference rows across thresholds/priors."""
    _assert_row(
        _optimal(0.2, 0.1, 0.1, 1 / 3, 3.0, PointMass(0.4), 5, 60),
        17, 37, 0.0948, 0.9033, 26.02, 0.5489,
    )
    _assert_row(
        _optimal(0.2, 0.1, 0.1, 1 / 3, 3.0, PointMass(0.4), 5, 60, f=0.6),
        30, 36, 0.0886, 0.9091, 32.36, 0.6070,
    )
    _assert_row(
        _optimal(0.2, 0.1, 0.1, 1 / 10, 3.0, PointMass(0.4), 5, 60),
        21, 51, 0.0340, 0.9021, 33.42, 0.5860,
    )
    _assert_row(
        _optimal(0.2, 0.1, 0.1, 1 / 3, 3.0, TruncatedBeta(1, 1, 0.2, 1), 5, 60),
        27, 54, 0.0988, 0.9003, 39.46, 0.5387,
    )
    _assert_row(
        _optimal(0.2, 0.1, 0.1, 1 / 10, 3.0, TruncatedBeta(1, 1, 0.2, 1), 5, 100),
        42, 100, 0.0325, 0.9002, 69.21, 0.5309,
    )
    _passed(2, "second-setting optimal designs reproduce all five reference rows")


def test_criterion_3_classical_cross_check():
    """Classical search rows, and coincidence with the frequentist BF design."""
    optimal1, minimax1 = simon_search(0.1, 0.3, 0.05, 0.2, n_max=40)
    assert (optimal1.n1, optimal1.n2) == (10, 29)
    assert round(optimal1.alpha_attained, 4) == 0.0471
    assert round(optimal1.power_attained, 4) == 0.8051
    assert round(optimal1.e_n_h0, 2) == 15.01
    assert round(optimal1.pet_p0, 4) == 0.7361
    assert (minimax1.n1, minimax1.n2) == (15, 25)
    assert round(minimax1.alpha_attained, 4) == 0.0328
    assert round(minimax1.power_attained, 4) == 0.8017
    assert round(minimax1.e_n_h0, 2) == 19.51
    assert round(minimax1.pet_p0, 4) == 0.5490

    optimal2, minimax2 = simon_search(0.2, 0.4, 0.1, 0.1, n_max=40)
    assert (optimal2.n1, optimal2.n2) == (17, 37)
    assert (minimax2.n1, minimax2.n2) == (19, 36)

    # with frequentist power and moderate thresholds the Bayes factor design
    # coincides with the classical optimal design in both settings
    for simon, bf_result in [
        (optimal1, _optimal(0.1, 0.05, 0.2, 1 / 3, 3.0, PointMass(0.3), 5, 40)),
        (optimal2, _optimal(0.2, 0.1, 0.1, 1 / 3, 3.0, PointMass(0.4), 5, 60)),
    ]:
        oc = bf_result.oc
        assert (bf_result.design.n1, bf_result.design.n2) == (simon.n1, simon.n2)
        assert round(oc.type_i_adjusted, 4) == round(simon.alpha_attained, 4)
        assert round(oc.power_adjusted, 4) == round(simon.power_attained, 4)
        assert round(oc.e_n_h0, 4) == round(simon.e_n_h0, 4)
        assert round(oc.pce_p0, 4) == round(simon.pet_p0, 4)
    _passed(3, "classical optimal/minimax rows match and the BF design recovers them")


def test_criterion_4_closed_form_equals_enumeration():
    """Closed-form rates equal exhaustive path enumeration on 216 configs."""
    scenarios = random_scenarios(216)
    assert len(scenarios) >= 200
    for p0, n1, n2, k, k_f, power_prior, null_prior in scenarios:
        design = TwoStageDesign(n1, n2, k, k_f)
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        closed = evaluate(design, hyp, ap, power_prior, null_prior)
        oracle = enumerate_oracle(design, hyp, ap, power_prior, null_prior)
        assert abs(closed.futility_erased_power - oracle.futility_erased_power) < 1e-12
        assert abs(closed.futility_erased_type_i - oracle.futility_erased_type_i) < 1e-12
        assert abs(closed.power_adjusted - oracle.power_adjusted) < 1e-12
        assert abs(closed.type_i_adjusted - oracle.type_i_adjusted) < 1e-12
    _passed(4, "closed form equals path enumeration within 1e-12 on 216 configs")


def test_criterion_5_adjustment_inequality_and_prune():
    """Adjusted <= unadjusted with equality iff nothing is erased; bounds inert."""
    for p0, n1, n2, k, k_f, power_prior, null_prior in random_scenarios(216):
        design = TwoStageDesign(n1, n2, k, k_f)
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        oc = evaluate(design, hyp, ap, power_prior, null_prior)
        for adjusted, unadjusted, erased in [
            (oc.power_adjusted, oc.power_unadjusted, oc.futility_erased_power),
            (oc.type_i_adjusted, oc.type_i_unadjusted, oc.futility_erased_type_i),
        ]:
            assert adjusted <= unadjusted
            if erased > 0.0:
                assert adjusted < unadjusted
            else:
                assert adjusted == unadjusted

    searches = [
        (0.1, 0.05, 0.2, 1 / 3, 3.0, PointMass(0.3), 5, 40, None),
        (0.1, 0.05, 0.2, 1 / 3, 3.0, TruncatedBeta(1, 1, 0.1, 1), 5, 40, None),
        (0.2, 0.1, 0.1, 1 / 3, 3.0, PointMass(0.4), 5, 45, 0.6),
        (0.3, 0.1, 0.2, 1 / 10, 10.0, TruncatedBeta(2, 2, 0.3, 1), 2, 30, None),
        (0.5, 0.2, 0.2, 1 / 3, 3.0, PointMass(0.75), 2, 25, None),
    ]
    for p0, alpha, beta, k, k_f, prior, n_min, n_max, f in searches:
        cons = CalibrationConstraints(alpha=alpha, beta=beta, f=f, n_min=n_min, n_max=n_max)
        hyp = Hypotheses(p0)
        ap = AnalysisPrior.flat(p0)
        result = optimal_calibrate(cons, k, k_f, hyp, ap, prior)
        # exhaustive reference: the argmin over every row of every final size
        rows = scan(range(n_min + 1, n_max + 1), cons, k, k_f, hyp, ap, prior)
        feasible = [(r.e_n_h0, r.n2, r.n1) for r in rows if r.feasible]
        if result is None:
            assert not feasible
        else:
            e_n_h0, n2, n1 = min(feasible)
            assert (result.design.n1, result.design.n2) == (n1, n2)
            assert result.objective == e_n_h0
    _passed(5, "adjustment inequality holds on the grid and the search bounds are inert")


def test_criterion_6_single_look_baselines():
    """Single-look baselines of the second setting, including the 53/54 case."""
    hyp = Hypotheses(0.2)
    ap = AnalysisPrior.flat(0.2)
    cons = CalibrationConstraints(alpha=0.1, beta=0.1, n_min=5, n_max=150, window=10)
    flat = TruncatedBeta(1, 1, 0.2, 1.0)
    assert base_sample_size(1 / 10, hyp, ap, flat, cons) == 110
    assert base_sample_size(1 / 3, hyp, ap, flat, cons) == 61
    assert base_sample_size(1 / 3, hyp, ap, PointMass(0.4), cons) == 36
    # the reference text reports this one inconsistently as 53 and as 54;
    # the exact computation gives 53 (power holds on 53..63, type-I 0.0937)
    strong = base_sample_size(1 / 10, hyp, ap, PointMass(0.4), cons)
    assert strong in (53, 54)
    assert strong == 53
    _passed(6, "single-look baselines are 110, 61, 36 and 53 (53-vs-54 case)")


def test_criterion_7_normalization_and_identity_suite():
    """pmf normalization, uniform law, expectation identity, branch sums, symmetry."""
    priors = [
        TruncatedBeta(1, 1, 0.0, 1.0),
        TruncatedBeta(7, 15, 0.1, 1.0),
        PointMass(0.2),
    ]
    for prior in priors:
        for n in range(1, 201):
            assert abs(float(predictive_vector(prior, n).sum()) - 1.0) < 1e-12
    rng = np.random.default_rng(99)
    for prior in priors:
        for _ in range(5):
            n1 = int(rng.integers(1, 40))
            m = int(rng.integers(1, 80))
            assert abs(float(joint_predictive_matrix(n1, m, prior).sum()) - 1.0) < 1e-10

    flat = TruncatedBeta(1, 1, 0.0, 1.0)
    for n in range(1, 101):
        assert np.allclose(predictive_vector(flat, n), 1.0 / (n + 1), rtol=1e-12, atol=0)

    hyp = Hypotheses(0.2)
    ap = AnalysisPrior.flat(0.2)
    for n1, n2 in [(5, 12), (10, 29), (30, 36)]:
        design = TwoStageDesign(n1, n2, 1 / 3, 3.0)
        oc = evaluate(design, hyp, ap, PointMass(0.2))
        p_stop, e_n = oc.branch_h1.futility, oc.e_n_h1
        assert e_n == n2 - (n2 - n1) * p_stop

    for p0, n1, n2, k, k_f, power_prior, null_prior in random_scenarios(40, seed=123):
        oc = evaluate(
            TwoStageDesign(n1, n2, k, k_f),
            Hypotheses(p0),
            AnalysisPrior.flat(p0),
            power_prior,
            null_prior,
        )
        assert abs(sum(oc.branch_h0) - 1.0) < 1e-10
        assert abs(sum(oc.branch_h1) - 1.0) < 1e-10
        assert n1 <= oc.e_n_h0 <= n2 and n1 <= oc.e_n_h1 <= n2

    hyp5 = Hypotheses(0.5)
    ap5 = AnalysisPrior.flat(0.5)
    for n in (2, 10, 50, 120, 200):
        log_bf = log_bf01_curve(n, hyp5, ap5)
        for y in range(n + 1):
            product = math.exp(log_bf[y] + log_bf[n - y])
            assert abs(product - 1.0) < 1e-10
    _passed(7, "normalization, uniform-law, expectation, branch and symmetry identities hold")


def test_criterion_1_anchor_stop_probability():
    """The anchor design's stop probability is the exact binomial mass."""
    hyp = Hypotheses(0.1)
    ap = AnalysisPrior.flat(0.1)
    interim = TwoStageDesign(10, 11, 1 / 3, 3.0)
    pce = evaluate(interim, hyp, ap, PointMass(0.1)).branch_h1.futility
    assert math.isclose(pce, float(binom.cdf(1, 10, 0.1)), rel_tol=1e-14)
