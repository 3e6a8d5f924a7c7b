"""Calibration searches: baselines, first-feasible, optimal, scan."""

import dataclasses
import itertools
import math
import sys
import time
from pathlib import Path

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
    base_sample_size,
    calibrate,
    critical_efficacy,
    critical_futility,
    evaluate,
    optimal_calibrate,
    predictive_vector,
    scan,
)
from bfdesign.bayesfactor import ParameterError, log_bf01_at_zero, log_bf01_curve
from bfdesign.calibration import _can_be_feasible, _type_i_floor
from bfdesign.config import load_config
from bfdesign.operating import MARGIN, DesignGrid, expected_size, walk_key

EX1_HYP = Hypotheses(0.1)
EX1_AP = AnalysisPrior.flat(0.1)
EX2_HYP = Hypotheses(0.2)
EX2_AP = AnalysisPrior.flat(0.2)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def count_tabled_sizes(monkeypatch):
    """Record every size a design grid tables from now on, in order."""
    tabled = []
    original = DesignGrid._table

    def counted(self, sizes):
        tabled.extend(sizes.tolist())
        return original(self, sizes)

    monkeypatch.setattr(DesignGrid, "_table", counted)
    return tabled


def exhaustive(cons, k, k_f, hyp, ap, prior, null_prior=None):
    """(optimal, first) as (E[N|H0], n2, n1) from every scan row, or None."""
    rows = scan(range(cons.n_min + 1, cons.n_max + 1), cons, k, k_f, hyp, ap, prior, null_prior)
    feasible = [(r.e_n_h0, r.n2, r.n1) for r in rows if r.feasible]
    return (min(feasible), feasible[0]) if feasible else None


def test_constraints_validation():
    with pytest.raises(ValueError):
        CalibrationConstraints(alpha=0.0, beta=0.2)
    with pytest.raises(ValueError):
        CalibrationConstraints(alpha=0.05, beta=1.0)
    with pytest.raises(ValueError):
        CalibrationConstraints(alpha=0.05, beta=0.2, f=1.5)
    with pytest.raises(ValueError):
        CalibrationConstraints(alpha=0.05, beta=0.2, n_min=10, n_max=10)
    with pytest.raises(ValueError):
        CalibrationConstraints(alpha=0.05, beta=0.2, window=-1)
    for name, value in [
        ("n_min", 5.0),
        ("n_min", True),
        ("n_max", 40.5),
        ("n_max", 40.0),
        ("window", 2.5),
        ("window", False),
    ]:
        with pytest.raises(ParameterError) as err:
            CalibrationConstraints(alpha=0.05, beta=0.2, **{name: value})
        assert err.value.name == name
    cons = CalibrationConstraints(
        alpha=0.05, beta=0.2, n_min=np.int64(5), n_max=np.int64(40), window=np.int64(0)
    )
    assert cons.n_max == 40


def test_single_look_baselines():
    cons = CalibrationConstraints(alpha=0.1, beta=0.1, n_min=5, n_max=150, window=10)
    flat = TruncatedBeta(1, 1, 0.2, 1.0)
    assert base_sample_size(1 / 10, EX2_HYP, EX2_AP, flat, cons) == 110
    assert base_sample_size(1 / 3, EX2_HYP, EX2_AP, flat, cons) == 61
    assert base_sample_size(1 / 3, EX2_HYP, EX2_AP, PointMass(0.4), cons) == 36


def test_single_look_baseline_strong_evidence_point_prior():
    # the reference text reports both 53 and 54 for this setting; the exact
    # computation lands on 53 and the suite pins that value
    cons = CalibrationConstraints(alpha=0.1, beta=0.1, n_min=5, n_max=150, window=10)
    value = base_sample_size(1 / 10, EX2_HYP, EX2_AP, PointMass(0.4), cons)
    assert value in (53, 54)
    assert value == 53


def _reference_base_sample_size(k, hyp, ap, power_prior, cons, null_prior):
    """The baseline by its definition, one size at a time."""

    def single_look(prior, n):
        y_eff = critical_efficacy(n, k, hyp, ap)
        return 0.0 if y_eff is None else float(predictive_vector(prior, n)[y_eff:].sum())

    null_prior = null_prior or PointMass(hyp.p0)
    for n in range(1, cons.n_max + 1):
        stable = all(
            single_look(power_prior, m) >= 1.0 - cons.beta
            for m in range(n, n + cons.window + 1)
        )
        if stable and single_look(null_prior, n) <= cons.alpha:
            return n
    return None


@pytest.mark.parametrize("window", [0, 10])
@pytest.mark.parametrize("null_prior", [None, TruncatedBeta(1, 1, 0.0, 0.2)])
@pytest.mark.parametrize("power_prior", [TruncatedBeta(1, 1, 0.2, 1.0), PointMass(0.4)])
@pytest.mark.parametrize("k", [1 / 10, 1 / 3])
def test_single_look_baseline_equals_per_size_reference(k, power_prior, null_prior, window):
    cons = CalibrationConstraints(alpha=0.1, beta=0.1, n_min=5, n_max=150, window=window)
    args = (k, EX2_HYP, EX2_AP, power_prior, cons, null_prior)
    assert base_sample_size(*args) == _reference_base_sample_size(*args)


def test_single_look_baseline_tables_only_what_its_scan_reads(monkeypatch):
    # the scan at n reads sizes up to n + window, each tabled once
    cons = CalibrationConstraints(alpha=0.1, beta=0.1, n_min=5, n_max=150, window=10)
    tabled = count_tabled_sizes(monkeypatch)
    assert base_sample_size(1 / 3, EX2_HYP, EX2_AP, PointMass(0.4), cons) == 36
    assert tabled == list(range(1, 47))


def test_single_look_baseline_tables_a_window_per_block(monkeypatch):
    # a power miss rules out every n whose window holds it, so the scan
    # steps past it and tables the next window in one block: the sizes a
    # scan of one size per n tables, in a handful of blocks, not one per n
    blocks = []
    original = DesignGrid._table

    def counted(self, sizes):
        blocks.append(sizes.tolist())
        return original(self, sizes)

    monkeypatch.setattr(DesignGrid, "_table", counted)
    cons = CalibrationConstraints(alpha=0.1, beta=0.1, n_min=5, n_max=150, window=10)
    flat = TruncatedBeta(1, 1, 0.2, 1.0)
    settings = [
        (1 / 10, EX2_HYP, EX2_AP, flat, cons, 110, 11),
        (1 / 3, EX2_HYP, EX2_AP, flat, cons, 61, 7),
        (1 / 3, EX2_HYP, EX2_AP, PointMass(0.4), cons, 36, 5),
        (1 / 10, EX2_HYP, EX2_AP, PointMass(0.4), cons, 53, 6),
    ]
    for name, answer, count in [("example1", 25, 7), ("example2_bayes", 61, 7),
                                ("example2_pce", 36, 5)]:
        config = load_config(str(CONFIGS / f"{name}.cfg"))
        settings.append((config.k, config.hypotheses(), config.analysis_prior(),
                         config.power_prior, dataclasses.replace(config.constraints(), n_max=120),
                         answer, count))
    for k, hyp, ap, prior, cons, answer, count in settings:
        blocks.clear()
        assert base_sample_size(k, hyp, ap, prior, cons) == answer
        assert sum(blocks, []) == list(range(1, answer + cons.window + 1))
        assert len(blocks) == count, (answer, blocks)
    # past n_max the scan ends without tabling the rest of the last window
    blocks.clear()
    cons = CalibrationConstraints(alpha=0.1, beta=0.1, n_min=5, n_max=30, window=10)
    assert base_sample_size(1 / 10, EX2_HYP, EX2_AP, flat, cons) is None
    assert blocks == [list(range(1, 12)), list(range(12, 23)), list(range(23, 34))]


def test_single_look_baseline_absent_when_range_too_small():
    cons = CalibrationConstraints(alpha=0.1, beta=0.1, n_min=5, n_max=30, window=10)
    flat = TruncatedBeta(1, 1, 0.2, 1.0)
    assert base_sample_size(1 / 10, EX2_HYP, EX2_AP, flat, cons) is None


def test_optimal_design_first_setting_frequentist():
    cons = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40)
    result = optimal_calibrate(cons, 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    assert (result.design.n1, result.design.n2) == (10, 29)
    assert round(result.oc.type_i_adjusted, 4) == 0.0471
    assert round(result.oc.power_adjusted, 4) == 0.8051
    assert round(result.oc.e_n_h0, 2) == 15.01
    assert round(result.oc.pce_p0, 4) == 0.7361
    assert result.objective == result.oc.e_n_h0
    # the reported characteristics meet both targets
    assert result.oc.type_i_adjusted <= cons.alpha
    assert result.oc.power_adjusted >= 1 - cons.beta


def test_optimal_design_first_setting_flat_prior():
    cons = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40)
    result = optimal_calibrate(
        cons, 1 / 3, 3.0, EX1_HYP, EX1_AP, TruncatedBeta(1, 1, 0.1, 1.0)
    )
    assert (result.design.n1, result.design.n2) == (5, 15)
    assert round(result.oc.e_n_h0, 2) == 9.10


def test_optimal_design_pce_floor_changes_answer():
    cons = CalibrationConstraints(alpha=0.1, beta=0.1, f=0.6, n_min=5, n_max=60)
    result = optimal_calibrate(cons, 1 / 3, 3.0, EX2_HYP, EX2_AP, PointMass(0.4))
    assert (result.design.n1, result.design.n2) == (30, 36)
    assert result.oc.pce_p0 > 0.6
    assert round(result.oc.e_n_h0, 2) == 32.36


def test_prune_never_changes_the_argmin(monkeypatch):
    settings = [
        (
            CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40),
            1 / 3,
            3.0,
            EX1_HYP,
            EX1_AP,
            PointMass(0.3),
        ),
        (
            CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40),
            1 / 3,
            3.0,
            EX1_HYP,
            EX1_AP,
            TruncatedBeta(1, 1, 0.1, 1.0),
        ),
        (
            CalibrationConstraints(alpha=0.1, beta=0.1, f=0.6, n_min=5, n_max=45),
            1 / 3,
            3.0,
            EX2_HYP,
            EX2_AP,
            PointMass(0.4),
        ),
        (
            CalibrationConstraints(alpha=0.1, beta=0.2, n_min=2, n_max=30),
            1 / 10,
            10.0,
            Hypotheses(0.3),
            AnalysisPrior.flat(0.3),
            TruncatedBeta(2, 2, 0.3, 1.0),
        ),
        # the optimum has E[N|H0] 9.1, so both walks end long before n_max
        (
            CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=100),
            1 / 3,
            3.0,
            EX1_HYP,
            EX1_AP,
            TruncatedBeta(1, 1, 0.1, 1.0),
        ),
        # the futility mass under the power prior rules out interim sizes
        (
            CalibrationConstraints(alpha=0.1, beta=0.1, n_min=5, n_max=60),
            1 / 3,
            3.0,
            EX2_HYP,
            EX2_AP,
            TruncatedBeta(1, 1, 0.2, 1.0),
        ),
    ]
    # interim sizes each cut drops, per setting: the PCE floor fires in the
    # third setting and the power bound in the last
    dropped = {"pce": 0, "power": 0}
    can_be_feasible = bfdesign.calibration._can_be_feasible

    def counted(grid, n1, cons):
        ok = can_be_feasible(grid, n1, cons)
        dropped["power"] += int(np.sum(~ok & (grid.h1[n1, 2] > cons.beta + MARGIN)))
        if cons.f is not None:
            dropped["pce"] += int(np.sum(~ok & (grid.pce[n1] <= cons.f)))
        return ok

    monkeypatch.setattr(bfdesign.calibration, "_can_be_feasible", counted)
    fired = []
    tabled = count_tabled_sizes(monkeypatch)
    for cons, k, k_f, hyp, ap, prior in settings:
        tabled.clear()
        dropped.update(pce=0, power=0)
        result = optimal_calibrate(cons, k, k_f, hyp, ap, prior)
        first = calibrate(cons, k, k_f, hyp, ap, prior)
        fired.append(dict(dropped))
        if cons.n_max >= 100:
            assert max(tabled) < cons.n_max // 4, max(tabled)
        # exhaustive reference: every row of every final size, in scan order
        reference = exhaustive(cons, k, k_f, hyp, ap, prior)
        if result is None:
            assert reference is None
            assert first is None
        else:
            # optimal: the argmin of (E[N|H0], n2, n1)
            e_n_h0, n2, n1 = reference[0]
            assert (result.design.n1, result.design.n2) == (n1, n2)
            assert result.objective == e_n_h0
            # first calibrated: the first feasible (n2, n1) in scan order
            e_n_h0, n2, n1 = reference[1]
            assert (first.design.n1, first.design.n2) == (n1, n2)
            assert first.objective == e_n_h0
    assert fired[2]["pce"] > 0 and fired[-1]["power"] > 0, fired


@pytest.mark.parametrize("name", ["example1", "example2_bayes", "example2_pce"])
def test_interim_size_cuts_are_sound(name):
    # on every scan row at n_max 120, under the point and a flat null prior:
    # adjusted power never exceeds 1 minus the futility mass at n1 under the
    # power prior, the Harris-FKG floor never exceeds the adjusted type-I
    # error, and no row of an interim size either cut drops is feasible
    config = load_config(str(CONFIGS / f"{name}.cfg"))
    cons = dataclasses.replace(config.constraints(), n_max=120)
    hyp, ap = config.hypotheses(), config.analysis_prior()
    for null_prior in (None, TruncatedBeta(1.0, 1.0, 0.0, config.p0)):
        args = (config.k, config.k_f, hyp, ap, config.power_prior, null_prior)
        grid = DesignGrid(range(cons.n_min, cons.n_max + 1), *args)
        rows = scan(range(cons.n_min + 1, cons.n_max + 1), cons, *args)
        n1 = np.array([row.n1 for row in rows])
        n2 = np.array([row.n2 for row in rows])
        power = np.array([row.power_adjusted for row in rows])
        type_i = np.array([row.type_i_adjusted for row in rows])
        feasible = np.array([row.feasible for row in rows])
        assert (power <= 1.0 - grid.h1[n1, 2] + 1e-12).all()
        assert (_type_i_floor(grid, n1, n2) <= type_i).all()
        dropped = ~_can_be_feasible(grid, n1, cons)
        assert dropped.any() == (name != "example1")
        assert not feasible[dropped].any()


def test_type_i_floor_never_changes_a_search(monkeypatch):
    # with and without the Harris-FKG cut both searches give the same
    # answer, and the cut fires in every setting: example1 has no design at
    # alpha 0.001 under either null prior, and at alpha 0.02 both searches
    # find (9, 67); example2_bayes at alpha 0.01 and beta 0.2 under a flat
    # null finds (7, 23)
    flat1, flat2 = TruncatedBeta(1.0, 1.0, 0.0, 0.1), TruncatedBeta(1.0, 1.0, 0.0, 0.2)
    settings = [
        ("example1", {"alpha": 0.001, "n_max": 150}, None, None),
        ("example1", {"alpha": 0.001, "n_max": 150}, flat1, None),
        ("example1", {"alpha": 0.02, "n_max": 150}, None, (9, 67)),
        ("example2_bayes", {"alpha": 0.01, "beta": 0.2, "n_max": 100}, flat2, (7, 23)),
    ]
    cut = []

    def counted(grid, n1, n2):
        floor = _type_i_floor(grid, n1, n2)
        cut.append(int((floor > alpha + MARGIN).sum()))
        return floor

    for name, changes, null_prior, design in settings:
        config = load_config(str(CONFIGS / f"{name}.cfg"))
        cons = dataclasses.replace(config.constraints(), **changes)
        alpha = cons.alpha
        args = (cons, config.k, config.k_f, config.hypotheses(), config.analysis_prior(),
                config.power_prior, null_prior)
        for search in (optimal_calibrate, calibrate):
            cut.clear()
            monkeypatch.setattr(bfdesign.calibration, "_type_i_floor", counted)
            with_cut = search(*args)
            assert sum(cut) > 0, (name, changes, search.__name__)
            monkeypatch.setattr(
                bfdesign.calibration, "_type_i_floor", lambda grid, n1, n2: np.zeros(n1.size)
            )
            assert search(*args) == with_cut, (name, changes, search.__name__)
            found = with_cut and (with_cut.design.n1, with_cut.design.n2)
            assert found == design, (name, changes, search.__name__)


@pytest.mark.parametrize("name", ["example1", "example2_bayes", "example2_pce"])
def test_searches_end_at_the_horizon_on_the_shipped_configs(name, monkeypatch):
    # the optima lie far below n_max 120 and the walk ends at the first n2
    # where no key is below the optimum's, so a larger n_max changes neither
    # the answer nor the sizes tabled, up to n_max 10**400, past the doubles
    config = load_config(str(CONFIGS / f"{name}.cfg"))
    args = (config.k, config.k_f, config.hypotheses(), config.analysis_prior(), config.power_prior)
    tabled = count_tabled_sizes(monkeypatch)
    counts = {"example1": (32, 32), "example2_bayes": (81, 64), "example2_pce": (32, 32)}
    for search, count in zip((optimal_calibrate, calibrate), counts[name]):
        found = {}
        for n_max in (120, 1000, 10**9, 10**12, 10**400):
            tabled.clear()
            result = search(dataclasses.replace(config.constraints(), n_max=n_max), *args)
            found[n_max] = (result, list(tabled))
        at_120, sizes = found[120]
        assert at_120 is not None
        assert sizes == list(range(config.n_min, config.n_min + count)), sizes
        for n_max, (result, tabled_at) in found.items():
            assert result == at_120, (search.__name__, n_max)
            assert tabled_at == sizes, (search.__name__, n_max, len(tabled_at))


def test_walk_key_never_falls_and_rows_added_later_start_above_n2():
    # the walk end of both searches (`operating.walk_key`), in doubles too,
    # and at p_stop a hair above 1, where the pmf's rounding can leave it
    rng = np.random.default_rng(7)
    edges = [0.0, 0.5, 1.0, 1 - 1e-14, 1 - 2**-53, 2**-1074, 1e-300,
             1 + 2**-52, 1 + 1e-14, 1 + 1e-10]
    p_stop = np.concatenate([rng.random(2000), edges])[:, None]
    for n1 in (1, 7, 10, 100, 2999):
        n2 = np.arange(n1 + 1, n1 + 3002)
        keys = walk_key(n1, n2, p_stop)
        assert (np.diff(keys, axis=1) >= 0).all(), n1
        # n1 enters the walk at n2 = n1 + 1, so a row added after the
        # current n2 keys at least it, and an incumbent keys at most its n2
        assert (keys >= n1).all() and (keys <= n2).all(), n1
    # the reported E[N|H0] falls at the three p_stop above 1
    n2 = np.arange(11, 401)
    fell = [p for p in edges if np.any(np.diff(expected_size(10, n2, p)) < 0)]
    assert fell == [1 + 2**-52, 1 + 1e-14, 1 + 1e-10]


def test_search_winners_carry_the_numbers_of_evaluate():
    # the searches read their winner's characteristics off the grid they
    # searched; under a flat null prior on [0, p0] these must still equal
    # evaluate of the same design, field for field
    searches = [
        (0.1, 0.05, 0.2, 1 / 3, 3.0, PointMass(0.3), 5, 40, None),
        (0.1, 0.05, 0.2, 1 / 3, 3.0, TruncatedBeta(1, 1, 0.1, 1), 5, 40, None),
        (0.2, 0.1, 0.1, 1 / 3, 3.0, PointMass(0.4), 5, 45, 0.6),
        (0.3, 0.1, 0.2, 1 / 10, 10.0, TruncatedBeta(2, 2, 0.3, 1), 2, 30, None),
        (0.5, 0.2, 0.2, 1 / 3, 3.0, PointMass(0.75), 2, 25, None),
    ]
    found = 0
    for p0, alpha, beta, k, k_f, prior, n_min, n_max, f in searches:
        cons = CalibrationConstraints(alpha=alpha, beta=beta, f=f, n_min=n_min, n_max=n_max)
        hyp, ap = Hypotheses(p0), AnalysisPrior.flat(p0)
        null_prior = TruncatedBeta(1, 1, 0.0, p0)
        for search in (optimal_calibrate, calibrate):
            result = search(cons, k, k_f, hyp, ap, prior, null_prior)
            if result is None:
                continue
            found += 1
            oc = evaluate(result.design, hyp, ap, prior, null_prior)
            assert result.oc == oc
            assert result.objective == oc.e_n_h0
    assert found == 8


def test_prune_is_sound():
    # every skipped final size has single-look power below target, and no
    # interim split of it is feasible
    cons = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40)
    grid = DesignGrid(range(1, cons.n_max + 1), 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    for n2 in range(cons.n_min + 1, cons.n_max + 1):
        if grid.power[n2] >= 1 - cons.beta:
            continue
        assert not grid.rows(n2, np.arange(cons.n_min, n2)).feasible(cons).any()


def test_calibrate_returns_first_feasible_design():
    cons = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40)
    result = calibrate(cons, 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    assert result is not None
    assert result.design.n2 <= 29
    grid = DesignGrid(range(1, cons.n_max + 1), 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    # nothing earlier in the iteration order is feasible
    for n2 in range(cons.n_min + 1, result.design.n2 + 1):
        feasible = grid.rows(n2, np.arange(cons.n_min, n2)).feasible(cons)
        if n2 < result.design.n2:
            assert not feasible.any()
    # within the result's final size it is the first feasible interim size
    assert np.flatnonzero(feasible)[0] == result.design.n1 - cons.n_min


def test_calibrate_vacuous_constraints():
    cons = CalibrationConstraints(alpha=0.999, beta=0.999, n_min=5, n_max=40, window=0)
    result = calibrate(cons, 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    assert (result.design.n1, result.design.n2) == (5, 6)


def test_calibrate_infeasible_reports_none():
    # a futility threshold of 80 cannot be reached by n1 <= 7 interim
    # observations at p0 = 0.2, and the PCE floor is then unattainable
    cons = CalibrationConstraints(alpha=0.1, beta=0.1, f=0.6, n_min=5, n_max=8)
    result = calibrate(cons, 1 / 3, 80.0, EX2_HYP, EX2_AP, PointMass(0.4))
    assert result is None
    assert optimal_calibrate(cons, 1 / 3, 80.0, EX2_HYP, EX2_AP, PointMass(0.4)) is None


def test_searches_need_an_interim_size_that_can_stop():
    # k_f = 1e300 has no futility count at any n1 <= 119: both searches say
    # so with None instead of a design whose interim look never stops
    args = (1 / 3, 1e300, EX1_HYP, EX1_AP, PointMass(0.3))
    for n_max in (40, 120):
        cons = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=n_max)
        assert calibrate(cons, *args) is None
        assert optimal_calibrate(cons, *args) is None
    cons = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40)
    # rows still report the single-look rates of such designs
    row = scan(25, cons, *args)[0]
    assert (row.n1, row.pce, row.e_n_h0) == (5, 0.0, 25.0)


def test_no_interim_stop_is_told_from_the_last_size(monkeypatch):
    # log BF01 at zero successes never falls as n grows, so some interim size
    # can stop exactly when n_max - 1 can; the search tells that from one
    # O(1) value before it walks, so at k_f = 1e300 and n_max 1500, where no
    # size can stop, it tables nothing
    args = (1 / 3, 1e300, EX1_HYP, EX1_AP, PointMass(0.3))
    cons = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=1500)
    tabled = count_tabled_sizes(monkeypatch)
    for search in (calibrate, optimal_calibrate):
        tabled.clear()
        assert search(cons, *args) is None and tabled == []
        # sizes past about 6600 can stop, so the walk runs and finds the
        # single look in disguise (5, 25), however far n_max lies
        for n_max in (10**5, 10**12):
            tabled.clear()
            start = time.perf_counter()
            found = search(dataclasses.replace(cons, n_max=n_max), *args)
            assert time.perf_counter() - start < 1.0, (search.__name__, n_max)
            assert (found.design.n1, found.design.n2) == (5, 25), (search.__name__, n_max)
            assert len(tabled) < 60, (search.__name__, n_max, len(tabled))


def test_a_tiny_p0_settles_the_futility_check_in_doubles():
    # where 1 - p0 rounds to 1, H1's region [p0, 1] would be all of [0, 1],
    # so such a p0 is refused by name; the next double up is accepted, and
    # there the value at zero successes settles n_max = 10**21, where it
    # once raised "math domain error"
    for p0 in (1e-20, 2.0**-54):
        assert 1.0 - p0 == 1.0
        with pytest.raises(ParameterError) as err:
            Hypotheses(p0)
        assert err.value.name == "p0"
    p0 = math.nextafter(2.0**-54, 1.0)
    assert 1.0 - p0 < 1.0
    hyp, ap = Hypotheses(p0), AnalysisPrior.flat(p0)
    cons = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=10**21)
    for search in (calibrate, optimal_calibrate):
        found = search(cons, 1 / 3, 3.0, hyp, ap, PointMass(0.3))
        assert (found.design.n1, found.design.n2) == (5, 6), search.__name__


def test_the_futility_check_is_settled_past_the_double_range():
    # a size past the largest double is taken there, a lower bound; it
    # still exceeds the log of any finite k_f at the smallest accepted p0
    # and at every shape corner, so the search's check at an integer n_max
    # is exact (`bayesfactor.log_bf01_at_zero`)
    corners = (1e-3, 1.0, 1e5)
    for p0 in (math.nextafter(2.0**-54, 1.0), 1e-10, 0.5, 0.99):
        built = 0
        for shapes in itertools.product(corners, repeat=4):
            try:
                ap = AnalysisPrior.from_shapes(p0, *shapes)
            except (ValueError, ArithmeticError):
                continue  # a region prior with no mass in doubles
            built += 1
            assert log_bf01_at_zero(10**400, ap) > math.log(sys.float_info.max), (p0, shapes)
        assert built > 40, p0


@pytest.mark.parametrize(
    "p0, shapes",
    [
        (0.1, (1, 1, 1, 1)),
        (0.01, (1, 1, 1, 1)),
        (1e-3, (1, 1, 1, 1)),
        (0.2, (2, 5, 1, 1)),
        (0.3, (0.5, 0.5, 3, 1)),
        (0.5, (1, 4, 4, 1)),
        (0.7, (5, 1, 1, 5)),
        (0.9, (1, 1, 0.5, 2)),
    ],
)
def test_log_bf01_at_zero_successes_never_falls(p0, shapes):
    # its derivative in n is the mean of log(1 - p) under the tilted H0
    # prior, at least log(1 - p0), less that under the tilted H1 prior
    hyp, ap = Hypotheses(p0), AnalysisPrior.from_shapes(p0, *shapes)
    sizes = list(range(1, 1201)) + [3000]
    curve = np.array([log_bf01_curve(n, hyp, ap)[0] for n in sizes])
    assert (np.diff(curve) >= 0).all()
    # the O(1) value the searches compare is the curve's, to rounding
    at_zero = np.array([log_bf01_at_zero(n, ap) for n in sizes])
    np.testing.assert_allclose(at_zero, curve, rtol=1e-13, atol=0)
    geometric = np.unique(np.geomspace(1, 10**12, 400).astype(np.int64)).tolist()
    assert (np.diff([log_bf01_at_zero(n, ap) for n in geometric]) >= 0).all()
    for k_f in (3, 30, 1e6):
        stops = [critical_futility(n, k_f, hyp, ap) is not None for n in sizes]
        assert (at_zero > math.log(k_f)).tolist() == stops, k_f
    # under flat priors the value has a closed form, here with log(1 - p0)
    # taken as log1p(-p0), as 1.0 - p0 rounds off digits that n multiplies
    if shapes == (1, 1, 1, 1):
        log_q = math.log1p(-p0)
        for n in [1, 7, 100, 3000] + [10**e for e in range(4, 16)]:
            exact = math.log(-math.expm1((n + 1) * log_q)) - math.log(p0) - n * log_q
            assert log_bf01_at_zero(n, ap) == pytest.approx(exact, rel=1e-14, abs=0), n


@pytest.mark.parametrize("n_max", [60, 66, 67, 120])
def test_interim_sizes_that_can_stop_only_past_the_horizon(n_max):
    # at k_f = 1e4 the first interim size that can stop is 66; every design
    # the walk finds before its horizon is a single look in disguise, and it
    # stands exactly when some interim size in [n_min, n_max - 1] can stop
    args = (1 / 3, 1e4, EX1_HYP, EX1_AP, PointMass(0.3))
    stops = [n for n in range(1, 121) if critical_futility(n, 1e4, EX1_HYP, EX1_AP) is not None]
    assert stops[0] == 66
    cons = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=n_max)
    result = optimal_calibrate(cons, *args)
    first = calibrate(cons, *args)
    if n_max <= 66:
        assert result is None and first is None
        return
    (e_n_h0, n2, n1), _ = exhaustive(cons, *args)
    assert (result.design.n1, result.design.n2, result.objective) == (n1, n2, e_n_h0)
    assert result.design.n2 < 40 and result.oc.pce_p0 == 0.0
    assert first.design.n2 == result.design.n2


def test_scan_rows_and_oscillation():
    cons = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40)
    rows = scan(29, cons, 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    assert [row.n1 for row in rows] == list(range(5, 29))
    by_n1 = {row.n1: row for row in rows}
    # the documented power oscillation: fine at 8, broken at 9, fine again at 10
    assert round(by_n1[8].power_adjusted, 2) == 0.87
    assert round(by_n1[9].power_adjusted, 3) == 0.765
    assert by_n1[8].power_adjusted >= 0.8 > by_n1[9].power_adjusted
    assert by_n1[10].power_adjusted >= 0.8
    assert by_n1[9].feasible is False
    assert by_n1[10].feasible is True
    # every row of the sweep carries exactly the numbers of evaluate
    for r in rows:
        design = TwoStageDesign(r.n1, 29, 1 / 3, 3.0)
        oc = evaluate(design, EX1_HYP, EX1_AP, PointMass(0.3))
        assert r.power_adjusted == oc.power_adjusted
        assert r.type_i_adjusted == oc.type_i_adjusted
        assert r.pce == oc.pce_p0
        assert r.e_n_h0 == oc.e_n_h0
    # the optimal row of the sweep carries exactly the search's numbers
    result = optimal_calibrate(cons, 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    row = by_n1[result.design.n1]
    assert row.power_adjusted == result.oc.power_adjusted
    assert row.type_i_adjusted == result.oc.type_i_adjusted
    assert row.pce == result.oc.pce_p0
    assert row.e_n_h0 == result.oc.e_n_h0
    # feasibility is reproducible from the row's own fields
    for r in rows:
        point_ok = r.type_i_adjusted <= cons.alpha and r.power_adjusted >= 0.8
        assert r.feasible == point_ok


def test_scan_window_only_affects_feasibility_column():
    cons10 = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40, window=10)
    cons0 = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40, window=0)
    rows10 = scan(25, cons10, 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    rows0 = scan(25, cons0, 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    for a, b in zip(rows10, rows0):
        assert (a.n1, a.power_adjusted, a.type_i_adjusted, a.pce, a.e_n_h0) == (
            b.n1,
            b.power_adjusted,
            b.type_i_adjusted,
            b.pce,
            b.e_n_h0,
        )


def test_scan_vacuous_constraints_all_feasible():
    cons = CalibrationConstraints(alpha=0.999, beta=0.999, n_min=5, n_max=40)
    rows = scan(12, cons, 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    assert rows and all(row.feasible for row in rows)


def test_scan_multiple_final_sizes():
    cons = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40)
    rows = scan([10, 12], cons, 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    assert [(row.n2, row.n1) for row in rows] == [
        (10, n1) for n1 in range(5, 10)
    ] + [(12, n1) for n1 in range(5, 12)]
    # any integer is one final size; a float, even a whole one, is refused
    args = (cons, 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    assert scan(np.int64(29), *args) == scan(29, *args)
    assert scan(iter([10, 12]), *args) == rows
    with pytest.raises(ParameterError) as err:
        scan([29.0], *args)
    assert err.value.name == "n2"


def test_searches_are_deterministic():
    cons = CalibrationConstraints(alpha=0.05, beta=0.2, n_min=5, n_max=40)
    first = optimal_calibrate(cons, 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    second = optimal_calibrate(cons, 1 / 3, 3.0, EX1_HYP, EX1_AP, PointMass(0.3))
    assert first.design == second.design
    assert first.oc == second.oc


# Every `DesignGrid.rows` call of `optimal_calibrate` at n_max 120, in order,
# as "n2: interim sizes" with "a-b" a run of sizes; the last is the winner's
# `oc`.  With the sizes tabled, this pins which designs the cuts and the
# walk end leave to the erased-mass step.
WALK_ROWS = {
    "example1": (32, [
        "18: 5-6 9-17", "21: 5-20", "22: 5-21", "23: 5-22", "24: 5-23", "25: 5-24",
        "26: 5-14 17", "27: 5-6 9-11", "28: 5 9-10", "29: 5 9-10", "30: 9", "31: 9",
        "32: 9", "33: 9", "34: 9", "35: 9", "29: 10",
    ]),
    "example2_pce": (32, ["33: 30", "34: 30", "36: 30", "36: 30"]),
    "example2_bayes": (81, [
        "46: 5-6 8-45", "50: 5-6 8-49", "53: 5-6 8-52", "54: 5-6 8-43 45",
        "57: 8-14 16-18 21-22 26", "58: 8-9 11-14 16-18 21-22", "61: 8-9 11-13 16-18 21",
        "62: 8-9 11-13 16-17 21", "63: 8-9 11-13 16-17 21", "64: 8 11-13 16-17 21",
        "65: 8 11-13 16-17 21", "66: 8 11-13 16-17", "67: 8 11-12 16", "68: 8 11-12 16",
        "69: 8 11-12 16", "70: 8 11-12 16", "71: 8 11-12 16", "72: 11-12 16",
        "73: 11-12 16", "74: 11-12 16", "75: 11", "76: 11", "77: 11", "78: 11", "79: 11",
        "80: 11", "81: 11", "82: 11", "83: 11", "84: 11", "85: 11", "54: 27",
    ]),
}


def _design_set(entry):
    """(n2, [n1, ...]) of a WALK_ROWS entry."""
    n2, runs = entry.split(": ")
    n1 = []
    for run in runs.split():
        first, _, last = run.partition("-")
        n1.extend(range(int(first), int(last or first) + 1))
    return int(n2), n1


@pytest.mark.parametrize("name", sorted(WALK_ROWS))
def test_optimal_walk_tables_and_evaluates_the_pinned_designs(name, monkeypatch):
    config = load_config(str(CONFIGS / f"{name}.cfg"))
    cons = dataclasses.replace(config.constraints(), n_max=120)
    tabled = count_tabled_sizes(monkeypatch)
    calls = []
    original = DesignGrid.rows

    def recorded(self, n2, n1):
        calls.append((int(n2), [int(i) for i in n1]))
        return original(self, n2, n1)

    monkeypatch.setattr(DesignGrid, "rows", recorded)
    optimal_calibrate(cons, config.k, config.k_f, config.hypotheses(),
                      config.analysis_prior(), config.power_prior)
    count, rows = WALK_ROWS[name]
    assert tabled == list(range(cons.n_min, cons.n_min + count))
    assert calls == [_design_set(entry) for entry in rows]


# (n1, n2) and float.hex() of the objective and of every float field of the
# winner's characteristics, for both searches on the shipped configs; the
# same at their shipped n_max and at 120, as the walk ends far below both
SEARCH_PINS = {
    ("example1", "optimal_calibrate"): {
        "design": (10, 29),
        "objective": "0x1.e073ac83a0159p+3",
        "type_i_unadjusted": "0x1.04fc9541b75adp-4",
        "type_i_adjusted": "0x1.81bb2463ff840p-5",
        "power_unadjusted": "0x1.d04aa8ab88fc8p-1",
        "power_adjusted": "0x1.9c3134c668031p-1",
        "futility_erased_power": "0x1.a0cb9f2907cb6p-4",
        "futility_erased_type_i": "0x1.107c0c3ede635p-6",
        "pce_p0": "0x1.78e1f57635d2ep-1",
        "e_n_h0": "0x1.e073ac83a0159p+3",
        "e_n_h1": "0x1.a29c3a2f97407p+4",
        "branch_h0": ("0x1.1f806a7de01b8p-4", "0x1.8cb7f4e838a7fp-3", "0x1.78e1f57635d2ep-1"),
        "branch_h1": ("0x1.3c03e505e1682p-1", "0x1.de27d8f331f78p-3", "0x1.31c892f548690p-3"),
    },
    ("example1", "calibrate"): {
        "design": (15, 25),
        "objective": "0x1.382732ac87481p+4",
        "type_i_unadjusted": "0x1.119cc2b96d3a6p-5",
        "type_i_adjusted": "0x1.0cc4c2dfe5594p-5",
        "power_unadjusted": "0x1.9cef153a27d0ap-1",
        "power_adjusted": "0x1.9a787f464462ep-1",
        "futility_erased_power": "0x1.3b4af9f1b6deep-8",
        "futility_erased_type_i": "0x1.35fff661f8476p-11",
        "pce_p0": "0x1.191c2aa4b57fcp-1",
        "e_n_h0": "0x1.382732ac87481p+4",
        "e_n_h1": "0x1.8a5b7069b03cfp+4",
        "branch_h0": ("0x1.c71c99bfb6a06p-5", "0x1.94e4177e9e2cap-2", "0x1.191c2aa4b57fcp-1"),
        "branch_h1": ("0x1.6800ed4cfcd86p-1", "0x1.0be0f4d73b078p-2", "0x1.20e984765a36ap-5"),
    },
    ("example2_bayes", "optimal_calibrate"): {
        "design": (27, 54),
        "objective": "0x1.3ba66ff2d8d81p+5",
        "type_i_unadjusted": "0x1.b5886edc0a53fp-4",
        "type_i_adjusted": "0x1.948aa1b18497cp-4",
        "power_unadjusted": "0x1.cfd8d747fcc3fp-1",
        "power_adjusted": "0x1.ccf76ba8dcf35p-1",
        "futility_erased_power": "0x1.70b5cf8fe8529p-8",
        "futility_erased_type_i": "0x1.07ee69542de1ap-7",
        "pce_p0": "0x1.13cad0b6e18e2p-1",
        "e_n_h0": "0x1.3ba66ff2d8d81p+5",
        "e_n_h1": "0x1.a5d5ac561aa9ap+5",
        "branch_h0": ("0x1.2daf2f12a1039p-4", "0x1.8cfe92cd94a98p-2", "0x1.13cad0b6e18e2p-1"),
        "branch_h1": ("0x1.b0e53ea71aa57p-1", "0x1.b8123714fe9a1p-4", "0x1.8187a76458a56p-5"),
    },
    ("example2_bayes", "calibrate"): {
        "design": (44, 53),
        "objective": "0x1.8625eed635517p+5",
        "type_i_unadjusted": "0x1.7fec224b1e7d3p-4",
        "type_i_adjusted": "0x1.7fb918ed3f0c1p-4",
        "power_unadjusted": "0x1.ccd690aa56325p-1",
        "power_adjusted": "0x1.ccd326faf7796p-1",
        "futility_erased_power": "0x1.b4d7af5c79c9fp-16",
        "futility_erased_type_i": "0x1.984aeefb88c5dp-15",
        "pce_p0": "0x1.e172bb35ed40cp-2",
        "e_n_h0": "0x1.8625eed635517p+5",
        "e_n_h1": "0x1.a5e137bf19836p+5",
        "branch_h0": ("0x1.5f4bb45655e43p-4", "0x1.c6ba57b47d472p-2", "0x1.e172bb35ed40cp-2"),
        "branch_h1": ("0x1.c5c2a77cf932cp-1", "0x1.594c7cc88c870p-4", "0x1.e2791d3ea7a94p-6"),
    },
    ("example2_pce", "optimal_calibrate"): {
        "design": (30, 36),
        "objective": "0x1.02dd8dba75ddfp+5",
        "type_i_unadjusted": "0x1.6c2fcf0e7c701p-4",
        "type_i_adjusted": "0x1.6af72aebcc0ddp-4",
        "power_unadjusted": "0x1.d1bbeb2bba226p-1",
        "power_adjusted": "0x1.d17bd2320ed9cp-1",
        "futility_erased_power": "0x1.0063e6ad22937p-11",
        "futility_erased_type_i": "0x1.38a422b06239cp-12",
        "pce_p0": "0x1.36c4c2e5c16b6p-1",
        "e_n_h0": "0x1.02dd8dba75ddfp+5",
        "e_n_h1": "0x1.1f2cdae08c820p+5",
        "branch_h0": ("0x1.077a0be5551d3p-3", "0x1.0eb97441d28f0p-2", "0x1.36c4c2e5c16b6p-1"),
        "branch_h1": ("0x1.cfddc30d1ae3ep-1", "0x1.3ab03270a969dp-4", "0x1.1986d499fd5f6p-6"),
    },
    ("example2_pce", "calibrate"): {
        "design": (30, 36),
        "objective": "0x1.02dd8dba75ddfp+5",
        "type_i_unadjusted": "0x1.6c2fcf0e7c701p-4",
        "type_i_adjusted": "0x1.6af72aebcc0ddp-4",
        "power_unadjusted": "0x1.d1bbeb2bba226p-1",
        "power_adjusted": "0x1.d17bd2320ed9cp-1",
        "futility_erased_power": "0x1.0063e6ad22937p-11",
        "futility_erased_type_i": "0x1.38a422b06239cp-12",
        "pce_p0": "0x1.36c4c2e5c16b6p-1",
        "e_n_h0": "0x1.02dd8dba75ddfp+5",
        "e_n_h1": "0x1.1f2cdae08c820p+5",
        "branch_h0": ("0x1.077a0be5551d3p-3", "0x1.0eb97441d28f0p-2", "0x1.36c4c2e5c16b6p-1"),
        "branch_h1": ("0x1.cfddc30d1ae3ep-1", "0x1.3ab03270a969dp-4", "0x1.1986d499fd5f6p-6"),
    },
}


@pytest.mark.parametrize("n_max", ["shipped", 120])
@pytest.mark.parametrize("name, search", sorted(SEARCH_PINS))
def test_search_answers_keep_their_bits(name, search, n_max):
    config = load_config(str(CONFIGS / f"{name}.cfg"))
    cons = config.constraints()
    if n_max != "shipped":
        cons = dataclasses.replace(cons, n_max=n_max)
    result = {"optimal_calibrate": optimal_calibrate, "calibrate": calibrate}[search](
        cons, config.k, config.k_f, config.hypotheses(), config.analysis_prior(),
        config.power_prior,
    )
    got = {"design": (result.design.n1, result.design.n2), "objective": result.objective.hex()}
    for field in dataclasses.fields(result.oc):
        value = getattr(result.oc, field.name)
        got[field.name] = (
            value.hex() if isinstance(value, float) else tuple(v.hex() for v in value)
        )
    assert got == SEARCH_PINS[name, search]
