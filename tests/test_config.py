"""Flat key = value configuration parsing and validation."""

import math

import pytest

from bfdesign import CalibrationConstraints, PointMass, TruncatedBeta
from bfdesign.config import ConfigError, parse_config

EXAMPLE1 = """
# first worked setting
p0 = 0.1
alpha = 0.05
beta = 0.2
power_prior = point 0.3
k = 1/3
k_f = 3
n_min = 5
n_max = 40
window = 10
"""


def test_parse_full_document():
    config = parse_config(EXAMPLE1)
    assert config.p0 == 0.1
    assert config.alpha == 0.05
    assert config.power_prior == PointMass(0.3)
    assert math.isclose(config.k, 1 / 3, rel_tol=1e-15)
    assert config.k_f == 3.0
    assert (config.n_min, config.n_max, config.window) == (5, 40, 10)
    assert config.f is None
    assert (config.a0, config.b0, config.a1, config.b1) == (1, 1, 1, 1)
    assert config.output_format == "table"


def test_defaults_applied():
    config = parse_config("p0=0.2\nalpha=0.1\nbeta=0.1\npower_prior=point 0.4\n")
    assert config.k == pytest.approx(1 / 3)
    assert config.k_f == 3.0
    assert (config.n_min, config.n_max, config.window) == (5, 60, 10)
    # the search defaults are those of the library type, stated once
    assert config.constraints() == CalibrationConstraints(0.1, 0.1)


def test_beta_power_prior_truncated_to_alternative_region():
    config = parse_config(
        "p0 = 0.2\nalpha = 0.1\nbeta = 0.1\npower_prior = beta 10.33 15\n"
    )
    assert config.power_prior == TruncatedBeta(10.33, 15.0, 0.2, 1.0)


def test_fraction_values():
    config = parse_config(
        "p0 = 1/10\nalpha = 0.05\nbeta = 0.2\npower_prior = point 3/10\nk = 1/10\n"
    )
    assert config.p0 == 0.1
    assert config.k == 0.1


def test_integer_keys_parse_exactly():
    # an integer literal is read with int(), so a size past 2**53 keeps its
    # last digit; other spellings of a whole number still parse as before
    config = parse_config(with_line("n_max = 9007199254740993"))
    assert config.n_max == 9007199254740993 and type(config.n_max) is int
    for token in ("40.0", "4e1", "80/2", "40"):
        config = parse_config(with_line(f"n_max = {token}"))
        assert config.n_max == 40 and type(config.n_max) is int, token
    with pytest.raises(ConfigError) as err:
        parse_config(with_line("n_max = 40.5"))
    assert err.value.field_name == "n_max"


def test_analysis_prior_shapes_and_f():
    config = parse_config(
        "p0=0.2\nalpha=0.1\nbeta=0.1\npower_prior=point 0.4\n"
        "a0=2\nb0=3\na1=1.5\nb1=2.5\nf=0.6\n"
    )
    assert (config.a0, config.b0, config.a1, config.b1) == (2.0, 3.0, 1.5, 2.5)
    assert config.f == 0.6
    ap = config.analysis_prior()
    assert ap.h0 == TruncatedBeta(2.0, 3.0, 0.0, 0.2)
    assert ap.h1 == TruncatedBeta(1.5, 2.5, 0.2, 1.0)


def test_missing_required_key():
    with pytest.raises(ConfigError) as err:
        parse_config("p0=0.1\nalpha=0.05\nbeta=0.2\n")
    assert err.value.field_name == "power_prior"


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("p0=0.1\nbogus=3\n", source="test.cfg")
    assert err.value.field_name == "bogus"
    assert "test.cfg:2" in str(err.value)


BASE = "p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=point 0.3\n"


def with_line(line):
    """BASE with `line` in place of BASE's assignment to the same key, if any."""
    key = line.split("=")[0].strip()
    kept = [entry for entry in BASE.splitlines() if entry.split("=")[0] != key]
    return "\n".join(kept + [line]) + "\n"


def test_invalid_values_carry_field_names():
    base = "p0=0.1\nalpha={alpha}\nbeta=0.2\npower_prior=point 0.3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(base.format(alpha="0"))
    assert err.value.field_name == "alpha"
    with pytest.raises(ConfigError) as err:
        parse_config("p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=point 0.05\n")
    assert err.value.field_name == "power_prior"
    with pytest.raises(ConfigError) as err:
        parse_config("p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=point 0.3\nk=2\n")
    assert err.value.field_name == "k"
    with pytest.raises(ConfigError) as err:
        parse_config(
            "p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=point 0.3\nn_min=9\nn_max=9\n"
        )
    assert err.value.field_name == "n_min"
    with pytest.raises(ConfigError) as err:
        parse_config("p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=point 0.3\nn_min=5.5\n")
    assert err.value.field_name == "n_min"
    # each range rule names the field it checks
    for line, field_name in [
        ("beta = 1", "beta"),
        ("f = 0", "f"),
        ("window = -1", "window"),
        ("n_max = 3", "n_min"),
        ("k_f = 1", "k_f"),
        ("p0 = 1", "p0"),
        ("p0 = 1e-20", "p0"),
        ("a1 = 0", "a1/b1"),
        ("k = 1/2/3", "k"),
        ("p0 = abc", "p0"),
        ("power_prior = gamma 1 1", "power_prior"),
        ("output_format = json", "output_format"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config(with_line(line))
        assert err.value.field_name == field_name
    # non-finite numbers are rejected at parse time, naming the field
    for line, field_name in [
        ("a0 = nan", "a0"),
        ("b1 = inf", "b1"),
        ("n_max = inf", "n_max"),
        ("k_f = inf", "k_f"),
        ("k = -inf", "k"),
        ("alpha = inf/2", "alpha"),
        ("power_prior = beta nan 1", "power_prior"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config(with_line(line))
        assert err.value.field_name == field_name
        assert "finite" in str(err.value)
    # a prior with no mass on its truncation interval names its fields
    for lines, field_name in [
        ("p0 = 0.01\npower_prior = point 0.3\na0 = 1000\nb0 = 0.001", "a0/b0"),
        ("p0 = 0.1\npower_prior = point 0.3\na1 = 1e-300\nb1 = 1e5", "a1/b1"),
        ("p0 = 0.1\npower_prior = beta 1e-300 1e5", "power_prior"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config("alpha=0.05\nbeta=0.2\n" + lines)
        assert err.value.field_name == field_name
        assert "degenerate truncation" in str(err.value)
    # the shape cap is checked before the normalizer, so a shape above it
    # is refused by the cap even where the truncation is degenerate too
    for lines, field_name in [
        ("p0 = 0.1\npower_prior = point 0.3\na1 = 1e-300\nb1 = 1e300", "a1/b1"),
        ("p0 = 0.1\npower_prior = beta 1e-300 1e300", "power_prior"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config("alpha=0.05\nbeta=0.2\n" + lines)
        assert err.value.field_name == field_name
        assert "at most 100000" in str(err.value)
    # shapes whose normalizer overflows are refused by name, not answered
    # with nan figures
    with pytest.raises(ConfigError) as err:
        parse_config("p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=beta 1.7e308 1.7e308\n")
    assert err.value.field_name == "power_prior"


def test_duplicate_key_rejected():
    # the last assignment used to win silently
    with pytest.raises(ConfigError) as err:
        parse_config(EXAMPLE1 + "k_f = 80\n", source="test.cfg")
    assert err.value.field_name == "k_f"
    assert "test.cfg:12: duplicate key (first set on line 8)" in str(err.value)


def test_point_alternative_must_exceed_null():
    with pytest.raises(ConfigError):
        parse_config("p0=0.3\nalpha=0.05\nbeta=0.2\npower_prior=point 0.3\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config("p0 0.1\n")


def test_config_helpers_build_module_objects():
    config = parse_config(EXAMPLE1)
    assert config.hypotheses().p0 == 0.1
    cons = config.constraints()
    assert (cons.alpha, cons.beta, cons.n_min, cons.n_max, cons.window) == (
        0.05,
        0.2,
        5,
        40,
        10,
    )
