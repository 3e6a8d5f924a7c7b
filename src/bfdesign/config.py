"""Flat key = value run configuration for the command line tool.

The format is one `key = value` assignment per line with `#` comments, e.g.

    # single-arm trial, response rate endpoint
    p0 = 0.1
    alpha = 0.05
    beta = 0.2
    power_prior = point 0.3      # or: beta 1 1
    k = 1/3
    k_f = 3
    n_min = 5
    n_max = 40
    window = 10

Numbers accept plain decimals or exact fractions like 1/3.  The power prior
is either `point <p1>` or `beta <a> <b>` (a Beta law truncated to [p0, 1]).
Analysis prior shapes default to flat: a0 = b0 = a1 = b1 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .bayesfactor import AnalysisPrior, Hypotheses, ParameterError, check_thresholds
from .calibration import CalibrationConstraints
from .priors import DesignPrior, PointMass, TruncatedBeta, check_interval


class ConfigError(ValueError):
    """A configuration problem, carrying the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field '{field_name}': {message}")
        self.field_name = field_name


@dataclass
class RunConfig:
    """Validated scenario settings shared by all subcommands."""

    p0: float
    alpha: float
    beta: float
    power_prior: DesignPrior
    a0: float = 1.0
    b0: float = 1.0
    a1: float = 1.0
    b1: float = 1.0
    k: float = 1.0 / 3.0
    k_f: float = 3.0
    f: Optional[float] = CalibrationConstraints.f
    n_min: int = CalibrationConstraints.n_min
    n_max: int = CalibrationConstraints.n_max
    window: int = CalibrationConstraints.window
    output_format: str = "table"

    def hypotheses(self) -> Hypotheses:
        return Hypotheses(self.p0)

    def analysis_prior(self) -> AnalysisPrior:
        return AnalysisPrior(
            h0=_truncated_beta("a0/b0", self.a0, self.b0, 0.0, self.p0),
            h1=_truncated_beta("a1/b1", self.a1, self.b1, self.p0, 1.0),
        )

    def constraints(self) -> CalibrationConstraints:
        names = [field.name for field in fields(CalibrationConstraints)]
        return CalibrationConstraints(**{name: getattr(self, name) for name in names})


_FLOAT_KEYS = {"p0", "alpha", "beta", "a0", "b0", "a1", "b1", "k", "k_f", "f"}
_INT_KEYS = {"n_min", "n_max", "window"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | {"power_prior", "output_format"}


def _parse_number(field_name: str, token: str) -> float:
    token = token.strip()
    if "/" in token:
        parts = token.split("/")
        if len(parts) != 2:
            raise ConfigError(field_name, f"malformed fraction '{token}'")
        try:
            value = float(parts[0]) / float(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(field_name, f"malformed fraction '{token}'") from exc
    else:
        try:
            value = float(token)
        except ValueError as exc:
            raise ConfigError(field_name, f"not a number: '{token}'") from exc
    if not math.isfinite(value):
        raise ConfigError(field_name, f"must be finite, got '{token}'")
    return value


def _truncated_beta(
    field_name: str, a: float, b: float, l: float, u: float
) -> TruncatedBeta:
    """TruncatedBeta(a, b, l, u); its ValueError or ArithmeticError becomes a ConfigError."""
    try:
        return TruncatedBeta(a, b, l, u)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(field_name, str(exc)) from exc


def _parse_power_prior(token: str, p0: float) -> DesignPrior:
    parts = token.split()
    if len(parts) == 2 and parts[0] == "point":
        p1 = _parse_number("power_prior", parts[1])
        check_interval("power_prior", p1, p0)
        return PointMass(p1)
    if len(parts) == 3 and parts[0] == "beta":
        a = _parse_number("power_prior", parts[1])
        b = _parse_number("power_prior", parts[2])
        return _truncated_beta("power_prior", a, b, p0, 1.0)
    raise ConfigError(
        "power_prior", f"expected 'point <p1>' or 'beta <a> <b>', got '{token}'"
    )


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate a flat key = value configuration document.

    Keys are the library's parameter names, so the range checks of the
    library types name the config field as they stand.
    """
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                "<line>", f"{source}:{lineno}: expected 'key = value', got '{stripped}'"
            )
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(key, f"{source}:{lineno}: unknown key")
        if key in raw:
            raise ConfigError(
                key,
                f"{source}:{lineno}: duplicate key (first set on line {first_line[key]})",
            )
        raw[key] = value
        first_line[key] = lineno

    for required in ("p0", "alpha", "beta", "power_prior"):
        if required not in raw:
            raise ConfigError(required, f"{source}: required key missing")

    values: dict[str, object] = dict(raw)
    for key, token in raw.items():
        if key in _FLOAT_KEYS:
            values[key] = _parse_number(key, token)
        elif key in _INT_KEYS:
            try:
                values[key] = int(token)  # exact, where a double rounds past 2**53
            except ValueError:
                number = _parse_number(key, token)
                if number != int(number):
                    raise ConfigError(key, f"must be an integer, got '{token}'")
                values[key] = int(number)

    try:
        p0 = Hypotheses(values["p0"]).p0
        values["power_prior"] = _parse_power_prior(raw["power_prior"], p0)
        config = RunConfig(**values)
        config.constraints()
        check_thresholds(config.k, config.k_f)
    except ParameterError as exc:
        raise ConfigError(exc.name, exc.message) from exc
    config.analysis_prior()  # a degenerate region prior raises here
    if config.output_format not in ("table", "csv"):
        raise ConfigError(
            "output_format", f"must be 'table' or 'csv', got '{config.output_format}'"
        )
    return config


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_config(handle.read(), source=path)
