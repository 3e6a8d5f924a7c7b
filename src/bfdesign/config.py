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
from dataclasses import dataclass
from typing import Optional

from .bayesfactor import AnalysisPrior, Hypotheses
from .calibration import CalibrationConstraints
from .priors import DesignPrior, PointMass, TruncatedBeta


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
    f: Optional[float] = None
    n_min: int = 5
    n_max: int = 60
    window: int = 10
    output_format: str = "table"

    def hypotheses(self) -> Hypotheses:
        return Hypotheses(self.p0)

    def analysis_prior(self) -> AnalysisPrior:
        return AnalysisPrior.from_shapes(self.p0, self.a0, self.b0, self.a1, self.b1)

    def constraints(self) -> CalibrationConstraints:
        return CalibrationConstraints(
            alpha=self.alpha,
            beta=self.beta,
            f=self.f,
            n_min=self.n_min,
            n_max=self.n_max,
            window=self.window,
        )


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


def _parse_power_prior(token: str, p0: float) -> DesignPrior:
    parts = token.split()
    if len(parts) == 2 and parts[0] == "point":
        p1 = _parse_number("power_prior", parts[1])
        if not p0 < p1 < 1.0:
            raise ConfigError(
                "power_prior", f"point alternative must satisfy p0 < p1 < 1, got {p1}"
            )
        return PointMass(p1)
    if len(parts) == 3 and parts[0] == "beta":
        a = _parse_number("power_prior", parts[1])
        b = _parse_number("power_prior", parts[2])
        if a <= 0 or b <= 0:
            raise ConfigError("power_prior", f"beta shapes must be positive, got {a}, {b}")
        return TruncatedBeta(a, b, p0, 1.0)
    raise ConfigError(
        "power_prior", f"expected 'point <p1>' or 'beta <a> <b>', got '{token}'"
    )


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate a flat key = value configuration document."""
    raw: dict[str, str] = {}
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
        raw[key] = value

    for required in ("p0", "alpha", "beta", "power_prior"):
        if required not in raw:
            raise ConfigError(required, f"{source}: required key missing")

    values: dict[str, object] = {}
    for key, token in raw.items():
        if key in _FLOAT_KEYS:
            values[key] = _parse_number(key, token)
        elif key in _INT_KEYS:
            number = _parse_number(key, token)
            if number != int(number):
                raise ConfigError(key, f"must be an integer, got '{token}'")
            values[key] = int(number)

    p0 = float(values["p0"])
    if not 0.0 < p0 < 1.0:
        raise ConfigError("p0", f"must lie strictly inside (0, 1), got {p0}")
    power_prior = _parse_power_prior(raw["power_prior"], p0)

    config = RunConfig(
        p0=p0,
        alpha=float(values["alpha"]),
        beta=float(values["beta"]),
        power_prior=power_prior,
        a0=float(values.get("a0", 1.0)),
        b0=float(values.get("b0", 1.0)),
        a1=float(values.get("a1", 1.0)),
        b1=float(values.get("b1", 1.0)),
        k=float(values.get("k", 1.0 / 3.0)),
        k_f=float(values.get("k_f", 3.0)),
        f=float(values["f"]) if "f" in values else None,
        n_min=int(values.get("n_min", 5)),
        n_max=int(values.get("n_max", 60)),
        window=int(values.get("window", 10)),
        output_format=raw.get("output_format", "table"),
    )
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if not 0.0 < config.alpha < 1.0:
        raise ConfigError("alpha", f"must lie in (0, 1), got {config.alpha}")
    if not 0.0 < config.beta < 1.0:
        raise ConfigError("beta", f"must lie in (0, 1), got {config.beta}")
    if not 0.0 < config.k < 1.0:
        raise ConfigError("k", f"must lie in (0, 1), got {config.k}")
    if config.k_f <= 1.0:
        raise ConfigError("k_f", f"must exceed 1, got {config.k_f}")
    if config.f is not None and not 0.0 < config.f < 1.0:
        raise ConfigError("f", f"must lie in (0, 1) when given, got {config.f}")
    for name in ("a0", "b0", "a1", "b1"):
        if getattr(config, name) <= 0:
            raise ConfigError(name, f"must be positive, got {getattr(config, name)}")
    if not 1 <= config.n_min < config.n_max:
        raise ConfigError(
            "n_min", f"need 1 <= n_min < n_max, got {config.n_min}, {config.n_max}"
        )
    if config.window < 0:
        raise ConfigError("window", f"must be nonnegative, got {config.window}")
    if config.output_format not in ("table", "csv"):
        raise ConfigError(
            "output_format", f"must be 'table' or 'csv', got '{config.output_format}'"
        )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read(), source=path)
