"""Prior distributions over the latent success probability.

Two kinds of design prior drive every predictive computation: a point mass
(frequentist planning value) and a Beta law truncated to a tail.  Both
are frozen, hashable dataclasses, so a design grid builds each distinct
prior's log predictive block once.  Every module above refuses a bad
parameter by name with `ParameterError`, defined here, and each range
rule is written once: `check_size` for counts and `check_interval` for
rates and thresholds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Union

from .special import log_beta, log_beta_integrals

# Largest Beta shape accepted: a + s keeps ever fewer digits of the count s,
# and pmf totals drift by up to 1.6e-10 at 1e5, 1.8e-9 at 1e6, 3e-8 at 1e7.
MAX_SHAPE = 1e5


class ParameterError(ValueError):
    """A design parameter outside its valid range, carrying the parameter's name."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name} {message}")
        self.name = name
        self.message = message


def check_size(name: str, value: object, low: int | None = None, high: int | None = None) -> None:
    """Require a Python or numpy int in [low, high], None an open side; bools and 10.0 fail."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(name, f"must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ParameterError(name, f"must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ParameterError(name, f"must be at most {high}, got {value}")


def check_interval(name: str, value: float, low=0.0, high=1.0, closed=False) -> None:
    """Require low < value < high, or low <= value <= high when closed; NaN fails both."""
    if not (low <= value <= high if closed else low < value < high):
        left, right = "[]" if closed else "()"
        raise ParameterError(name, f"must lie in {left}{low:.15g}, {high:.15g}{right}, got {value}")


@dataclass(frozen=True)
class TruncatedBeta:
    """Beta(a, b) distribution restricted to a tail [0, u] or [l, 1] and renormalized.

    The untruncated law (l, u) = (0, 1) is the common special case; every
    hypothesis region is a tail.  An interior [l, u] is refused by the
    kernel, `special.log_beta_integrals`, because its mass would be a
    cancelling difference of two tails.  The shapes must be positive
    numbers (NaN is rejected) no larger than `MAX_SHAPE`, 1e5, and the
    Beta(a, b) mass on [l, u] must be above zero in double precision, though
    the kernel itself works in logs.  `log_norm`, the log normalizer of the
    predictive pmfs, takes no part in equality or hashing.
    """

    a: float
    b: float
    l: float = 0.0
    u: float = 1.0
    log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"shape parameters must be positive, got a={self.a}, b={self.b}")
        if not (0.0 <= self.l < self.u <= 1.0):
            raise ValueError(f"truncation must satisfy 0 <= l < u <= 1, got l={self.l}, u={self.u}")
        if max(self.a, self.b) > MAX_SHAPE:
            raise ValueError(
                f"shape parameters must be at most {MAX_SHAPE:g}, got a={self.a}, b={self.b}"
            )
        log_mass = float(log_beta_integrals(self.a, self.b, self.l, self.u, 0)[0])
        if not math.exp(log_mass - log_beta(self.a, self.b)) > 0.0:
            raise ValueError(
                f"degenerate truncation: Beta({self.a}, {self.b}) has no mass on [{self.l}, {self.u}]"
            )
        object.__setattr__(self, "log_norm", log_mass)


@dataclass(frozen=True)
class PointMass:
    """Degenerate prior concentrated at success probability p."""

    p: float

    def __post_init__(self) -> None:
        check_interval("p", self.p, closed=True)


DesignPrior = Union[PointMass, TruncatedBeta]
