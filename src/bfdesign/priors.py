"""Prior distributions over the latent success probability.

Two kinds of design prior drive every predictive computation: a point mass
(frequentist planning value) and a Beta law truncated to an interval.  Both
are frozen dataclasses; a `TruncatedBeta` keys the cache of the log
predictive kernel.  Every module above refuses a bad parameter by name
with `ParameterError`, defined here.
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


def check_size(name: str, value: object) -> None:
    """Require a Python or numpy integer; bools and floats such as 10.0 fail."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(name, f"must be an integer, got {value!r}")


@dataclass(frozen=True)
class TruncatedBeta:
    """Beta(a, b) distribution restricted to [l, u] and renormalized.

    The untruncated law (l, u) = (0, 1) is the common special case.  The
    shapes must be positive numbers (NaN is rejected) no larger than
    `MAX_SHAPE`, 1e5, and the Beta(a, b) mass on [l, u] must be above zero in
    double precision, though the kernel itself works in logs.  A narrow
    interior [l, u] loses precision: see `special.log_beta_integrals`.
    `log_norm`, the log normalizer of the predictive pmfs, takes no part in
    equality or hashing.
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
        log_mass = float(log_beta_integrals(self.a, self.b, self.l, self.u, 0)[0])
        if not math.exp(log_mass - log_beta(self.a, self.b)) > 0.0:
            raise ValueError(
                f"degenerate truncation: Beta({self.a}, {self.b}) has no mass on [{self.l}, {self.u}]"
            )
        if max(self.a, self.b) > MAX_SHAPE:
            raise ValueError(
                f"shape parameters must be at most {MAX_SHAPE:g}, got a={self.a}, b={self.b}"
            )
        object.__setattr__(self, "log_norm", log_mass)


@dataclass(frozen=True)
class PointMass:
    """Degenerate prior concentrated at success probability p."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"point mass requires p in [0, 1], got p={self.p}")


DesignPrior = Union[PointMass, TruncatedBeta]
