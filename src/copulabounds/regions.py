"""Exact attainable pairs of (footrule, beta) and (gamma, beta) values.

Each range function returns the closed interval of one measure given the
other; the boundary curves are mutually inverse monotone maps, and every
boundary point is attained by an extremal copula anchored at the centre of
the square.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _check_range


class KindMismatchError(ValueError):
    """The pair's first component is not a footrule or gamma value."""


def beta_range_given_footrule(phi) -> tuple[float, float]:
    """Closed interval of beta over all copulas with footrule ``phi``."""
    phi = _check_range(phi, -0.5, 1.0, "footrule")
    lo = 1.0 - 2.0 * float(np.sqrt(2.0 * (1.0 - phi) / 3.0))
    if phi >= 0.25:
        hi = 1.0
    else:
        hi = -1.0 + 2.0 * float(np.sqrt(2.0 * (1.0 + 2.0 * phi) / 3.0))
    return max(lo, -1.0), min(hi, 1.0)


def footrule_range_given_beta(beta) -> tuple[float, float]:
    """Closed interval of footrule over all copulas with beta ``beta``."""
    beta = _check_range(beta, -1.0, 1.0, "beta")
    lo = 3.0 * (1.0 + beta) ** 2 / 16.0 - 0.5
    hi = 1.0 - 3.0 * (1.0 - beta) ** 2 / 8.0
    return lo, hi


def beta_range_given_gini(gamma) -> tuple[float, float]:
    """Closed interval of beta over all copulas with gamma ``gamma``."""
    gamma = _check_range(gamma, -1.0, 1.0, "gamma")
    if gamma <= -0.5:
        lo = -1.0
    else:
        lo = 1.0 - 2.0 * float(np.sqrt(2.0 * (1.0 - gamma) / 3.0))
    if gamma >= 0.5:
        hi = 1.0
    else:
        hi = -1.0 + 2.0 * float(np.sqrt(2.0 * (1.0 + gamma) / 3.0))
    return max(lo, -1.0), min(hi, 1.0)


def gini_range_given_beta(beta) -> tuple[float, float]:
    """Closed interval of gamma over all copulas with beta ``beta``."""
    beta = _check_range(beta, -1.0, 1.0, "beta")
    lo = 3.0 * (1.0 + beta) ** 2 / 8.0 - 1.0
    hi = 1.0 - 3.0 * (1.0 - beta) ** 2 / 8.0
    return lo, hi


@dataclass(frozen=True)
class MeasurePair:
    """A (measure, beta) pair; ``kind`` names the first component."""

    kind: str
    value: float
    beta: float

    def __post_init__(self):
        if self.kind not in ("footrule", "gini", "blomqvist"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "footrule":
            object.__setattr__(self, "value", _check_range(self.value, -0.5, 1.0, "footrule"))
        else:
            object.__setattr__(self, "value", _check_range(self.value, -1.0, 1.0, self.kind))
        object.__setattr__(self, "beta", _check_range(self.beta, -1.0, 1.0, "beta"))


def pair_in_region(pair: MeasurePair, slack: float = 0.0) -> bool:
    """Whether the pair lies in the exact attainable region.

    ``slack`` widens the closed interval on both sides so statistical
    pipelines can pass their quadrature or sampling error.
    """
    if pair.kind == "footrule":
        lo, hi = beta_range_given_footrule(pair.value)
    elif pair.kind == "gini":
        lo, hi = beta_range_given_gini(pair.value)
    else:
        raise KindMismatchError("pair must lead with a footrule or gamma value")
    return lo - slack <= pair.beta <= hi + slack
