"""Exact attainable pairs of (footrule, beta) and (gamma, beta) values.

Each range function returns the closed interval of one measure given the
other; the boundary curves are mutually inverse monotone maps, and every
boundary point is attained by an extremal copula anchored at the centre of
the square. Both measures share these curves: the beta interval comes from
one formula in two arguments, and the gamma interval given beta is the
footrule interval with its lower end doubled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concordance import BLOMQVIST_RANGE, _check_measure

class KindMismatchError(ValueError):
    """The pair's first component is not a footrule or gamma value."""


def _beta_range(lo_k, hi_k) -> tuple[float, float]:
    """The beta interval (1 - 2 sqrt(2 (1 - lo_k) / 3), -1 + 2 sqrt(2 (1 + hi_k) / 3))
    clipped to [-1, 1]; footrule passes (phi, 2 phi) and gamma (gamma, gamma)."""
    return (max(1.0 - 2.0 * float(np.sqrt(2.0 * (1.0 - lo_k) / 3.0)), BLOMQVIST_RANGE[0]),
            min(-1.0 + 2.0 * float(np.sqrt(2.0 * (1.0 + hi_k) / 3.0)), BLOMQVIST_RANGE[1]))


def beta_range_given_footrule(phi) -> tuple[float, float]:
    """Closed interval of beta over all copulas with footrule ``phi``."""
    phi = _check_measure("footrule", phi)
    return _beta_range(phi, 2.0 * phi)


def footrule_range_given_beta(beta) -> tuple[float, float]:
    """Closed interval of footrule over all copulas with beta ``beta``."""
    beta = _check_measure("beta", beta)
    lo = 3.0 * (1.0 + beta) ** 2 / 16.0 - 0.5
    hi = 1.0 - 3.0 * (1.0 - beta) ** 2 / 8.0
    return lo, hi


def beta_range_given_gini(gamma) -> tuple[float, float]:
    """Closed interval of beta over all copulas with gamma ``gamma``."""
    gamma = _check_measure("gamma", gamma)
    return _beta_range(gamma, gamma)


def gini_range_given_beta(beta) -> tuple[float, float]:
    """Closed interval of gamma over all copulas with beta ``beta``: twice the
    footrule's lower end, and the same upper end."""
    lo, hi = footrule_range_given_beta(beta)
    return 2.0 * lo, hi


@dataclass(frozen=True)
class MeasurePair:
    """A (measure, beta) pair; ``kind`` names the first component, "footrule"
    or "gini" (anything else raises KindMismatchError)."""

    kind: str
    value: float
    beta: float

    def __post_init__(self):
        if self.kind not in ("footrule", "gini"):
            raise KindMismatchError(f"kind must be 'footrule' or 'gini', got {self.kind!r}")
        object.__setattr__(self, "value", _check_measure(self.kind, self.value))
        object.__setattr__(self, "beta", _check_measure("beta", self.beta))


def pair_in_region(pair: MeasurePair, slack: float = 0.0) -> bool:
    """Whether the pair lies in the exact attainable region.

    ``slack`` widens the closed interval on both sides so statistical
    pipelines can pass their quadrature or sampling error; it must be finite
    and nonnegative.
    """
    if not 0.0 <= slack < np.inf:
        raise ValueError("slack must be nonnegative and finite")
    beta_range = beta_range_given_footrule if pair.kind == "footrule" else beta_range_given_gini
    lo, hi = beta_range(pair.value)
    return lo - slack <= pair.beta <= hi + slack
