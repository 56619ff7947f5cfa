"""Exact attainable pairs of (footrule, beta) and (gamma, beta) values.

Each range function returns the closed interval of one measure given the
other; a pair lies in the region exactly when its beta lies in the beta
interval of its measure value. The boundary curves are mutually inverse
monotone maps, and every boundary point is attained by an extremal copula
anchored at the centre of the square. Both measures use one pair of
curves, which take the measure's diagonal scale s: 2 for the footrule and
1 for gamma, so that 1 + s k is the ``_tau`` of its upper envelope.
"""

from __future__ import annotations

import numpy as np

from .concordance import BLOMQVIST_RANGE, FOOTRULE_RANGE, GINI_RANGE
from .core import _check_range


def _beta_range(k, s) -> tuple[float, float]:
    """The beta interval (1 - 2 sqrt(2 (1 - k) / 3), -1 + 2 sqrt(2 (1 + s k) / 3))
    clipped to [-1, 1]."""
    return (max(1.0 - 2.0 * float(np.sqrt(2.0 * (1.0 - k) / 3.0)), BLOMQVIST_RANGE[0]),
            min(-1.0 + 2.0 * float(np.sqrt(2.0 * (1.0 + s * k) / 3.0)), BLOMQVIST_RANGE[1]))


def _range_given_beta(beta, s) -> tuple[float, float]:
    """The measure interval given beta, on the inverse curves of ``_beta_range``."""
    return (3.0 * (1.0 + beta) ** 2 / 8.0 - 1.0) / s, 1.0 - 3.0 * (1.0 - beta) ** 2 / 8.0


def beta_range_given_footrule(phi) -> tuple[float, float]:
    """Closed interval of beta over all copulas with footrule ``phi``."""
    return _beta_range(_check_range(phi, *FOOTRULE_RANGE, "footrule"), 2.0)


def footrule_range_given_beta(beta) -> tuple[float, float]:
    """Closed interval of footrule over all copulas with beta ``beta``."""
    return _range_given_beta(_check_range(beta, *BLOMQVIST_RANGE, "beta"), 2.0)


def beta_range_given_gini(gamma) -> tuple[float, float]:
    """Closed interval of beta over all copulas with gamma ``gamma``."""
    return _beta_range(_check_range(gamma, *GINI_RANGE, "gamma"), 1.0)


def gini_range_given_beta(beta) -> tuple[float, float]:
    """Closed interval of gamma over all copulas with beta ``beta``."""
    return _range_given_beta(_check_range(beta, *BLOMQVIST_RANGE, "beta"), 1.0)
