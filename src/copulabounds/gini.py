"""Pointwise envelopes of all copulas sharing a fixed Gini gamma.

The upper envelope is piecewise over nine regions of the square (O1..O9,
with O6..O9 the transposes of O4..O1) that deform and vanish as the
parameter grows, and equals min(u, v) outside them; it is a copula for
parameters in [0, 1/2) and a proper quasi-copula on (-1, 0). The lower
envelope is its reflection G_lower(gamma)(a, b) = a - G_upper(-gamma)(a, 1-b).
"""

from __future__ import annotations

import numpy as np

from .core import BivariateFunction, _check_range, _first_match, _on_unit
from .concordance import QuadratureConfig, gini_gamma

GINI_PARAM_RANGE = (-1.0, 1.0)

OMEGA_LABELS = ("none", "O1", "O2", "O3", "O4", "O5", "O6", "O7", "O8", "O9")


def _omega_pieces(gamma, a, b):
    """Region masks O1..O9 and piece values, all evaluated everywhere.

    O6..O9 are O4..O1 with the coordinates swapped: ``half`` writes the
    masks of O1..O4 and one half of O5's mask, ``half_values`` the values of
    O1..O4, and each is called again with a and b exchanged. Divisions by
    the centre lines and the square edges are left to IEEE semantics: a
    diverging side makes its inequality false, which is the limiting form of
    each region condition. Square roots that can go negative outside the
    owning region are clamped at zero.
    """
    t = 1.0 + gamma

    def axis_terms(x):
        """The roots s and q and the quotients t/(1-2x), t/(4x), t/(1-x), t/x."""
        return (np.sqrt((2.0 * x - 1.0) ** 2 + 3.0 * t),
                np.sqrt(9.0 * (2.0 * x - 1.0) ** 2 + 11.0 * t),
                t / (1.0 - 2.0 * x), t / (4.0 * x), t / (1.0 - x), t / x)

    # at parameter 0 the corner (0, 1) meets every O2 inequality with equality,
    # but O2's value there is 1/2, not the grounded 0; it is the only corner
    # point O2 ever holds at, so it is excluded (and (1, 0) from O8)
    def half(a, b, axis_a, axis_b):
        sa, qa, ha, ia, _, ka = axis_a
        sb, qb, _, _, jb, _ = axis_b
        masks = [
            (a <= 0.5) & (2.0 * b >= 1.0 + ha) & (b <= 1.0 - ia),
            (((a > 0.0) | (b < 1.0)) & (2.0 * b <= 1.0 + ha)
             & ((1.0 + 2.0 * a - 2.0 * b) ** 2 + 4.0 * a * (1.0 - b) >= t)
             & (6.0 * b >= 2.0 * a + 2.0 + sa)
             & (4.0 * b >= 6.0 * a - 1.0 + ha)),
            ((6.0 * b <= 2.0 * a + 2.0 + sa)
             & (8.0 * b <= 3.0 * a + 6.0 - ka)
             & (11.0 * a <= 3.0 + 5.0 * b - qb)),
            ((6.0 * a >= 2.0 * b + 2.0 - sb)
             & (8.0 * a >= 3.0 * b - 1.0 + jb)
             & (11.0 * b >= 3.0 + 5.0 * a + qa)),
        ]
        centre = ((11.0 * a >= 3.0 + 5.0 * b - qb) & (11.0 * a <= 3.0 + 5.0 * b + qb)
                  & ((b + 2.0 * a) ** 2 <= 3.0 * a * (a + 2.0) - t))
        return masks, centre

    with np.errstate(divide="ignore", invalid="ignore"):
        axis_a, axis_b = axis_terms(a), axis_terms(b)
    masks, centre = half(a, b, axis_a, axis_b)
    masks_t, centre_t = half(b, a, axis_b, axis_a)

    w28_arg = (a + b - 1.0) ** 2 + (1.0 - 2.0 * a) * (1.0 - 2.0 * b) + 2.0 * t
    w28 = np.sqrt(np.maximum(w28_arg, 0.0))
    w37 = np.sqrt((2.0 * a + 4.0 * b - 3.0) ** 2 + 7.0 * t)
    w46 = np.sqrt((4.0 * a + 2.0 * b - 3.0) ** 2 + 7.0 * t)
    # cancellation-free form of 5(a+b-1)^2 - 2(1-2a)(1-2b) + 2t
    w5_arg = (3.0 * (a + b - 1.0) ** 2 + 2.0 * (a - b) ** 2 + 2.0 * t) / 3.0
    w1 = 0.5 * (a + b - 1.0 + np.sqrt((a + b - 1.0) ** 2 + t))
    w5 = 0.5 * (a + b - 1.0 + np.sqrt(w5_arg))

    def half_values(a, b, w37, w46):
        return [w1,
                0.25 * (a + 3.0 * b - 2.0 + w28),
                (2.0 * a + 4.0 * b - 3.0 + w37) / 7.0,
                (3.0 * a + 5.0 * b - 4.0 + w46) / 7.0]

    return ([*masks, centre & centre_t, *masks_t[::-1]],
            [*half_values(a, b, w37, w46), w5, *half_values(b, a, w46, w37)[::-1]])


def omega_region(gamma, u, v):
    """Code 1..9 of the piece governing the upper envelope at (u, v), else 0.

    Pieces are tested in index order with verified boundary agreement.
    All codes are 0 for parameters above 1/2; degenerate pieces (such as
    the diagonal at parameter -1) still report their code.
    """
    gamma = _check_range(gamma, *GINI_PARAM_RANGE, "gamma")
    return _on_unit(lambda a, b: _first_match(_omega_pieces(gamma, a, b)[0], range(1, 10), 0),
                    u, v, int)


class GiniUpperBound(BivariateFunction):
    """Greatest value at (u, v) among all copulas with the given gamma; a
    copula exactly for parameters in [0, 1/2) and at the endpoints."""

    def __init__(self, gamma):
        self.gamma = _check_range(gamma, *GINI_PARAM_RANGE, "gamma")
        self.label = f"g-upper:{self.gamma:g}"

    def _value(self, u, v):
        w = np.maximum(u + v - 1.0, 0.0)
        m = np.minimum(u, v)
        # endpoints short-circuit before region dispatch: the degenerate regions
        # are numerically fragile and the envelope is exactly W or M there
        if self.gamma <= -1.0:
            return w
        if self.gamma >= 0.5:
            return m
        masks, values = _omega_pieces(self.gamma, u, v)
        return np.clip(_first_match(masks, values, m), w, m)


def gini_upper_bound(gamma, u, v):
    """Greatest value at (u, v) among all copulas with the given gamma."""
    return GiniUpperBound(gamma)(u, v)


class GiniLowerBound(BivariateFunction):
    """Least value at (u, v) among all copulas with the given gamma; a
    copula exactly for parameters in (-1/2, 0] and at the endpoints.

    Computed by reflecting the upper envelope at the negated parameter:
    a - G_upper(-gamma)(a, 1-b), which equals b - G_upper(-gamma)(1-a, b).
    """

    def __init__(self, gamma):
        self.gamma = _check_range(gamma, *GINI_PARAM_RANGE, "gamma")
        self.label = f"g-lower:{self.gamma:g}"
        self._reflected = GiniUpperBound(-self.gamma)

    def _value(self, u, v):
        w = np.maximum(u + v - 1.0, 0.0)
        m = np.minimum(u, v)
        if self.gamma >= 1.0:
            return m
        if self.gamma <= -0.5:
            return w
        return np.clip(u - self._reflected._value(u, 1.0 - v), w, m)


def gini_lower_bound(gamma, u, v):
    """Least value at (u, v) among all copulas with the given gamma."""
    return GiniLowerBound(gamma)(u, v)


def gini_of_bound(gamma, which: str = "upper",
                  quad: QuadratureConfig | None = None) -> float:
    """Extended gamma of the chosen envelope, by line quadrature.

    The upper envelope scores strictly above the parameter on the open
    range and the lower strictly below; neither envelope belongs to the
    family it bounds.
    """
    if which == "upper":
        return gini_gamma(GiniUpperBound(gamma), quad)
    if which == "lower":
        return gini_gamma(GiniLowerBound(gamma), quad)
    raise ValueError(f"which must be 'upper' or 'lower', got {which!r}")
