"""Pointwise envelopes of all copulas sharing a fixed Gini gamma.

The upper envelope is piecewise over nine regions of the square (O1..O9,
with O6..O9 the transposes of O4..O1) that deform and vanish as the
parameter grows, and equals min(u, v) outside them; it is a proper
quasi-copula for parameters in (-1, 0) and a copula otherwise. It is a
``core.PiecewiseEnvelope``: this module writes O1..O5 and the base class
supplies their transposes, the region codes and the evaluation of each piece
on the nodes it governs. The lower envelope is its reflection
G_lower(gamma)(a, b) = a - G_upper(-gamma)(a, 1-b).
"""

from __future__ import annotations

import numpy as np

from .core import Envelope, PiecewiseEnvelope
from .concordance import GINI_RANGE, QuadratureConfig, gini_gamma

OMEGA_LABELS = ("none", "O1", "O2", "O3", "O4", "O5", "O6", "O7", "O8", "O9")


class GiniUpperBound(PiecewiseEnvelope):
    """Greatest value at (u, v) among all copulas with the given gamma; a
    proper quasi-copula exactly for parameters in ``QUASI`` = (-1, 0).

    Divisions by the centre lines and the square edges are left to IEEE
    semantics: a diverging side makes its inequality false, which is the
    limiting form of each region condition. O2's square root can go
    negative outside its region and is clamped at zero there. Degenerate
    pieces (such as the diagonal at parameter -1) still report their code.
    At 1/2 the pieces have shrunk to the centre (1/2, 1/2), which rounding
    in O5's mask still reports as code 5, with diagonal points within about
    1e-9 of it, up to two floats above 1/2 (0.5000000000000002). Every code
    is 0 for larger parameters. The envelope is min(u, v) from 1/2 on either
    way.
    """

    NAME, MEASURE, RANGE = "g-upper", "gamma", GINI_RANGE
    W_UP_TO, M_FROM, QUASI = -1.0, 0.5, (-1.0, 0.0)
    LABELS = OMEGA_LABELS
    gamma = property(lambda self: self.k)
    _tau = property(lambda self: 1.0 + self.k)

    def _axis(self, x):
        """The roots s and q and the quotients t/(1-2x), t/(4x), t/(1-x), t/x,
        where t = 1 + gamma."""
        t = 1.0 + self.k
        with np.errstate(divide="ignore", invalid="ignore"):
            return (np.sqrt((2.0 * x - 1.0) ** 2 + 3.0 * t),
                    np.sqrt(9.0 * (2.0 * x - 1.0) ** 2 + 11.0 * t),
                    t / (1.0 - 2.0 * x), t / (4.0 * x), t / (1.0 - x), t / x)

    # at parameter 0 the corner (0, 1) meets every O2 inequality with equality,
    # but O2's value there is 1/2, not the grounded 0; it is the only corner
    # point O2 ever holds at, so it is excluded (and (1, 0) from O8)
    def _half(self, a, b, axis_a, axis_b):
        t = 1.0 + self.k
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

    def _piece(self, code, a, b):
        t = 1.0 + self.k
        if code == 1:
            return 0.5 * (a + b - 1.0 + np.sqrt((a + b - 1.0) ** 2 + t))
        if code == 2:
            arg = (a + b - 1.0) ** 2 + (1.0 - 2.0 * a) * (1.0 - 2.0 * b) + 2.0 * t
            return 0.25 * (a + 3.0 * b - 2.0 + np.sqrt(np.maximum(arg, 0.0)))
        if code == 3:
            return (2.0 * a + 4.0 * b - 3.0 + np.sqrt((2.0 * a + 4.0 * b - 3.0) ** 2 + 7.0 * t)) / 7.0
        if code == 4:
            return (3.0 * a + 5.0 * b - 4.0 + np.sqrt((4.0 * a + 2.0 * b - 3.0) ** 2 + 7.0 * t)) / 7.0
        # cancellation-free form of 5(a+b-1)^2 - 2(1-2a)(1-2b) + 2t
        arg = (3.0 * (a + b - 1.0) ** 2 + 2.0 * (a - b) ** 2 + 2.0 * t) / 3.0
        return 0.5 * (a + b - 1.0 + np.sqrt(arg))


class GiniLowerBound(Envelope):
    """Least value at (u, v) among all copulas with the given gamma; a
    proper quasi-copula exactly for parameters in ``QUASI`` = (0, 1).

    Computed by reflecting the upper envelope at the negated parameter:
    a - G_upper(-gamma)(a, 1-b), which equals b - G_upper(-gamma)(1-a, b).
    The region codes are those of the reflected piece.
    """

    NAME, MEASURE, RANGE = "g-lower", "gamma", GINI_RANGE
    W_UP_TO, M_FROM, QUASI = -0.5, 1.0, (0.0, 1.0)
    LABELS = OMEGA_LABELS
    gamma = property(lambda self: self.k)

    def __init__(self, gamma):
        super().__init__(gamma)
        self._reflected = GiniUpperBound(-self.k)

    def _bound(self, u, v, w, m):
        # the reflected envelope's own clamp is part of the value
        return u - self._reflected._value(u, 1.0 - v)

    def _region_codes(self, u, v):
        return self._reflected._region_codes(u, 1.0 - v)


# the functional forms (k, u, v) of the envelopes and the region codes
gini_upper_bound = GiniUpperBound._functional
gini_lower_bound = GiniLowerBound._functional
omega_region = GiniUpperBound._codes_at


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
