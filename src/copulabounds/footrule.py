"""Pointwise envelopes of all copulas sharing a fixed footrule value.

The lower envelope has one closed form, active between the two hyperbolas
u*v = (1-phi)/6 and (1-u)(1-v) = (1-phi)/6, and equals max(0, u+v-1)
elsewhere; it is a copula for every parameter value. The upper envelope is
piecewise over seven regions of the square (D1..D7, with D5..D7 the
transposes of D3..D1) that deform and vanish as the parameter grows, equals
min(u, v) outside them, and is a proper quasi-copula (not 2-increasing) for
parameters strictly between -1/2 and 1/4. It is a ``core.PiecewiseEnvelope``:
this module writes D1..D4 and the base class supplies their transposes,
the region codes and the evaluation of each piece on the nodes it governs.
"""

from __future__ import annotations

import numpy as np

from .core import Envelope, PiecewiseEnvelope
from .concordance import FOOTRULE_RANGE, QuadratureConfig, _check_measure, spearman_footrule

DELTA_LABELS = ("none", "D1", "D2", "D3", "D4", "D5", "D6", "D7")


def hyperbola_halfwidth(phi) -> float:
    """Half-length of the diagonal span where the lower envelope's singular
    arcs leave the anti-diagonal: sqrt(3 (1 + 2 phi)) / 6."""
    phi = _check_measure("footrule", phi)
    return float(np.sqrt(3.0 * (1.0 + 2.0 * phi)) / 6.0)


class FootruleLowerBound(Envelope):
    """Least value at (u, v) among all copulas with the given footrule;
    always a copula."""

    NAME, MEASURE, RANGE = "f-lower", "footrule", FOOTRULE_RANGE
    W_UP_TO, M_FROM = -0.5, 1.0
    phi = property(lambda self: self.k)

    def _bound(self, u, v, w, m):
        q = (1.0 - self.k) / 6.0
        inside = (u * v >= q) & ((1.0 - u) * (1.0 - v) >= q)
        val = 0.5 * (u + v - np.sqrt(2.0 * (1.0 - self.k) / 3.0 + (v - u) ** 2))
        return np.where(inside, val, w)


class FootruleUpperBound(PiecewiseEnvelope):
    """Greatest value at (u, v) among all copulas with the given footrule;
    a proper quasi-copula exactly for parameters in ``QUASI`` = (-1/2, 1/4).

    D4's square root can go negative outside its region and is clamped at
    zero there; the masks never select those points. At 1/4 the pieces have
    shrunk to the centre (1/2, 1/2), which rounding in D4's mask still
    reports as code 4, with diagonal points within about 1e-9 of it, up to
    the next float above 1/4 (0.25000000000000006). Every code is 0 for
    larger parameters. The envelope is min(u, v) from 1/4 on either way.
    """

    NAME, MEASURE, RANGE = "f-upper", "footrule", FOOTRULE_RANGE
    M_FROM, QUASI = 0.25, (-0.5, 0.25)
    LABELS = DELTA_LABELS
    phi = property(lambda self: self.k)
    _tau = property(lambda self: self._p2)

    def __init__(self, phi):
        super().__init__(phi)
        self._p2 = 1.0 + 2.0 * self.k
        self._s = np.sqrt(self._p2 / 3.0)

    def _axis(self, x):
        """The root sqrt((2x - 1)^2 + 1 + 2 phi)."""
        return np.sqrt((2.0 * x - 1.0) ** 2 + self._p2)

    def _half(self, a, b, ra, rb):
        lo_half, hi_half = 0.5 * (1.0 - self._s), 0.5 * (1.0 + self._s)
        masks = [
            (a <= lo_half) & (b >= hi_half) & (b <= a + lo_half),
            (b <= hi_half) & (3.0 * a >= 2.0 * b - 1.0 + rb) & (3.0 * a <= b + 1.0 - rb),
            (a >= lo_half) & (3.0 * b >= a + 1.0 + ra) & (3.0 * b <= 2.0 * a + 2.0 - ra),
        ]
        centre = ((3.0 * a >= b + 1.0 - rb) & (3.0 * a <= b + 1.0 + rb)
                  & (a ** 2 <= 2.0 * (1.0 - self.k) / 3.0 - (b - 1.0) ** 2))
        return masks, centre

    def _piece(self, code, a, b):
        if code == 1:
            return 0.5 * (2.0 * b - 1.0 + self._s)
        if code == 2:
            return (2.0 * b - 1.0 + self._axis(b)) / 3.0
        if code == 3:
            return (a + 3.0 * b - 2.0 + self._axis(a)) / 3.0
        arg = 3.0 * (b - a) ** 2 + (1.0 - 2.0 * a) * (1.0 - 2.0 * b) + 2.0 * self._p2 / 3.0
        return 0.5 * (a + b - 1.0 + np.sqrt(np.maximum(arg, 0.0)))


# the functional forms (k, u, v) of the envelopes and the region codes
footrule_lower_bound = FootruleLowerBound._functional
footrule_upper_bound = FootruleUpperBound._functional
delta_region = FootruleUpperBound._codes_at


def footrule_of_lower_bound(phi) -> float:
    """Footrule of the lower envelope itself: 2 - phi - sqrt(6 (1 - phi)).

    Strictly below the parameter on the open range, with equality at the
    endpoints; the envelope is not a member of the family it bounds.
    """
    phi = _check_measure("footrule", phi)
    return 2.0 - phi - float(np.sqrt(6.0 * (1.0 - phi)))


def footrule_of_upper_bound(phi, quad: QuadratureConfig | None = None) -> float:
    """Footrule of the upper envelope, by diagonal quadrature.

    No closed form is asserted; the extended measure is evaluated directly.
    """
    return spearman_footrule(FootruleUpperBound(phi), quad)
