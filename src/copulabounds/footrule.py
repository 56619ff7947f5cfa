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

from .core import M, W, Envelope, PiecewiseEnvelope, _check_range
from .concordance import FOOTRULE_RANGE

DELTA_LABELS = ("none", "D1", "D2", "D3", "D4", "D5", "D6", "D7")


class FootruleLowerBound(Envelope):
    """Least value at (u, v) among all copulas with the given footrule;
    always a copula."""

    NAME, MEASURE, RANGE = "f-lower", "footrule", FOOTRULE_RANGE
    W_UP_TO, M_FROM = -0.5, 1.0
    phi = property(lambda self: self.k)

    def _pass(self, u, v, codes=False):
        q = (1.0 - self.k) / 6.0
        inside = (u * v >= q) & ((1.0 - u) * (1.0 - v) >= q)
        val = 0.5 * (u + v - np.sqrt(2.0 * (1.0 - self.k) / 3.0 + (v - u) ** 2))
        w = W._value(u, v)
        # one piece, which has no region code
        return (np.clip(np.where(inside, val, w), w, M._value(u, v)),
                np.zeros(inside.shape, dtype=np.int8))


class FootruleUpperBound(PiecewiseEnvelope):
    """Greatest value at (u, v) among all copulas with the given footrule;
    a proper quasi-copula exactly for parameters in ``QUASI`` = (-1/2, 1/4).

    Each region shrinks to a point as the parameter grows to its ``VANISH``
    and is empty past it: D1 and D7 exist for phi <= -1/3, D2, D3, D5 and D6
    for phi <= -1/5, and D4 for phi <= 1/4.

    Its extended footrule, ``spearman_footrule(FootruleUpperBound(phi))``, lies
    strictly above phi on the open range: it is not in the family it bounds.

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
    # the largest footrule 1.5 Q(C, M) - 1/2 of the least copula through the
    # top d of each Q(C, M) branch of the reference triangle:
    # D1, branch 2: 1.5 s^2 - 1/2 at d = a = s = 2b - 1 <= 1/3;
    # D2 and D3, branch 3: 1.5 x(2 - 5x) - 1/2 at d = a = x = b - a, x = 1/5;
    # D4, branch 4: at the centre, d = a = b = 1/2
    VANISH = (-1.0 / 3.0, -0.2, -0.2, 0.25)
    phi = property(lambda self: self.k)

    def __init__(self, phi):
        super().__init__(phi)
        self._tau = 1.0 + 2.0 * self.k
        self._s = np.sqrt(self._tau / 3.0)
        self._lo, self._hi = 0.5 * (1.0 - self._s), 0.5 * (1.0 + self._s)

    def _root(self, x):
        """The root sqrt((2x - 1)^2 + 1 + 2 phi)."""
        return np.sqrt((2.0 * x - 1.0) ** 2 + self._tau)

    def _region(self, code, a, b):
        if code == 1:
            return (a <= self._lo) & (b >= self._hi) & (b <= a + self._lo)
        if code == 3:
            ra = self._root(a)
            return (a >= self._lo) & (3.0 * b >= a + 1.0 + ra) & (3.0 * b <= 2.0 * a + 2.0 - ra)
        rb = self._root(b)
        if code == 2:
            return (b <= self._hi) & (3.0 * a >= 2.0 * b - 1.0 + rb) & (3.0 * a <= b + 1.0 - rb)
        return ((3.0 * a >= b + 1.0 - rb) & (3.0 * a <= b + 1.0 + rb)
                & (a ** 2 <= 2.0 * (1.0 - self.k) / 3.0 - (b - 1.0) ** 2))

    def _piece(self, code, a, b):
        if code == 1:
            return 0.5 * (2.0 * b - 1.0 + self._s)
        if code == 2:
            return (2.0 * b - 1.0 + self._root(b)) / 3.0
        if code == 3:
            return (a + 3.0 * b - 2.0 + self._root(a)) / 3.0
        arg = 3.0 * (b - a) ** 2 + (1.0 - 2.0 * a) * (1.0 - 2.0 * b) + 2.0 * self._tau / 3.0
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
    phi = _check_range(phi, *FOOTRULE_RANGE, "footrule")
    return 2.0 - phi - float(np.sqrt(6.0 * (1.0 - phi)))
