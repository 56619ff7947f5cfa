"""Pointwise envelopes of all copulas sharing a fixed footrule value.

The lower envelope has one closed form, active between the two hyperbolas
u*v = (1-phi)/6 and (1-u)(1-v) = (1-phi)/6, and equals max(0, u+v-1)
elsewhere; it is a copula for every parameter value. The upper envelope is
piecewise over seven regions of the square (D1..D7, with D5..D7 the
transposes of D3..D1) that deform and vanish as the parameter grows, equals
min(u, v) outside them, and is a proper quasi-copula (not 2-increasing) for
parameters strictly between -1/2 and 1/4.
"""

from __future__ import annotations

import numpy as np

from .core import BivariateFunction, _check_range, _first_match, _on_unit
from .concordance import QuadratureConfig, spearman_footrule

FOOTRULE_PARAM_RANGE = (-0.5, 1.0)

DELTA_LABELS = ("none", "D1", "D2", "D3", "D4", "D5", "D6", "D7")


def hyperbola_halfwidth(phi) -> float:
    """Half-length of the diagonal span where the lower envelope's singular
    arcs leave the anti-diagonal: sqrt(3 (1 + 2 phi)) / 6."""
    phi = _check_range(phi, *FOOTRULE_PARAM_RANGE, "footrule")
    return float(np.sqrt(3.0 * (1.0 + 2.0 * phi)) / 6.0)


class FootruleLowerBound(BivariateFunction):
    """Least value at (u, v) among all copulas with the given footrule;
    always a copula."""

    def __init__(self, phi):
        self.phi = _check_range(phi, *FOOTRULE_PARAM_RANGE, "footrule")
        self.label = f"f-lower:{self.phi:g}"

    def _value(self, u, v):
        w = np.maximum(u + v - 1.0, 0.0)
        m = np.minimum(u, v)
        # endpoints short-circuit: the envelope is exactly W or M there and the
        # [W, M] clamp must not leak edge rounding into the identity
        if self.phi == -0.5:
            return w
        if self.phi == 1.0:
            return m
        q = (1.0 - self.phi) / 6.0
        inside = (u * v >= q) & ((1.0 - u) * (1.0 - v) >= q)
        val = 0.5 * (u + v - np.sqrt(2.0 * (1.0 - self.phi) / 3.0 + (v - u) ** 2))
        return np.clip(np.where(inside, val, w), w, m)


def footrule_lower_bound(phi, u, v):
    """Least value at (u, v) among all copulas with the given footrule."""
    return FootruleLowerBound(phi)(u, v)


def _delta_pieces(phi, a, b):
    """Region masks D1..D7 and piece values, all evaluated everywhere.

    D5..D7 are D3..D1 with the coordinates swapped: ``half`` writes the
    masks of D1..D3 and one half of D4's mask, ``half_values`` the values of
    D1..D3, and each is called again with a and b exchanged. Square roots
    whose argument can go negative outside the owning region are clamped at
    zero; the masks never select those points.
    """
    p2 = 1.0 + 2.0 * phi
    s = np.sqrt(p2 / 3.0)
    cap = 2.0 * (1.0 - phi) / 3.0
    lo_half = 0.5 * (1.0 - s)
    hi_half = 0.5 * (1.0 + s)

    def half(a, b, ra, rb):
        masks = [
            (a <= lo_half) & (b >= hi_half) & (b <= a + lo_half),
            (b <= hi_half) & (3.0 * a >= 2.0 * b - 1.0 + rb) & (3.0 * a <= b + 1.0 - rb),
            (a >= lo_half) & (3.0 * b >= a + 1.0 + ra) & (3.0 * b <= 2.0 * a + 2.0 - ra),
        ]
        centre = ((3.0 * a >= b + 1.0 - rb) & (3.0 * a <= b + 1.0 + rb)
                  & (a ** 2 <= cap - (b - 1.0) ** 2))
        return masks, centre

    def half_values(a, b, ra, rb):
        return [0.5 * (2.0 * b - 1.0 + s),
                (2.0 * b - 1.0 + rb) / 3.0,
                (a + 3.0 * b - 2.0 + ra) / 3.0]

    ra = np.sqrt((2.0 * a - 1.0) ** 2 + p2)
    rb = np.sqrt((2.0 * b - 1.0) ** 2 + p2)
    # all masks before any value: interleaving them ran 5% slower per block
    masks, centre = half(a, b, ra, rb)
    masks_t, centre_t = half(b, a, rb, ra)
    g4_arg = 3.0 * (b - a) ** 2 + (1.0 - 2.0 * a) * (1.0 - 2.0 * b) + 2.0 * p2 / 3.0
    g4 = 0.5 * (a + b - 1.0 + np.sqrt(np.maximum(g4_arg, 0.0)))
    return ([*masks, centre & centre_t, *masks_t[::-1]],
            [*half_values(a, b, ra, rb), g4, *half_values(b, a, rb, ra)[::-1]])


def delta_region(phi, u, v):
    """Code 1..7 of the piece governing the upper envelope at (u, v), else 0.

    Pieces are tested in index order; adjacent pieces agree on shared
    boundaries, so the order only picks among equal expressions. Every code
    is 0 for parameters above 1/4, where all pieces are empty.
    """
    phi = _check_range(phi, *FOOTRULE_PARAM_RANGE, "footrule")
    return _on_unit(lambda a, b: _first_match(_delta_pieces(phi, a, b)[0], range(1, 8), 0),
                    u, v, int)


class FootruleUpperBound(BivariateFunction):
    """Greatest value at (u, v) among all copulas with the given footrule;
    a proper quasi-copula for parameters strictly inside (-1/2, 1/4)."""

    def __init__(self, phi):
        self.phi = _check_range(phi, *FOOTRULE_PARAM_RANGE, "footrule")
        self.label = f"f-upper:{self.phi:g}"

    def _value(self, u, v):
        w = np.maximum(u + v - 1.0, 0.0)
        m = np.minimum(u, v)
        if self.phi >= 0.25:
            return m
        masks, values = _delta_pieces(self.phi, u, v)
        return np.clip(_first_match(masks, values, m), w, m)


def footrule_upper_bound(phi, u, v):
    """Greatest value at (u, v) among all copulas with the given footrule."""
    return FootruleUpperBound(phi)(u, v)


def footrule_of_lower_bound(phi) -> float:
    """Footrule of the lower envelope itself: 2 - phi - sqrt(6 (1 - phi)).

    Strictly below the parameter on the open range, with equality at the
    endpoints; the envelope is not a member of the family it bounds.
    """
    phi = _check_range(phi, *FOOTRULE_PARAM_RANGE, "footrule")
    return 2.0 - phi - float(np.sqrt(6.0 * (1.0 - phi)))


def footrule_of_upper_bound(phi, quad: QuadratureConfig | None = None) -> float:
    """Footrule of the upper envelope, by diagonal quadrature.

    No closed form is asserted; the extended measure is evaluated directly.
    """
    return spearman_footrule(FootruleUpperBound(phi), quad)
