"""Concordance machinery.

The three association measures (Spearman footrule, Gini gamma, Blomqvist
beta) by line quadrature or exact evaluation, closed forms of the
concordance integral on the extremal-copula families, and the piecewise
value of footrule/gamma on those families as a function of the anchored
value; on the lower family both come from one pair of concordances,
phi = (3 Q(C, M) - 1) / 2 and gamma = Q(C, M) + Q(C, W).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import M, W, ExtremalSpec, OutOfRangeError, _finite, _whole, grid_nodes

FOOTRULE_RANGE = (-0.5, 1.0)
GINI_RANGE = (-1.0, 1.0)
BLOMQVIST_RANGE = (-1.0, 1.0)


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite-Simpson panel count for the line integrals; must be even."""

    n: int = 2048

    def __post_init__(self):
        object.__setattr__(self, "n", _whole(self.n, "panel count", 2, even=True))


def simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights over n even panels of [0, 1], n+1 nodes."""
    n = _whole(n, "panel count", 2, even=True)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / (3.0 * n)


def spearman_footrule(func, quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Spearman footrule 6 * int C(t,t) dt - 2, clamped to [-1/2, 1].

    The same diagonal integral extends the measure verbatim to proper
    quasi-copulas, which is how the supremum envelopes are scored. This and
    the other measures raise ValueError when the result is not finite.
    """
    t = grid_nodes(quad.n)
    val = _finite(6.0 * float(simpson_weights(quad.n) @ func(t, t)) - 2.0, "footrule")
    return min(max(val, FOOTRULE_RANGE[0]), FOOTRULE_RANGE[1])


def gini_gamma(func, quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Gini gamma 4 * int (C(t,t) + C(t,1-t)) dt - 2, clamped to [-1, 1]."""
    t = grid_nodes(quad.n)
    w = simpson_weights(quad.n)
    val = _finite(4.0 * float(w @ (func(t, t) + func(t, 1.0 - t))) - 2.0, "gamma")
    return min(max(val, GINI_RANGE[0]), GINI_RANGE[1])


def blomqvist_beta(func) -> float:
    """Blomqvist beta 4 * C(1/2, 1/2) - 1."""
    val = _finite(4.0 * float(func(0.5, 0.5)) - 1.0, "beta")
    return min(max(val, BLOMQVIST_RANGE[0]), BLOMQVIST_RANGE[1])


# ---------------------------------------------------------------------------
# Closed forms of the concordance integral on extremal copulas
# ---------------------------------------------------------------------------

def _require_kind(spec: ExtremalSpec, kind: str):
    if spec.kind != kind:
        raise OutOfRangeError(f"expected a {kind!r} extremal spec, got {spec.kind!r}")


def q_m_extremal_upper(spec: ExtremalSpec) -> float:
    """Concordance of the upper extremal copula against min(u, v)."""
    _require_kind(spec, "upper")
    d2 = spec.anchor_value
    return 1.0 - 4.0 * (spec.a - d2) * (spec.b - d2)


def q_w_extremal_lower(spec: ExtremalSpec) -> float:
    """Concordance of the lower extremal copula against max(0, u+v-1)."""
    _require_kind(spec, "lower")
    d1 = spec.anchor_value
    return 4.0 * d1 * (1.0 - spec.a - spec.b + d1) - 1.0


def q_m_extremal_lower(spec: ExtremalSpec) -> float:
    """Concordance of the lower extremal copula against min(u, v)."""
    _require_kind(spec, "lower")
    return float(_q_lower(spec.a, spec.b, spec.anchor_value)[0])


# ---------------------------------------------------------------------------
# Measures of the extremal families as functions of the anchored value
# ---------------------------------------------------------------------------

def _anchored(measure):
    """Decorator for a measure of an extremal family at anchor (a, b) and
    anchored value d: rejects NaN in a, b or d and d outside [W(a,b), M(a,b)]
    by more than 1e-9, clips d into that interval, and returns a Python float
    when a, b and d are all scalars."""
    @functools.wraps(measure)
    def checked(a, b, d):
        scalar = np.ndim(a) == 0 and np.ndim(b) == 0 and np.ndim(d) == 0
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d = np.asarray(d, dtype=float)
        w, m = W._value(a, b), M._value(a, b)
        # NaN in a, b or d makes a comparison false, so it fails this test
        if not np.all((d >= w - 1e-9) & (d <= m + 1e-9)):
            raise OutOfRangeError("anchored value d outside [W(a,b), M(a,b)] or NaN")
        out = measure(a, b, np.clip(d, w, m))
        return float(out) if scalar else out
    return checked


def _triangle_frame(a, b, d):
    """Map (a, b, d) into the reference triangle a <= b, a + b <= 1.

    Reflecting the anchor through the centre (survival) shifts the anchored
    value by 1 - a - b; transposing leaves it unchanged. Footrule and gamma
    are invariant under both moves.
    """
    refl = a + b > 1.0
    a1 = np.where(refl, 1.0 - a, a)
    b1 = np.where(refl, 1.0 - b, b)
    d1 = np.where(refl, d - (a + b - 1.0), d)
    lo = np.minimum(a1, b1)
    hi = np.maximum(a1, b1)
    return lo, hi, np.clip(d1, 0.0, lo)


def _q_lower(a, b, d):
    """Q(C, M) and Q(C, W) of the least copula C with value d at (a, b).

    Both are invariant under the moves of ``_triangle_frame``; on its
    reference triangle Q(C, M) has four pieces.
    """
    a, b, d = _triangle_frame(a, b, d)
    q_m = np.select([b >= d + 0.5, 2.0 * b >= 1.0 + d, b >= a + d],
                   [0.0, (2.0 * d + 1.0 - 2.0 * b) ** 2, d * (2.0 + 3.0 * d - 4.0 * b)],
                   2.0 * d * (1.0 + d - a - b) - (b - a) ** 2)
    return q_m, 4.0 * d * (1.0 - a - b + d) - 1.0


@_anchored
def f_lower(a, b, d):
    """Footrule of the least copula with value d at (a, b): (3 Q(C, M) - 1) / 2.

    Piecewise in d, nondecreasing, with range [-1/2, f_lower(a, b, M(a,b))].
    """
    q_m, _ = _q_lower(a, b, d)
    return 1.5 * q_m - 0.5


@_anchored
def f_upper(a, b, d):
    """Footrule of the greatest copula with value d at (a, b): 1 - 6(a-d)(b-d)."""
    return 1.0 - 6.0 * (a - d) * (b - d)


@_anchored
def g_lower(a, b, d):
    """Gini gamma of the least copula with value d at (a, b): Q(C, M) + Q(C, W);
    nondecreasing in d."""
    q_m, q_w = _q_lower(a, b, d)
    return q_m + q_w


@_anchored
def g_upper(a, b, d):
    """Gini gamma of the greatest copula with value d at (a, b).

    The sigma-1 reflection turns the greatest copula with value d at (a, b)
    into the least copula with value b - d at (1 - a, b) and flips the sign
    of gamma.
    """
    return -g_lower(1.0 - a, b, b - d)
