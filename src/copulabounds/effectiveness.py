"""How tightly a fixed measure value pins down the copula.

The score is 1 - 6 * integral of |upper - lower| over the unit square: 0
when the envelopes are the global ones (no information), 1 when they
coincide. The integrand has kinks along the region frontiers, yet the 2-D
Simpson rule converges at second order: against an n = 4096 reference, the
worst error over the 27 table rows is 3.3e-4 at n = 64 and falls 4x per
doubling of n, to 5.0e-6 at n = 512 and 2.4e-7 at the default n = 2048.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .concordance import simpson_weights
from .core import _whole, grid_nodes
from .footrule import FootruleLowerBound, FootruleUpperBound
from .gini import GiniLowerBound, GiniUpperBound

FOOTRULE_TABLE_KS = tuple(np.round(np.arange(16) * 0.1 - 0.5, 10))
GINI_TABLE_KS = tuple(np.round(np.arange(11) * 0.1, 10))
ROW_BLOCK = 32

ENVELOPES = {cls.NAME: cls for cls in (FootruleLowerBound, FootruleUpperBound,
                                        GiniLowerBound, GiniUpperBound)}


@dataclass(frozen=True)
class EffectivenessRow:
    kind: str
    k: float
    m: float
    quad_n: int


def _bounds_for(kind: str, k: float):
    if kind not in ("footrule", "gini"):
        raise ValueError(f"kind must be 'footrule' or 'gini', got {kind!r}")
    return ENVELOPES[f"{kind[0]}-upper"](k), ENVELOPES[f"{kind[0]}-lower"](k)


@functools.cache
def _strips(n: int) -> tuple:
    """The quarter sweep of ``effectiveness_score`` at n panels: per strip, a
    row slice, a column slice and the orbit size of each node in it (0
    outside the quarter) as a read-only uint8 array, shared by every call."""
    strips = []
    for i0 in range(0, n // 2 + 1, ROW_BLOCK):
        rows, cols = slice(i0, min(i0 + ROW_BLOCK, n // 2 + 1)), slice(i0, n - i0 + 1)
        i, j = np.ogrid[rows, cols]
        orbit = np.where((j < i) | (i + j > n), 0, 4) // ((1 + (i == j)) * (1 + (i + j == n)))
        orbit = orbit.astype(np.uint8)
        orbit.flags.writeable = False
        strips.append((rows, cols, orbit))
    return tuple(strips)


def effectiveness_score(kind: str, k: float, n: int = 2048) -> EffectivenessRow:
    """Score 1 - 6 * Simpson2D(|upper - lower|) on the (n+1)^2 node grid.

    The gap is symmetric under transpose and under the radial reflection
    (u, v) -> (1-u, 1-v), and the Simpson weights satisfy w_i = w_{n-i}, so
    only the quarter i <= j, i + j <= n of the node grid is evaluated. Each
    node there carries w_i * w_j times the size of its orbit under
    {identity, transpose, radial, anti-transpose}: 4 for an ordinary node,
    2 on the diagonal or the anti-diagonal, 1 at the centre. The quarter is
    walked in strips of ``ROW_BLOCK`` rows, columns i0..n-i0, with zero
    weight outside it. The orbit sizes depend on n alone, so they are built
    on the first call at each n and kept: one byte per strip node, a little
    over (n + 1)^2 / 4 bytes for each distinct n the process scores (74 KB
    at n = 512, 1.1 MB at n = 2048).

    The gap is asserted nonnegative on every evaluated node before
    integration (symmetry carries the check to the rest of the grid); a
    pointwise violation beyond 1e-10, or a NaN, means the envelopes are
    broken and raises.
    """
    upper, lower = _bounds_for(kind, k)
    n = _whole(n, "panel count", 64, even=True)
    t = grid_nodes(n)
    w = simpson_weights(n)
    total = 0.0
    for rows, cols, orbit in _strips(n):
        u, v = t[rows, None], t[None, cols]
        gap = upper(u, v) - lower(u, v)
        # written so that a NaN gap fails it
        if not float(gap.min()) >= -1e-10:
            raise RuntimeError(
                f"bound ordering violated for {kind} k={k}: gap {float(gap.min())}"
            )
        np.maximum(gap, 0.0, out=gap)
        total += float(w[rows] @ ((gap * orbit) @ w[cols]))
    return EffectivenessRow(kind, float(k), 1.0 - 6.0 * total, n)


def table_rows(n: int = 2048) -> list[EffectivenessRow]:
    """Effectiveness at the canonical grid: footrule k = -0.5(0.1)1.0 and
    gamma k = 0.0(0.1)1.0, 27 rows."""
    rows = [effectiveness_score("footrule", k, n) for k in FOOTRULE_TABLE_KS]
    rows += [effectiveness_score("gini", k, n) for k in GINI_TABLE_KS]
    return rows
