"""How tightly a fixed measure value pins down the copula.

The score is 1 - 6 * integral of |upper - lower| over the unit square: 0
when the envelopes are the global ones (no information), 1 when they
coincide. The integrand has kinks along the region frontiers, limiting the
2-D Simpson rule to roughly first order there, so the default panel count
is generous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concordance import simpson_weights
from .core import grid_nodes
from .footrule import FootruleLowerBound, FootruleUpperBound
from .gini import GiniLowerBound, GiniUpperBound

FOOTRULE_TABLE_KS = tuple(np.round(np.arange(16) * 0.1 - 0.5, 10))
GINI_TABLE_KS = tuple(np.round(np.arange(11) * 0.1, 10))
ROW_BLOCK = 256


@dataclass(frozen=True)
class EffectivenessRow:
    kind: str
    k: float
    m: float
    quad_n: int


def _bounds_for(kind: str, k: float):
    if kind == "footrule":
        return FootruleUpperBound(k), FootruleLowerBound(k)
    if kind == "gini":
        return GiniUpperBound(k), GiniLowerBound(k)
    raise ValueError(f"kind must be 'footrule' or 'gini', got {kind!r}")


def effectiveness_score(kind: str, k: float, n: int = 2048) -> EffectivenessRow:
    """Score 1 - 6 * Simpson2D(|upper - lower|) on the (n+1)^2 node grid.

    The gap is asserted nonnegative before integration; a pointwise
    violation beyond 1e-10 means the envelopes are broken and raises.
    Evaluation walks the grid in blocks of ``ROW_BLOCK`` rows, so memory
    stays flat and the blocks could run concurrently.
    """
    upper, lower = _bounds_for(kind, k)
    if n < 64 or n % 2:
        raise ValueError("panel count must be even and >= 64")
    t = grid_nodes(n)
    w = simpson_weights(n)
    v_row = t[None, :]
    total = 0.0
    for i0 in range(0, n + 1, ROW_BLOCK):
        u_col = t[i0:i0 + ROW_BLOCK][:, None]
        gap = upper(u_col, v_row) - lower(u_col, v_row)
        if float(gap.min()) < -1e-10:
            raise RuntimeError(
                f"bound ordering violated for {kind} k={k}: gap {float(gap.min())}"
            )
        np.maximum(gap, 0.0, out=gap)
        total += float(w[i0:i0 + ROW_BLOCK] @ (gap @ w))
    return EffectivenessRow(kind, float(k), 1.0 - 6.0 * total, n)


def table_rows(n: int = 2048) -> list[EffectivenessRow]:
    """Effectiveness at the canonical grid: footrule k = -0.5(0.1)1.0 and
    gamma k = 0.0(0.1)1.0, 27 rows."""
    rows = [effectiveness_score("footrule", k, n) for k in FOOTRULE_TABLE_KS]
    rows += [effectiveness_score("gini", k, n) for k in GINI_TABLE_KS]
    return rows
