"""Exact oracle: each envelope inverts a measure of an extremal family.

The copulas taking the value d at (a, b) have footrules filling
[f_lower(a, b, d), f_upper(a, b, d)], and both ends are nondecreasing in d;
the same holds for gamma with g_lower and g_upper. So at every point

    upper(k)(a, b) = sup{d in [W, M] : f_lower(a, b, d) <= k},
    lower(k)(a, b) = inf{d in [W, M] : f_upper(a, b, d) >= k},

and likewise for gamma. The extremal-family measures share no formula with
the region pieces D1..D7 and O1..O9, so bisecting them checks every piece,
and the beta ranges at the centre of the square, to rounding. Which branch
of Q(C, M) the inverse lands on also fixes each region label.
"""

import numpy as np
import pytest

import copulabounds as cb
from copulabounds.concordance import _triangle_frame

TOL = 1e-13
NODES = np.arange(17) / 16
RNG_POINTS = np.random.default_rng(53).uniform(0.0, 1.0, (2, 4000))
POINTS = (np.concatenate([np.repeat(NODES, NODES.size), RNG_POINTS[0]]),
          np.concatenate([np.tile(NODES, NODES.size), RNG_POINTS[1]]))


def _switch(holds, a, b):
    """The d in [W(a, b), M(a, b)] where ``holds(d)``, true and then false
    as d grows, changes value: W where it never holds, M where it always
    does. 64 bisection steps leave a bracket below 1e-19."""
    lo, hi = np.maximum(a + b - 1.0, 0.0), np.minimum(a, b)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = holds(mid)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# (envelope, the extremal-family measure it inverts, whether it is the
#  upper envelope, parameters); each parameter list leaves every region
# piece of its envelope governing some of the points
CASES = (
    (cb.FootruleUpperBound, cb.f_lower, True, (-0.45, -0.3, -0.15, 0.0, 0.1, 0.2, 0.24)),
    (cb.FootruleLowerBound, cb.f_upper, False, (-0.45, -0.2, 0.0, 0.2, 0.5, 0.8, 0.95)),
    (cb.GiniUpperBound, cb.g_lower, True, (-0.9, -0.7, -0.45, -0.2, 0.0, 0.25, 0.45)),
    (cb.GiniLowerBound, cb.g_upper, False, (-0.45, -0.25, 0.0, 0.2, 0.45, 0.7, 0.9)),
)


@pytest.mark.parametrize("cls,measure,upper,ks", CASES, ids=[c[0].__name__ for c in CASES])
def test_envelopes_invert_the_extremal_measures(cls, measure, upper, ks):
    a, b = POINTS
    seen = set()
    for k in ks:
        if upper:
            expect = _switch(lambda d: measure(a, b, d) <= k, a, b)
        else:
            expect = _switch(lambda d: measure(a, b, d) < k, a, b)
        gap = np.abs(cls(k)(a, b) - expect)
        assert gap.max() <= TOL, (k, float(gap.max()), a[gap.argmax()], b[gap.argmax()])
        seen.update(np.unique(cls(k)._region_codes(a, b)).tolist())
    assert seen == set(range(len(cls.LABELS)))


# the 61-point grid and the 0.05 grid, whose nodes can differ from it by an ulp
@pytest.mark.parametrize("beta_range,lower,upper,measure_range,coarse", [
    (cb.beta_range_given_footrule, cb.FootruleLowerBound, cb.FootruleUpperBound,
     cb.FOOTRULE_RANGE, 31),
    (cb.beta_range_given_gini, cb.GiniLowerBound, cb.GiniUpperBound, cb.GINI_RANGE, 41),
], ids=["footrule", "gini"])
def test_beta_ranges_are_the_envelopes_at_the_centre(beta_range, lower, upper, measure_range,
                                                     coarse):
    for k in np.union1d(np.linspace(*measure_range, 61), np.linspace(*measure_range, coarse)):
        lo, hi = beta_range(k)
        assert abs(lo - (4.0 * lower(k)(0.5, 0.5) - 1.0)) <= TOL, k
        assert abs(hi - (4.0 * upper(k)(0.5, 0.5) - 1.0)) <= TOL, k


# Fold a node into the reference triangle as _triangle_frame does (fold 2 * r
# + t: r when a + b > 1 and the node is reflected through the centre, t when
# then a > b and it is transposed) and name the branch of Q(C, M) in
# _q_lower that holds at d = upper(k)(a, b): 1 where b >= d + 1/2, 2 where
# 2b >= 1 + d, 3 where b >= a + d, else 4. The pair fixes every nonzero label.
LABEL_TABLES = (
    (cb.FootruleUpperBound, (-0.45, -0.35, -0.2, 0.1), {
        (0, 2): "D1", (0, 3): "D2", (0, 4): "D4",
        (1, 2): "D7", (1, 3): "D6", (1, 4): "D4",
        (2, 2): "D7", (2, 3): "D5", (2, 4): "D4",
        (3, 2): "D1", (3, 3): "D3", (3, 4): "D4",
    }),
    (cb.GiniUpperBound, (-0.9, -0.75, -0.6, -0.4, -0.2, 0.2), {
        (0, 1): "O1", (0, 2): "O2", (0, 3): "O3", (0, 4): "O5",
        (1, 1): "O9", (1, 2): "O8", (1, 3): "O7", (1, 4): "O5",
        (2, 1): "O9", (2, 2): "O8", (2, 3): "O6", (2, 4): "O5",
        (3, 1): "O1", (3, 2): "O2", (3, 3): "O4", (3, 4): "O5",
    }),
)
LABEL_NODES = np.arange(201) / 200
LABEL_RNG_POINTS = np.random.default_rng(59).uniform(0.0, 1.0, (2, 20000))
LABEL_POINTS = (np.concatenate([np.repeat(LABEL_NODES, LABEL_NODES.size), LABEL_RNG_POINTS[0]]),
                np.concatenate([np.tile(LABEL_NODES, LABEL_NODES.size), LABEL_RNG_POINTS[1]]))


@pytest.mark.parametrize("cls,ks,table", LABEL_TABLES, ids=[c[0].__name__ for c in LABEL_TABLES])
def test_fold_and_branch_fix_each_label(cls, ks, table):
    a, b = LABEL_POINTS
    reflected = a + b > 1.0
    fold = 2 * reflected + np.where(reflected, b > a, a > b)
    seen = {}
    for k in ks:
        env = cls(k)
        codes = env._region_codes(a, b)
        lo, hi, d = _triangle_frame(a, b, env(a, b))
        gaps = np.stack([hi - d - 0.5, 2.0 * hi - 1.0 - d, hi - lo - d])
        branch = np.select(list(gaps >= 0.0), [1, 2, 3], 4)
        # ties: a piece breakpoint, the diagonal or the anti-diagonal
        tie = ((np.abs(gaps).min(axis=0) <= 1e-12) | (np.abs(a - b) <= 1e-12)
               | (np.abs(a + b - 1.0) <= 1e-12))
        keep = (codes != 0) & ~tie
        for f, piece, code in set(zip(fold[keep].tolist(), branch[keep].tolist(),
                                      codes[keep].tolist())):
            seen.setdefault((f, piece), set()).add(cls.LABELS[code])
    assert seen == {key: {label} for key, label in table.items()}
