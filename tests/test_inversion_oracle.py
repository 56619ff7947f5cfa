"""Exact oracle: each envelope inverts a measure of an extremal family.

The copulas taking the value d at (a, b) have footrules filling
[f_lower(a, b, d), f_upper(a, b, d)], and both ends are nondecreasing in d;
the same holds for gamma with g_lower and g_upper. So at every point

    upper(k)(a, b) = sup{d in [W, M] : f_lower(a, b, d) <= k},
    lower(k)(a, b) = inf{d in [W, M] : f_upper(a, b, d) >= k},

and likewise for gamma. The extremal-family measures share no formula with
the region pieces D1..D7 and O1..O9, so bisecting them checks every piece,
and the beta ranges at the centre of the square, to rounding.
"""

import numpy as np
import pytest

import copulabounds as cb

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


@pytest.mark.parametrize("beta_range,lower,upper,measure_range", [
    (cb.beta_range_given_footrule, cb.FootruleLowerBound, cb.FootruleUpperBound,
     cb.FOOTRULE_RANGE),
    (cb.beta_range_given_gini, cb.GiniLowerBound, cb.GiniUpperBound, cb.GINI_RANGE),
], ids=["footrule", "gini"])
def test_beta_ranges_are_the_envelopes_at_the_centre(beta_range, lower, upper, measure_range):
    for k in np.linspace(*measure_range, 61):
        lo, hi = beta_range(k)
        assert abs(lo - (4.0 * lower(k)(0.5, 0.5) - 1.0)) <= TOL, k
        assert abs(hi - (4.0 * upper(k)(0.5, 0.5) - 1.0)) <= TOL, k
