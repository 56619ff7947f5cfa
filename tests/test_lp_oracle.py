"""An oracle for the envelopes that shares no formula with the paper.

For an n x n checkerboard copula with cell masses m, three quantities are
linear in m:

- C(u, v) = r_u^T m r_v, with the ramps r_x[a] = clip(n x - a, 0, 1);
- the footrule 6 int C(t, t) dt - 2;
- Gini's gamma 4 int [C(t, t) + C(t, 1 - t)] dt - 2.

The integrals of products of ramps have closed forms. So the extremes of
C(u, v) over the doubly stochastic m whose measure equals k are linear
programs. Every checkerboard is a copula, so an LP value can never cross the
envelopes; checkerboards are dense in the copulas, so the LP values close in
on the envelopes as n grows, about as 1/n. That includes the parameters
where the upper envelope is only a quasi-copula.
"""

import functools

import numpy as np
import pytest

import copulabounds as cb

from oracles import CheckerboardCopula

optimize = pytest.importorskip("scipy.optimize")

MEASURES = {"footrule": cb.spearman_footrule, "gamma": cb.gini_gamma}
ENVELOPES = cb.effectiveness.ENVELOPES  # "f-upper", ..., "g-lower"
SLACK = 1e-12


@functools.lru_cache(maxsize=None)
def constraints(n, measure):
    """Equality rows: n row sums, n column sums, then the measure, so that
    rows @ m.ravel() = (1/n, ..., 1/n, k + 2)."""
    a = np.arange(n)
    # int r_t[a] r_t[b] dt: both ramps are 1 past the later cell, and on that
    # cell one ramp rises while the other is 1 (a != b) or rises too (a == b)
    same = a[:, None] == a[None, :]
    diag = 1.0 - (np.maximum(a[:, None], a[None, :]) + 1.0) / n + np.where(same, 1 / 3, 1 / 2) / n
    if measure == "footrule":
        coef = 6.0 * diag
    else:
        # r_{1-t}[b] = 1 - r_t[n-1-b], and int r_t[a] dt = 1 - (a + 1/2) / n
        anti = (1.0 - (a[:, None] + 0.5) / n) - diag[:, ::-1]
        coef = 4.0 * (diag + anti)
    eye, ones = np.eye(n), np.ones(n)
    return np.vstack([np.kron(eye, ones), np.kron(ones, eye), coef.ravel()])


def extreme(n, measure, k, u, v, sense):
    """Largest (sense 1) or least (sense -1) C(u, v) over the n x n
    checkerboards whose measure equals k."""
    def ramp(x):
        return np.clip(n * x - np.arange(n), 0.0, 1.0)

    c = np.outer(ramp(u), ramp(v)).ravel()
    rhs = np.append(np.full(2 * n, 1.0 / n), k + 2.0)
    res = optimize.linprog(-sense * c, A_eq=constraints(n, measure), b_eq=rhs,
                           bounds=(0.0, None), method="highs")
    assert res.status == 0, res.message
    return float(c @ res.x)


@pytest.mark.parametrize("measure", list(MEASURES))
def test_linear_rows_are_the_measures(measure):
    n = 16
    rows = constraints(n, measure)
    for seed in range(3):
        board = CheckerboardCopula.random(n, seed)
        m = rows @ board.masses.ravel()
        np.testing.assert_allclose(m[:-1], 1.0 / n, atol=1e-12)
        # Simpson on 2048 panels is exact on the piecewise-quadratic diagonals
        assert m[-1] - 2.0 == pytest.approx(MEASURES[measure](board), abs=1e-12)


@pytest.mark.parametrize("measure,quasi,k_range", [
    ("footrule", (-0.45, -0.3), (-0.5, 0.9)),
    ("gamma", (-0.9, -0.6), (-0.95, 0.95)),
])
def test_lp_never_crosses_the_envelopes(measure, quasi, k_range):
    # the k range stays inside what 16 x 16 checkerboards can reach
    rng = np.random.default_rng(11)
    upper, lower = (ENVELOPES[f"{measure[0]}-{side}"] for side in ("upper", "lower"))
    for k in (*quasi, *rng.uniform(*k_range, 18)):
        u, v = rng.uniform(0.05, 0.95, 2)
        assert extreme(16, measure, k, u, v, 1) <= upper(k)(u, v) + SLACK, (k, u, v)
        assert extreme(16, measure, k, u, v, -1) >= lower(k)(u, v) - SLACK, (k, u, v)


# (k, u, v) on the edges of the 16 x 16 cells, where the LP lag is small, so
# that a piece shifted down by little more than that lag crosses the LP
@pytest.mark.parametrize("bound,points", [
    ("f-upper", ((-0.45, 0.3125, 0.6875), (-0.3, 0.3125, 0.625),      # D1, D2
                 (-0.3, 0.375, 0.6875), (-0.3, 0.25, 0.3125))),        # D3, D4
    ("f-lower", ((0.5, 0.125, 0.875), (0.5, 0.5625, 0.8125), (0.5, 0.5, 0.5))),
    ("g-upper", ((-0.9, 0.4375, 0.9375), (-0.6, 0.375, 0.75),          # O1, O2
                 (-0.6, 0.125, 0.25), (-0.6, 0.75, 0.875),             # O3, O4
                 (-0.6, 0.875, 0.875))),                               # O5
    ("g-lower", ((0.4, 0.1875, 0.875), (0.4, 0.1875, 0.625), (0.4, 0.375, 0.8125))),
])
def test_lp_closes_in_on_the_envelopes(bound, points):
    sense = 1 if bound.endswith("upper") else -1
    for k, u, v in points:
        env = ENVELOPES[bound](k)
        gap16, gap32 = (sense * (env(u, v) - extreme(n, env.MEASURE, k, u, v, sense))
                        for n in (16, 32))
        assert -SLACK <= gap32 < gap16, (k, u, v, gap16, gap32)
        assert gap32 < 0.02, (k, u, v, gap32)


@pytest.mark.parametrize("measure,range_given,ks", [
    ("footrule", cb.beta_range_given_footrule, (-0.45, -0.2, 0.0, 0.3, 0.6)),
    ("gamma", cb.beta_range_given_gini, (-0.9, -0.5, 0.0, 0.3, 0.6)),
])
def test_lp_stays_inside_the_beta_regions(measure, range_given, ks):
    for k in ks:
        lo, hi = range_given(k)
        gaps = []
        for n in (16, 32):
            beta_lo = 4.0 * extreme(n, measure, k, 0.5, 0.5, -1) - 1.0
            beta_hi = 4.0 * extreme(n, measure, k, 0.5, 0.5, 1) - 1.0
            assert lo - SLACK <= beta_lo and beta_hi <= hi + SLACK, (k, n)
            gaps.append(np.array([beta_lo - lo, hi - beta_hi]))
        assert np.all(gaps[1] <= gaps[0]), (k, gaps)
