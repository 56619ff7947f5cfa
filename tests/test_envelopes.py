"""Properties shared by the footrule and gamma envelopes: the raw piece
values respect the Frechet band where they are selected, and the envelopes
bound every extremal copula with the same measure value."""

import numpy as np
from hypothesis import given, settings, strategies as st

import copulabounds as cb
from copulabounds.footrule import _delta_pieces
from copulabounds.gini import _omega_pieces

NODES = np.arange(129) / 128
RNG_POINTS = np.random.default_rng(41).uniform(0.0, 1.0, (2, 20000))
POINTS = (np.concatenate([np.repeat(NODES, NODES.size), RNG_POINTS[0]]),
          np.concatenate([np.tile(NODES, NODES.size), RNG_POINTS[1]]))


def _selected_raw_values(pieces, param):
    """Per point, the index of the first mask that holds (-1 for none) and
    that piece's value before the final [W, M] clamp."""
    u, v = POINTS
    masks, values = pieces(param, u, v)
    masks, values = np.stack(masks), np.stack(values)
    first = np.where(masks.any(axis=0), masks.argmax(axis=0), -1)
    raw = np.take_along_axis(values, np.maximum(first, 0)[None], axis=0)[0]
    return first, raw


def _assert_clamp_honest(pieces, params, n_pieces):
    u, v = POINTS
    w, m = np.maximum(u + v - 1.0, 0.0), np.minimum(u, v)
    seen = set()
    for param in params:
        first, raw = _selected_raw_values(pieces, param)
        sel = first >= 0
        excess = np.maximum(w - raw, raw - m)[sel]
        assert excess.size == 0 or excess.max() <= 1e-12, (param, float(excess.max()))
        seen.update(first[sel].tolist())
    assert seen == set(range(n_pieces))


def test_delta_pieces_need_no_clamp():
    params = np.concatenate([np.linspace(-0.5, 0.25, 16),
                             np.random.default_rng(5).uniform(-0.5, 0.25, 8)])
    _assert_clamp_honest(_delta_pieces, params, 7)


def test_omega_pieces_need_no_clamp():
    params = np.concatenate([np.linspace(-1.0, 0.5, 16)[1:],
                             np.random.default_rng(6).uniform(-1.0, 0.5, 8)])
    _assert_clamp_honest(_omega_pieces, params, 9)


# The measure of an extremal copula is exact only up to its rounding, and
# near the bottom of its range an envelope moves like the square root of its
# parameter's distance from there: one ulp of phi at -1/2 + 6e-17 moves the
# upper footrule envelope by 2e-10. Envelopes are monotone in the parameter,
# so each bound is taken a few ulps further out instead.
K_SLACK = 1e-15
GRID = np.arange(101) / 100
U, V = GRID[:, None], GRID[None, :]
ENVELOPES = (
    (cb.f_lower, cb.f_upper, cb.FootruleLowerBound, cb.FootruleUpperBound),
    (cb.g_lower, cb.g_upper, cb.GiniLowerBound, cb.GiniUpperBound),
)


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.0, 1.0),
       st.sampled_from(["lower", "upper"]))
@settings(max_examples=200, deadline=None)
def test_extremal_copulas_lie_between_the_envelopes(a, b, frac, kind):
    spec = cb.ExtremalSpec(a, b, frac * min(a, b, 1 - a, 1 - b), kind)
    copula = cb.ExtremalCopula(spec)(U, V)
    for of_lower, of_upper, lower, upper in ENVELOPES:
        k = (of_lower if kind == "lower" else of_upper)(a, b, spec.anchor_value)
        assert np.all(lower(k - K_SLACK)(U, V) <= copula + 1e-12), (kind, k)
        assert np.all(copula <= upper(k + K_SLACK)(U, V) + 1e-12), (kind, k)
