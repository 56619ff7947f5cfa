import numpy as np
import pytest

import copulabounds as cb

from boundary_pairs import assert_boundary_pairs
from oracles import HALF_SHIFT_SHUFFLE

GRID = np.arange(101) / 100
U, V = GRID[:, None], GRID[None, :]


def test_lower_bound_centre_value():
    expect = 0.5 * (1.0 - np.sqrt(2.0 / 3.0))
    assert cb.footrule_lower_bound(0.0, 0.5, 0.5) == pytest.approx(expect, abs=1e-12)
    assert cb.footrule_lower_bound(0.0, 0.5, 0.5) == pytest.approx(0.091752, abs=1e-6)


def test_upper_bound_centre_value():
    assert cb.footrule_upper_bound(0.0, 0.5, 0.5) == pytest.approx(0.408248, abs=1e-6)


def test_upper_bound_at_minus_half_is_the_half_shift_shuffle():
    shuffle = cb.ShuffleOfMin(HALF_SHIFT_SHUFFLE)
    diff = np.abs(cb.footrule_upper_bound(-0.5, U, V) - shuffle(U, V))
    assert diff.max() <= 1e-12
    assert cb.footrule_upper_bound(-0.5, 0.25, 0.75) == pytest.approx(0.25, abs=1e-15)


def test_delta_region_examples():
    assert cb.delta_region(0.0, 0.5, 0.5) == 4
    assert np.all(cb.delta_region(0.3, U, V) == 0)
    # at the lowest parameter the supremum touches min(u, v) here, so no
    # piece governs the point; the half-shift shuffle confirms the value
    assert cb.delta_region(-0.5, 0.1, 0.8) == 0
    assert cb.footrule_upper_bound(-0.5, 0.1, 0.8) == pytest.approx(cb.M(0.1, 0.8), abs=1e-15)
    assert cb.delta_region(-0.5, 0.1, 0.55) == 1
    # D7 is D1 transposed, so the transpose of a D1 node on D1's edge is in D7
    assert cb.delta_region(-0.5, 0.3, 0.8) == 1
    assert cb.delta_region(-0.5, 0.8, 0.3) == 7


def test_adjacent_piece_expressions_agree_on_boundaries():
    rng = np.random.default_rng(29)
    for phi in (-0.45, -0.4, -0.35):
        p2 = 1.0 + 2.0 * phi
        s = np.sqrt(p2 / 3.0)
        b = rng.uniform(0.0, 1.0, 4000)
        rb = np.sqrt((2.0 * b - 1.0) ** 2 + p2)
        a_free = rng.uniform(0.0, 1.0, 4000)
        curves = [
            # piece 1 against piece 2 along the horizontal split
            (1, 2, a_free, np.full_like(a_free, 0.5 * (1.0 + s)), 1),
            # piece 2 against piece 4 along the left lens edge
            (2, 4, (b + 1.0 - rb) / 3.0, b, 0),
            # piece 1 against the min(u, v) frontier
            (0, 1, a_free, a_free + 0.5 * (1.0 - s), 1),
            # piece 2 against the min(u, v) frontier
            (0, 2, (2.0 * b - 1.0 + rb) / 3.0, b, 0),
            # piece 4 against the min(u, v) frontier (cap arc)
            (4, 0, np.sqrt(np.maximum(2.0 * (1.0 - phi) / 3.0 - (b - 1.0) ** 2, 0.0)), b, 0),
        ]
        assert_boundary_pairs(cb.FootruleUpperBound, phi, curves, 800)


def test_footrule_of_lower_bound_closed_form():
    assert cb.footrule_of_lower_bound(1.0) == pytest.approx(1.0, abs=1e-15)
    assert cb.footrule_of_lower_bound(-0.5) == pytest.approx(-0.5, abs=1e-15)
    assert cb.footrule_of_lower_bound(0.0) == pytest.approx(2.0 - np.sqrt(6.0), abs=1e-15)


def test_footrule_of_upper_bound_by_quadrature():
    def of_upper(phi):
        return cb.spearman_footrule(cb.FootruleUpperBound(phi))

    assert of_upper(1.0) == pytest.approx(1.0, abs=1e-9)
    assert of_upper(0.5) == pytest.approx(1.0, abs=1e-9)
    assert of_upper(-0.5) == pytest.approx(-0.5, abs=1e-9)
    # the supremum dominates every member of the family, so its extended
    # footrule sits strictly above the parameter inside the open range
    for phi in (-0.3, 0.0, 0.2):
        assert of_upper(phi) > phi


def test_envelope_measures_straddle_the_parameter():
    for phi in (-0.3, 0.0, 0.2, 0.6):
        assert cb.footrule_of_lower_bound(phi) < phi
