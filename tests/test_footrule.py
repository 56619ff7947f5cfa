import numpy as np
import pytest

import copulabounds as cb

from boundary_pairs import assert_boundary_pairs
from oracles import HALF_SHIFT_SHUFFLE, h_volume

GRID = np.arange(101) / 100
U, V = GRID[:, None], GRID[None, :]


def test_parameter_range_enforced():
    with pytest.raises(cb.OutOfRangeError):
        cb.footrule_lower_bound(-0.6, 0.5, 0.5)
    with pytest.raises(cb.OutOfRangeError):
        cb.FootruleUpperBound(1.2)


def test_lower_bound_centre_value():
    expect = 0.5 * (1.0 - np.sqrt(2.0 / 3.0))
    assert cb.footrule_lower_bound(0.0, 0.5, 0.5) == pytest.approx(expect, abs=1e-12)
    assert cb.footrule_lower_bound(0.0, 0.5, 0.5) == pytest.approx(0.091752, abs=1e-6)


def test_lower_bound_endpoints_exact():
    assert np.array_equal(cb.footrule_lower_bound(-0.5, U, V), cb.W(U, V))
    assert np.array_equal(cb.footrule_lower_bound(1.0, U, V), cb.M(U, V))


def test_upper_bound_centre_value_and_cap():
    assert cb.footrule_upper_bound(0.0, 0.5, 0.5) == pytest.approx(0.408248, abs=1e-6)
    for phi in (0.25, 0.5, 0.75, 1.0):
        assert np.array_equal(cb.footrule_upper_bound(phi, U, V), cb.M(U, V))


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


def test_delta_region_dynamics():
    t = np.arange(601) / 600
    A, B = t[:, None], t[None, :]

    def present(phi):
        return set(np.unique(cb.delta_region(phi, A, B))) - {0}

    assert present(-0.45) == {1, 2, 3, 4, 5, 6, 7}
    assert present(-0.30) == {2, 3, 4, 5, 6}
    assert present(-0.15) == {4}
    assert present(0.30) == set()


def test_delta_region_past_the_quarter():
    # the centre keeps D4 one float past 1/4 by rounding; the value is M there
    t = np.arange(201) / 200
    A, B = t[:, None], t[None, :]
    centre = (A == 0.5) & (B == 0.5)
    phi = np.nextafter(0.25, 1.0)
    assert phi == 0.25000000000000006
    for k in (0.25, phi):
        np.testing.assert_array_equal(cb.delta_region(k, A, B), np.where(centre, 4, 0))
        assert cb.footrule_upper_bound(k, 0.5, 0.5) == 0.5
    assert np.all(cb.delta_region(np.nextafter(phi, 1.0), A, B) == 0)


def test_delta_transpose_index_map():
    rng = np.random.default_rng(53)
    swap = np.array([0, 7, 6, 5, 4, 3, 2, 1])
    for phi in (-0.5, -0.45, -0.35, -0.2, 0.0, 0.2):
        a, b = rng.random(20000), rng.random(20000)
        assert np.array_equal(swap[cb.delta_region(phi, a, b)], cb.delta_region(phi, b, a))


def test_bounds_are_ordered_and_sandwiched():
    for phi in np.linspace(-0.5, 1.0, 25):
        lo = cb.footrule_lower_bound(phi, U, V)
        hi = cb.footrule_upper_bound(phi, U, V)
        assert (lo - cb.W(U, V)).min() >= -1e-12
        assert (hi - lo).min() >= -1e-12
        assert (cb.M(U, V) - hi).min() >= -1e-12


def test_bounds_symmetry_and_radial_symmetry():
    rng = np.random.default_rng(19)
    a, b = rng.random(5000), rng.random(5000)
    for phi in (-0.4, -0.1, 0.12, 0.6):
        for fn in (cb.footrule_lower_bound, cb.footrule_upper_bound):
            assert np.abs(fn(phi, a, b) - fn(phi, b, a)).max() <= 1e-12
            radial = a + b - 1.0 + fn(phi, 1.0 - a, 1.0 - b)
            assert np.abs(fn(phi, a, b) - radial).max() <= 1e-12


def test_bounds_monotone_in_parameter():
    prev_lo = prev_hi = None
    for phi in np.linspace(-0.5, 1.0, 25):
        lo = cb.footrule_lower_bound(phi, U, V)
        hi = cb.footrule_upper_bound(phi, U, V)
        if prev_lo is not None:
            assert (lo - prev_lo).min() >= -1e-12
            assert (hi - prev_hi).min() >= -1e-12
        prev_lo, prev_hi = lo, hi


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


def test_upper_bound_lipschitz_across_frontiers():
    rng = np.random.default_rng(41)
    for phi in (-0.4, -0.2, 0.0, 0.2):
        a, b = rng.random(20000), rng.random(20000)
        base = cb.footrule_upper_bound(phi, a, b)
        a2 = np.clip(a + 1e-6, 0.0, 1.0)
        jump = np.abs(cb.footrule_upper_bound(phi, a2, b) - base)
        assert (jump - (a2 - a)).max() <= 1e-12


def test_footrule_of_lower_bound_closed_form():
    assert cb.footrule_of_lower_bound(1.0) == pytest.approx(1.0, abs=1e-15)
    assert cb.footrule_of_lower_bound(-0.5) == pytest.approx(-0.5, abs=1e-15)
    assert cb.footrule_of_lower_bound(0.0) == pytest.approx(2.0 - np.sqrt(6.0), abs=1e-15)
    q = cb.QuadratureConfig(4096)
    for phi in (-0.3, 0.0, 0.4, 0.8):
        quadrature = cb.spearman_footrule(cb.FootruleLowerBound(phi), q)
        assert cb.footrule_of_lower_bound(phi) == pytest.approx(quadrature, abs=1e-6)


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


def test_two_increasing_dichotomy():
    for phi in (-0.25, 0.0, 0.5):
        report = cb.check_quasicopula(cb.FootruleLowerBound(phi), n=120, tol=1e-9)
        assert report.worst_volume >= -1e-12
    for phi in (-0.25, 0.0, 0.2):
        func = cb.FootruleUpperBound(phi)
        report = cb.check_quasicopula(func, n=120, tol=1e-9)
        assert report.is_quasicopula and not report.is_two_increasing
        # the governing piece has a negative mixed derivative at the centre,
        # so a small centred rectangle already carries negative mass
        centre = h_volume(func, cb.UnitPoint(0.495, 0.495), cb.UnitPoint(0.505, 0.505))
        assert centre < 0.0


def test_inversion_sharpness_sample():
    rng = np.random.default_rng(43)
    for phi in rng.uniform(-0.5, 0.25, 20):
        a, b = rng.random(400), rng.random(400)
        hi = cb.footrule_upper_bound(phi, a, b)
        mask = hi < np.minimum(a, b) - 1e-9
        if mask.any():
            back = cb.f_lower(a[mask], b[mask], hi[mask])
            assert np.abs(back - phi).max() <= 1e-9
