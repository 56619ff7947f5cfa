import numpy as np
import pytest

import copulabounds as cb
from copulabounds.core import DERIV_STEP, PROBE_LEVELS

from boundary_pairs import assert_boundary_pairs, vanish_params
from oracles import all_pieces

GRID = np.arange(101) / 100
U, V = GRID[:, None], GRID[None, :]


def test_centre_values():
    assert cb.gini_upper_bound(0.0, 0.5, 0.5) == pytest.approx(0.408248, abs=1e-6)
    assert cb.gini_lower_bound(0.0, 0.5, 0.5) == pytest.approx(0.091752, abs=1e-6)


def test_omega_region_examples():
    assert cb.omega_region(0.0, 0.5, 0.5) == 5
    assert np.all(cb.omega_region(0.75, U, V) == 0)
    # at the degenerate parameter the centre sits on several collapsed piece
    # closures at once; dispatch picks the first and the piece values agree
    code = cb.omega_region(-1.0, 0.5, 0.5)
    assert code != 0
    masks, values = all_pieces(cb.GiniUpperBound(-1.0), np.float64(0.5), np.float64(0.5))
    selected = [float(values[k]) for k in range(9) if masks[k]]
    assert 5 in [k + 1 for k in range(9) if masks[k]]
    assert np.ptp(selected) <= 1e-12


def _upper_reference(cls, k, u, v):
    """The all-pieces form: every piece on every node, the first mask wins."""
    w, m = np.maximum(u + v - 1.0, 0.0), np.minimum(u, v)
    return np.clip(np.select(*all_pieces(cls(k), u, v), m), w, m)


def _lower_reference(k, u, v):
    """GiniLowerBound(-k) as the reflection of the all-pieces upper form."""
    w, m = np.maximum(u + v - 1.0, 0.0), np.minimum(u, v)
    return np.clip(u - _upper_reference(cb.GiniUpperBound, k, u, 1.0 - v), w, m)


def _caller_shapes():
    rng = np.random.default_rng(83)
    count = 500
    base = np.minimum(rng.random(count), 1.0 - DERIV_STEP)
    pair = np.stack([base + DERIV_STEP, base])
    t = np.arange(513) / 512
    empty = np.empty(0)
    return [
        (pair[:, None], (np.arange(1, PROBE_LEVELS + 1) / PROBE_LEVELS)[:8, None]),  # probe block
        (pair, rng.random(count)),  # bisection step
        (t[:32, None], t[None, :]),  # effectiveness strip
        (t[:, None], t[None, :]),  # grid and audit nodes
        (empty, empty),
        (empty[:, None], t[None, :]),
    ]


def _bits(x):
    return np.asarray(x).tobytes()


# the last four gamma parameters leave only a few pieces, or none, on these
# nodes; the footrule ones run up to the floats next to its ends; then the
# parameters around those where a region vanishes
GATHERED_GAMMA = (-0.9, -0.6, -0.3, 0.2, np.nextafter(-1.0, 0.0), -0.05, 0.49,
                  np.nextafter(0.5, 0.0))
GATHERED_FOOTRULE = (-0.45, -0.3, -0.15, 0.0, 0.2, -0.5, np.nextafter(-0.5, 0.0),
                     np.nextafter(0.25, 0.0))
GATHERED_CASES = (
    [pytest.param(cb.GiniUpperBound, k, id=str(k))
     for k in GATHERED_GAMMA + vanish_params(cb.GiniUpperBound, GATHERED_GAMMA)]
    + [pytest.param(cb.FootruleUpperBound, k, id=f"f-upper:{k}")
       for k in GATHERED_FOOTRULE + vanish_params(cb.FootruleUpperBound, GATHERED_FOOTRULE)])


@pytest.mark.parametrize("cls,k", GATHERED_CASES)
def test_gathered_pieces_match_the_all_pieces_form(cls, k):
    cases = [(cls(k), lambda u, v: _upper_reference(cls, k, u, v))]
    # from -1/2 down the lower envelope is W by its short circuit, which can
    # differ from the reflected form u - min(u, 1 - v) by an ulp
    if cls is cb.GiniUpperBound and -k > cb.GiniLowerBound.W_UP_TO:
        cases.append((cb.GiniLowerBound(-k), lambda u, v: _lower_reference(k, u, v)))
    for u, v in _caller_shapes():
        for func, reference in cases:
            got, ref = func(u, v), reference(u, v)
            assert got.shape == ref.shape and _bits(got) == _bits(ref)
    # numpy scalars square by pow(), which can differ from x * x in the last
    # bit; a 0-d call runs as the one-element array call, so the reference is
    # computed on those
    for a, b in np.random.default_rng(89).random((40, 2)).tolist() + [[0.5, 0.5]]:
        for func, reference in cases:
            got = func(np.asarray(a), np.asarray(b))
            assert _bits(got) == _bits(reference(np.array([a]), np.array([b])))


def test_gathered_pieces_cover_every_code():
    for cls, ks in ((cb.GiniUpperBound, (-0.9, 0.49)), (cb.FootruleUpperBound, (-0.45, 0.2))):
        seen = set()
        for k in ks:
            for u, v in _caller_shapes():
                seen.update(np.unique(cls(k)._region_codes(u, v)).tolist())
        assert seen == set(range(len(cls.LABELS))), cls.__name__


def test_reflection_forms_agree():
    rng = np.random.default_rng(59)
    a, b = rng.random(5000), rng.random(5000)
    for g in (-0.7, -0.2, 0.0, 0.3):
        first = a - cb.gini_upper_bound(-g, a, 1.0 - b)
        second = b - cb.gini_upper_bound(-g, 1.0 - a, b)
        assert np.abs(first - second).max() <= 1e-12


def test_adjacent_piece_expressions_agree_on_boundaries():
    rng = np.random.default_rng(61)
    for gamma in (-0.95, -0.85, -0.8):
        t = 1.0 + gamma
        a = rng.uniform(1e-3, 0.5 - 1e-3, 4000)
        sa = np.sqrt((2.0 * a - 1.0) ** 2 + 3.0 * t)
        b = rng.uniform(1e-3, 1.0, 4000)
        qb = np.sqrt(9.0 * (2.0 * b - 1.0) ** 2 + 11.0 * t)
        with np.errstate(divide="ignore"):
            o12 = 0.5 * (1.0 + t / (1.0 - 2.0 * a))
            o1m = 1.0 - t / (4.0 * a)
            o3m = (3.0 * a + 6.0 - t / a) / 8.0
        curves = [
            # piece 1 against piece 2 along the reciprocal split
            (2, 1, a, o12, 1),
            # piece 2 against piece 3 along the sqrt split
            (3, 2, a, (2.0 * a + 2.0 + sa) / 6.0, 1),
            # piece 3 against piece 5 along the left lens edge
            (3, 5, (3.0 + 5.0 * b - qb) / 11.0, b, 0),
            # piece 1 against the min(u, v) frontier
            (1, 0, a, o1m, 1),
            # piece 3 against the min(u, v) frontier
            (3, 0, a, o3m, 1),
            # piece 5 against the min(u, v) frontier (cap arc)
            (5, 0, a, -2.0 * a + np.sqrt(np.maximum(3.0 * a * (a + 2.0) - t, 0.0)), 0),
            # piece 2 against the min(u, v) frontier (quadratic edge); points
            # where the root does not exist are dropped by the nudge filter
            (2, 0, a, 0.5 * (1.0 + 3.0 * a - np.sqrt(np.maximum(5.0 * a * a - 2.0 * a + t, 0.0))), 1),
        ]
        assert_boundary_pairs(cb.GiniUpperBound, gamma, curves, 800)


def test_gini_of_bounds():
    def of_bound(cls, g):
        return cb.gini_gamma(cls(g))

    assert of_bound(cb.GiniUpperBound, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert of_bound(cb.GiniUpperBound, -1.0) == pytest.approx(-1.0, abs=1e-9)
    assert of_bound(cb.GiniUpperBound, 0.0) > 0.0
    for g in (-0.6, -0.2, 0.2, 0.45):
        assert of_bound(cb.GiniUpperBound, g) > g
        assert of_bound(cb.GiniLowerBound, g) < g


def test_two_increasing_dichotomy():
    for g in (0.0, 0.25, 0.49):
        assert cb.check_quasicopula(cb.GiniUpperBound(g), n=120, tol=1e-9).worst_volume >= -1e-12
    for g in (-0.49, -0.25, 0.0):
        assert cb.check_quasicopula(cb.GiniLowerBound(g), n=120, tol=1e-9).worst_volume >= -1e-12
    for g in (-0.75, -0.5, -0.25):
        report = cb.check_quasicopula(cb.GiniUpperBound(g), n=200, tol=1e-9)
        assert report.is_quasicopula and not report.is_two_increasing
    for g in (0.25, 0.5, 0.75):
        report = cb.check_quasicopula(cb.GiniLowerBound(g), n=200, tol=1e-9)
        assert report.is_quasicopula and not report.is_two_increasing


def test_negative_mass_sits_near_the_collapsed_corner():
    # locate the flagged rectangle close to the corner where the mixed
    # second derivative of the governing piece turns negative
    g = -0.5
    report = cb.check_quasicopula(cb.GiniUpperBound(g), n=200, tol=1e-9)
    corner = 0.5 * (1.0 - np.sqrt(3.0) / 3.0 * np.sqrt(1.0 - 2.0 * g))
    lo, hi = report.worst_rectangle
    dist = np.hypot(lo.u - corner, lo.v - corner)
    mirrored = np.hypot(hi.u - (1 - corner), hi.v - (1 - corner))
    assert min(dist, mirrored) <= 0.25
