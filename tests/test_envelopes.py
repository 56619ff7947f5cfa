"""Properties shared by the footrule and gamma envelopes, each tested once
for both measures:

- an out-of-range parameter is rejected;
- which upper regions are live on a 601-node grid, and the centre region
  that lasts a few floats past 1/4 (footrule) and 1/2 (gamma);
- transposing a point maps each region code to its mirror;
- the bounds are ordered and lie in [W, M];
- the upper envelopes are 1-Lipschitz across their frontiers;
- the raw piece values respect the Frechet band where they are selected;
- the envelopes bound every extremal copula with the same measure value,
  and extremal copulas attain them pointwise;
- scalar calls, the module functions and the region codes agree with the
  class calls; no region reaches outside the block, and each vanishes at
  its declared parameter; values and codes are pinned by a digest;
- the declared quasi-copula intervals agree with the grid audit.

Endpoint identities, transpose and radial symmetry, inversion sharpness and
the monotone parameter sweeps are the acceptance criteria's
(`test_acceptance.py`); what belongs to one measure is in `test_footrule.py`
and `test_gini.py`, which also compares the gathered pieces of both upper
envelopes with the all-pieces form."""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import copulabounds as cb

from boundary_pairs import vanish_params
from oracles import all_pieces

NODES = np.arange(129) / 128
RNG_POINTS = np.random.default_rng(41).uniform(0.0, 1.0, (2, 20000))
POINTS = (np.concatenate([np.repeat(NODES, NODES.size), RNG_POINTS[0]]),
          np.concatenate([np.tile(NODES, NODES.size), RNG_POINTS[1]]))
GRID = np.arange(101) / 100
U, V = GRID[:, None], GRID[None, :]


@pytest.mark.parametrize("bound,k,cls,k_cls", [
    (cb.footrule_lower_bound, -0.6, cb.FootruleUpperBound, 1.2),
    (cb.gini_upper_bound, 1.1, cb.GiniLowerBound, -1.2),
], ids=["footrule", "gini"])
def test_parameter_range_enforced(bound, k, cls, k_cls):
    with pytest.raises(cb.OutOfRangeError):
        bound(k, 0.5, 0.5)
    with pytest.raises(cb.OutOfRangeError):
        cls(k_cls)


@pytest.mark.parametrize("region,present", [
    (cb.delta_region, {-0.45: {1, 2, 3, 4, 5, 6, 7}, -0.30: {2, 3, 4, 5, 6}, -0.15: {4},
                       0.30: set()}),
    (cb.omega_region, {-0.80: {1, 2, 3, 4, 5, 6, 7, 8, 9}, -0.70: {2, 3, 4, 5, 6, 7, 8},
                       -0.40: {3, 4, 5, 6, 7}, -0.25: {5}, 0.60: set()}),
], ids=["footrule", "gini"])
def test_live_regions_on_the_601_node_grid(region, present):
    t = np.arange(601) / 600
    for k, codes in present.items():
        assert set(np.unique(region(k, t[:, None], t[None, :]))) - {0} == codes, k


@pytest.mark.parametrize("region,upper,code,ks", [
    (cb.delta_region, cb.footrule_upper_bound, 4, (0.25, 0.25000000000000006)),
    (cb.omega_region, cb.gini_upper_bound, 5, (0.5, 0.5000000000000001, 0.5000000000000002)),
], ids=["footrule", "gini"])
def test_centre_region_past_its_vanishing_point(region, upper, code, ks):
    # the centre keeps D4 one float past 1/4, and O5 two floats past 1/2, by
    # rounding; the value is M there
    t = np.arange(201) / 200
    A, B = t[:, None], t[None, :]
    centre = (A == 0.5) & (B == 0.5)
    assert all(np.nextafter(k, 1.0) == up for k, up in zip(ks, ks[1:]))
    for k in ks:
        np.testing.assert_array_equal(region(k, A, B), np.where(centre, code, 0))
        assert upper(k, 0.5, 0.5) == 0.5
    assert np.all(region(np.nextafter(ks[-1], 1.0), A, B) == 0)


@pytest.mark.parametrize("region,swap,seed,ks", [
    (cb.delta_region, [0, 7, 6, 5, 4, 3, 2, 1], 53, (-0.5, -0.45, -0.35, -0.2, 0.0, 0.2)),
    (cb.omega_region, [0, 9, 8, 7, 6, 5, 4, 3, 2, 1], 47, (-0.9, -0.6, -0.35, 0.0, 0.4)),
], ids=["footrule", "gini"])
def test_transpose_index_map(region, swap, seed, ks):
    rng = np.random.default_rng(seed)
    for k in ks:
        a, b = rng.random(20000), rng.random(20000)
        assert np.array_equal(np.array(swap)[region(k, a, b)], region(k, b, a))


@pytest.mark.parametrize("lower,upper,k_range", [
    (cb.footrule_lower_bound, cb.footrule_upper_bound, (-0.5, 1.0)),
    (cb.gini_lower_bound, cb.gini_upper_bound, (-1.0, 1.0)),
], ids=["footrule", "gini"])
def test_bounds_are_ordered_and_sandwiched(lower, upper, k_range):
    for k in np.linspace(*k_range, 25):
        lo = lower(k, U, V)
        hi = upper(k, U, V)
        assert (lo - cb.W(U, V)).min() >= -1e-12
        assert (hi - lo).min() >= -1e-12
        assert (cb.M(U, V) - hi).min() >= -1e-12


@pytest.mark.parametrize("upper,seed,ks,axis", [
    (cb.footrule_upper_bound, 41, (-0.4, -0.2, 0.0, 0.2), 0),
    (cb.gini_upper_bound, 67, (-0.9, -0.5, -0.1, 0.3), 1),
], ids=["footrule", "gini"])
def test_upper_bound_lipschitz_across_frontiers(upper, seed, ks, axis):
    # a step of 1e-6 in one coordinate (u for the footrule, v for gamma)
    # moves the value by at most the step
    rng = np.random.default_rng(seed)
    for k in ks:
        point = [rng.random(20000), rng.random(20000)]
        base = upper(k, *point)
        moved = list(point)
        moved[axis] = np.clip(point[axis] + 1e-6, 0.0, 1.0)
        jump = np.abs(upper(k, *moved) - base)
        assert (jump - (moved[axis] - point[axis])).max() <= 1e-12


CLAMP_CASES = [
    pytest.param(cb.FootruleUpperBound,
                 np.concatenate([np.linspace(-0.5, 0.25, 16),
                                 np.random.default_rng(5).uniform(-0.5, 0.25, 8)]),
                 id="footrule"),
    pytest.param(cb.GiniUpperBound,
                 np.concatenate([np.linspace(-1.0, 0.5, 16)[1:],
                                 np.random.default_rng(6).uniform(-1.0, 0.5, 8)]),
                 id="gini"),
]


@pytest.mark.parametrize("cls,params", CLAMP_CASES)
def test_pieces_need_no_clamp(cls, params):
    # per point, the index of the first mask that holds (-1 for none) and
    # that piece's value before the final [W, M] clamp
    u, v = POINTS
    w, m = np.maximum(u + v - 1.0, 0.0), np.minimum(u, v)
    seen = set()
    for param in params:
        masks, values = map(np.stack, all_pieces(cls(param), u, v))
        first = np.where(masks.any(axis=0), masks.argmax(axis=0), -1)
        raw = np.take_along_axis(values, np.maximum(first, 0)[None], axis=0)[0]
        sel = first >= 0
        excess = np.maximum(w - raw, raw - m)[sel]
        assert excess.size == 0 or excess.max() <= 1e-12, (param, float(excess.max()))
        seen.update(first[sel].tolist())
    assert seen == set(range(len(cls.LABELS) - 1))


# The measure of an extremal copula is exact only up to its rounding, and
# near the bottom of its range an envelope moves like the square root of its
# parameter's distance from there: one ulp of phi at -1/2 + 6e-17 moves the
# upper footrule envelope by 2e-10. Envelopes are monotone in the parameter,
# so each bound is taken a few ulps further out instead.
K_SLACK = 1e-15
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


@pytest.mark.parametrize("of_lower,of_upper,lower,upper,lower_ks,upper_ks", [
    (*ENVELOPES[0], (-0.45, -0.2, 0.0, 0.3, 0.6, 0.9), (-0.45, -0.3, -0.1, 0.0, 0.1, 0.2)),
    (*ENVELOPES[1], (-0.45, -0.2, 0.0, 0.3, 0.6, 0.9), (-0.9, -0.6, -0.3, 0.0, 0.2, 0.4)),
], ids=["footrule", "gini"])
def test_envelopes_are_attained_pointwise(of_lower, of_upper, lower, upper, lower_ks, upper_ks):
    """Where upper(k) lies below M, the least copula taking that value at the
    point has measure exactly k; where lower(k) lies above W, the greatest
    copula taking that value there has measure exactly k."""
    u, v = POINTS
    w, m = np.maximum(u + v - 1.0, 0.0), np.minimum(u, v)
    for k in upper_ks:
        value = upper(k)(u, v)
        sel = value < m - 1e-9
        assert sel.sum() >= 100, k
        np.testing.assert_allclose(of_lower(u[sel], v[sel], value[sel]), k, rtol=0, atol=1e-12)
    for k in lower_ks:
        value = lower(k)(u, v)
        sel = value > w + 1e-9
        assert sel.sum() >= 100, k
        np.testing.assert_allclose(of_upper(u[sel], v[sel], value[sel]), k, rtol=0, atol=1e-12)


# A scalar call runs as the call on one-element arrays, so it returns the
# bits of the array call at the same point: numpy scalars square by pow(),
# which can differ from x * x in the last bit. At these points, arithmetic
# in numpy scalars moves both footrule envelopes' values (at one and two
# points, by 5.6e-17), so a scalar path that leaves the arrays fails here.
SCALAR_CASES = {
    "f-upper": cb.FootruleUpperBound(-0.45),
    "f-lower": cb.FootruleLowerBound(0.8),
    "g-upper": cb.GiniUpperBound(-0.6),
    "g-lower": cb.GiniLowerBound(0.3),
    "delta_region": functools.partial(cb.delta_region, -0.45),
    "omega_region": functools.partial(cb.omega_region, -0.6),
}


@pytest.mark.parametrize("name", SCALAR_CASES)
def test_scalar_calls_equal_array_calls(name):
    func = SCALAR_CASES[name]
    a, b = np.random.default_rng(0).random((2, 20000))
    array = func(a, b)
    scalar = [func(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert {type(x) for x in scalar} == {float if array.dtype.kind == "f" else int}
    scalar = np.array(scalar, dtype=array.dtype)
    assert scalar.tobytes() == array.tobytes(), np.flatnonzero(scalar != array)


# The module functions are the classes' own functional forms and region codes:
# names of their modules, called positionally as (k, u, v), with the bits of
# the class call on arrays and a Python float or int for scalar input.
BOUND_NAMES = {
    "footrule_lower_bound": (cb.footrule, cb.FootruleLowerBound, 0.3, "__call__"),
    "footrule_upper_bound": (cb.footrule, cb.FootruleUpperBound, -0.45, "__call__"),
    "delta_region": (cb.footrule, cb.FootruleUpperBound, -0.45, "_region_codes"),
    "gini_upper_bound": (cb.gini, cb.GiniUpperBound, -0.6, "__call__"),
    "gini_lower_bound": (cb.gini, cb.GiniLowerBound, 0.3, "__call__"),
    "omega_region": (cb.gini, cb.GiniUpperBound, -0.6, "_region_codes"),
}


@pytest.mark.parametrize("name", BOUND_NAMES)
def test_bound_names_are_the_class_calls(name):
    module, cls, k, method = BOUND_NAMES[name]
    func = vars(module)[name]
    u, v = POINTS
    expected = getattr(cls(k), method)(u, v)
    got = func(k, u, v)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    scalar = func(k, 0.3, 0.6)
    assert type(scalar) is (float if expected.dtype.kind == "f" else int)
    assert scalar == getattr(cls(k), method)(np.array([0.3]), np.array([0.6]))[0]


# Each envelope class labels its own pieces: the upper classes through the
# public region functions, the lower gamma envelope through the upper pieces
# of the reflected point at the negated parameter, the lower footrule
# envelope (one closed form) with a single "none".
REGION_CASES = (
    (cb.FootruleLowerBound, lambda k, u, v: np.zeros(u.shape, dtype=int),
     (-0.5, -0.3, 0.0, 0.6, 1.0)),
    (cb.FootruleUpperBound, cb.delta_region, (-0.5, -0.45, -0.3, 0.0, 0.2, 0.25, 0.7)),
    (cb.GiniUpperBound, cb.omega_region, (-1.0, -0.85, -0.6, -0.3, 0.0, 0.3, 0.5, 0.8)),
    (cb.GiniLowerBound, lambda k, u, v: cb.omega_region(-k, u, 1.0 - v),
     (-0.8, -0.5, -0.3, 0.0, 0.3, 0.6, 0.85, 1.0)),
)


@pytest.mark.parametrize("cls,expected,ks", REGION_CASES,
                         ids=[cls.__name__ for cls, _, _ in REGION_CASES])
def test_region_codes_live_on_the_classes(cls, expected, ks):
    u, v = POINTS
    seen = set()
    for k in ks:
        codes = cls(k)._region_codes(u, v)
        np.testing.assert_array_equal(codes, expected(k, u, v), err_msg=str(k))
        assert codes.dtype == np.int8 and codes.min() >= 0 and codes.max() < len(cls.LABELS)
        seen.update(np.unique(codes).tolist())
    assert seen == set(range(len(cls.LABELS)))


# No region reaches a row or column x with 6x(1 - x) < tau, so the block
# path (masks, codes and pieces only on the rows and columns where
# 6x(1 - x) > tau - 1e-9) must equal the full-mask form everywhere. The
# points straddle the box edge 1/2 +- r, r = sqrt(1/4 - tau/6), by
# |delta| <= 1e-7; the parameters include the floats next to -1, -1/2, 1/4
# and 1/2 that lie in each range.
BLOCK_DELTAS = np.array([-1e-7, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-7])
BLOCK_PARAMS = {
    cb.FootruleUpperBound: (np.nextafter(-0.5, 0.0), -0.45, -0.3, -0.1, 0.0, 0.15,
                            np.nextafter(0.25, 0.0), 0.25, np.nextafter(0.25, 1.0),
                            np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), -0.5),
    cb.GiniUpperBound: (np.nextafter(-1.0, 0.0), -0.9, -0.7, np.nextafter(-0.5, -1.0),
                        np.nextafter(-0.5, 0.0), -0.2, np.nextafter(0.25, 0.0),
                        np.nextafter(0.25, 1.0), 0.4, np.nextafter(0.5, 0.0),
                        np.nextafter(0.5, 1.0), -1.0),
}
BLOCK_CASES = [pytest.param(cls, k, id=f"{cls.NAME}:{float(k)!r}")
               for cls, ks in BLOCK_PARAMS.items() for k in (*ks, *vanish_params(cls, ks))]
BLOCK_RANDOM = tuple(np.random.default_rng(47).uniform(0.0, 1.0, (2, 20000)))


@pytest.mark.parametrize("cls,k", BLOCK_CASES)
def test_no_region_outside_the_block(cls, k):
    bound = cls(k)
    r = np.sqrt(max(0.25 - bound._tau / 6.0, 0.0))
    edge = np.clip(np.concatenate([0.5 - r - BLOCK_DELTAS, 0.5 + r + BLOCK_DELTAS]), 0.0, 1.0)
    t = np.concatenate([edge, np.arange(257) / 256])
    for u, v in ((t[:, None], t[None, :]), BLOCK_RANDOM):
        w, m = np.maximum(u + v - 1.0, 0.0), np.minimum(u, v)
        masks, values = all_pieces(bound, u, v)
        codes = np.select(masks, np.arange(1, len(masks) + 1), 0)
        np.testing.assert_array_equal(bound._region_codes(u, v), codes)
        # _pass is the block path of _value, also past M_FROM where _value
        # returns M without it; its values are clamped already
        got, found = bound._pass(u, v, codes=True)
        np.testing.assert_array_equal(found, codes)
        assert got.tobytes() == np.clip(np.select(masks, values, m), w, m).tobytes()
        assert bound._pass(u, v)[0].tobytes() == got.tobytes()


def test_block_index_forms():
    # sorted nodes are cut by slices; one unsorted axis (the points of a
    # sampler's bisection step) by one index array among slices; more than
    # one through np.ix_. Each form gives the codes and values of the
    # full-mask form.
    t = np.arange(257) / 256
    r = np.random.default_rng(67).random((3, 400))
    pair = np.stack([r[0], r[1]])
    shapes = (((t[:32, None], t[None, :]), (slice, slice)),
              ((pair[:, None], t[100:140, None]), (slice, slice, np.ndarray)),
              ((r[0][:, None], r[1][None, :]), (np.ndarray, np.ndarray)),
              ((r[0][:, None, None], r[1][None, :, None] + 0 * r[2][:3]), None))
    for cls, k in ((cb.GiniUpperBound, -0.6), (cb.FootruleUpperBound, -0.3)):
        bound = cls(k)
        for (u, v), form in shapes:
            ix, _, _ = bound._block(u, v)
            if form is None:
                assert all(isinstance(i, np.ndarray) for i in ix)
            else:
                assert tuple(type(i) for i in ix) == form
            w, m = np.maximum(u + v - 1.0, 0.0), np.minimum(u, v)
            masks, values = all_pieces(bound, u, v)
            codes = np.select(masks, np.arange(1, len(masks) + 1), 0)
            np.testing.assert_array_equal(bound._region_codes(u, v), codes)
            got, found = bound._pass(u, v, codes=True)
            np.testing.assert_array_equal(found, codes)
            assert got.tobytes() == np.clip(np.select(masks, values, m), w, m).tobytes()


# Each region up to the centre, the point where it shrinks away at VANISH:
# the top d of its (fold, Q(C, M) branch) cell that maximises the measure.
VANISH_POINTS = {
    cb.GiniUpperBound: ((0.25, 0.75), (1 / 3, 2 / 3), (3 / 13, 6 / 13), (7 / 13, 10 / 13),
                        (0.5, 0.5)),
    cb.FootruleUpperBound: ((1 / 3, 2 / 3), (0.2, 0.4), (0.6, 0.8), (0.5, 0.5)),
}
VANISH_CASES = [pytest.param(cls, code, point, id=cls.LABELS[code])
                for cls, points in VANISH_POINTS.items()
                for code, point in enumerate(points, 1)]
VANISH_GRID = np.arange(1025) / 1024
VANISH_RANDOM = tuple(np.random.default_rng(61).uniform(0.0, 1.0, (2, 50000)))
VANISH_STEPS = np.concatenate([np.linspace(-1e-4, 1e-4, 101), np.linspace(-1e-8, 1e-8, 101)])


@pytest.mark.parametrize("cls,code,point", VANISH_CASES)
def test_each_region_vanishes_at_its_declared_parameter(cls, code, point):
    # the all-masks form, which ignores VANISH, holds neither the region nor
    # its transpose from VANISH + 1e-9 on; it holds both on the grid 1e-3
    # before, and next to the vanishing point 1e-6 before
    codes = (code, len(cls.LABELS) - code)
    top = cls.VANISH[code - 1]
    dead = top + 1e-9
    after = [dead, np.nextafter(dead, 2.0), np.nextafter(np.nextafter(dead, 2.0), 2.0),
             *np.linspace(dead, max(cls.M_FROM, dead), 6)[1:]]
    a0, b0 = point
    frontier = [(a0 + VANISH_STEPS[:, None], b0 + VANISH_STEPS[None, :]),
                (b0 + VANISH_STEPS[:, None], a0 + VANISH_STEPS[None, :])]
    for k in after:
        bound = cls(k)
        assert all(c not in bound._live for c in codes)
        for u, v in [(VANISH_GRID[:, None], VANISH_GRID[None, :]), VANISH_RANDOM, *frontier]:
            u, v = np.clip(u, 0.0, 1.0), np.clip(v, 0.0, 1.0)
            assert not any(bound._mask(c, u, v).any() for c in codes), k
    grid = np.arange(601) / 600
    for k, (u, v) in ((top - 1e-3, (grid[:, None], grid[None, :])), (top - 1e-6, frontier[0])):
        bound = cls(k)
        assert all(c in bound._live for c in codes)
        masks = [bound._mask(c, u, v) for c in codes] + [bound._mask(c, v, u) for c in codes]
        assert masks[0].any() and masks[-1].any(), k


# Values and region codes of the four envelope classes, hashed. The
# parameters cover each measure's range on a 0.05 grid, both endpoints, the
# short-circuit boundaries and the floats just past the parameters where the
# upper pieces shrink to the centre (1/4 and 1/2); the points are four node
# grids, whose centre and edges stress the degenerate regions, and random
# points. A change of any last bit changes the digest. The lower gamma
# envelope at 0.78 and 0.97 on the 40-node grid holds two of the few points
# where the reflected envelope's own clamp changes a last bit.
PIN_PARAMS = {
    "footrule": (*np.round(np.linspace(-0.5, 1.0, 31), 10), 0.25000000000000006,
                 0.5000000000000002, np.nextafter(-0.5, 0.0), np.nextafter(0.25, 0.0)),
    "gini": (*np.round(np.linspace(-1.0, 1.0, 41), 10), 0.25000000000000006,
             0.5000000000000002, np.nextafter(-1.0, 0.0), np.nextafter(-0.5, 0.0),
             np.nextafter(0.5, 0.0), 0.78, 0.97),
}
PIN_POINTS = [(t[:, None], t[None, :])
              for t in (np.arange(n + 1) / n for n in (11, 40, 64, 97))]
PIN_POINTS.append(tuple(np.random.default_rng(43).uniform(0.0, 1.0, (2, 4000))))


def test_envelope_values_and_codes_are_pinned():
    sha = hashlib.sha256()
    for cls, kind in ((cb.FootruleLowerBound, "footrule"), (cb.FootruleUpperBound, "footrule"),
                      (cb.GiniUpperBound, "gini"), (cb.GiniLowerBound, "gini")):
        for k in PIN_PARAMS[kind]:
            bound = cls(k)
            for u, v in PIN_POINTS:
                sha.update(np.ascontiguousarray(bound(u, v)).tobytes())
                sha.update(bound._region_codes(u, v).astype(np.int64).tobytes())
    assert sha.hexdigest() == "c40aa4fb8513a554d83a3a932c0d4be558027676dae8317b6416a22571e0943c"


# Each class declares the open interval QUASI of k on which it is a proper
# quasi-copula; away from its ends the 201^2 grid audit sees the same. Near
# an end (within about 0.011) the negative mass can be below the grid's reach.
@pytest.mark.parametrize("cls", [cb.FootruleLowerBound, cb.FootruleUpperBound,
                                 cb.GiniUpperBound, cb.GiniLowerBound],
                         ids=lambda cls: cls.NAME)
def test_declared_quasi_interval_agrees_with_the_audit(cls):
    lo, hi = cls.QUASI
    ks = np.linspace(*cls.RANGE, 301)
    ks = ks[(np.abs(ks - lo) >= 0.02) & (np.abs(ks - hi) >= 0.02)]
    for k in ks.tolist():
        func = cls(k)
        assert func.is_copula == cb.check_quasicopula(func, n=200).is_two_increasing, k
    # the ends themselves are copulas, and -0.0 where an end is 0
    for k in (lo, hi, -lo, -hi):
        if k in (lo, hi):
            assert cls(k).is_copula is True, k
    if lo < hi:
        assert not cls(np.nextafter(lo, hi)).is_copula
        assert not cls(np.nextafter(hi, lo)).is_copula
