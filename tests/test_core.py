import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import copulabounds as cb
from copulabounds import cli, core

from oracles import (HALF_SHIFT_SHUFFLE, BadRectangleError, CheckerboardCopula, GridFunction,
                     TransformedFunction, h_volume)

GRID = np.arange(81) / 80
U, V = GRID[:, None], GRID[None, :]

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# points and basic evaluators
# ---------------------------------------------------------------------------

def test_unit_point_clamps_and_rejects():
    p = cb.UnitPoint(1.0 + 1e-13, -1e-13)
    assert p.u == 1.0 and p.v == 0.0
    with pytest.raises(ValueError):
        cb.UnitPoint(1.5, 0.2)
    with pytest.raises(ValueError):
        cb.UnitPoint(0.2, -0.1)


def test_frechet_and_product_values():
    assert cb.W(0.3, 0.4) == 0.0
    assert cb.W(0.7, 0.8) == pytest.approx(0.5, abs=1e-15)
    assert cb.W(1.0, 0.25) == pytest.approx(0.25, abs=1e-15)
    assert cb.M(0.3, 0.4) == 0.3
    assert cb.M(0.5, 0.5) == 0.5
    assert cb.M(0.0, 0.9) == 0.0
    assert cb.PI(0.5, 0.5) == 0.25
    assert cb.PI(1.0, 0.3) == 0.3
    assert cb.PI(0.2, 0.4) == pytest.approx(0.08, abs=1e-15)


def test_base_function_has_no_value_and_reprs_carry_the_label():
    with pytest.raises(NotImplementedError):
        cb.BivariateFunction()(0.5, 0.5)
    assert repr(cb.GiniUpperBound(-0.5)) == "<GiniUpperBound g-upper:-0.5>"


def test_evaluators_reject_far_outside_inputs():
    with pytest.raises(ValueError):
        cb.M(1.2, 0.5)
    with pytest.raises(ValueError):
        cb.M(np.nan, 0.5)
    with pytest.raises(ValueError):
        cb.footrule_upper_bound(0.0, np.nan, 0.5)


def test_unit_coordinates_in_range_are_not_copied():
    x = np.array([-0.0, 0.25, 1.0])
    got = core._as_unit(x, "u")
    assert got is x and np.signbit(got[0])
    # drift within UNIT_SLACK is clamped into a new array
    drift = np.array([-1e-13, 0.5, 1.0 + 1e-13])
    got = core._as_unit(drift, "u")
    assert got is not drift and got.tolist() == [0.0, 0.5, 1.0]
    assert drift.tolist() == [-1e-13, 0.5, 1.0 + 1e-13]
    for bad, shown in (([0.2, np.nan], "[nan, nan]"), ([0.2, 1.5], "[0.2, 1.5]"),
                       ([-0.1, 0.5], "[-0.1, 0.5]"), ([np.inf, 0.5], "[0.5, inf]")):
        with pytest.raises(ValueError) as exc:
            core._as_unit(np.array(bad), "u")
        assert str(exc.value) == f"u outside the unit interval: range {shown}"


ALIAS_FUNCS = (cb.W, cb.M, cb.PI,
               core.ExtremalCopula(core.ExtremalSpec(0.3, 0.6, 0.1, "lower")),
               core.ShuffleOfMin(HALF_SHIFT_SHUFFLE),
               cb.FootruleLowerBound(0.1), cb.FootruleUpperBound(-0.3),
               cb.GiniUpperBound(-0.6), cb.GiniUpperBound(0.6), cb.GiniLowerBound(0.3))


@pytest.mark.parametrize("func", ALIAS_FUNCS, ids=lambda f: f.label)
def test_evaluators_leave_their_coordinates_alone(func):
    # coordinates in [0, 1] reach the evaluator uncopied, so no evaluator may
    # write into them or hand them back as its result
    t = np.concatenate([[-0.0], GRID])
    flat = np.random.default_rng(29).random((2, 500))
    for u, v in ((t[:, None], t[None, :]), (flat[0], flat[1]), (t, t)):
        before = u.tobytes(), v.tobytes()
        out = func(u, v)
        assert out is not u and out is not v
        assert not np.shares_memory(out, u) and not np.shares_memory(out, v)
        assert (u.tobytes(), v.tobytes()) == before


@given(unit_floats, unit_floats)
@settings(max_examples=200)
def test_frechet_envelope_of_builtins(u, v):
    for f in (cb.PI, cb.W, cb.M):
        assert cb.W(u, v) - 1e-12 <= f(u, v) <= cb.M(u, v) + 1e-12


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_survival_of_w_is_w():
    hat = TransformedFunction(cb.W, "survival")
    assert np.abs(hat(U, V) - cb.W(U, V)).max() <= 1e-12


def test_sigma1_of_m_is_w():
    refl = TransformedFunction(cb.M, "sigma1")
    assert refl(0.3, 0.4) == pytest.approx(0.0, abs=1e-15)
    assert np.abs(refl(U, V) - cb.W(U, V)).max() <= 1e-12


def test_transform_rejects_unknown_kind():
    with pytest.raises(ValueError):
        TransformedFunction(cb.M, "rotate")


# ---------------------------------------------------------------------------
# extremal copulas
# ---------------------------------------------------------------------------

def test_extremal_examples():
    lo = cb.ExtremalCopula(cb.ExtremalSpec(0.3, 0.6, 0.0, "lower"))
    assert lo(0.5, 0.7) == pytest.approx(0.2, abs=1e-15)
    lo = cb.ExtremalCopula(cb.ExtremalSpec(0.3, 0.6, 0.1, "lower"))
    # min(0.1, 0.3, 0.2, 0.4) = 0.1, then W(0.5, 0.7) = 0.2 wins
    assert lo(0.5, 0.7) == pytest.approx(0.2, abs=1e-15)
    up = cb.ExtremalCopula(cb.ExtremalSpec(0.5, 0.5, 0.0, "upper"))
    assert up(0.5, 0.5) == 0.5


def test_extremal_spec_validation():
    with pytest.raises(cb.InvalidSpecError):
        cb.ExtremalSpec(0.3, 0.6, 0.35, "lower")
    with pytest.raises(cb.InvalidSpecError):
        cb.ExtremalSpec(0.0, 0.5, 0.0, "lower")
    with pytest.raises(cb.InvalidSpecError):
        cb.ExtremalSpec(0.5, 1.0, 0.0, "upper")
    with pytest.raises(cb.InvalidSpecError):
        cb.ExtremalSpec(0.5, 0.5, 0.1, "sideways")
    with pytest.raises(cb.InvalidSpecError):
        cb.ExtremalSpec(0.3, 0.5, np.nan, "lower")


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.0, 1.0))
@settings(max_examples=150)
def test_extremal_anchor_property(a, b, frac):
    c = frac * min(a, b, 1 - a, 1 - b)
    for kind in ("lower", "upper"):
        spec = cb.ExtremalSpec(a, b, c, kind)
        assert cb.ExtremalCopula(spec)(a, b) == pytest.approx(spec.anchor_value, abs=1e-13)


def test_extremal_lower_below_upper_when_values_ordered():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.uniform(0.05, 0.95, 2)
        cmax = min(a, b, 1 - a, 1 - b)
        c1, c2 = rng.uniform(0, cmax, 2)
        lo = cb.ExtremalSpec(a, b, c1, "lower")
        up = cb.ExtremalSpec(a, b, c2, "upper")
        if lo.anchor_value <= up.anchor_value:
            gap = (cb.ExtremalCopula(up)(U, V) - cb.ExtremalCopula(lo)(U, V)).min()
            assert gap >= -1e-12


def test_extremal_copulas_are_two_increasing():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = rng.uniform(0.05, 0.95, 2)
        c = rng.uniform(0, min(a, b, 1 - a, 1 - b))
        kind = "lower" if rng.random() < 0.5 else "upper"
        ev = cb.ExtremalCopula(cb.ExtremalSpec(a, b, c, kind))
        report = cb.check_quasicopula(ev, n=60, tol=1e-9)
        assert report.is_quasicopula and report.is_two_increasing


def test_extremal_matches_its_shuffle_form():
    rng = np.random.default_rng(6)
    for _ in range(25):
        a, b = rng.uniform(0.05, 0.95, 2)
        c = rng.uniform(0, min(a, b, 1 - a, 1 - b))
        for kind in ("lower", "upper"):
            ev = cb.ExtremalCopula(cb.ExtremalSpec(a, b, c, kind))
            sh = cb.ShuffleOfMin(ev.as_shuffle())
            assert np.abs(ev(U, V) - sh(U, V)).max() <= 1e-12


# ---------------------------------------------------------------------------
# rectangle mass
# ---------------------------------------------------------------------------

def test_h_volume_values():
    assert h_volume(cb.PI, cb.UnitPoint(0, 0), cb.UnitPoint(1, 1)) == pytest.approx(1.0, abs=1e-15)
    assert h_volume(cb.M, cb.UnitPoint(0, 0.5), cb.UnitPoint(0.5, 1)) == pytest.approx(0.0, abs=1e-15)
    # corner evaluation: W(.75,.75)=0.5, the three others vanish
    assert h_volume(cb.W, cb.UnitPoint(0.25, 0.25), cb.UnitPoint(0.75, 0.75)) == pytest.approx(0.5, abs=1e-15)


def test_h_volume_rejects_bad_rectangle():
    with pytest.raises(BadRectangleError):
        h_volume(cb.PI, cb.UnitPoint(0.7, 0.2), cb.UnitPoint(0.3, 0.9))


def test_total_mass_is_one_for_builtin_copulas():
    lo, hi = cb.UnitPoint(0, 0), cb.UnitPoint(1, 1)
    funcs = [cb.W, cb.M, cb.PI,
             cb.ExtremalCopula(cb.ExtremalSpec(0.3, 0.6, 0.1, "lower")),
             cb.ShuffleOfMin(HALF_SHIFT_SHUFFLE),
             CheckerboardCopula.random(12, 1),
             cb.FootruleLowerBound(0.2),
             cb.GiniUpperBound(0.3),
             cb.GiniLowerBound(-0.3)]
    for f in funcs:
        assert h_volume(f, lo, hi) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# axiom audits
# ---------------------------------------------------------------------------

def test_check_quasicopula_accepts_w():
    report = cb.check_quasicopula(cb.W, n=100, tol=1e-9)
    assert report.is_quasicopula and report.is_two_increasing
    assert report.worst_volume >= -1e-12
    assert report.margin_violation <= 1e-12


def test_check_quasicopula_flags_upper_footrule_envelope():
    report = cb.check_quasicopula(cb.FootruleUpperBound(0.0), n=200, tol=1e-9)
    assert report.is_quasicopula
    assert not report.is_two_increasing
    # the located rectangle really carries the reported negative mass
    lo, hi = report.worst_rectangle
    assert h_volume(cb.FootruleUpperBound(0.0), lo, hi) == pytest.approx(report.worst_volume, abs=1e-15)


class _BrokenMargins(cb.BivariateFunction):
    label = "broken"

    def _value(self, u, v):
        return np.sqrt(u * v)


def test_check_quasicopula_flags_margin_and_lipschitz_violations():
    report = cb.check_quasicopula(_BrokenMargins(), n=50, tol=1e-9)
    assert not report.is_quasicopula
    assert report.margin_violation > 0.1
    assert report.lipschitz_violation > 0.0


def test_check_quasicopula_validates_arguments():
    with pytest.raises(ValueError):
        cb.check_quasicopula(cb.W, n=10, tol=0.0)
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError):
            cb.check_quasicopula(cb.M, n=20, tol=tol)


def test_counts_must_be_whole_numbers(capsys):
    # a whole float counts as its int; anything else fails at entry, not
    # deep inside numpy. A size or seed below its least, or odd where an
    # even one is asked, fails with one message for every entry point.
    panels, seeds = "panel count must be even and >= ", "seed must be >= 0"
    entries = [
        (lambda n: cb.QuadratureConfig(n).n, 64, panels + "2", (0, 1, 3)),
        (lambda n: cb.effectiveness_score("gini", 0.1, n).m, 64, panels + "64", (62, 63, 65)),
        (lambda n: cb.sample_conditional(cb.PI, n, 0).tobytes(), 10, "count must be >= 1", (0,)),
        (lambda n: cb.check_quasicopula(cb.PI, n), 20, "n must be >= 2", (1,)),
        (lambda n: cb.sample_shuffle(cb.IDENTITY_SHUFFLE, n, 0).tobytes(), 10, None, ()),
        (lambda n: cb.sample_shuffle(cb.IDENTITY_SHUFFLE, 10, n).tobytes(), 3, seeds, (-1,)),
        (lambda n: cb.sample_conditional(cb.PI, 10, n).tobytes(), 3, seeds, (-1,)),
        (lambda n: cb.simpson_weights(n).tobytes(), 64, panels + "2", (0, 1, 3)),
        (lambda n: core.grid_nodes(n).tobytes(), 4, "n must be >= 1", (0,)),
        (lambda n: CheckerboardCopula.random(n, 0).masses.tobytes(), 4, None, ()),
        (lambda n: CheckerboardCopula.random(4, n).masses.tobytes(), 3, None, ()),
        (lambda n: GridFunction(n, np.zeros((5, 5))).n, 4, "n must be >= 2", (1,)),
    ]
    for entry, n, least, rejected in entries:
        assert entry(float(n)) == entry(n)
        for bad in (n + 0.5, np.nan, np.inf, str(n)):
            with pytest.raises(ValueError, match="whole number"):
                entry(bad)
        for bad in rejected:
            with pytest.raises(ValueError, match=rf"^{least}, got {bad}$"):
                entry(bad)
    for argv, message in (("grid f-upper 0.1 1", "grid resolution must be >= 2, got 1"),
                          ("sample M 0 1", "count must be >= 1, got 0"),
                          ("sample Pi 2 -1", "seed must be >= 0, got -1"),
                          ("sample M 10 -1", "seed must be >= 0, got -1")):
        assert cli.main(argv.split()) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert type(cb.QuadratureConfig(64.0).n) is int
    assert type(GridFunction(4.0, np.zeros((5, 5))).n) is int


# ---------------------------------------------------------------------------
# shuffles
# ---------------------------------------------------------------------------

def test_shuffle_spec_validation():
    with pytest.raises(cb.InvalidSpecError, match="need at least one piece"):
        cb.ShuffleSpec((0.0,), (), ())
    with pytest.raises(cb.InvalidSpecError):
        cb.ShuffleSpec((0.0, 0.5), (1,), (1,))
    with pytest.raises(cb.InvalidSpecError):
        cb.ShuffleSpec((0.0, 0.5, 0.4, 1.0), (1, 2, 3), (1, 1, 1))
    with pytest.raises(cb.InvalidSpecError):
        cb.ShuffleSpec((0.0, 0.5, 1.0), (1, 1), (1, 1))
    with pytest.raises(cb.InvalidSpecError):
        cb.ShuffleSpec((0.0, 0.5, 1.0), (2, 1), (1, 0))
    for cuts in ((0.0, np.nan, 1.0), (np.nan, 0.5, 1.0), (0.0, 0.5, np.nan)):
        with pytest.raises(cb.InvalidSpecError):
            cb.ShuffleSpec(cuts, (2, 1), (1, 1))
    # entries that are not whole numbers are rejected, never truncated
    for perm, orient in (((2.9, 1.2), (1.7, -1.4)), ((2, 1), (1.5, 1)), ((2, 1.0001), (1, 1)),
                         ((np.inf, 1), (1, 1)), ((2, 1), (1, -np.inf)),
                         ((np.nan, 1), (1, 1)), ((2, 1), (np.nan, 1))):
        with pytest.raises(cb.InvalidSpecError):
            cb.ShuffleSpec((0.0, 0.5, 1.0), perm, orient)
    with pytest.raises(cb.InvalidSpecError):
        cb.ShuffleSpec((0.0, 0.5, 1.0), (10 ** 400, 1), (1, 1))
    spec = cb.ShuffleSpec((0.0, 0.5, 1.0), (2.0, np.float64(1.0)), (1.0, -1))
    assert spec.permutation == (2, 1) and spec.orientations == (1, -1)
    assert all(type(x) is int for x in spec.permutation + spec.orientations)


def test_identity_and_reversal_shuffles():
    ident = cb.ShuffleOfMin(cb.IDENTITY_SHUFFLE)
    rev = cb.ShuffleOfMin(cb.REVERSAL_SHUFFLE)
    assert np.abs(ident(U, V) - cb.M(U, V)).max() <= 1e-12
    assert np.abs(rev(U, V) - cb.W(U, V)).max() <= 1e-12


def test_half_shift_shuffle_values():
    z = cb.ShuffleOfMin(HALF_SHIFT_SHUFFLE)
    assert z(0.25, 0.75) == pytest.approx(0.25, abs=1e-15)
    assert z(0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
    report = cb.check_quasicopula(z, n=100, tol=1e-9)
    assert report.is_quasicopula and report.is_two_increasing


def test_sample_shuffle_support_and_determinism():
    pts = cb.sample_shuffle(HALF_SHIFT_SHUFFLE, 500, 42)
    u, v = pts[:, 0], pts[:, 1]
    image = np.where(u < 0.5, u + 0.5, u - 0.5)
    assert np.abs(v - image).max() == 0.0
    again = cb.sample_shuffle(HALF_SHIFT_SHUFFLE, 500, 42)
    assert np.array_equal(pts, again)
    other = cb.sample_shuffle(HALF_SHIFT_SHUFFLE, 500, 43)
    assert not np.array_equal(pts, other)


def test_sample_shuffle_rejects_empty_draw():
    with pytest.raises(cb.InvalidSpecError):
        cb.sample_shuffle(cb.IDENTITY_SHUFFLE, 0, 1)


# ---------------------------------------------------------------------------
# grids and checkerboards
# ---------------------------------------------------------------------------

def test_grid_function_margins_and_mass():
    grid = GridFunction.from_function(cb.PI, 50)
    t = np.arange(51) / 50
    assert np.abs(grid.values[0, :]).max() <= 1e-12
    assert np.abs(grid.values[-1, :] - t).max() <= 1e-12
    assert grid.cell_volumes().sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_function_validation():
    for n in (0, -3):
        with pytest.raises(ValueError, match=rf"n must be >= 1, got {n}"):
            core.grid_nodes(n)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        GridFunction.from_function(cb.PI, 0)
    with pytest.raises(ValueError, match="n must be >= 2, got 1"):
        GridFunction(1, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        GridFunction(4, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        GridFunction(2, np.full((3, 3), 2.0))
    with pytest.raises(ValueError):
        GridFunction(2, np.full((3, 3), np.nan))


def test_checkerboard_is_a_copula():
    board = CheckerboardCopula.random(16, 7)
    report = cb.check_quasicopula(board, n=96, tol=1e-9)
    assert report.is_quasicopula and report.is_two_increasing


def test_checkerboard_rejects_unbalanced_masses():
    with pytest.raises(cb.InvalidSpecError):
        CheckerboardCopula(np.ones((4, 4)))
    masses = np.full((2, 2), 0.25)
    masses[0, 0] = np.nan
    for bad in (np.full((2, 2), np.nan), masses, np.zeros((0, 0))):
        with pytest.raises(cb.InvalidSpecError):
            CheckerboardCopula(bad)


def test_checkerboard_random_needs_a_cell():
    for n in (0, -1, -5):
        with pytest.raises(cb.InvalidSpecError, match=f"n must be >= 1, got {n}"):
            CheckerboardCopula.random(n, 0)
    assert CheckerboardCopula.random(1, 0).masses.tolist() == [[1.0]]


def test_checkerboard_random_is_deterministic():
    one = CheckerboardCopula.random(8, 11)
    two = CheckerboardCopula.random(8, 11)
    assert np.array_equal(one.masses, two.masses)


# ---------------------------------------------------------------------------
# conditional-inverse sampling
# ---------------------------------------------------------------------------

def test_sample_conditional_degenerate_m():
    tol = 1e-5
    pts = cb.sample_conditional(cb.M, 2000, 5, inv_tol=tol)
    assert np.abs(pts[:, 1] - pts[:, 0]).max() <= tol + 2e-6


def test_sample_conditional_independence_footrule():
    pts = cb.sample_conditional(cb.PI, 40000, 9)
    # rank-free footrule estimate for uniform margins: 1 - 3 E|U - V|
    phi_hat = 1.0 - 3.0 * float(np.abs(pts[:, 0] - pts[:, 1]).mean())
    assert abs(phi_hat) <= 0.02


def test_sample_conditional_lower_footrule_support():
    phi = 0.25
    pts = cb.sample_conditional(cb.FootruleLowerBound(phi), 8000, 13)
    u, v = pts[:, 0], pts[:, 1]
    q = (1.0 - phi) / 6.0
    between_arcs = (u * v >= q - 2e-3) & ((1 - u) * (1 - v) >= q - 2e-3)
    on_antidiagonal = np.abs(u + v - 1.0) <= 2e-3
    assert np.all(between_arcs | on_antidiagonal)


def test_sample_conditional_rejects_quasi_copula():
    # an envelope inside its QUASI interval is refused before any evaluation;
    # the probe would sample all of these but f-upper:0.0
    for spec in ("f-upper:0.0", "g-upper:-0.001", "f-upper:0.2499", "g-lower:0.001",
                 "f-upper:0.245", "g-upper:-0.01"):
        func = cli.parse_copula_spec(spec)
        func._value = None  # any evaluation would raise TypeError
        with pytest.raises(cb.OutOfRangeError, match="not a copula"):
            cb.sample_conditional(func, 500, 3)
    # the probe itself, on the same doubles under a type that is not an Envelope
    for spec, drop in (("f-upper:0.0", "0.0208"), ("g-upper:-0.5", "0.0051"),
                       ("g-lower:0.3", "0.00267")):
        plain = cb.BivariateFunction()
        plain._value = cli.parse_copula_spec(spec)._value
        with pytest.raises(cb.NotMonotoneError) as exc:
            cb.sample_conditional(plain, 500, 3)
        assert str(exc.value) == (f"conditional CDF decreases by {drop} (> 1e-07); "
                                  "the evaluator is not 2-increasing"), spec


def test_sample_conditional_is_deterministic():
    one = cb.sample_conditional(cb.PI, 100, 21)
    two = cb.sample_conditional(cb.PI, 100, 21)
    assert np.array_equal(one, two)


@pytest.mark.parametrize("inv_tol", [np.nan, np.inf, 0.0, -1.0, 1e-17, 2.0 ** -54])
def test_sample_conditional_rejects_bad_tolerance(inv_tol):
    with pytest.raises(ValueError):
        cb.sample_conditional(cb.PI, 5, 1, inv_tol=inv_tol)


def test_sample_conditional_finest_tolerance_terminates():
    # brackets end as adjacent doubles; at 2**-53 those above 1/2 are narrow enough
    pts = cb.sample_conditional(cb.PI, 2000, 1, inv_tol=2.0 ** -53)
    assert pts.shape == (2000, 2) and np.all((pts >= 0.0) & (pts <= 1.0))


@pytest.mark.parametrize("count", [1, 7, 2000])
@pytest.mark.parametrize("spec", ["g-lower:-0.3", "f-lower:0.25", "Pi"])
def test_sample_conditional_keeps_draw_order(spec, count):
    # the points are walked in u order; the output is in draw order
    pts = cb.sample_conditional(cli.parse_copula_spec(spec), count, 23)
    rng = np.random.default_rng(23)
    assert pts[:, 0].tobytes() == rng.random(count).tobytes()
    if spec == "Pi":
        # the conditional CDF of Pi is v, so each v is its own level p
        assert np.abs(pts[:, 1] - rng.random(count)).max() <= 1e-6


# SHA-256 over the output bytes of every (count, inv_tol) pair below, in
# order, at seed 17. inv_tol 0.05, 0.0625 and 0.3 stop within the first five
# bisection steps, and 0.0625 = 2^-4 equals a bracket width exactly.
PINNED_SAMPLES = (
    ("g-upper:0.0", "43778f86517209068a20810c2cb90100c254adc50f63ecfb24cbf597d2937970"),
    ("g-upper:0.3", "c42342654bc373d0a159f00a1cd2c553b8593c89b212f53887527fbb78c9cca3"),
    ("g-upper:0.499", "1e8d603840b8c275a8a2a8c7f736fa6b01db66c704784470596fc68e86fba349"),
    ("g-lower:-0.3", "c6f3eabd6663d325fcdbc0daed72a7b728ab9daf5ac829c7dfa1b7365f54b41b"),
    ("g-lower:0.0", "983205029aa0c0ecff9c902304114bd67b11eea4aaf2c27f76fd14238e06f29b"),
    ("f-lower:0.25", "422e253e38715e1506c35f45e82238967ec61fdb4c3b23e0b811437ca1c84a42"),
    ("Pi", "6b5816aa7fb07fe43028328c01e82192d69188ca4bc26f207d408e7a7d931f1b"),
    ("M", "d5bdabbdd66ae3ae6d2d273dc506f85a8e04e497b1e1d5b4748fb53f7b09e845"),
)


@pytest.mark.parametrize("spec,digest", PINNED_SAMPLES, ids=[s for s, _ in PINNED_SAMPLES])
def test_sample_conditional_bytes_are_pinned(spec, digest):
    func = cli.parse_copula_spec(spec)
    sha = hashlib.sha256()
    for count in (1, 7, 2000):
        for inv_tol in (1e-6, 1e-5, 0.05, 0.0625, 0.3):
            sha.update(cb.sample_conditional(func, count, 17, inv_tol=inv_tol).tobytes())
    assert sha.hexdigest() == digest
