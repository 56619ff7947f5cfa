import numpy as np
import pytest

import copulabounds as cb

Q2048 = cb.QuadratureConfig(2048)
Q4096 = cb.QuadratureConfig(4096)


def boards(count, n=16, start=0):
    return [cb.CheckerboardCopula.random(n, start + i) for i in range(count)]


# ---------------------------------------------------------------------------
# the three measures on the reference copulas
# ---------------------------------------------------------------------------

def test_footrule_reference_values():
    assert cb.spearman_footrule(cb.M) == pytest.approx(1.0, abs=1e-12)
    assert cb.spearman_footrule(cb.PI) == pytest.approx(0.0, abs=1e-12)
    # int max(0, 2t-1) dt = 1/4, so 6/4 - 2 = -1/2
    assert cb.spearman_footrule(cb.W) == pytest.approx(-0.5, abs=1e-12)


def test_gini_reference_values():
    # 4 (1/2 + 1/4) - 2 and 4 (1/4 + 0) - 2
    assert cb.gini_gamma(cb.M) == pytest.approx(1.0, abs=1e-12)
    assert cb.gini_gamma(cb.W) == pytest.approx(-1.0, abs=1e-12)
    assert cb.gini_gamma(cb.PI) == pytest.approx(0.0, abs=1e-12)


def test_blomqvist_reference_values():
    assert cb.blomqvist_beta(cb.M) == 1.0
    assert cb.blomqvist_beta(cb.PI) == 0.0
    assert cb.blomqvist_beta(cb.W) == -1.0


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        cb.QuadratureConfig(3)
    with pytest.raises(ValueError):
        cb.QuadratureConfig(0)


def test_simpson_weights_integrate_cubics_exactly():
    w = cb.simpson_weights(64)
    t = np.arange(65) / 64
    assert w @ t**3 == pytest.approx(0.25, abs=1e-15)


# ---------------------------------------------------------------------------
# discrete Stieltjes concordance
# ---------------------------------------------------------------------------

def test_q_concordance_reference_values():
    assert cb.q_concordance(cb.GridFunction.from_function(cb.M, 400), cb.M) == pytest.approx(1.0, abs=5e-3)
    assert cb.q_concordance(cb.GridFunction.from_function(cb.W, 400), cb.W) == pytest.approx(-1.0, abs=5e-3)
    # footrule of Pi is 0, forcing the cross value 1/3
    assert cb.q_concordance(cb.GridFunction.from_function(cb.PI, 400), cb.M) == pytest.approx(1.0 / 3.0, abs=5e-3)


def test_q_concordance_rejects_quasi_copula_grids():
    grid = cb.GridFunction.from_function(cb.FootruleUpperBound(0.0), 200)
    with pytest.raises(cb.NotACopulaGridError):
        cb.q_concordance(grid, cb.M)


def test_measure_identities_on_checkerboards():
    for i, board in enumerate(boards(5)):
        grid = cb.GridFunction.from_function(board, 400)
        phi = cb.spearman_footrule(board, Q2048)
        gam = cb.gini_gamma(board, Q2048)
        qm = cb.q_concordance(grid, cb.M)
        qw = cb.q_concordance(grid, cb.W)
        assert phi == pytest.approx(0.5 * (3.0 * qm - 1.0), abs=3e-4), i
        assert gam == pytest.approx(qm + qw, abs=3e-4), i


def test_gamma_is_scaled_footrule_antisymmetrisation():
    for board in boards(5, start=40):
        phi = cb.spearman_footrule(board, Q2048)
        phi_r = cb.spearman_footrule(cb.transform(board, "sigma1"), Q2048)
        assert cb.gini_gamma(board, Q2048) == pytest.approx((2.0 / 3.0) * (phi - phi_r), abs=1e-10)


def test_footrule_survival_invariance():
    for board in boards(4, start=80):
        hat = cb.transform(board, "survival")
        assert cb.spearman_footrule(board, Q2048) == pytest.approx(
            cb.spearman_footrule(hat, Q2048), abs=1e-12)


def test_measures_monotone_in_pointwise_order():
    board = cb.CheckerboardCopula.random(12, 5)
    chains = [(cb.W, board), (board, cb.M), (cb.W, cb.PI), (cb.PI, cb.M)]
    for lo, hi in chains:
        assert cb.spearman_footrule(lo, Q2048) <= cb.spearman_footrule(hi, Q2048) + 1e-12
        assert cb.gini_gamma(lo, Q2048) <= cb.gini_gamma(hi, Q2048) + 1e-12
        assert cb.blomqvist_beta(lo) <= cb.blomqvist_beta(hi) + 1e-12


# ---------------------------------------------------------------------------
# closed forms on the extremal families
# ---------------------------------------------------------------------------

def test_q_closed_form_examples():
    # centred lower family: value 1/2 at the centre
    spec = cb.ExtremalSpec(0.5, 0.5, 0.5, "lower")
    assert cb.q_m_extremal_lower(spec) == pytest.approx(0.5, abs=1e-15)
    # first piece: anchored value small, second coordinate high
    spec = cb.ExtremalSpec(0.2, 0.9, 0.0, "lower")
    assert cb.q_m_extremal_lower(spec) == 0.0
    # degenerates to W, matching footrule(W) = -1/2 through the linkage
    spec = cb.ExtremalSpec(0.5, 0.5, 0.0, "lower")
    assert cb.q_m_extremal_lower(spec) == 0.0

    assert cb.q_m_extremal_upper(cb.ExtremalSpec(0.5, 0.5, 0.0, "upper")) == pytest.approx(1.0)
    assert cb.q_m_extremal_upper(cb.ExtremalSpec(0.5, 0.5, 0.5, "upper")) == pytest.approx(0.0)
    assert cb.q_m_extremal_upper(cb.ExtremalSpec(0.3, 0.6, 0.2, "upper")) == pytest.approx(0.6)

    assert cb.q_w_extremal_lower(cb.ExtremalSpec(0.3, 0.4, 0.0, "lower")) == pytest.approx(-1.0)
    assert cb.q_w_extremal_lower(cb.ExtremalSpec(0.5, 0.5, 0.5, "lower")) == pytest.approx(0.0)
    assert cb.q_w_extremal_lower(cb.ExtremalSpec(0.3, 0.6, 0.1, "lower")) == pytest.approx(-0.92)


def test_q_closed_forms_require_matching_kind():
    spec = cb.ExtremalSpec(0.3, 0.4, 0.1, "lower")
    with pytest.raises(cb.OutOfRangeError):
        cb.q_m_extremal_upper(spec)
    with pytest.raises(cb.OutOfRangeError):
        cb.q_w_extremal_lower(cb.ExtremalSpec(0.3, 0.4, 0.1, "upper"))


def test_q_closed_forms_match_stieltjes_oracle():
    rng = np.random.default_rng(17)
    for _ in range(60):
        a, b = rng.uniform(0.05, 0.95, 2)
        c = rng.uniform(0, min(a, b, 1 - a, 1 - b))
        lo = cb.ExtremalSpec(a, b, c, "lower")
        up = cb.ExtremalSpec(a, b, c, "upper")
        glo = cb.GridFunction.from_function(cb.ExtremalCopula(lo), 400)
        gup = cb.GridFunction.from_function(cb.ExtremalCopula(up), 400)
        assert cb.q_m_extremal_lower(lo) == pytest.approx(cb.q_concordance(glo, cb.M), abs=5e-3)
        assert cb.q_m_extremal_upper(up) == pytest.approx(cb.q_concordance(gup, cb.M), abs=5e-3)
        assert cb.q_w_extremal_lower(lo) == pytest.approx(cb.q_concordance(glo, cb.W), abs=5e-3)


# ---------------------------------------------------------------------------
# footrule / gamma of the extremal families as functions of the anchored value
# ---------------------------------------------------------------------------

def test_f_lower_piece_values():
    # value small enough that the second coordinate dominates
    assert cb.f_lower(0.2, 0.9, 0.1) == -0.5
    # the centred family tops out at 1/4, far below the comonotone value:
    # the copula fixing the centre value 1/2 is an x-shaped shuffle, not M
    assert cb.f_lower(0.5, 0.5, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert cb.g_lower(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_g_lower_degenerate_w():
    assert cb.g_lower(0.3, 0.4, 0.0) == pytest.approx(-1.0)
    assert cb.g_lower(0.2, 0.7, 0.0) == pytest.approx(-1.0)


def test_f_upper_values():
    assert cb.f_upper(0.3, 0.7, 0.3) == pytest.approx(1.0)
    assert cb.f_upper(0.5, 0.5, 0.0) == pytest.approx(-0.5)
    assert cb.f_upper(0.2, 0.7, 0.1) == pytest.approx(0.64)


def test_anchor_value_range_enforced():
    with pytest.raises(cb.OutOfRangeError):
        cb.f_lower(0.3, 0.4, 0.35)
    with pytest.raises(cb.OutOfRangeError):
        cb.f_upper(0.6, 0.7, 0.25)
    with pytest.raises(cb.OutOfRangeError):
        cb.g_lower(0.3, 0.4, -0.05)
    nan = float("nan")
    for measure in (cb.f_lower, cb.f_upper, cb.g_lower, cb.g_upper):
        for anchor in ((0.5, 0.5, nan), (nan, 0.5, 0.2), (0.5, nan, 0.2)):
            with pytest.raises(cb.OutOfRangeError):
                measure(*anchor)
        with pytest.raises(cb.OutOfRangeError):
            measure(np.array([0.4, 0.5]), np.array([0.5, 0.5]), np.array([0.2, nan]))


def test_measures_of_extremal_family_match_quadrature():
    rng = np.random.default_rng(23)
    for _ in range(12):
        a, b = rng.uniform(0.05, 0.95, 2)
        w0, m0 = max(0.0, a + b - 1.0), min(a, b)
        d = rng.uniform(w0, m0)
        lo = cb.ExtremalCopula(cb.ExtremalSpec(a, b, d - w0, "lower"))
        up = cb.ExtremalCopula(cb.ExtremalSpec(a, b, m0 - d, "upper"))
        assert cb.f_lower(a, b, d) == pytest.approx(cb.spearman_footrule(lo, Q4096), abs=1e-6)
        assert cb.f_upper(a, b, d) == pytest.approx(cb.spearman_footrule(up, Q4096), abs=1e-6)
        assert cb.g_lower(a, b, d) == pytest.approx(cb.gini_gamma(lo, Q4096), abs=1e-6)
        assert cb.g_upper(a, b, d) == pytest.approx(cb.gini_gamma(up, Q4096), abs=1e-6)


def test_f_and_g_lower_nondecreasing_in_anchor_value():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        a, b = rng.uniform(0.02, 0.98, 2)
        w0, m0 = max(0.0, a + b - 1.0), min(a, b)
        d = np.linspace(w0, m0, 40)
        for fn in (cb.f_lower, cb.g_lower):
            vals = fn(np.full_like(d, a), np.full_like(d, b), d)
            assert np.diff(vals).min() >= -1e-12


def test_measure_clamping_to_theoretical_ranges():
    class Slightly(cb.BivariateFunction):
        label = "above-M"

        def _value(self, u, v):
            return np.minimum(u, v) * 1.000001

    assert cb.spearman_footrule(Slightly()) == 1.0
    assert cb.gini_gamma(Slightly()) == 1.0


def test_non_finite_evaluator_output_is_rejected(monkeypatch):
    class Holey(cb.BivariateFunction):
        """The product copula with NaN wherever ``hole(u, v)`` holds."""

        def __init__(self, hole):
            self.hole = hole

        def _value(self, u, v):
            return np.where(self.hole(u, v), np.nan, u * v)

    upper_half = Holey(lambda u, v: v >= 0.5)
    # NaN only inside the square: Python's max() would drop it from the
    # audit's reductions and certify the function
    interior = Holey(lambda u, v: (0.4 < u) & (u < 0.6) & (0.4 < v) & (v < 0.6))
    with pytest.raises(ValueError, match="not finite"):
        cb.check_quasicopula(interior, n=20)
    with pytest.raises(ValueError, match="not finite"):
        cb.h_volume(interior, cb.UnitPoint(0.2, 0.3), cb.UnitPoint(0.5, 0.5))
    for measure in (cb.spearman_footrule, cb.gini_gamma, cb.blomqvist_beta):
        with pytest.raises(ValueError, match="not finite"):
            measure(upper_half)
    with pytest.raises(ValueError, match="not finite"):
        cb.q_concordance(cb.GridFunction.from_function(cb.PI, 8), upper_half)
    # NaN at the probe levels k/32, and NaN only between them (bisection steps)
    for hole in (lambda u, v: v >= 0.5, lambda u, v: (v > 0.5) & (v * 32.0 % 1.0 != 0.0)):
        with pytest.raises(ValueError, match="not finite"):
            cb.sample_conditional(Holey(hole), 200, seed=3)
    monkeypatch.setattr(cb.effectiveness, "_bounds_for", lambda kind, k: (upper_half, cb.W))
    with pytest.raises(RuntimeError, match="ordering violated"):
        cb.effectiveness_score("footrule", 0.0, 64)
