import numpy as np
import pytest

import copulabounds as cb


def test_beta_range_given_footrule_values():
    assert cb.beta_range_given_footrule(1.0) == (1.0, 1.0)
    assert cb.beta_range_given_footrule(-0.5) == (-1.0, -1.0)
    lo, hi = cb.beta_range_given_footrule(0.25)
    assert lo == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-12)
    assert lo == pytest.approx(-0.414214, abs=1e-6)
    assert hi == 1.0


def test_footrule_range_given_beta_values():
    assert cb.footrule_range_given_beta(-1.0) == (-0.5, -0.5)
    assert cb.footrule_range_given_beta(1.0) == (0.25, 1.0)
    assert cb.footrule_range_given_beta(0.0) == (-0.3125, 0.625)


def test_beta_range_given_gini_values():
    assert cb.beta_range_given_gini(-1.0) == (-1.0, -1.0)
    lo, hi = cb.beta_range_given_gini(0.5)
    assert lo == pytest.approx(1.0 - 2.0 * np.sqrt(1.0 / 3.0), abs=1e-12)
    assert lo == pytest.approx(-0.154701, abs=1e-6)
    assert hi == 1.0
    lo, hi = cb.beta_range_given_gini(0.0)
    assert lo == pytest.approx(-0.632993, abs=1e-6)
    assert hi == pytest.approx(0.632993, abs=1e-6)


def test_gini_range_given_beta_values():
    assert cb.gini_range_given_beta(0.0) == (-0.625, 0.625)
    assert cb.gini_range_given_beta(-1.0) == (-1.0, -0.5)
    assert cb.gini_range_given_beta(1.0) == (0.5, 1.0)


def test_parameters_validated():
    with pytest.raises(cb.OutOfRangeError):
        cb.beta_range_given_footrule(1.5)
    with pytest.raises(cb.OutOfRangeError):
        cb.gini_range_given_beta(-2.0)


def test_boundary_curves_are_mutual_inverses():
    for gamma in np.linspace(-1.0, 1.0, 201):
        lo_b, hi_b = cb.beta_range_given_gini(gamma)
        if hi_b < 1.0:
            assert cb.gini_range_given_beta(hi_b)[0] == pytest.approx(gamma, abs=1e-9)
        if lo_b > -1.0:
            assert cb.gini_range_given_beta(lo_b)[1] == pytest.approx(gamma, abs=1e-9)
    for phi in np.linspace(-0.5, 1.0, 201):
        lo_b, hi_b = cb.beta_range_given_footrule(phi)
        if hi_b < 1.0:
            assert cb.footrule_range_given_beta(hi_b)[0] == pytest.approx(phi, abs=1e-9)
        if lo_b > -1.0:
            assert cb.footrule_range_given_beta(lo_b)[1] == pytest.approx(phi, abs=1e-9)


def test_membership_consistency_between_forms():
    rng = np.random.default_rng(73)
    for _ in range(2000):
        beta = rng.uniform(-1, 1)
        gamma = rng.uniform(-1, 1)
        direct = cb.pair_in_region(cb.MeasurePair("gini", gamma, beta))
        lo, hi = cb.gini_range_given_beta(beta)
        assert direct == (lo - 1e-12 <= gamma <= hi + 1e-12) or (
            # boundary points may flip under roundoff; accept either call there
            min(abs(gamma - lo), abs(gamma - hi)) <= 1e-9
        )


def test_pair_membership_examples():
    assert cb.pair_in_region(cb.MeasurePair("footrule", 0.0, 0.0))
    assert not cb.pair_in_region(cb.MeasurePair("footrule", 1.0, -1.0))
    assert not cb.pair_in_region(cb.MeasurePair("gini", -1.0, 0.0))


def test_pair_kind_checks():
    for kind in ("blomqvist", "rho"):
        with pytest.raises(cb.KindMismatchError):
            cb.MeasurePair(kind, 0.2, 0.1)
    with pytest.raises(cb.OutOfRangeError):
        cb.MeasurePair("footrule", -0.9, 0.0)


def test_slack_admits_noisy_boundary_pairs():
    lo, hi = cb.beta_range_given_footrule(0.1)
    noisy = cb.MeasurePair("footrule", 0.1, hi + 2e-3)
    assert not cb.pair_in_region(noisy)
    assert cb.pair_in_region(noisy, slack=5e-3)


def test_slack_must_be_nonnegative_and_finite():
    inside = cb.MeasurePair("footrule", 0.1, 0.0)
    for slack in (np.nan, -5.0, -1e-12, np.inf):
        with pytest.raises(ValueError, match="slack"):
            cb.pair_in_region(inside, slack=slack)
    assert cb.pair_in_region(inside, slack=0.0)


def test_ranges_match_envelope_centre_values():
    for phi in np.linspace(-0.5, 1.0, 31):
        lo, hi = cb.beta_range_given_footrule(phi)
        assert lo == pytest.approx(4.0 * cb.footrule_lower_bound(phi, 0.5, 0.5) - 1.0, abs=1e-12)
        assert hi == pytest.approx(4.0 * cb.footrule_upper_bound(phi, 0.5, 0.5) - 1.0, abs=1e-12)
    for gamma in np.linspace(-1.0, 1.0, 41):
        lo, hi = cb.beta_range_given_gini(gamma)
        assert lo == pytest.approx(4.0 * cb.gini_lower_bound(gamma, 0.5, 0.5) - 1.0, abs=1e-12)
        assert hi == pytest.approx(4.0 * cb.gini_upper_bound(gamma, 0.5, 0.5) - 1.0, abs=1e-12)
