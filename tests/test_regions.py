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


def test_range_curves_are_the_closed_forms_bit_for_bit():
    # each measure's curves written out on their own, in Python floats, as
    # before the two measures shared them through their diagonal scale;
    # 10,001 parameters over each range, endpoints included
    def beta_given(lo_k, hi_k):
        return (max(1.0 - 2.0 * float(np.sqrt(2.0 * (1.0 - lo_k) / 3.0)), -1.0),
                min(-1.0 + 2.0 * float(np.sqrt(2.0 * (1.0 + hi_k) / 3.0)), 1.0))

    def footrule_given(beta):
        return 3.0 * (1.0 + beta) ** 2 / 16.0 - 0.5, 1.0 - 3.0 * (1.0 - beta) ** 2 / 8.0

    def gini_given(beta):
        lo, hi = footrule_given(beta)
        return 2.0 * lo, hi

    phi = np.linspace(-0.5, 1.0, 10_001).tolist()
    gamma = beta = np.linspace(-1.0, 1.0, 10_001).tolist()
    cases = [
        (cb.beta_range_given_footrule, phi, lambda k: beta_given(k, 2.0 * k)),
        (cb.beta_range_given_gini, gamma, lambda k: beta_given(k, k)),
        (cb.footrule_range_given_beta, beta, footrule_given),
        (cb.gini_range_given_beta, beta, gini_given),
    ]
    for range_fn, ks, closed_form in cases:
        got = np.array([range_fn(k) for k in ks])
        want = np.array([closed_form(k) for k in ks])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_parameters_validated():
    for phi in (1.5, -0.9):
        with pytest.raises(cb.OutOfRangeError):
            cb.beta_range_given_footrule(phi)
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
        lo_b, hi_b = cb.beta_range_given_gini(gamma)
        direct = lo_b <= beta <= hi_b
        lo, hi = cb.gini_range_given_beta(beta)
        assert direct == (lo - 1e-12 <= gamma <= hi + 1e-12) or (
            # boundary points may flip under roundoff; accept either call there
            min(abs(gamma - lo), abs(gamma - hi)) <= 1e-9
        )


def test_pair_membership_examples():
    # (footrule 0, beta 0) lies in its region; (footrule 1, beta -1) and
    # (gamma -1, beta 0) do not
    for beta_range, k, beta, inside in ((cb.beta_range_given_footrule, 0.0, 0.0, True),
                                        (cb.beta_range_given_footrule, 1.0, -1.0, False),
                                        (cb.beta_range_given_gini, -1.0, 0.0, False)):
        lo, hi = beta_range(k)
        assert (lo <= beta <= hi) == inside


def test_ranges_match_envelope_centre_values():
    for phi in np.linspace(-0.5, 1.0, 31):
        lo, hi = cb.beta_range_given_footrule(phi)
        assert lo == pytest.approx(4.0 * cb.footrule_lower_bound(phi, 0.5, 0.5) - 1.0, abs=1e-12)
        assert hi == pytest.approx(4.0 * cb.footrule_upper_bound(phi, 0.5, 0.5) - 1.0, abs=1e-12)
    for gamma in np.linspace(-1.0, 1.0, 41):
        lo, hi = cb.beta_range_given_gini(gamma)
        assert lo == pytest.approx(4.0 * cb.gini_lower_bound(gamma, 0.5, 0.5) - 1.0, abs=1e-12)
        assert hi == pytest.approx(4.0 * cb.gini_upper_bound(gamma, 0.5, 0.5) - 1.0, abs=1e-12)
