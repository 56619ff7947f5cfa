import hashlib

import numpy as np
import pytest

import copulabounds as cb
from copulabounds import effectiveness


def test_coinciding_bounds_score_one():
    assert cb.effectiveness_score("footrule", 1.0, 256).m == pytest.approx(1.0, abs=1e-12)
    assert cb.effectiveness_score("gini", 1.0, 256).m == pytest.approx(1.0, abs=1e-12)


def test_widest_footrule_gap_scores_three_quarters():
    # at the lowest parameter the gap volume is exactly 1/24
    row = cb.effectiveness_score("footrule", -0.5, 512)
    assert row.m == pytest.approx(0.75, abs=1e-3)
    assert row.kind == "footrule" and row.quad_n == 512


def test_scores_lie_in_unit_interval():
    for kind, k in (("footrule", -0.4), ("footrule", 0.3), ("gini", -0.6), ("gini", 0.2)):
        assert 0.0 <= cb.effectiveness_score(kind, k, 256).m <= 1.0


def test_refinement_differences_shrink():
    for kind, ks in (("footrule", cb.FOOTRULE_TABLE_KS), ("gini", cb.GINI_TABLE_KS)):
        for k in ks:
            coarse = cb.effectiveness_score(kind, k, 128).m
            mid = cb.effectiveness_score(kind, k, 256).m
            fine = cb.effectiveness_score(kind, k, 512).m
            first, second = abs(mid - coarse), abs(fine - mid)
            if first > 1e-7:
                assert second < first, (kind, k, first, second)


def test_table_layout():
    rows = cb.table_rows(128)
    assert len(rows) == 27
    assert [r.k for r in rows[:16]] == [pytest.approx(-0.5 + 0.1 * i) for i in range(16)]
    assert [r.k for r in rows[16:]] == [pytest.approx(0.1 * i) for i in range(11)]
    assert {r.kind for r in rows} == {"footrule", "gini"}


def test_parameter_validation():
    with pytest.raises(cb.OutOfRangeError):
        cb.effectiveness_score("footrule", -0.7, 128)
    with pytest.raises(ValueError):
        cb.effectiveness_score("tau", 0.0, 128)
    with pytest.raises(ValueError):
        cb.effectiveness_score("gini", 0.0, 63)


def _full_grid_score(kind, k, n):
    """Reference: plain Simpson sum of |upper - lower| over all (n+1)^2 nodes."""
    upper, lower = effectiveness._bounds_for(kind, k)
    t = np.arange(n + 1) / n
    w = cb.simpson_weights(n)
    gap = np.abs(upper(t[:, None], t[None, :]) - lower(t[:, None], t[None, :]))
    return 1.0 - 6.0 * float(w @ gap @ w)


@pytest.mark.parametrize("n", [64, 66, 128])
def test_quarter_fold_matches_full_grid(n):
    # 66 ends in a partial strip; the diagonal, anti-diagonal and centre
    # weights are only right if every k agrees
    cases = ([("footrule", k) for k in cb.FOOTRULE_TABLE_KS + (-0.35, 0.22)]
             + [("gini", k) for k in cb.GINI_TABLE_KS + (-0.95, -0.6, 0.45)])
    for kind, k in cases:
        assert cb.effectiveness_score(kind, k, n).m == pytest.approx(
            _full_grid_score(kind, k, n), abs=1e-12), (kind, k)


def test_swapped_envelopes_raise(monkeypatch):
    bounds_for = effectiveness._bounds_for
    monkeypatch.setattr(effectiveness, "_bounds_for",
                        lambda kind, k: bounds_for(kind, k)[::-1])
    for kind in ("footrule", "gini"):
        with pytest.raises(RuntimeError, match="bound ordering violated"):
            cb.effectiveness_score(kind, 0.2, 64)


@pytest.mark.parametrize("n", [64, 66, 128, 512])
def test_cached_strips_fold_the_whole_grid(n):
    # Simpson of the constant 1 over the folded quarter is 1, and the orbits
    # cover each of the (n + 1)^2 nodes once; 66 ends in a partial strip
    strips = effectiveness._strips(n)
    w = cb.simpson_weights(n)
    assert sum(float(w[rows] @ orbit @ w[cols]) for rows, cols, orbit in strips) == pytest.approx(
        1.0, abs=1e-14)
    assert sum(int(orbit.sum()) for _, _, orbit in strips) == (n + 1) ** 2
    assert effectiveness._strips(n) is strips
    with pytest.raises(ValueError):
        strips[-1][2][0, 0] = 1


def test_table_scores_are_pinned_bit_for_bit():
    # the order 64, 66, 64 shows that the cached strips are kept per n
    rows = cb.table_rows(64) + cb.table_rows(66) + cb.table_rows(64)
    text = "\n".join(float.hex(r.m) for r in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2fa0e3beabcd120cb7b15d18b44f6c389e4c353e675b90bf9414fdef506773cb")
