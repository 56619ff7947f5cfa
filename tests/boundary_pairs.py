"""Boundary agreement of adjacent envelope pieces, and the parameters at
which the pieces vanish, shared by the footrule and gamma tests."""

import numpy as np

from oracles import all_pieces


def assert_boundary_pairs(cls, param, curves, min_points):
    """Check the two governing expressions agree on shared boundary curves.

    Each curve supplies candidate points plus the axis to nudge across; a
    point qualifies when the two sides of the curve really dispatch to the
    stated pair of pieces (code 0 stands for the min(u, v) fallback).
    """
    bound = cls(param)
    eps = 1e-7
    total = 0
    for left, right, a, b, axis in curves:
        ok = (a > eps) & (a < 1 - eps) & (b > eps) & (b < 1 - eps)
        a, b = a[ok], b[ok]
        if a.size == 0:
            continue
        da, db = (eps, 0.0) if axis == 0 else (0.0, eps)
        lo_codes = bound._region_codes(a - da, b - db)
        hi_codes = bound._region_codes(a + da, b + db)
        qual = (((lo_codes == left) & (hi_codes == right))
                | ((lo_codes == right) & (hi_codes == left)))
        a, b = a[qual], b[qual]
        if a.size == 0:
            continue
        _, values = all_pieces(bound, a, b)
        lhs = values[left - 1] if left else np.minimum(a, b)
        rhs = values[right - 1] if right else np.minimum(a, b)
        assert np.abs(lhs - rhs).max() <= 1e-9, (left, right, param)
        total += a.size
    assert total >= min_points


def vanish_params(cls, skip=()):
    """Each distinct parameter of ``cls.VANISH``, it plus the margin 1e-9 of
    the live regions, and the float on each side of both; none of ``skip``."""
    out = []
    for t in sorted(set(cls.VANISH)):
        for k in (t, t + 1e-9):
            out += [np.nextafter(k, -2.0), k, np.nextafter(k, 2.0)]
    return tuple(k for k in out if k not in skip)
