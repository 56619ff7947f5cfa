"""End-to-end acceptance checks.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts at its stated tolerance.
"""

import time

import numpy as np

import copulabounds as cb

from oracles import CheckerboardCopula, GridFunction, TransformedFunction, h_volume, q_concordance

REFERENCE_FOOTRULE_M = {
    -0.5: 0.7500, -0.4: 0.3718, -0.3: 0.2244, -0.2: 0.1352, -0.1: 0.0820,
    0.0: 0.0574, 0.1: 0.0569, 0.2: 0.0763, 0.3: 0.1108, 0.4: 0.1562,
    0.5: 0.2146, 0.6: 0.2895, 0.7: 0.3860, 0.8: 0.5130, 0.9: 0.6889,
    1.0: 1.0000,
}
REFERENCE_GINI_M = {
    0.0: 0.0581, 0.1: 0.0633, 0.2: 0.0792, 0.3: 0.1059, 0.4: 0.1438,
    0.5: 0.1942, 0.6: 0.2587, 0.7: 0.3422, 0.8: 0.4565, 0.9: 0.6320,
    1.0: 1.0000,
}

GRID101 = np.arange(101) / 100
U101, V101 = GRID101[:, None], GRID101[None, :]


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def _invert_monotone(fn, target, lo, hi):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_01_effectiveness_table():
    start = time.perf_counter()
    rows = cb.table_rows(2048)
    elapsed = time.perf_counter() - start
    # two rows again at a coarse quadrature, against the same references
    rows += [cb.effectiveness_score("footrule", 0.0, 512), cb.effectiveness_score("gini", 0.5, 512)]
    worst = 0.0
    for row in rows:
        ref = (REFERENCE_FOOTRULE_M if row.kind == "footrule" else REFERENCE_GINI_M)
        worst = max(worst, abs(row.m - ref[round(row.k, 1)]))
    _report(1, "effectiveness table at n=2048", worst <= 2e-3 and elapsed < 120.0,
            f"worst |diff|={worst:.2e}, elapsed={elapsed:.1f}s")


def test_criterion_02_lower_footrule_closed_form():
    quad = cb.QuadratureConfig(4096)
    worst = 0.0
    for phi in (-0.5, -0.3, -0.25, 0.0, 0.25, 0.4, 0.5, 0.75, 0.8, 1.0):
        closed = cb.footrule_of_lower_bound(phi)
        numeric = cb.spearman_footrule(cb.FootruleLowerBound(phi), quad)
        worst = max(worst, abs(closed - numeric))
    _report(2, "closed form vs quadrature, lower footrule envelope",
            worst <= 1e-6, f"worst |diff|={worst:.2e}")


def _anchors(seed, count):
    """``count`` random anchors (a, b) with an admissible offset c."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a, b = rng.uniform(0.05, 0.95, 2)
        yield a, b, rng.uniform(0.0, min(a, b, 1 - a, 1 - b))


def test_criterion_03_concordance_closed_forms_vs_oracle():
    # seed 101 alternates the kinds; each seed-17 anchor is taken as both
    specs = [cb.ExtremalSpec(*abc, ("lower", "upper")[i % 2])
             for i, abc in enumerate(_anchors(101, 500))]
    specs += [cb.ExtremalSpec(*abc, kind) for abc in _anchors(17, 60) for kind in ("lower", "upper")]
    worst = 0.0
    for spec in specs:
        grid = GridFunction.from_function(cb.ExtremalCopula(spec), 400)
        if spec.kind == "lower":
            worst = max(worst, abs(cb.q_m_extremal_lower(spec) - q_concordance(grid, cb.M)))
            worst = max(worst, abs(cb.q_w_extremal_lower(spec) - q_concordance(grid, cb.W)))
        else:
            worst = max(worst, abs(cb.q_m_extremal_upper(spec) - q_concordance(grid, cb.M)))
    _report(3, f"extremal concordance closed forms vs Stieltjes oracle ({len(specs)} specs)",
            worst <= 5e-3, f"worst |diff|={worst:.2e}")


def test_criterion_04_copula_quasi_copula_dichotomy():
    copulas = ([cb.FootruleLowerBound(p) for p in (-0.25, 0.0, 0.25, 0.5, 0.75)]
               + [cb.GiniLowerBound(g) for g in (-0.49, -0.25, 0.0)]
               + [cb.GiniUpperBound(g) for g in (0.0, 0.25, 0.49)])
    quasis = ([cb.FootruleUpperBound(p) for p in (-0.25, 0.0, 0.2)]
              + [cb.GiniUpperBound(g) for g in (-0.75, -0.5, -0.25)]
              + [cb.GiniLowerBound(g) for g in (0.25, 0.5, 0.75)])
    ok = True
    details = []
    for n in (120, 200):
        worst_pos = 0.0
        for func in copulas:
            report = cb.check_quasicopula(func, n=n)
            ok &= report.is_quasicopula
            worst_pos = min(worst_pos, report.worst_volume)
        ok &= worst_pos >= -1e-12
        nearest_neg = -np.inf
        for func in quasis:
            report = cb.check_quasicopula(func, n=n)
            located = h_volume(func, *report.worst_rectangle)
            ok &= report.is_quasicopula and not report.is_two_increasing and located < -1e-6
            nearest_neg = max(nearest_neg, located)
        details.append(f"n={n}: copula worst={worst_pos:.2e}, "
                       f"quasi-copula located <= {nearest_neg:.2e}")
    # the footrule upper envelope's centre piece has a negative mixed
    # derivative there, so a small centred rectangle already carries negative mass
    centre = max(h_volume(cb.FootruleUpperBound(p), cb.UnitPoint(0.495, 0.495),
                          cb.UnitPoint(0.505, 0.505)) for p in (-0.25, 0.0, 0.2))
    ok &= centre < 0.0
    _report(4, "two-increasing dichotomy on 120x120 and 200x200 grids", ok,
            f"{'; '.join(details)}; f-upper centre mass <= {centre:.2e}")


def test_criterion_05_endpoint_identities_exact():
    w, m = cb.W(U101, V101), cb.M(U101, V101)
    checks = [
        np.array_equal(cb.footrule_lower_bound(-0.5, U101, V101), w),
        np.array_equal(cb.footrule_lower_bound(1.0, U101, V101), m),
        np.array_equal(cb.gini_upper_bound(-1.0, U101, V101), w),
        np.array_equal(cb.gini_lower_bound(1.0, U101, V101), m),
    ]
    checks += [np.array_equal(cb.footrule_upper_bound(p, U101, V101), m)
               for p in (0.25, 0.5, 0.75, 1.0)]
    checks += [np.array_equal(cb.gini_upper_bound(g, U101, V101), m)
               for g in (0.5, 0.75, 1.0)]
    checks += [np.array_equal(cb.gini_lower_bound(g, U101, V101), w)
               for g in (-0.5, -0.75, -1.0)]
    _report(5, "endpoint identities exact on a 101x101 grid", all(checks),
            f"{sum(checks)}/{len(checks)} identities")


def test_criterion_06_exact_region_attainment():
    rng = np.random.default_rng(103)
    worst = 0.0

    for phi in rng.uniform(-0.5, 0.25, 50):
        d1 = _invert_monotone(lambda d: cb.f_lower(0.5, 0.5, d), phi, 0.0, 0.5)
        spec = cb.ExtremalSpec(0.5, 0.5, d1, "lower")
        measured = 0.5 * (3.0 * cb.q_m_extremal_lower(spec) - 1.0)
        beta = 4.0 * cb.ExtremalCopula(spec)(0.5, 0.5) - 1.0
        worst = max(worst, abs(beta - cb.beta_range_given_footrule(measured)[1]))
    for phi in rng.uniform(-0.5, 1.0, 50):
        d2 = _invert_monotone(lambda d: cb.f_upper(0.5, 0.5, d), phi, 0.0, 0.5)
        spec = cb.ExtremalSpec(0.5, 0.5, 0.5 - d2, "upper")
        measured = 0.5 * (3.0 * cb.q_m_extremal_upper(spec) - 1.0)
        beta = 4.0 * cb.ExtremalCopula(spec)(0.5, 0.5) - 1.0
        worst = max(worst, abs(beta - cb.beta_range_given_footrule(measured)[0]))
    for gam in rng.uniform(-1.0, 0.5, 50):
        d1 = _invert_monotone(lambda d: cb.g_lower(0.5, 0.5, d), gam, 0.0, 0.5)
        spec = cb.ExtremalSpec(0.5, 0.5, d1, "lower")
        measured = cb.q_m_extremal_lower(spec) + cb.q_w_extremal_lower(spec)
        beta = 4.0 * cb.ExtremalCopula(spec)(0.5, 0.5) - 1.0
        worst = max(worst, abs(beta - cb.beta_range_given_gini(measured)[1]))
    for gam in rng.uniform(-0.5, 1.0, 50):
        d2 = _invert_monotone(lambda d: cb.g_upper(0.5, 0.5, d), gam, 0.0, 0.5)
        spec = cb.ExtremalSpec(0.5, 0.5, 0.5 - d2, "upper")
        measured = cb.g_upper(0.5, 0.5, d2)
        beta = 4.0 * cb.ExtremalCopula(spec)(0.5, 0.5) - 1.0
        worst = max(worst, abs(beta - cb.beta_range_given_gini(measured)[0]))
    ok_boundary = worst <= 1e-6

    quad = cb.QuadratureConfig(2048)
    inside = True
    slack = 5e-3
    for seed in range(1000):
        board = CheckerboardCopula.random(int(rng.choice([4, 8, 16])), seed)
        beta = cb.blomqvist_beta(board)
        for lo, hi in (cb.beta_range_given_footrule(cb.spearman_footrule(board, quad)),
                       cb.beta_range_given_gini(cb.gini_gamma(board, quad))):
            inside &= lo - slack <= beta <= hi + slack
    _report(6, "exact-region attainment and interior pairs",
            ok_boundary and inside,
            f"worst boundary distance={worst:.2e}, 1000 checkerboards inside={inside}")


def test_criterion_07_symmetry_suite():
    rng = np.random.default_rng(107)
    a, b = rng.random(10000), rng.random(10000)
    worst = 0.0
    # the 25-point grids, plus parameters between their nodes
    phis = np.concatenate([np.linspace(-0.5, 1.0, 25), [-0.4, -0.1, 0.12, 0.6]])
    gammas = np.concatenate([np.linspace(-1.0, 1.0, 25), [-0.8, -0.3, 0.15, 0.45, 0.8]])
    sweeps = [(cb.footrule_lower_bound, phis), (cb.footrule_upper_bound, phis),
              (cb.gini_lower_bound, gammas), (cb.gini_upper_bound, gammas)]
    for fn, params in sweeps:
        for p in params:
            worst = max(worst, float(np.abs(fn(p, a, b) - fn(p, b, a)).max()))
            radial = a + b - 1.0 + fn(p, 1.0 - a, 1.0 - b)
            worst = max(worst, float(np.abs(fn(p, a, b) - radial).max()))
    ok_sym = worst <= 1e-12

    worst_even = 0.0
    for k, n in ((0.25, 1024), (0.5, 1024), (0.3, 512), (0.7, 512)):
        plus = cb.effectiveness_score("gini", k, n).m
        minus = cb.effectiveness_score("gini", -k, n).m
        worst_even = max(worst_even, abs(plus - minus))
    _report(7, "symmetry and radial symmetry plus even effectiveness",
            ok_sym and worst_even <= 4e-3,
            f"worst symmetry={worst:.2e}, evenness={worst_even:.2e}")


def test_criterion_08_inversion_sharpness():
    rng = np.random.default_rng(109)
    worst = 0.0
    count = 0
    for phi in rng.uniform(-0.5, 0.25, 100):
        a, b = rng.random(100), rng.random(100)
        hi = cb.footrule_upper_bound(phi, a, b)
        mask = hi < np.minimum(a, b) - 1e-9
        if mask.any():
            worst = max(worst, float(np.abs(cb.f_lower(a[mask], b[mask], hi[mask]) - phi).max()))
            count += int(mask.sum())
    for gam in rng.uniform(-1.0, 0.5, 100):
        a, b = rng.random(100), rng.random(100)
        hi = cb.gini_upper_bound(gam, a, b)
        mask = hi < np.minimum(a, b) - 1e-9
        if mask.any():
            worst = max(worst, float(np.abs(cb.g_lower(a[mask], b[mask], hi[mask]) - gam).max()))
            count += int(mask.sum())
    _report(8, "inversion sharpness below the comonotone frontier",
            worst <= 1e-9 and count >= 1000, f"worst |diff|={worst:.2e} over {count} points")


def test_criterion_09_monotone_parameter_sweeps():
    worst = 0.0
    sweeps = [(cb.footrule_lower_bound, np.linspace(-0.5, 1.0, 25)),
              (cb.footrule_upper_bound, np.linspace(-0.5, 1.0, 25)),
              (cb.gini_lower_bound, np.linspace(-1.0, 1.0, 25)),
              (cb.gini_upper_bound, np.linspace(-1.0, 1.0, 25))]
    for fn, params in sweeps:
        prev = None
        for p in params:
            cur = fn(p, U101, V101)
            if prev is not None:
                worst = min(worst, float((cur - prev).min()))
            prev = cur
    _report(9, "pointwise monotone in the fixed measure value",
            worst >= -1e-12, f"worst backward step={worst:.2e}")


def test_criterion_10_gamma_from_footrule_antisymmetrisation():
    quad = cb.QuadratureConfig(2048)
    worst = 0.0
    for seed in (*range(2000, 2100), *range(40, 45)):
        board = CheckerboardCopula.random(16, seed)
        phi = cb.spearman_footrule(board, quad)
        phi_reflected = cb.spearman_footrule(TransformedFunction(board, "sigma1"), quad)
        gam = cb.gini_gamma(board, quad)
        worst = max(worst, abs(gam - (2.0 / 3.0) * (phi - phi_reflected)))
    _report(10, "gamma equals scaled footrule antisymmetrisation (105 boards)",
            worst <= 1e-10, f"worst |diff|={worst:.2e}")
