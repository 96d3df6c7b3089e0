"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here exactly as stated; every expected value comes
from an independent oracle or a closed form.  Runtime caps are checked
per criterion (run this module standalone for faithful timings:
pytest tests/test_acceptance.py -v -s).
"""

import math
import time
from decimal import Decimal, getcontext

import numpy as np

from expanderlab import spectral
from expanderlab.exponents import (
    contraction_remainder_gap,
    derived_exponents,
    taylor_remainder_gap,
)
from expanderlab.profiles import (
    RadialGrid,
    estimate_ell,
    fit_tail_exponent,
    shoot_profile,
)
from expanderlab.semigroup import (
    GaussianDatum,
    RadialFunction,
    apply_S0,
    apply_S0_gaussian,
    growth_rate_gaussian,
)
from expanderlab.spectral import (
    find_alpha_star,
    matrix_spectrum,
    neutral_zero_count,
    positive_spectrum,
    top_eigenpair,
)
from expanderlab.dynamics import (
    evolve_perturbation,
    evolve_similarity,
    fit_log_slope,
    linearized_evolve,
    nonuniqueness_demo,
)
from expanderlab.spectral import PotentialField


def _report(number: int, passed: bool, detail: str, t0: float, capsys):
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: {status} - {detail} "
              f"({time.time() - t0:.2f}s)")
    assert passed, detail


def test_criterion_1_exponent_suite(capsys):
    t0 = time.time()
    getcontext().prec = 60
    ok = True
    for d in range(3, 11):
        ok = ok and math.isinf(derived_exponents(d, 2.0).p_jl)
    worst = 0.0
    for d in range(11, 21):
        exact = float(1 + 4 / (Decimal(d) - 4 - 2 * (Decimal(d) - 1).sqrt()))
        rel = abs(derived_exponents(d, 2.0).p_jl - exact) / exact
        worst = max(worst, rel)
    ok = ok and worst <= 1e-12
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, f"instability threshold exact to {worst:.1e} relative, "
                   f"infinite for d=3..10", t0, capsys)


def test_criterion_2_profile_suite(capsys):
    t0 = time.time()
    cases = [(5, 3.0), (3, 2.0), (11, 7.0)]
    grid_far = RadialGrid.uniform(rho_max=160.0, drho=0.005)
    grid_half = RadialGrid.uniform(rho_max=80.0, drho=0.01)
    ok = True
    details = []
    for d, p in cases:
        params = derived_exponents(d, p)
        target = -2.0 / (p - 1.0)
        for alpha in (0.5, 1.0, 2.0):
            prof = shoot_profile(alpha, params, grid_far)
            defect_ok = prof.residual_max <= 1e-6 * (1.0 + prof.max_abs_u)
            ell, unc = estimate_ell(prof)
            tail_ok = True
            if abs(ell) > 1e-6:
                slope = fit_tail_exponent(prof)
                tail_ok = abs(slope - target) <= 0.02 * abs(target)
            ell_half, unc_half = estimate_ell(
                shoot_profile(alpha, params, grid_half))
            stable_ok = abs(ell - ell_half) < unc_half
            ok = ok and defect_ok and tail_ok and stable_ok
            if not (defect_ok and tail_ok and stable_ok):
                details.append(f"({d},{p},{alpha}): defect={defect_ok} "
                               f"tail={tail_ok} stable={stable_ok}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    _report(2, ok, "9 profiles: defect <= 1e-6(1+max|u|), tail exponent "
                   "within 2%, ell stable under domain doubling"
            + ("; " + "; ".join(details) if details else ""), t0, capsys)


def test_criterion_3_spectral_cross_validation(capsys):
    t0 = time.time()
    grid = RadialGrid.uniform(16.0, 0.01)
    ok = True
    worst = 0.0
    details = []
    for d, p in [(5, 3.0), (3, 2.0), (11, 7.0)]:
        params = derived_exponents(d, p)
        cutoff = 1.0 / (p - 1.0) - d / 2.0 - 0.6
        for alpha in (0.5, 1.0, 2.0, 5.0):
            # one memo shooter serves all three calls: it walks this alpha's
            # spectrum and holds the profile the matrix reads; the matrix
            # sizes its own cells to the axis spike of V
            pair = top_eigenpair(alpha, params, grid)
            spectrum = positive_spectrum(alpha, params, grid)
            mat = matrix_spectrum(alpha, params, grid, cutoff=cutoff)
            gap = abs(pair.lam - mat[0])
            agree = gap <= max(1e-4 * abs(pair.lam), 1e-6)
            worst = max(worst, gap)
            # Sturm indexing: k-th positive eigenvalue from the top has
            # exactly k interior zeros, and the count matches the phase;
            # a fresh shooter counts, so the length check compares two
            # separately built walks
            spectral._shooter.cache_clear()
            n = neutral_zero_count(alpha, params, grid)
            sturm = len(spectrum) == n and all(
                e.zero_count == k for k, e in enumerate(spectrum))
            sturm = sturm and pair.zero_count == 0
            ok = ok and agree and sturm
            if not (agree and sturm):
                details.append(f"({d},{p},{alpha}): gap={gap:.2e} "
                               f"sturm={sturm}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _report(3, ok, f"12-case shooting vs weighted-matrix agreement "
                   f"(worst gap {worst:.1e}) with exact Sturm indexing"
            + ("; " + "; ".join(details) if details else ""), t0, capsys)


def test_criterion_4_alpha_star_dichotomy(capsys):
    t0 = time.time()
    grid = RadialGrid.uniform(16.0, 0.01)
    ok = True
    details = []
    for d, p in [(5, 3.0), (3, 2.0)]:
        params = derived_exponents(d, p)
        res = find_alpha_star(params, bracket=(0.1, 50.0), tol=1e-6,
                              grid=grid)
        width = res.bracket[1] - res.bracket[0]
        lam_top = top_eigenpair(res.alpha_star, params, grid).lam
        case_ok = res.found and width <= 1e-6 and abs(lam_top) <= 1e-4
        ok = ok and case_ok
        details.append(f"({d},{p}): alpha*={res.alpha_star:.7f} "
                       f"|lambda|={abs(lam_top):.1e}")
    params117 = derived_exponents(11, 7.0)
    res117 = find_alpha_star(params117, bracket=(0.1, 50.0), tol=1e-6,
                             grid=grid)
    ok = ok and not res117.found
    details.append("(11,7): no transition on (0, 50]")
    _report(4, ok, "; ".join(details), t0, capsys)


def test_criterion_5_semigroup_suite(capsys):
    t0 = time.time()
    params = derived_exponents(5, 3.0)
    grid = RadialGrid.uniform(16.0, 0.01)
    ok = True

    # exact semigroup law on the closed-form Gaussian family
    rng = np.random.default_rng(12)
    law_worst = 0.0
    for _ in range(50):
        g = GaussianDatum(float(rng.uniform(-2, 2)),
                          float(rng.uniform(0.1, 5.0)))
        t1, t2 = rng.uniform(0.0, 1.0, 2)
        once = apply_S0_gaussian(float(t1 + t2), g, params)
        twice = apply_S0_gaussian(float(t2),
                                  apply_S0_gaussian(float(t1), g, params),
                                  params)
        law_worst = max(
            law_worst,
            abs(once.amplitude - twice.amplitude) / max(1.0, abs(once.amplitude)),
            abs(once.variance - twice.variance) / once.variance)
    ok = ok and law_worst <= 1e-12

    # growth exponents with the sign flip at the critical exponent
    rate_worst = 0.0
    for eta in (1.0, 2.0, params.q_c, 2.0 * params.q_c):
        target = 1.0 / (params.p - 1.0) - params.d / (2.0 * eta)
        rate_worst = max(rate_worst,
                         abs(growth_rate_gaussian(eta, params) - target))
    ok = ok and rate_worst <= 1e-3
    ok = ok and growth_rate_gaussian(0.9 * params.q_c, params) < 0.0
    ok = ok and growth_rate_gaussian(1.1 * params.q_c, params) > 0.0

    # quadrature path against the closed form
    g = GaussianDatum(1.3, 0.8)
    fin = RadialFunction(grid=grid, values=g.values_on(grid.nodes))
    quad_worst = 0.0
    for tau in (1e-3, 0.1, 2.0):
        out = apply_S0(tau, fin, params)
        exact = apply_S0_gaussian(tau, g, params).values_on(grid.nodes)
        quad_worst = max(quad_worst, float(
            np.max(np.abs(out.values - exact)) / np.max(np.abs(exact))))
    ok = ok and quad_worst <= 1e-6

    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    _report(5, ok, f"law exact to {law_worst:.1e}, growth rates to "
                   f"{rate_worst:.1e} with sign flip, quadrature to "
                   f"{quad_worst:.1e}", t0, capsys)


def test_criterion_6_dynamics_suite(selected53, params53, capsys):
    prof = selected53.profile
    pot = PotentialField.from_profile(prof)
    mode = selected53.eigenpair.f
    lam = selected53.lambda_bar
    t0 = time.time()

    drift_log = evolve_similarity(prof.u, 0.0, 5.0, params53, prof.grid,
                                  dtau=0.01, reference=prof.u)
    drift = float(np.max(np.abs(drift_log.final.v - prof.u)))
    drift_ok = drift <= 1e-5 * (1.0 + prof.max_abs_u)

    lin = linearized_evolve(mode, pot, 0.0, 5.0, dtau=0.01)
    rate, _ = fit_log_slope(lin.taus, np.log(lin.norms["lr"]))
    rate_ok = abs(rate - lam) <= 1e-3

    ratios = []
    for scale in (1.0, 0.5, 0.25):
        eps = 0.02 * scale
        nl = evolve_perturbation(eps * mode, pot, 0.0, 2.0, params53,
                                 dtau=0.01)
        ln = linearized_evolve(eps * mode, pot, 0.0, 2.0, dtau=0.01)
        ratios.append(float(np.max(np.abs(nl.final.v - ln.final.v))
                            / eps ** 2))
    tangency_ok = max(ratios) / min(ratios) < 2.0 and all(
        math.isfinite(x) for x in ratios)

    runs = {dt: linearized_evolve(mode, pot, 0.0, 1.0, dtau=dt).final.v
            for dt in (0.04, 0.02, 0.01)}
    richardson = float(np.max(np.abs(runs[0.04] - runs[0.02]))
                       / np.max(np.abs(runs[0.02] - runs[0.01])))
    order_ok = abs(richardson - 4.0) <= 0.3

    elapsed = time.time() - t0
    ok = (drift_ok and rate_ok and tangency_ok and order_ok
          and elapsed < 60.0)
    _report(6, ok, f"drift {drift:.1e}, rate gap {abs(rate - lam):.1e}, "
                   f"tangency ratios {min(ratios):.2f}..{max(ratios):.2f}, "
                   f"Richardson {richardson:.2f}", t0, capsys)


def test_criterion_7_nonuniqueness_demo(params53, capsys):
    t0 = time.time()
    report = nonuniqueness_demo(params53, q=2.0, r=10.0)
    ok = report.passed
    ok = ok and report.feasibility.slack > 0.0
    ok = ok and report.checks["ancient_lower_bound"]
    ok = ok and abs(report.measured_slope - report.predicted_slope) <= \
        0.1 * abs(report.predicted_slope)
    ok = ok and report.slope_r2 >= 0.99
    ok = ok and report.decades >= 2.0
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _report(7, ok, f"slope {report.measured_slope:.4f} vs predicted "
                   f"{report.predicted_slope:.4f}, R^2 "
                   f"{report.slope_r2:.5f} over {report.decades:.1f} "
                   f"decades, lambda_bar {report.lambda_bar:.5f}", t0, capsys)


def test_criterion_8_inequality_suite(capsys):
    t0 = time.time()
    n = 100_000
    rng = np.random.default_rng(777)
    x = rng.uniform(-10.0, 10.0, n)
    y = rng.uniform(-10.0, 10.0, n)
    p = rng.uniform(1.0 + 1e-9, 6.0, n)
    lhs, rhs = taylor_remainder_gap(x, y, p)
    viol_taylor = int(np.sum(lhs > rhs * (1 + 1e-12) + 1e-12))

    x2 = rng.uniform(-10.0, 10.0, n)
    y2 = rng.uniform(-10.0, 10.0, n)
    z2 = rng.uniform(-10.0, 10.0, n)
    p2 = rng.uniform(1.0 + 1e-9, 6.0, n)
    lhs2, rhs2 = contraction_remainder_gap(x2, y2, z2, p2)
    viol_contraction = int(np.sum(lhs2 > rhs2 * (1 + 1e-12) + 1e-12))

    elapsed = time.time() - t0
    ok = viol_taylor == 0 and viol_contraction == 0 and elapsed < 5.0
    _report(8, ok, f"10^5 seeded samples per bound, violations: "
                   f"{viol_taylor} + {viol_contraction}", t0, capsys)
