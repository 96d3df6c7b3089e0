import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from expanderlab import profiles, spectral
from expanderlab.exceptions import (
    BadBracketError,
    DomainError,
    EmptyBracketError,
    IntegrationError,
    NoUnstableExpanderError,
    ResolutionError,
)
from expanderlab.exponents import derived_exponents
from expanderlab.profiles import (
    RadialGrid,
    profile_on_nodes,
    series_coefficients,
    shoot_profile,
)
from expanderlab.spectral import (
    _matching_point,
    _PhaseShooter,
    PotentialField,
    eigenvalue_shoot,
    find_alpha_star,
    matrix_spectrum,
    neutral_zero_count,
    positive_spectrum,
    select_unstable_expander,
    top_eigenpair,
)

# Frozen from the tol=1e-6 bisection; reproduced by the domain-robustness
# test below and cross-checked against the raw-integration oracle.
ALPHA_STAR_53 = 1.7162442
ALPHA_STAR_32 = 0.5802040


def oracle_zero_count(alpha, params, lam=0.0, rho_max=16.0, h=0.0005):
    """Zero count by raw renormalized (f, f') integration, fixed-step RK4.

    Independent of the phase route: integrates the eigenvalue ODE together
    with the profile and counts sign changes of f directly.
    """
    d, p = params.d, params.p
    r0 = 1e-6 if alpha <= 5.0 else 1e-8
    c2, c4 = series_coefficients(alpha, params)
    u = alpha + c2 * r0 ** 2 + c4 * r0 ** 4
    du = 2 * c2 * r0 + 4 * c4 * r0 ** 3
    v0 = p * alpha ** (p - 1.0) if alpha > 0 else 0.0
    kappa0 = 1.0 / (p - 1.0) + v0 - lam
    b2 = -kappa0 / (2.0 * d)
    f = 1.0 + b2 * r0 ** 2
    df = 2.0 * b2 * r0

    def rhs(rho, state):
        u, du, f, df = state
        w = (d - 1.0) / rho + 0.5 * rho
        au = abs(u)
        nl = math.copysign(au ** p, u)
        qt = 1.0 / (p - 1.0) + p * au ** (p - 1.0) - lam
        return (du, -w * du - u / (p - 1.0) - nl,
                df, -w * df - qt * f)

    n = int(round((rho_max - r0) / h))
    h = (rho_max - r0) / n
    rho = r0
    state = [u, du, f, df]
    crossings = 0
    prev_sign = 1.0
    for _ in range(n):
        k1 = rhs(rho, state)
        s2 = [state[i] + h / 2 * k1[i] for i in range(4)]
        k2 = rhs(rho + h / 2, s2)
        s3 = [state[i] + h / 2 * k2[i] for i in range(4)]
        k3 = rhs(rho + h / 2, s3)
        s4 = [state[i] + h * k3[i] for i in range(4)]
        k4 = rhs(rho + h, s4)
        state = [state[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                 for i in range(4)]
        rho += h
        big = max(abs(state[2]), abs(state[3]))
        if big > 1e100:
            state[2] /= big
            state[3] /= big
        sign = math.copysign(1.0, state[2]) if state[2] != 0.0 else prev_sign
        if sign != prev_sign:
            crossings += 1
            prev_sign = sign
    return crossings


class TestNeutralZeroCount:
    def test_beyond_threshold_never_oscillates(self, params117):
        for alpha in [0.5, 1.0, 2.0, 5.0]:
            assert neutral_zero_count(alpha, params117) == 0

    def test_d5_p3_large_alpha(self, params53):
        assert neutral_zero_count(10.0, params53) >= 1

    def test_free_operator(self, params53):
        assert neutral_zero_count(0.0, params53) == 0

    def test_against_raw_integration_oracle(self, params53, params117):
        for alpha in [1.0, 2.5, 10.0]:
            assert neutral_zero_count(alpha, params53) == oracle_zero_count(
                alpha, params53)
        assert neutral_zero_count(2.0, params117) == oracle_zero_count(
            2.0, params117)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, params53, alpha):
        with pytest.raises(DomainError):
            neutral_zero_count(alpha, params53)

    def test_frobenius_start_insensitive_to_rho0(self, params53, stops,
                                                 monkeypatch):
        a = _PhaseShooter(1.0, params53, 16.0)
        monkeypatch.setattr(profiles, "RHO0_DEFAULT", 5e-5)
        b = _PhaseShooter(1.0, params53, 16.0)
        assert a.rho0 == pytest.approx(8.2e-5, rel=0.01) and b.rho0 == 5e-5
        # each count ends where its own steps meet the stop certificate, so
        # each end phase is compared with the other start's phase there
        for x, y in ((a, b), (b, a)):
            theta = x.theta_end(0.0)
            rho = stops[-1]
            assert rho < x.rho_max
            assert abs(theta - reference_theta_end(y, 0.0, rho)) < 1e-8


class TestAlphaStar:
    def test_d5_p3_finite(self, alpha_star53):
        assert alpha_star53.found
        lo, hi = alpha_star53.bracket
        assert hi - lo <= 1e-6
        assert alpha_star53.evaluations[0] == (0.1, 0)
        assert alpha_star53.zero_count_hi >= 1
        assert alpha_star53.alpha_star == pytest.approx(ALPHA_STAR_53, abs=2e-6)
        assert alpha_star53.monotone

    def test_d3_p2_finite(self, params32):
        res = find_alpha_star(params32, bracket=(0.1, 50.0), tol=1e-6)
        assert res.found
        assert res.alpha_star == pytest.approx(ALPHA_STAR_32, abs=2e-6)

    def test_beyond_threshold_absent(self, params117):
        res = find_alpha_star(params117, bracket=(0.1, 50.0), tol=1e-6)
        assert not res.found
        # two counts, the ends: no interior scan
        assert res.evaluations == [(0.1, 0), (50.0, 0)]
        assert res.zero_count_hi == 0

    def test_bad_bracket_raises(self, params53):
        with pytest.raises(BadBracketError):
            find_alpha_star(params53, bracket=(10.0, 50.0), tol=1e-3)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_bad_tolerance_rejected(self, params53, tol):
        # tol <= 0 never ended the bisection; NaN skipped it
        with pytest.raises(DomainError):
            find_alpha_star(params53, tol=tol)

    def test_tolerance_below_float_spacing_ends(self, params53):
        # the bisection used to loop forever once the midpoint of two
        # adjacent floats was one of them
        res = find_alpha_star(params53, bracket=(1.0, 3.0), tol=1e-300)
        lo, hi = res.bracket
        assert lo < hi
        assert hi - lo <= 4 * math.ulp(hi)

    def test_domain_truncation_robust(self, params53, alpha_star53):
        # same transition located on a longer domain: oracle-style check
        grid20 = RadialGrid.uniform(rho_max=20.0, drho=0.01)
        res = find_alpha_star(params53, bracket=(1.0, 3.0), tol=1e-8,
                              grid=grid20)
        assert res.alpha_star == pytest.approx(alpha_star53.alpha_star,
                                               abs=1e-6)


@pytest.fixture
def stops(monkeypatch):
    """The rho at which each of the test's phase integrations ends."""
    rhos = []
    integrate = spectral._integrate_to_end

    def recorded(*args):
        rho, end = integrate(*args)
        rhos.append(rho)
        return rho, end

    monkeypatch.setattr(spectral, "_integrate_to_end", recorded)
    return rhos


def reference_theta_end(sh, lam, rho_end=None):
    """Phase of the regular solution at rho_end (default rho_max) by
    solve_ivp's DOP853, with the profile riding along, at the shooter's
    tolerances; no early stop."""
    d, p = sh.params.d, float(sh.params.p)

    def rhs(rho, y):
        theta, u, du = y
        w = (d - 1.0) / rho + 0.5 * rho
        au = abs(u)
        qt = 1.0 / (p - 1.0) - lam + p * au ** (p - 1.0)
        s, c = math.sin(theta), math.cos(theta)
        return (c * c + qt * s * s + w * s * c,
                du, -w * du - u / (p - 1.0) - math.copysign(au ** p, u))

    f0, df0, _, _ = sh._eigen_series(lam)
    state0 = (math.atan2(f0, df0), sh.u0, sh.du0)
    sol = solve_ivp(rhs, (sh.rho0, rho_end or sh.rho_max), state0,
                    method="DOP853", rtol=spectral.RTOL, atol=spectral.ATOL)
    assert sol.success
    return float(sol.y[0, -1])


# find_alpha_star on (5,3) at its default bracket and tol, with every count
# taken by reference_theta_end (solve_ivp's DOP853)
ALPHA_STAR_53_BRACKET = (1.7162438198924064, 1.7162445634603498)
ALPHA_STAR_53_EVALUATIONS = [
    (0.1, 0), (50.0, 3), (25.05, 2), (12.575000000000001, 2), (6.3375, 1),
    (3.21875, 1), (1.659375, 0), (2.4390625, 1), (2.04921875, 1),
    (1.8542968750000002, 1), (1.7568359375, 1), (1.70810546875, 0),
    (1.732470703125, 1), (1.7202880859374998, 1), (1.7141967773437499, 0),
    (1.7172424316406247, 1), (1.7157196044921874, 0), (1.716481018066406, 1),
    (1.7161003112792967, 0), (1.7162906646728513, 1), (1.7161954879760741, 0),
    (1.7162430763244627, 0), (1.716266870498657, 1), (1.71625497341156, 1),
    (1.7162490248680113, 1), (1.716246050596237, 1), (1.7162445634603498, 1),
    (1.7162438198924064, 0)]


class TestCountKernel:
    @pytest.mark.parametrize("d, p, alpha", [
        (5, 3.0, 0.5), (5, 3.0, ALPHA_STAR_53), (5, 3.0, 5.0),
        (3, 2.0, 0.5), (3, 2.0, 5.0), (11, 7.0, 0.5), (11, 7.0, 5.0)])
    def test_theta_end_matches_solve_ivp(self, d, p, alpha, stops):
        sh = _PhaseShooter(alpha, derived_exponents(d, p), 16.0)
        for lam in (-1.0, 0.0, 0.3):
            ref = reference_theta_end(sh, lam)
            theta = sh.theta_end(lam)
            rho = stops[-1]
            assert abs(theta - reference_theta_end(sh, lam, rho)) <= 1e-8
            assert sh.count_above(lam) == math.floor(ref / math.pi)

    def test_alpha_star_counts_unchanged(self, alpha_star53):
        assert alpha_star53.bracket == ALPHA_STAR_53_BRACKET
        assert alpha_star53.evaluations == ALPHA_STAR_53_EVALUATIONS

    def test_failed_run_raises_without_warning(self):
        def nan_rhs(rho, y):
            return [math.nan, 0.0]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError) as info:
                spectral._integrate_to_end(nan_rhs, (1.0, 16.0), (0.0, 1.0),
                                           lambda rho, y: False, "NaN probe")
        assert info.value.last_rho == 1.0
        assert "NaN probe" in str(info.value)

    @pytest.mark.parametrize("d, p", [(3, 3.0), (4, 2.0), (6, 3.0),
                                      (11, 3.0), (11, 7.0), (12, 2.0)])
    @settings(derandomize=True, deadline=None, max_examples=4)
    @given(alpha=st.floats(0.1, 60.0), lam=st.floats(-4.0, 4.0))
    def test_stopped_count_matches_full_domain(self, d, p, alpha, lam):
        sh = _PhaseShooter(alpha, derived_exponents(d, p), 16.0)
        assert sh.count_above(lam) == math.floor(
            reference_theta_end(sh, lam) / math.pi)

    def test_stop_at_start_skips_dop853(self, params53, stops, monkeypatch):
        # U <= 0.1 caps V far below the Liouville barrier, and g g' > 0 on
        # the axis: the count is settled before any step
        def no_dop853(*args):
            raise AssertionError("DOP853 called")

        monkeypatch.setattr(spectral, "ode", no_dop853)
        sh = _PhaseShooter(0.1, params53, 16.0)
        assert sh.count_above(0.0) == 0
        assert stops == [sh.rho0]

    def test_stop_before_rho_max_at_alpha_star(self, params53, stops):
        # lam = 0 sits 4.1e-7 below the top eigenvalue: f follows the
        # decaying eigenfunction to its last zero near rho = 7.34, whose
        # phase is ill-conditioned; the count stops once the errors made
        # there have decayed, still well short of rho_max
        sh = _PhaseShooter(ALPHA_STAR_53, params53, 16.0)
        theta = sh.theta_end(0.0)
        assert 7.5 < stops[-1] < 10.0
        assert math.floor(theta / math.pi) == math.floor(
            reference_theta_end(sh, 0.0) / math.pi)

    @pytest.mark.parametrize("d, p", [(5, 3.0), (11, 7.0)])
    def test_no_stop_at_an_eigenvalue(self, d, p, stops):
        # at alpha = 0 the top eigenfunction is exactly e^(-rho^2/4), at
        # lam = 1/(p-1) - d/2, so g = sqrt(w) f decays and g g' < 0; by
        # rho = 11 rounding has grown the other branch back in, so the
        # domain ends at 8
        sh = _PhaseShooter(0.0, derived_exponents(d, p), 8.0)
        lam = 1.0 / (p - 1.0) - d / 2.0
        theta = sh.theta_end(lam)
        assert stops == [8.0]
        assert math.floor(theta / math.pi) == math.floor(
            reference_theta_end(sh, lam) / math.pi)

    @settings(derandomize=True, deadline=None, max_examples=8)
    @given(family=st.sampled_from([(5, 3.0), (3, 2.0), (11, 7.0)]),
           alpha=st.floats(0.1, 10.0),
           lams=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2,
                         unique=True).map(sorted))
    def test_count_non_increasing_in_lambda(self, family, alpha, lams):
        sh = _PhaseShooter(alpha, derived_exponents(*family), 16.0)
        lam1, lam2 = lams
        assert sh.count_above(lam1) >= sh.count_above(lam2)


class TestEigenvalueShoot:
    def test_lambda_zero_at_alpha_star(self, params53, alpha_star53):
        pair = top_eigenpair(alpha_star53.alpha_star, params53)
        assert abs(pair.lam) <= 1e-4
        assert pair.zero_count == 0

    def test_top_eigenpair_properties(self, params53, alpha_star53):
        alpha = alpha_star53.alpha_star + 0.5
        pair = top_eigenpair(alpha, params53)
        assert pair.lam == pytest.approx(0.8924401, abs=1e-6)
        assert pair.zero_count == 0
        assert pair.f[0] == pytest.approx(1.0, abs=1e-8)
        assert abs(pair.f[-1]) <= 1e-6 * np.max(np.abs(pair.f))
        assert pair.l2w_norm > 0
        assert pair.match_defect < 1e-3

    def test_empty_bracket_raises(self, params53, alpha_star53):
        alpha = alpha_star53.alpha_star + 0.5
        with pytest.raises(EmptyBracketError):
            eigenvalue_shoot(alpha, params53, (2.0, 3.0))

    def test_perturbation_bound_near_alpha_star(self, selected53):
        # Weyl: the top eigenvalue, 0 at alpha*, moves by at most
        # sup |V_alpha_bar - V_alpha*|
        p, nodes = selected53.profile.params.p, selected53.profile.grid.nodes
        v_star = p * np.abs(profile_on_nodes(
            selected53.alpha_star.alpha_star, selected53.profile.params,
            nodes)) ** (p - 1.0)
        gap = np.max(np.abs(
            PotentialField.from_profile(selected53.profile).v - v_star))
        assert 0 < selected53.lambda_bar <= gap

    def test_top_eigenfunction_nodeless_d11_p7(self, params117):
        pair = eigenvalue_shoot(5.023596998906852, params117, (-3.3, -3.1),
                                RadialGrid.uniform(16.0, 0.01))
        assert pair.zero_count == 0


# acceptance criterion 3's (d, p, alpha) cases
CRITERION3_CASES = [(d, p, alpha) for d, p in ((5, 3.0), (3, 2.0), (11, 7.0))
                    for alpha in (0.5, 1.0, 2.0, 5.0)]


class TestPhaseMatching:
    @pytest.mark.parametrize("d, p, alpha, lam", [
        (5, 3.0, 2.0, 0.45), (3, 2.0, 1.0, 0.3), (11, 7.0, 5.0, -3.2)])
    def test_miss_derivative_matches_central_difference(self, d, p, alpha,
                                                        lam):
        sh = _PhaseShooter(alpha, derived_exponents(d, p), 16.0)
        rho_m = _matching_point(sh, lam, RadialGrid.uniform().nodes)
        _, dmiss = sh.match_phases(lam, rho_m)
        h = 1e-4
        central = (sh.match_phases(lam + h, rho_m)[0]
                   - sh.match_phases(lam - h, rho_m)[0]) / (2.0 * h)
        assert dmiss < 0.0
        assert dmiss == pytest.approx(central, rel=1e-5)

    def test_free_operator_top(self, params53):
        # alpha = 0: no profile, V = 0; top eigenvalue 1/(p-1) - d/2
        pair = top_eigenpair(0.0, params53)
        assert pair.lam == pytest.approx(-2.0, abs=1e-9)
        assert pair.zero_count == 0 and pair.match_defect <= 1e-6

    @pytest.mark.parametrize("d, p, alpha",
                             CRITERION3_CASES + [(5, 3.0, 10.0)])
    def test_glue_clean_and_zero_counts_exact(self, d, p, alpha):
        params = derived_exponents(d, p)
        grid = RadialGrid.uniform(16.0, 0.01)
        top = top_eigenpair(alpha, params, grid)
        pairs = positive_spectrum(alpha, params, grid)
        assert top.zero_count == 0
        assert [e.zero_count for e in pairs] == list(range(len(pairs)))
        assert all(e.match_defect <= 1e-6 for e in [top] + pairs)
        # one descending walk: the first pair is the top pair, bit for bit
        assert not pairs or pairs[0].lam == top.lam
        if (d, p, alpha) == (5, 3.0, 10.0):
            assert len(pairs) == 2

    @pytest.mark.parametrize("d, p, alpha",
                             CRITERION3_CASES + [(5, 3.0, 10.0)])
    def test_potential_table_matches_dense_profile(self, d, p, alpha):
        # on the whole profile domain, which holds every matching point
        sh = _PhaseShooter(alpha, derived_exponents(d, p), 16.0)
        rho = np.linspace(sh.rho0, 16.0, 20001)
        exact = p * np.abs(sh._usol.sol(rho)[0]) ** (p - 1.0)
        table = np.array([sh.potential(r) for r in rho])
        assert np.max(np.abs(table - exact)) <= 1e-12 * np.max(exact)


class TestPositiveSpectrum:
    def test_beyond_threshold_empty(self, params117):
        assert positive_spectrum(2.0, params117) == []

    def test_zero_profile(self, params53):
        # the free operator's top eigenvalue is 1/(p-1) - d/2: negative at
        # (5, 3), positive below the Fujita power
        assert positive_spectrum(0.0, params53) == []
        params = derived_exponents(5, 1.3)
        pairs = positive_spectrum(0.0, params)
        assert len(pairs) == 1 and pairs[0].zero_count == 0
        assert pairs[0].lam == pytest.approx(1.0 / 0.3 - 2.5, abs=1e-9)
        mat = matrix_spectrum(0.0, params, RadialGrid.uniform(), cutoff=0.0)
        assert len(mat) == 1
        assert abs(pairs[0].lam - mat[0]) <= 1e-6

    def test_two_eigenvalues_sturm_indexed(self, params53):
        pairs = positive_spectrum(10.0, params53)
        assert len(pairs) == neutral_zero_count(10.0, params53) == 2
        assert pairs[0].lam > pairs[1].lam > 0
        assert pairs[0].zero_count == 0
        assert pairs[1].zero_count == 1

    def test_length_matches_zero_count_random_alpha(self, params53):
        rng = np.random.default_rng(5)
        for alpha in rng.uniform(0.3, 8.0, 20):
            pairs = positive_spectrum(float(alpha), params53)
            assert len(pairs) == neutral_zero_count(float(alpha), params53)

    def test_shared_shooter_solves_each_pair_once(self, params53,
                                                  monkeypatch):
        shoots = []
        shoot = eigenvalue_shoot

        def counted_shoot(*args, **kwargs):
            shoots.append(args)
            return shoot(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigenvalue_shoot", counted_shoot)
        grid = RadialGrid.uniform()
        top = top_eigenpair(10.0, params53, grid)
        pairs = positive_spectrum(10.0, params53, grid)
        assert len(shoots) == len(pairs) == 2
        assert pairs[0] is top

    def test_single_small_eigenvalue_just_above_star(self, selected53):
        pairs = positive_spectrum(selected53.alpha_bar,
                                  selected53.profile.params)
        assert len(pairs) == 1
        assert pairs[0].lam == pytest.approx(selected53.lambda_bar, abs=1e-9)


class TestShooterSlot:
    """The one-slot shooter memo shared by the public spectral calls."""

    def test_crossval_pattern_integrates_once_bit_for_bit(self, params53,
                                                          monkeypatch):
        alpha, grid = 5.0, RadialGrid.uniform(16.0, 0.01)
        integrate_profile = spectral.integrate_profile
        integrations = []

        def counted_profile(*args, **kwargs):
            integrations.append(args)
            return integrate_profile(*args, **kwargs)

        monkeypatch.setattr(spectral, "integrate_profile", counted_profile)
        top = top_eigenpair(alpha, params53, grid)
        mat = matrix_spectrum(alpha, params53, grid, cutoff=-3.0)
        spec = positive_spectrum(alpha, params53, grid)
        n = neutral_zero_count(alpha, params53, grid)
        assert len(integrations) == 1
        assert spec[0] is top and len(spec) == n >= 1
        held = spectral._shooter(alpha, params53, grid.rho_max)._usol

        # the same calls on fresh shooters and a fresh profile
        spectral._shooter.cache_clear()
        ref_top = top_eigenpair(alpha, params53, grid)
        spectral._shooter.cache_clear()
        ref_spec = positive_spectrum(alpha, params53, grid)
        ref_n = _PhaseShooter(alpha, params53, grid.rho_max).count_above(0.0)
        spectral._shooter.cache_clear()
        ref_mat = matrix_spectrum(alpha, params53, grid, cutoff=-3.0)
        assert ref_mat == mat and ref_n == n
        for pair, ref in zip([top] + spec, [ref_top] + ref_spec,
                             strict=True):
            assert pair.lam == ref.lam
            assert np.array_equal(pair.f, ref.f)
            assert (pair.zero_count, pair.l2w_norm, pair.match_defect) == (
                ref.zero_count, ref.l2w_norm, ref.match_defect)
        fresh = integrate_profile(alpha, params53, grid.rho_max)
        assert np.array_equal(held.sol(grid.nodes), fresh.sol(grid.nodes))

    def test_crossval_resolved_matrix_grid_integrates_once(self, params117,
                                                           monkeypatch):
        # crossval's (11, 7) case at alpha = 5: the matrix grid's spacing
        # does not divide 16, yet it ends at 16 like the shooting grid
        alpha, p = 5.0, params117.p
        grid = RadialGrid.uniform(16.0, 0.01)
        mgrid = RadialGrid.uniform(
            16.0, min(0.01, 0.5 / math.sqrt(p * alpha ** (p - 1.0))))
        integrate_profile = spectral.integrate_profile
        integrations = []

        def counted_profile(*args, **kwargs):
            integrations.append(args)
            return integrate_profile(*args, **kwargs)

        monkeypatch.setattr(spectral, "integrate_profile", counted_profile)
        top = top_eigenpair(alpha, params117, grid)
        mat = matrix_spectrum(alpha, params117, mgrid,
                              cutoff=1.0 / (p - 1.0) - 11 / 2.0 - 0.6)
        assert positive_spectrum(alpha, params117, grid) == []
        assert neutral_zero_count(alpha, params117, grid) == 0
        assert len(integrations) == 1
        assert abs(top.lam - mat[0]) <= max(1e-4 * abs(top.lam), 1e-6)

    def test_equal_grids_share_pairs(self, params53):
        # two equal grids, not one grid object
        top = top_eigenpair(2.5, params53, RadialGrid.uniform())
        spec = positive_spectrum(2.5, params53, RadialGrid.uniform())
        assert spec[0] is top

    def test_sweep_keeps_one_shooter(self, params53):
        find_alpha_star(params53, tol=1e-3)
        info = spectral._shooter.cache_info()
        assert info.misses > 10 and info.currsize == 1

    @pytest.mark.parametrize("alpha", [math.nan, -1.0])
    def test_invalid_alpha_not_cached(self, params53, alpha):
        held = spectral._shooter(1.0, params53, 16.0)
        with pytest.raises(DomainError):
            neutral_zero_count(alpha, params53)
        with pytest.raises(DomainError):
            matrix_spectrum(alpha, params53, RadialGrid.uniform())
        assert spectral._shooter.cache_info().currsize == 1
        assert spectral._shooter(1.0, params53, 16.0) is held


class TestMatrixSpectrum:
    def test_free_operator_top(self, params53):
        grid = RadialGrid.uniform(16.0, 0.01)
        vals = matrix_spectrum(0.0, params53, grid, cutoff=-6.0)
        top_bound = 1.0 / (params53.p - 1.0) - params53.d / 2.0
        assert vals[0] <= top_bound + 1e-3
        # free spectrum is an arithmetic ladder with unit spacing
        assert vals[0] == pytest.approx(top_bound, abs=1e-6)
        assert vals[1] == pytest.approx(top_bound - 1.0, abs=1e-6)

    def test_cross_method_agreement(self, params53, alpha_star53):
        alpha = alpha_star53.alpha_star + 0.5
        pair = top_eigenpair(alpha, params53)
        vals = matrix_spectrum(alpha, params53, RadialGrid.uniform(16.0, 0.01))
        assert abs(vals[0] - pair.lam) <= max(1e-4 * abs(pair.lam), 1e-6)

    def test_negative_top_agreement_beyond_threshold(self, params117):
        pair = top_eigenpair(2.0, params117)
        assert pair.lam < 0  # no unstable direction in this regime
        vals = matrix_spectrum(2.0, params117,
                               RadialGrid.uniform(16.0, 0.01), cutoff=-6.0)
        assert abs(vals[0] - pair.lam) <= max(1e-4 * abs(pair.lam), 1e-6)

    def test_coarse_grid_refused(self, params53):
        grid = RadialGrid.uniform(16.0, 0.1)
        with pytest.raises(ResolutionError):
            matrix_spectrum(1.0, params53, grid)

    def test_unresolvable_alpha_refused_before_integration(self, params53,
                                                           monkeypatch):
        # V(0) = 3e16 needs some 5.5e9 cells, past the grid's node cap; the
        # stand-in integrator would fail the call had it been reached
        integrations = []
        monkeypatch.setattr(spectral, "integrate_profile",
                            lambda *args, **kwargs: integrations.append(args))
        with pytest.raises(ResolutionError, match="cells"):
            matrix_spectrum(1e8, params53, RadialGrid.uniform())
        assert integrations == []

    def test_resolved_grid_keeps_its_cells(self, params53, monkeypatch):
        # a grid finer than 0.5/sqrt(V(0)) is assembled on its own cells
        levels = []
        radial_grid = spectral.RadialGrid

        def recorded(n, rho_max):
            levels.append((n, rho_max))
            return radial_grid(n, rho_max)

        monkeypatch.setattr(spectral, "RadialGrid", recorded)
        matrix_spectrum(2.0, params53, RadialGrid.uniform(16.0, 0.01))
        matrix_spectrum(40.0, params53, RadialGrid.uniform(16.0, 0.005))
        matrix_spectrum(40.0, params53, RadialGrid.uniform(16.0, 0.01))
        assert levels == [(1600, 16.0), (3200, 16.0), (3200, 16.0),
                          (6400, 16.0), (2217, 16.0), (4434, 16.0)]

    def test_eigenvalues_real_floats(self, params53):
        vals = matrix_spectrum(2.0, params53, RadialGrid.uniform(16.0, 0.02))
        assert all(isinstance(v, float) for v in vals)


class TestSelectUnstableExpander:
    def test_d5_p3(self, selected53):
        assert 0.0 < selected53.lambda_bar < 0.05
        assert selected53.alpha_bar > selected53.alpha_star.alpha_star
        assert selected53.eigenpair.zero_count == 0
        prof = selected53.profile
        assert prof.alpha == selected53.alpha_bar
        assert prof.residual_max <= 1e-6 * (1.0 + prof.max_abs_u)

    def test_beyond_threshold_raises(self, params117):
        with pytest.raises(NoUnstableExpanderError):
            select_unstable_expander(params117, 0.05)

    def test_below_fujita_raises(self):
        with pytest.raises(NoUnstableExpanderError):
            select_unstable_expander(derived_exponents(5, 1.3), 0.05)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.05])
    def test_bad_eps_target_rejected(self, params53, eps):
        with pytest.raises(DomainError):
            select_unstable_expander(params53, eps)

    def test_work_budget_d5_p3(self, params53, monkeypatch):
        # selection decides by Sturm counts and solves one eigenpair, in a
        # few phase-matching evaluations, on the one profile it integrates
        shoots, misses, matches, integrations = [], [], [], []
        shoot, theta_end = eigenvalue_shoot, _PhaseShooter.theta_end
        match_phases = _PhaseShooter.match_phases
        integrate_profile = spectral.integrate_profile

        def counted_shoot(*args, **kwargs):
            shoots.append(args)
            return shoot(*args, **kwargs)

        def counted_theta_end(self, lam):
            if float(lam) not in self._theta_cache:
                misses.append(lam)
            return theta_end(self, lam)

        def counted_match(self, lam, rho_m):
            matches.append(lam)
            return match_phases(self, lam, rho_m)

        def counted_profile(*args, **kwargs):
            integrations.append(args)
            return integrate_profile(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigenvalue_shoot", counted_shoot)
        monkeypatch.setattr(_PhaseShooter, "theta_end", counted_theta_end)
        monkeypatch.setattr(_PhaseShooter, "match_phases", counted_match)
        monkeypatch.setattr(spectral, "integrate_profile", counted_profile)
        sel = select_unstable_expander(params53, eps_target=0.05)
        assert len(shoots) == 1
        assert len(integrations) == 1
        assert len(misses) <= 100
        assert len(matches) <= 12
        assert sel.alpha_bar == 1.7457421387208156
        # within 3e-12 of the value at rtol 1e-13, atol 1e-15
        assert sel.lambda_bar == pytest.approx(0.048292310138074494,
                                               abs=1e-12)

    def test_profile_is_a_fresh_shot(self, selected53):
        # the profile sampled off the selection's shooter is the one a
        # separate shot at alpha_bar gives, bit for bit
        prof = selected53.profile
        shot = shoot_profile(selected53.alpha_bar, prof.params, prof.grid)
        assert np.array_equal(prof.u, shot.u)
        assert np.array_equal(prof.du, shot.du)

    def test_potential_field_consistency(self, selected53):
        pf = PotentialField.from_profile(selected53.profile)
        p = selected53.profile.params.p
        assert np.all(pf.v >= 0)
        expected = p * np.abs(selected53.profile.u) ** (p - 1.0)
        assert np.allclose(pf.v, expected, rtol=0, atol=0)
