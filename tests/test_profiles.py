import contextlib
import gc
import math
import signal
import weakref

import numpy as np
import pytest
from scipy.integrate import simpson, solve_ivp

from expanderlab import profiles, spectral
from expanderlab.exceptions import DomainError, IntegrationError
from expanderlab.exponents import derived_exponents
from expanderlab.profiles import (
    ATOL,
    DEFAULT_GRID,
    RTOL,
    RadialGrid,
    estimate_ell,
    fit_tail_exponent,
    integrate_profile,
    series_coefficients,
    series_start,
    shoot_profile,
    sweep_ell,
)
from expanderlab.spectral import (
    _matching_point,
    _PhaseShooter,
    _reconstruct_eigenfunction,
)

# Frozen tail constants from the independent fixed-step RK4 oracle
# (h = 0.002, evaluation radii 80 and 160, rho^-2 Richardson elimination;
# oracle self-error below 1e-6).  See rk4_tail_oracle below.
ELL_ORACLE = {
    (5, 3.0, 1.0): 1.403682541,
    (5, 3.0, 0.5): 1.051931527,
    (3, 2.0, 1.0): 0.329314195,
    (11, 7.0, 1.0): 1.173806759,
}


def rk4_tail_oracle(d, p, alpha, rho_eval, h=0.002):
    """Fixed-step RK4 integration of the profile ODE, tail value at rho_eval.

    Kept verbatim so the frozen constants above can be regenerated; the
    route shares nothing with the adaptive integrator under test.
    """
    params = derived_exponents(d, p)
    c2, c4 = series_coefficients(alpha, params)
    r0 = 1e-4
    u = alpha + c2 * r0 ** 2 + c4 * r0 ** 4
    du = 2 * c2 * r0 + 4 * c4 * r0 ** 3

    def f(rho, u, du):
        nl = math.copysign(abs(u) ** p, u)
        return du, -((d - 1.0) / rho + 0.5 * rho) * du - u / (p - 1.0) - nl

    n = int(round((rho_eval - r0) / h))
    h = (rho_eval - r0) / n
    rho = r0
    for _ in range(n):
        k1u, k1v = f(rho, u, du)
        k2u, k2v = f(rho + h / 2, u + h / 2 * k1u, du + h / 2 * k1v)
        k3u, k3v = f(rho + h / 2, u + h / 2 * k2u, du + h / 2 * k2v)
        k4u, k4v = f(rho + h, u + h * k3u, du + h * k3v)
        u += h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        du += h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        rho += h
    return rho_eval ** (2.0 / (p - 1.0)) * u


class TestGridWeights:
    @pytest.mark.parametrize("drho, nodes", [(0.01, 1601), (0.03, 534)])
    def test_match_scipy_simpson(self, drho, nodes):
        # 534 nodes: an odd interval count, closed by scipy's last parabola
        grid = RadialGrid.uniform(16.0, drho)
        assert grid.nodes.size == nodes
        rho = grid.nodes
        integrands = np.array([np.where(rho < 1.0, (1.0 - rho ** 2) ** 2, 0.0),
                               rho ** 4 * np.exp(-rho ** 2 / 4.0),
                               1.0 / (1.0 + rho ** 2), np.cos(3.0 * rho)])
        np.testing.assert_allclose(integrands @ grid.weights,
                                   simpson(integrands, x=rho, axis=1),
                                   rtol=1e-13)


class TestSeriesStart:
    def test_quadratic_coefficient_example(self):
        params = derived_exponents(5, 3.0)
        c2, _ = series_coefficients(1.0, params)
        assert c2 == pytest.approx(-0.15, abs=1e-15)

    def test_zero_alpha_is_zero_solution(self):
        params = derived_exponents(5, 3.0)
        _, u, du = series_start(0.0, params)
        assert u == 0.0 and du == 0.0

    def test_coefficient_identity_random_alpha(self):
        params = derived_exponents(6, 2.5)
        rng = np.random.default_rng(3)
        for alpha in rng.uniform(0.01, 5.0, 10):
            c2, _ = series_coefficients(alpha, params)
            resid = c2 * 2 * params.d + alpha / (params.p - 1.0) + alpha ** params.p
            assert abs(resid) < 1e-12 * max(1.0, alpha ** params.p)

    def test_negative_alpha_rejected(self):
        params = derived_exponents(5, 3.0)
        with pytest.raises(DomainError):
            series_start(-1.0, params)


_P53 = derived_exponents(5, 3.0)


@pytest.mark.parametrize("call, args", [
    (integrate_profile, (1.0, _P53, math.nan)),
    (integrate_profile, (1.0, _P53, math.inf)),
    (integrate_profile, (1.0, _P53, 0.0)),
    (integrate_profile, (1.0, _P53, -16.0)),
    (integrate_profile, (math.nan, _P53, 16.0)),
    (integrate_profile, (math.inf, _P53, 16.0)),
    (shoot_profile, (math.nan, _P53)),
    (shoot_profile, (math.inf, _P53)),
    (_PhaseShooter, (1.0, _P53, math.nan)),
    (_PhaseShooter, (1.0, _P53, math.inf)),
    (_PhaseShooter, (1.0, _P53, 0.0)),
    (RadialGrid.uniform, (math.nan,)),
    (RadialGrid.uniform, (math.inf,)),
    (RadialGrid.uniform, (16.0, 0.0)),
    (RadialGrid.uniform, (16.0, math.nan)),
    (RadialGrid.uniform, (16.0, -0.01)),
])
def test_bad_domain_end_or_alpha_rejected(call, args):
    # a non-finite end used to hang the integrator instead of failing
    with pytest.raises(DomainError):
        call(*args)


@pytest.mark.parametrize("n, rho_max, message", [
    (1600, math.nan, "rho_max must be finite"),
    (1600, 0.0, "rho_max must be finite"),
    (1600, -16.0, "rho_max must be finite"),
    (98, 16.0, "at least 100 nodes"),
    (999, 9.99, "rho_max must be at least 10"),
], ids=["rho-max-nan", "rho-max-zero", "rho-max-negative", "few-nodes",
        "short-domain"])
def test_direct_grid_rejected(n, rho_max, message):
    with pytest.raises(DomainError, match=message):
        RadialGrid(n, rho_max)


def test_grid_ends_at_rho_max():
    # 0.003 does not divide 16: the grid keeps its end and rounds n
    grid = RadialGrid.uniform(16.0, 0.003)
    assert grid.rho_max == grid.nodes[-1] == 16.0
    assert grid.n == 5333 and grid.drho == 16.0 / 5333



@pytest.fixture(scope="module")
def grid160():
    return RadialGrid.uniform(rho_max=160.0, drho=0.005)


class TestShootProfile:
    def test_d5_p3_alpha1(self, grid160):
        params = derived_exponents(5, 3.0)
        prof = shoot_profile(1.0, params, grid160)
        assert np.all(np.isfinite(prof.u))
        assert prof.residual_max <= 1e-6 * (1.0 + prof.max_abs_u)
        assert prof.residual_max <= 1e-8
        ell, unc = estimate_ell(prof)
        assert ell > 0
        assert abs(ell - ELL_ORACLE[(5, 3.0, 1.0)]) <= unc + 2e-6

    def test_d3_p2_alpha1(self, grid160):
        params = derived_exponents(3, 2.0)
        prof = shoot_profile(1.0, params, grid160)
        assert np.all(np.isfinite(prof.u))
        ell, unc = estimate_ell(prof)
        assert math.isfinite(ell)
        assert abs(ell - ELL_ORACLE[(3, 2.0, 1.0)]) <= unc + 2e-6

    def test_zero_alpha(self):
        params = derived_exponents(5, 3.0)
        prof = shoot_profile(0.0, params)
        assert np.all(prof.u == 0.0)
        assert np.all(prof.du == 0.0)
        assert estimate_ell(prof) == (0.0, 0.0)

    def test_initial_conditions_on_grid(self):
        params = derived_exponents(5, 3.0)
        prof = shoot_profile(0.7, params)
        assert prof.u[0] == 0.7
        assert prof.du[0] == 0.0

    def test_tail_exponent_within_two_percent(self, grid160):
        for d, p, alpha in [(5, 3.0, 1.0), (3, 2.0, 0.5), (11, 7.0, 2.0)]:
            params = derived_exponents(d, p)
            prof = shoot_profile(alpha, params, grid160)
            if abs(estimate_ell(prof)[0]) > 1e-6:
                target = -2.0 / (p - 1.0)
                slope = fit_tail_exponent(prof)
                assert abs(slope - target) <= 0.02 * abs(target)

    def test_determinism_bit_identical(self):
        params = derived_exponents(5, 3.0)
        a = shoot_profile(1.3, params)
        b = shoot_profile(1.3, params)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.du, b.du)
        assert estimate_ell(a) == estimate_ell(b)

    def test_ell_stable_under_domain_doubling(self):
        params = derived_exponents(5, 3.0)
        g1 = RadialGrid.uniform(rho_max=80.0, drho=0.01)
        g2 = RadialGrid.uniform(rho_max=160.0, drho=0.01)
        e1, u1 = estimate_ell(shoot_profile(1.0, params, g1))
        e2, _ = estimate_ell(shoot_profile(1.0, params, g2))
        assert abs(e2 - e1) < u1

    def test_series_start_insensitive_to_rho0(self, monkeypatch):
        params = derived_exponents(5, 3.0)
        sol_a = integrate_profile(1.0, params, 16.0)
        monkeypatch.setattr(profiles, "RHO0_DEFAULT", 5e-5)
        sol_b = integrate_profile(1.0, params, 16.0)
        r0_a, r0_b = sol_a.t[0], sol_b.t[0]
        assert r0_a == pytest.approx(8.2e-5, rel=0.01) and r0_b == 5e-5
        assert abs(sol_a.sol(8.0)[0] - sol_b.sol(8.0)[0]) < 1e-9

    def test_csv_rows(self):
        params = derived_exponents(5, 3.0)
        prof = shoot_profile(1.0, params)
        rows = list(prof.to_csv_rows())
        assert rows[0] == ("rho", "u", "du")
        assert len(rows) == prof.grid.nodes.size + 1
        assert float(rows[1][1]) == 1.0


class TestSweep:
    def test_three_alphas_positive_ell(self):
        params = derived_exponents(5, 3.0)
        grid = RadialGrid.uniform(rho_max=80.0, drho=0.01)
        sweep = sweep_ell([0.5, 1.0, 2.0], params, grid)
        assert len(sweep.rows) == 3
        for row in sweep.rows:
            assert row.error is None
            assert row.ell is not None and row.ell > 0
            assert math.isfinite(row.ell)

    def test_empty_list(self):
        params = derived_exponents(5, 3.0)
        sweep = sweep_ell([], params)
        assert sweep.rows == []
        assert sweep.continuity_jump == 0.0

    def test_refinement_shrinks_continuity_jump(self):
        params = derived_exponents(5, 3.0)
        grid = RadialGrid.uniform(rho_max=40.0, drho=0.01)
        coarse = sweep_ell(np.linspace(0.5, 2.0, 4), params, grid)
        fine = sweep_ell(np.linspace(0.5, 2.0, 7), params, grid)
        assert fine.continuity_jump <= coarse.continuity_jump + 1e-12

    def test_csv_rows(self):
        params = derived_exponents(5, 3.0)
        grid = RadialGrid.uniform(rho_max=40.0, drho=0.01)
        sweep = sweep_ell([1.0], params, grid)
        rows = list(sweep.to_csv_rows())
        assert rows[0][0] == "alpha"
        assert len(rows) == 2


class TestTailNotResolved:
    def test_slowly_converging_tail_raises(self):
        # synthetic profile whose tail correction decays like 1/rho, far
        # off the quadratic law the fit assumes
        from expanderlab.exceptions import TailNotResolvedError
        from expanderlab.profiles import ExpanderProfile
        params = derived_exponents(5, 3.0)
        grid = RadialGrid.uniform(rho_max=10.0, drho=0.01)
        m = 2.0 / (params.p - 1.0)
        with np.errstate(divide="ignore"):
            u = np.where(grid.nodes > 0,
                         grid.nodes ** -m * (1.0 + 8.0 / (grid.nodes + 1e-12)),
                         1.0)
        prof = ExpanderProfile(alpha=1.0, params=params, grid=grid,
                               u=u, du=np.zeros_like(u), residual_max=0.0,
                               zero_crossings=0)
        with pytest.raises(TailNotResolvedError, match="rho_max"):
            estimate_ell(prof)


class TestOracleAgainstFrozen:
    """Regenerate one oracle value to guard against drift in the oracle."""

    def test_oracle_reproduces_frozen_value(self):
        w1 = rk4_tail_oracle(5, 3.0, 1.0, 80.0, h=0.004)
        w2 = rk4_tail_oracle(5, 3.0, 1.0, 160.0, h=0.004)
        a, b = 80.0 ** -2, 160.0 ** -2
        ell = (w1 * b - w2 * a) / (b - a)
        assert ell == pytest.approx(ELL_ORACLE[(5, 3.0, 1.0)], abs=5e-6)


# alpha* of find_alpha_star's default bracket and tolerance; (11, 7), past
# Joseph-Lundgren, has none
ALPHA_STAR = {(5, 3.0): 1.716244191676378, (3, 2.0): 0.5802039854228498}


class TestDop853:
    """profiles._dop853 returns solve_ivp's DOP853 result bit for bit."""

    @staticmethod
    def assert_as_solve_ivp(rhs, span, y0, dense):
        ref = solve_ivp(rhs, span, y0, method="DOP853", rtol=RTOL, atol=ATOL,
                        dense_output=dense)
        got = profiles._dop853(rhs, span, y0, dense=dense)
        assert np.array_equal(got.t, ref.t)
        assert np.array_equal(got.y, ref.y)
        assert got.nfev == ref.nfev
        assert (got.success, got.message) == (ref.success, ref.message)
        if not dense or ref.t.size == 1:
            assert got.sol is None
            return
        lo, hi = sorted(span)
        # every default-grid node, every step end, and past both ends
        pts = np.concatenate([DEFAULT_GRID.nodes, ref.t, [lo - 0.5, hi + 1.0]])
        assert np.array_equal(got.sol(pts), ref.sol(pts), equal_nan=True)
        mid = 0.5 * (lo + hi)
        assert got.sol(mid).shape == (len(y0),)
        assert np.array_equal(got.sol(mid), ref.sol(mid), equal_nan=True)

    @pytest.mark.parametrize("d, p, alpha", [
        (5, 3.0, 0.5), (5, 3.0, 5.0), (5, 3.0, ALPHA_STAR[(5, 3.0)]),
        (3, 2.0, 0.5), (3, 2.0, 5.0), (3, 2.0, ALPHA_STAR[(3, 2.0)]),
        (11, 7.0, 0.5), (11, 7.0, 5.0)])
    def test_profile(self, d, p, alpha):
        params = derived_exponents(d, p)
        r0, *y0 = series_start(alpha, params)
        self.assert_as_solve_ivp(profiles._rhs(params), (r0, 16.0), y0, True)

    @pytest.mark.parametrize("d, p, alpha, lam", [
        (5, 3.0, ALPHA_STAR[(5, 3.0)], 0.0), (11, 7.0, 5.0, -3.2)])
    def test_phase_and_eigenfunction_legs(self, monkeypatch, d, p, alpha, lam):
        """The forward phase (4 components), the backward phase (2, on a
        decreasing span) and both legs of solve_f, on the shooter's own
        right-hand sides."""
        sh = _PhaseShooter(alpha, derived_exponents(d, p), 16.0)
        rho_m = _matching_point(sh, lam, DEFAULT_GRID.nodes)
        sh.potential                    # integrates the profile first
        calls = []
        real = profiles._dop853

        def spy(rhs, span, y0, dense=False):
            calls.append((rhs, span, y0, dense))
            return real(rhs, span, y0, dense)

        monkeypatch.setattr(spectral, "_dop853", spy)
        sh.match_phases(lam, rho_m)
        _reconstruct_eigenfunction(sh, lam, DEFAULT_GRID, rho_m)
        sizes = [(len(y0), span[1] < span[0], dense)
                 for _, span, y0, dense in calls]
        assert sizes == [(4, False, False), (2, True, False),
                         (2, False, True), (2, True, True)]
        for call in calls:
            self.assert_as_solve_ivp(*call)

    @staticmethod
    def harmonic(rho, y):
        u, du = y.tolist()
        return (du, -u)

    @pytest.mark.parametrize("span", [(0.0, 14.0), (2.0, -12.0)])
    def test_boundary_point_takes_the_earlier_step(self, span):
        """A point on a step boundary takes the step with the lower index,
        as OdeSolution picks it.  The two steps that meet there give the
        same bits, so the right-hand side turns NaN around the first
        interpolant node of the third step (rho_old + 0.1 h), where no stage
        of a step lands: that step's interpolant is NaN at both its ends,
        its neighbours' are not."""
        t = profiles._dop853(self.harmonic, span, (1.0, 0.0)).t
        ends = (t[2] + 0.09 * (t[3] - t[2]), t[2] + 0.11 * (t[3] - t[2]))

        def rhs(rho, y):
            if min(ends) < rho < max(ends):
                return (math.nan, math.nan)
            return self.harmonic(rho, y)

        self.assert_as_solve_ivp(rhs, span, (1.0, 0.0), True)
        sol = profiles._dop853(rhs, span, (1.0, 0.0), True).sol
        assert np.isnan(sol(t[3])).all()
        assert not np.isnan(sol(t[[1, 2, 4]])).any()

    @pytest.mark.parametrize("dense", [False, True])
    def test_failing_run(self, dense):
        """A right-hand side that turns NaN past rho = 3 fails as solve_ivp
        fails: the step control rejects every NaN trial step until the step
        underflows, at the same last rho, with the same message."""
        def rhs(rho, y):
            return self.harmonic(rho, y) if rho < 3.0 else (math.nan, math.nan)

        self.assert_as_solve_ivp(rhs, (0.0, 10.0), (1.0, 0.0), dense)
        got = profiles._dop853(rhs, (0.0, 10.0), (1.0, 0.0), dense)
        assert not got.success and 2.5 < got.t[-1] < 3.0

    @pytest.mark.parametrize("dense", [False, True])
    def test_run_failing_on_its_first_step(self, dense):
        """No step is taken: t holds the start alone, and there is no
        interpolant."""
        def rhs(rho, y):
            return self.harmonic(rho, y) if rho == 0.0 else (math.nan,) * 2

        self.assert_as_solve_ivp(rhs, (0.0, 10.0), (1.0, 0.0), dense)
        got = profiles._dop853(rhs, (0.0, 10.0), (1.0, 0.0), dense)
        assert not got.success and got.t.tolist() == [0.0]

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("y0, rhs", [
        ((1.0, 0.0), lambda rho, y: (math.nan, math.nan)),
        ((math.nan, 0.0), harmonic),
        ((math.inf, 0.0), harmonic)], ids=["nan-rhs", "nan-y0", "inf-y0"])
    def test_non_finite_start_fails_at_once(self, y0, rhs, dense):
        """A start where y0 or the first right-hand side is not finite
        fails at span[0] (solve_ivp never returns on it, so there is no
        parity to check): its step size would be NaN, which no step-size
        test ends."""
        with deadline(5):
            got = profiles._dop853(rhs, (0.0, 10.0), y0, dense)
        assert not got.success and got.t.tolist() == [0.0]
        assert got.sol is None and "non-finite start" in got.message
        assert np.array_equal(got.y[:, 0], y0, equal_nan=True)

    def test_non_finite_start_raises_in_callers(self):
        """solve_f, here on a NaN start value, raises IntegrationError at
        the start instead of hanging."""
        sh = _PhaseShooter(1.0, derived_exponents(5, 3.0), 16.0)
        with deadline(10), pytest.raises(IntegrationError,
                                         match="non-finite start") as err:
            sh.solve_f(0.0, (16.0, 2.0), math.nan, 0.0)
        assert err.value.last_rho == 16.0


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block after seconds, so that a call that
    never returns fails the test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("d, p, alpha", [
    (5, 3.0, ALPHA_STAR[(5, 3.0)]), (3, 2.0, ALPHA_STAR[(3, 2.0)]),
    (11, 7.0, 5.0), (5, 3.0, 0.0)])
def test_shooter_and_profile_share_one_start(d, p, alpha):
    """The shooter's phase start and integrate_profile's first point are
    one series_start, bit for bit."""
    params = derived_exponents(d, p)
    sh = _PhaseShooter(alpha, params, 16.0)
    sol = integrate_profile(alpha, params, 16.0)
    assert sh.rho0 == sol.t[0]
    assert (sh.u0, sh.du0) == tuple(sol.y[:, 0])
    if alpha == 0.0:
        assert sh.rho0 == profiles.RHO0_DEFAULT


def test_right_hand_sides_die_with_their_call(monkeypatch):
    """No reference cycle keeps a right-hand side alive after its call:
    with the collector off, every rhs that integrate_profile, match_phases
    and solve_f hand to _dop853 is freed as soon as the call returns (a
    solve_ivp solver and its wrapped rhs form a cycle, which kept whatever
    the rhs closed over alive until a full collection)."""
    refs = []
    real = profiles._dop853

    def spy(rhs, span, y0, dense=False):
        refs.append(weakref.ref(rhs))
        return real(rhs, span, y0, dense)

    monkeypatch.setattr(profiles, "_dop853", spy)
    monkeypatch.setattr(spectral, "_dop853", spy)
    sh = _PhaseShooter(ALPHA_STAR[(5, 3.0)], derived_exponents(5, 3.0), 16.0)
    gc.disable()
    try:
        for call in (lambda: integrate_profile(sh.alpha, sh.params, 16.0),
                     lambda: sh.match_phases(0.0, 2.0),
                     lambda: sh.solve_f(0.0, (16.0, 2.0), 1.0,
                                        sh.decay_slope(0.0))):
            before = len(refs)
            call()
            assert len(refs) > before
            assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
