import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.interpolate import CubicSpline

from expanderlab import semigroup
from expanderlab.exceptions import DomainError, QuadratureAccuracyError
from expanderlab.exponents import derived_exponents
from expanderlab.profiles import RadialGrid
from expanderlab.semigroup import (
    GaussianDatum,
    RadialFunction,
    _ORDERS,
    _angular_factor,
    _clenshaw_curtis,
    _even_spline,
    apply_S0,
    apply_S0_gaussian,
    growth_rate_gaussian,
    lq_norm,
    sphere_area,
    verify_smoothing,
)


# the beta grid of the angular-factor tests: zero, the tiny and the huge,
# a sweep of (0, 2), and both sides of 2 and 1e8
ANGULAR_BETA = np.concatenate([
    [0.0, 1e-300], np.logspace(-12.0, 12.0, 49), [2.0, 1e8],
    np.linspace(0.1, 1.9, 19), np.nextafter([2.0, 1e8], 0.0),
    np.nextafter([2.0, 1e8], np.inf)])


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.uniform(16.0, 0.01)


def masked_norms(w, values, gammas, sphere):
    """The L^gamma norms with every power masked at the subnormal cut and
    the field divided by max|f| where its largest power would leave
    [2^-500, 2^900]."""
    a = np.abs(values)
    top = float(a.max())
    norms = []
    for gamma in gammas:
        unit = 1.0
        if 0.0 < top and not -500.0 <= gamma * math.log2(top) <= 900.0:
            unit = top
        scaled = a / unit
        power = np.zeros_like(a)
        np.power(scaled, gamma, out=power,
                 where=~(scaled < 2.0 ** (-1000.0 / gamma)))
        total = float(np.dot(w, power))
        norms.append(unit * (sphere * total) ** (1.0 / gamma))
    return norms


def heat_step_oracle(values, h, steps, dt, d):
    """Radial heat equation by explicit Euler on a fine grid.

    Independent physical-space oracle: forward differences in time, central
    in space, with the axis handled by the even-extension limit
    (Laplacian at 0 equals d * v''(0)).
    """
    v = values.copy()
    n = v.size
    r = np.arange(n) * h
    for _ in range(steps):
        lap = np.empty_like(v)
        lap[1:-1] = ((v[2:] - 2 * v[1:-1] + v[:-2]) / h ** 2
                     + (d - 1.0) / r[1:-1] * (v[2:] - v[:-2]) / (2 * h))
        lap[0] = d * 2.0 * (v[1] - v[0]) / h ** 2
        lap[-1] = 0.0
        v += dt * lap
    return v


def per_node_S0(tau, f, params):
    """apply_S0 one node at a time: the same panels, order ladder and
    convergence test as the library, with no blocks and no padding, and
    every order's rule evaluated at all of its nodes."""
    d = params.d
    a = math.expm1(tau)
    width = math.sqrt(2.0 * a)
    evaluate = _even_spline(f)
    rho_max = f.grid.rho_max
    unit_total = (4.0 * math.pi * a) ** (d / 2.0) / sphere_area(d - 1)
    floor = 2e-8 * float(np.max(np.abs(f.values))) * unit_total
    out = np.empty_like(f.grid.nodes)
    for i, rho in enumerate(f.grid.nodes):
        x = math.exp(0.5 * tau) * rho
        lo = min(max(0.0, x - 8.0 * width), rho_max)
        hi = min(x + 8.0 * width, rho_max)
        cuts = [*np.arange(lo, hi, 0.5), hi]
        spans = [(pa, pb) for pa, pb in zip(cuts, cuts[1:]) if pb > pa]
        prev = None
        for n in _ORDERS:
            x_cc, w_cc = _clenshaw_curtis(n)
            s = np.concatenate([np.zeros(0)] + [
                0.5 * (pb - pa) * (x_cc + 1.0) + pa for pa, pb in spans])
            w = np.concatenate([np.zeros(0)] + [
                0.5 * (pb - pa) * w_cc for pa, pb in spans])
            kern = np.exp(-(x - s) ** 2 / (4.0 * a)) * _angular_factor(
                x * s / (2.0 * a), d)
            total = float(np.dot(w, evaluate(s) * s ** (d - 1.0) * kern))
            if prev is not None and abs(total - prev) <= (
                    1e-8 * abs(total) + floor):
                break
            prev = total
        else:
            raise AssertionError(f"node {i} did not converge")
        out[i] = total
    return (sphere_area(d - 1) * (4.0 * math.pi * a) ** (-d / 2.0)
            * math.exp(tau / (params.p - 1.0))) * out


class TestLqNorm:
    def test_unit_ball_indicator(self, grid):
        # jump node weighted 1/2 so the Simpson pair errors cancel
        vals = np.where(grid.nodes < 1.0, 1.0, 0.0)
        vals[grid.nodes == 1.0] = 0.5
        f = RadialFunction(grid=grid, values=vals)
        assert lq_norm(f, 1.0, 3) == pytest.approx(4 * math.pi / 3, rel=1e-3)

    def test_gaussian_l2(self, grid):
        g = GaussianDatum(1.0, 0.25)  # e^(-rho^2)
        f = RadialFunction(grid=grid, values=g.values_on(grid.nodes))
        exact = (math.pi / 2.0) ** 0.75
        assert g.lq_norm(2.0, 3) == pytest.approx(exact, rel=1e-14)
        assert lq_norm(f, 2.0, 3) == pytest.approx(exact, rel=1e-9)

    def test_zero_function(self, grid):
        f = RadialFunction(grid=grid, values=np.zeros_like(grid.nodes))
        assert lq_norm(f, 2.0, 5) == 0.0

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(k=st.integers(-1100, 1000),
           gammas=st.lists(st.floats(1.0, 220.0), min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_shared_pass_is_each_single_norm(self, grid, k, gammas, seed):
        # fields scaled by 2^k reach both rescale branches and the
        # subnormal cut
        rng = np.random.default_rng(seed)
        v = np.ldexp(rng.standard_normal(grid.nodes.size)
                     * np.exp(-grid.nodes ** 2 / 8.0), k)
        w, sphere = grid.measure_weights(5), sphere_area(5)
        norms, top = semigroup.lebesgue_norms(w, v, gammas, sphere)
        assert top == np.max(np.abs(v))
        assert norms == [semigroup.lebesgue_norms(w, v, (g,), sphere)[0][0]
                         for g in gammas]
        # the unmasked power (no node cut: the first field, and the
        # rescaled tiny and huge ones) and the masked one (the Gaussian's
        # tail, the NaN node, the zero field) equal the masked formula
        rho = grid.nodes
        flat = 1.0 + 0.5 * np.cos(rho)
        nan = flat.copy()
        nan[7] = math.nan
        for f in (v, flat, np.exp(-4.0 * rho ** 2), nan, 1e-200 * flat,
                  1e250 * flat, np.zeros_like(rho)):
            norms, _ = semigroup.lebesgue_norms(w, f, gammas, sphere)
            assert np.array_equal(norms, masked_norms(w, f, gammas, sphere),
                                  equal_nan=True)
            assert np.all(np.isnan(norms)) == (f is nan)


    @pytest.mark.parametrize("gamma", [6000.0, 1e6, 9e6, 1e9, 1e15])
    def test_huge_exponent_norm(self, grid, gamma):
        # scaled by a power of two into [0.5, 1), every node fell below the
        # cut 2^(-1000/gamma) once gamma passed ~5000 and the norm read 0;
        # divided by the maximum, from ~1e7 on every node but the axis
        # (weight 0) did.  The reference sums every node's power in
        # 30-digit arithmetic
        f = 1.75 * np.exp(-grid.nodes ** 2)
        w = grid.measure_weights(5)
        with mpmath.workdps(30):
            total = mpmath.fsum(mpmath.mpf(wi) * mpmath.mpf(fi) ** gamma
                                for wi, fi in zip(w, f))
            exact = float((sphere_area(5) * total)
                          ** (1 / mpmath.mpf(gamma)))
        got = lq_norm(RadialFunction(grid=grid, values=f), gamma, 5)
        assert got == pytest.approx(exact, rel=1e-13)
        assert 1.74 < got < 1.75
        # nonzero on the axis alone, the field has norm 0
        axis = np.where(w > 0.0, 0.0, f)
        assert lq_norm(RadialFunction(grid=grid, values=axis), gamma, 5) == 0

    @pytest.mark.parametrize("gamma", [0.5, math.nan])
    def test_rejects_bad_exponent(self, grid, gamma):
        f = RadialFunction(grid=grid, values=np.exp(-grid.nodes ** 2))
        with pytest.raises(DomainError):
            lq_norm(f, gamma, 5)
        with pytest.raises(DomainError):
            GaussianDatum(1.0, 1.0).lq_norm(gamma, 5)


class TestGaussianSemigroup:
    def test_tau_zero_identity(self):
        params = derived_exponents(5, 3.0)
        g = GaussianDatum(1.7, 0.9)
        out = apply_S0_gaussian(0.0, g, params)
        assert out.amplitude == g.amplitude
        assert out.variance == g.variance

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, grid, tau):
        params = derived_exponents(5, 3.0)
        g = GaussianDatum(1.0, 1.0)
        with pytest.raises(DomainError):
            apply_S0_gaussian(tau, g, params)
        with pytest.raises(DomainError):
            apply_S0(tau, RadialFunction(grid=grid,
                                         values=g.values_on(grid.nodes)),
                     params)

    @pytest.mark.parametrize("amplitude, variance", [
        (1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)])
    def test_non_finite_datum_rejected(self, amplitude, variance):
        with pytest.raises(DomainError):
            GaussianDatum(amplitude, variance)

    def test_semigroup_law_random(self):
        params = derived_exponents(5, 3.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = GaussianDatum(float(rng.uniform(-2, 2)),
                              float(rng.uniform(0.1, 5.0)))
            t1 = float(rng.uniform(0.0, 1.0))
            t2 = float(rng.uniform(0.0, 1.0))
            once = apply_S0_gaussian(t1 + t2, g, params)
            twice = apply_S0_gaussian(t2, apply_S0_gaussian(t1, g, params),
                                      params)
            assert abs(once.amplitude - twice.amplitude) <= 1e-12 * max(
                1.0, abs(once.amplitude))
            assert abs(once.variance - twice.variance) <= 1e-12 * once.variance

    @pytest.mark.parametrize("d", [5, 12])
    @pytest.mark.parametrize("tau", [300.0, 710.0, 800.0])
    def test_large_tau(self, grid, d, tau):
        # the Gaussian decays at the mass rate 1/(p-1) - d/2 and stays
        # finite; the quadrature path reports a domain error instead of
        # overflowing in its kernel normalisation
        params = derived_exponents(d, 3.0)
        g = GaussianDatum(1.0, 2.0)
        out = apply_S0_gaussian(tau, g, params)
        assert out.variance == pytest.approx(1.0, abs=1e-15)
        mass = math.exp((0.5 - d / 2.0) * tau) * g.lq_norm(1.0, d)
        assert out.lq_norm(1.0, d) == pytest.approx(mass, rel=1e-12,
                                                   abs=1e-300)
        with pytest.raises(DomainError, match=f"tau={tau}"):
            apply_S0(tau, RadialFunction(grid=grid,
                                         values=g.values_on(grid.nodes)),
                     params)

    def test_growing_amplitude_past_double_range(self):
        # below the Fujita power the free flow grows like e^(2.5 tau)
        with pytest.raises(DomainError, match="tau=300"):
            apply_S0_gaussian(300.0, GaussianDatum(1.0, 1.0),
                              derived_exponents(5, 1.2))

    def test_growth_exponents_with_sign_flip(self):
        params = derived_exponents(5, 3.0)
        q_c = params.q_c
        for eta in [1.0, 2.0, q_c, 2.0 * q_c]:
            target = 1.0 / (params.p - 1.0) - params.d / (2.0 * eta)
            assert growth_rate_gaussian(eta, params) == pytest.approx(
                target, abs=1e-3)
        assert growth_rate_gaussian(0.9 * q_c, params) < 0.0
        assert growth_rate_gaussian(1.1 * q_c, params) > 0.0
        assert abs(growth_rate_gaussian(q_c, params)) <= 1e-3

    def test_fixed_datum_rate_bounded_by_operator_rate(self):
        # a fixed Gaussian relaxes at the mass rate 1/(p-1) - d/2, which is
        # below the operator bound for every eta
        params = derived_exponents(5, 3.0)
        g = GaussianDatum(1.0, 1.0)
        taus = np.linspace(6.0, 10.0, 5)
        for eta in [1.0, 4.0, 10.0]:
            logn = [math.log(apply_S0_gaussian(t, g, params).lq_norm(
                eta, params.d)) for t in taus]
            slope = np.polyfit(taus, logn, 1)[0]
            assert slope <= 1.0 / (params.p - 1.0) - params.d / (2 * eta) + 1e-6
            assert slope == pytest.approx(
                1.0 / (params.p - 1.0) - params.d / 2.0, abs=1e-3)


class TestQuadraturePath:
    # J switches from its series to its large-beta expansion at beta_c: 2
    # for odd d <= 9, 3.2 at d = 11 and 18 for even d
    @pytest.mark.parametrize("d", range(3, 13))
    def test_matches_closed_form_on_gaussians(self, grid, d):
        params = derived_exponents(d, 3.0)
        g = GaussianDatum(1.3, 0.8)
        fin = RadialFunction(grid=grid, values=g.values_on(grid.nodes))
        for tau in [1e-3, 0.1, 0.5, 2.0]:
            out = apply_S0(tau, fin, params)
            exact = apply_S0_gaussian(tau, g, params).values_on(grid.nodes)
            err = np.max(np.abs(out.values - exact)) / np.max(np.abs(exact))
            assert err <= 1e-6

    def test_clenshaw_curtis_rule(self):
        # each order's rule integrates every monomial up to degree n + 1,
        # and its nodes are the even nodes of the next order
        for n in _ORDERS:
            x_cc, w_cc = _clenshaw_curtis(n)
            assert x_cc.size == w_cc.size == n + 1
            assert math.fsum(w_cc) == pytest.approx(2.0, abs=1e-15)
            for k in range(n + 2):
                exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
                assert np.dot(w_cc, x_cc ** k) == pytest.approx(exact,
                                                              abs=1e-15), k
            if 2 * n in _ORDERS:
                assert np.array_equal(_clenshaw_curtis(2 * n)[0][::2], x_cc)

    def test_even_spline_is_the_mirrored_cubic_spline(self):
        # scipy's not-a-knot spline through the data mirrored through the
        # axis, on [0, rho_max]: inside the cells, at the nodes and at the
        # clipped end of the last panel
        for drho in (0.01, 0.1):
            grid = RadialGrid.uniform(16.0, drho)
            rho = grid.nodes
            s = np.concatenate([np.linspace(0.0, 16.0, 20001), rho])
            for values in (GaussianDatum(1.3, 0.8).values_on(rho),
                           np.where(rho < 1.0, (1.0 - rho ** 2) ** 2, 0.0),
                           1.0 / (1.0 + rho ** 2)):
                mirrored = CubicSpline(np.concatenate([-rho[:0:-1], rho]),
                                       np.concatenate([values[:0:-1],
                                                       values]))
                got = _even_spline(RadialFunction(grid=grid,
                                                  values=values))(s)
                assert np.max(np.abs(got - mirrored(s))) <= (
                    1e-15 * np.max(np.abs(values)))

    def test_angular_factor_against_independent_oracles(self):
        # elementary and Bessel forms of J in d = 3 and d = 4, and the Beta
        # integral at beta = 0; none shares code with the Kummer expression
        beta = np.logspace(-6.0, 9.0, 61)
        np.testing.assert_allclose(_angular_factor(beta, 3),
                                   -np.expm1(-2.0 * beta) / beta, rtol=1e-12)
        np.testing.assert_allclose(_angular_factor(beta, 4),
                                   math.pi * special.ive(1, beta) / beta,
                                   rtol=1e-12)
        for d in range(3, 13):
            nu = (d - 3) / 2.0
            assert _angular_factor(0.0, d) == pytest.approx(
                special.beta(0.5, nu + 1.0), rel=1e-12)

    def test_angular_factor_at_zero_is_the_exact_beta(self):
        # J(0) = B(1/2, nu + 1): correctly rounded for odd d, where it is
        # rational, and within an ulp for even d, where it is pi times one
        for d in range(3, 14):
            with mpmath.workdps(40):
                exact = float(mpmath.beta(0.5, mpmath.mpf(d - 1) / 2))
            got = _angular_factor(0.0, d)
            if d % 2:
                assert got == exact, d
            else:
                assert abs(got - exact) <= math.ulp(exact), d

    def test_angular_factor_against_mpmath(self):
        # 40-digit Kummer function on the shared grid and on both sides of
        # the crossover beta_c between the series and the expansion; d = 63
        # and 64 straddle the switch to hyp1f1, which alone serves d = 100,
        # 103 and 345
        for d in [*range(3, 14), 20, 40, 62, 63, 64, 100, 103, 345]:
            beta = ANGULAR_BETA
            if d <= 63:
                beta_c = semigroup._angular_forms(d)[0]
                beta = np.concatenate([beta, [
                    beta_c, np.nextafter(beta_c, 0.0),
                    np.nextafter(beta_c, np.inf)]])
            with mpmath.workdps(40):
                nu = mpmath.mpf(d - 3) / 2
                exact = [float(2 ** (2 * nu + 1) * mpmath.beta(nu + 1, nu + 1)
                               * mpmath.hyp1f1(nu + 1, 2 * nu + 2,
                                               -2 * mpmath.mpf(b)))
                         for b in beta]
            np.testing.assert_allclose(_angular_factor(beta, d), exact,
                                       rtol=1e-12, err_msg=f"d = {d}")

    def test_angular_factor_leaves_scipy_special_alone(self, monkeypatch):
        # for d <= 63 both forms are summed in the package, so a quadrature
        # in even d runs with scipy.special's Bessel, Kummer, Beta and Gamma
        # functions made to raise
        def refuse(*args):
            raise AssertionError("scipy.special was called")

        for name in ("ive", "hyp1f1", "beta", "gamma"):
            monkeypatch.setattr(special, name, refuse)
        for d in range(3, 64):
            assert np.all(np.isfinite(_angular_factor(ANGULAR_BETA, d))), d
        grid = RadialGrid.uniform(16.0, 0.1)
        f = RadialFunction(grid=grid,
                           values=GaussianDatum(1.3, 0.8).values_on(grid.nodes))
        assert np.all(np.isfinite(
            apply_S0(0.1, f, derived_exponents(4, 3.0)).values))

    def test_elementary_branch_against_mpmath(self):
        # 40-digit Kummer function from beta = 2 up.  For odd d the
        # expansion's finite sum starts at beta_c and cancels most just
        # above it: 3e-14 holds there for d <= 9 (beta_c = 2), while d = 11
        # and 13 keep [2, 2.1] on the series (beta_c = 3.2 and 5).  Even d
        # take the series up to beta_c = 18 and the asymptotic series past it
        near = np.linspace(2.0, 2.1, 101)
        beta = np.concatenate([
            near, np.geomspace(2.1, 64.0, 201), np.geomspace(64.0, 1e8, 41),
            [np.nextafter(2.0, 0.0), np.nextafter(2.0, np.inf)]])
        for d in [*range(3, 14, 2), *range(4, 13, 2)]:
            with mpmath.workdps(40):
                nu = mpmath.mpf(d - 3) / 2
                scale = 2 ** (2 * nu + 1) * mpmath.beta(nu + 1, nu + 1)
                exact = np.array([
                    float(scale * mpmath.hyp1f1(nu + 1, 2 * nu + 2,
                                                -2 * mpmath.mpf(b)))
                    for b in beta])
            got = _angular_factor(beta, d)
            np.testing.assert_allclose(got, exact, rtol=1e-13,
                                       err_msg=f"d = {d}")
            np.testing.assert_allclose(got[:near.size], exact[:near.size],
                                       rtol=3e-14, err_msg=f"d = {d}")

    def test_blocks_match_per_node_reference(self):
        # coarse grid; the algebraic datum is nonzero at rho_max, so the
        # panels of the outer nodes are clipped there
        grid = RadialGrid.uniform(16.0, 0.1)
        rho = grid.nodes
        data = [(5, GaussianDatum(1.3, 0.8).values_on(rho)),
                (4, np.where(rho < 1.0, (1.0 - rho ** 2) ** 2, 0.0)),
                (5, 1.0 / (1.0 + rho ** 2))]
        for d, values in data:
            params = derived_exponents(d, 3.0)
            f = RadialFunction(grid=grid, values=values)
            for tau in [1e-3, 0.1, 2.0]:
                out = apply_S0(tau, f, params).values
                ref = per_node_S0(tau, f, params)
                err = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
                assert err <= 1e-12, (d, tau, err)

    def test_window_past_the_grid(self):
        # at tau = 3 the outer nodes' windows start past rho_max, where
        # the data are zero
        grid = RadialGrid.uniform(16.0, 0.1)
        params = derived_exponents(5, 3.0)
        g = GaussianDatum(1.3, 0.8)
        out = apply_S0(3.0, RadialFunction(grid=grid,
                                           values=g.values_on(grid.nodes)),
                       params).values
        exact = apply_S0_gaussian(3.0, g, params).values_on(grid.nodes)
        assert np.max(np.abs(out - exact)) <= 1e-6 * np.max(exact)

    def test_unconverged_block_raises(self, monkeypatch):
        # a kernel equal to the number of points it is called on scales
        # each level of the nested ladder by the count of nodes that level
        # adds (25, 24, 48, 96 and 192 per panel): the totals move by 2%
        # at the second order and by 48% to 95% at the later ones, so no
        # node whose integral clears the floor can converge
        monkeypatch.setattr(semigroup, "_angular_factor",
                            lambda beta, d: np.full(np.shape(beta),
                                                    float(np.size(beta))))
        grid = RadialGrid.uniform(16.0, 0.1)
        f = RadialFunction(grid=grid,
                           values=GaussianDatum(1.0, 1.0).values_on(grid.nodes))
        with pytest.raises(QuadratureAccuracyError) as info:
            apply_S0(0.1, f, derived_exponents(5, 3.0))
        assert info.value.achieved > 0.0

    def test_compact_bump_against_heat_euler_oracle(self, grid):
        params = derived_exponents(3, 2.0)
        tau = 0.5
        bump = np.where(grid.nodes < 1.0, (1.0 - grid.nodes ** 2) ** 2, 0.0)
        fin = RadialFunction(grid=grid, values=bump)
        out = apply_S0(tau, fin, params)

        h = 0.0075
        a = math.expm1(tau)
        r_max = 30.0
        n = int(round(r_max / h)) + 1
        r = np.arange(n) * h
        v0 = np.where(r < 1.0, (1.0 - r ** 2) ** 2, 0.0)
        dt = 0.25 * h ** 2 / params.d
        steps = int(math.ceil(a / dt))
        dt = a / steps
        heat = heat_step_oracle(v0, h, steps, dt, params.d)
        # similarity rescaling back onto the grid
        xi = grid.nodes
        sample = np.interp(math.exp(0.5 * tau) * xi, r, heat)
        expected = math.exp(tau / (params.p - 1.0)) * sample
        scale = np.max(np.abs(expected))
        mask = xi <= 8.0
        err = np.max(np.abs(out.values[mask] - expected[mask])) / scale
        assert err <= 1e-4

    def test_tau_below_float_resolution_rejected(self):
        # below ~4e-16 the kernel is too narrow for the float spacing of
        # rho_max = 16: the windows would collapse and return a wrong field
        # (1e-38, 1e-120), or the normalisation would overflow (1e-300)
        grid = RadialGrid.uniform(16.0, 0.1)
        params = derived_exponents(5, 3.0)
        g = GaussianDatum(1.3, 0.8)
        fin = RadialFunction(grid=grid, values=g.values_on(grid.nodes))
        for tau in [1e-38, 1e-120, 1e-300]:
            with pytest.raises(DomainError, match=f"tau={tau} is too small"):
                apply_S0(tau, fin, params)
        out = apply_S0(1e-12, fin, params).values
        exact = apply_S0_gaussian(1e-12, g, params).values_on(grid.nodes)
        assert np.max(np.abs(out - exact)) <= 1e-6 * np.max(exact)

    def test_strong_continuity_at_zero(self, grid):
        # the O(tau) drift of a curved bump is a |Delta f| ~ 20 tau, so the
        # gap must shrink roughly linearly along a geometric tau sequence
        params = derived_exponents(5, 3.0)
        bump = np.where(grid.nodes < 1.0, (1.0 - grid.nodes ** 2) ** 2, 0.0)
        fin = RadialFunction(grid=grid, values=bump)
        gaps = []
        for tau in [0.02, 0.005, 0.00125]:
            out = apply_S0(tau, fin, params)
            gaps.append(np.max(np.abs(out.values - bump)))
        assert gaps[1] < 0.5 * gaps[0]
        assert gaps[2] < 0.5 * gaps[1]
        assert gaps[2] < 0.04 * np.max(bump)


class TestSmoothing:
    def test_gaussian_family_bounded(self, monkeypatch):
        params = derived_exponents(5, 3.0)
        samples = [GaussianDatum(1.0, v) for v in (0.3, 1.0, 3.0)]
        monkeypatch.setattr(semigroup, "_SMOOTHING_TAUS",
                            [2.0 ** (-k) for k in range(1, 11)])
        rep = verify_smoothing(samples, params)
        assert rep.passed
        assert rep.refined_max <= 10.0 * rep.fitted_M
        d = rep.as_dict()
        assert d["pass"] and len(d["ratios"]) == 30

    def test_refined_pass_evaluates_only_midpoints(self, monkeypatch):
        params = derived_exponents(5, 3.0)
        samples = [GaussianDatum(1.0, 1.0)]
        taus, apply = [], semigroup.apply_S0_gaussian

        def counted(tau, g, params):
            taus.append(tau)
            return apply(tau, g, params)

        monkeypatch.setattr(semigroup, "apply_S0_gaussian", counted)
        monkeypatch.setattr(semigroup, "_SMOOTHING_TAUS", [0.5, 0.25, 0.125])
        rep = verify_smoothing(samples, params)
        assert rep.passed and rep.tau_list == [0.5, 0.25, 0.125]
        # the refined pass evaluates only the two midpoints
        assert taus == [0.5, 0.25, 0.125, 0.375, 0.1875]
