import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from expanderlab import dynamics
from expanderlab.exceptions import DomainError, NoUnstableExpanderError
from expanderlab.exponents import derived_exponents, odd_power
from expanderlab.profiles import RadialGrid
from expanderlab.semigroup import (
    RadialFunction,
    lebesgue_norms,
    lq_norm,
    sphere_area,
)
from expanderlab.spectral import PotentialField, matrix_spectrum
from expanderlab.dynamics import (
    _CrankNicolson,
    _NormKit,
    ancient_branch,
    calibrated_beta,
    evolve_perturbation,
    evolve_similarity,
    fit_log_slope,
    linearized_evolve,
    nonuniqueness_demo,
    quadratic_mode_coupling,
    robin_beta,
    stability_cap,
    to_physical_norm,
)


@pytest.fixture(scope="module")
def profile53(selected53):
    return selected53.profile


@pytest.fixture(scope="module")
def potential53(profile53):
    return PotentialField.from_profile(profile53)


@pytest.fixture(scope="module")
def mode53(selected53):
    return selected53.eigenpair.f


def band_matvec(ab, v):
    """A v for A in (4, 2) band storage, ab[2 + i - j, j] = A[i, j]."""
    out = np.zeros_like(v)
    for k in range(ab.shape[0]):
        off = k - 2                 # row i = column j + off
        if off >= 0:
            out[off:] += ab[k, :v.size - off] * v[:v.size - off]
        else:
            out[:off] += ab[k, -off:] * v[-off:]
    return out


def discrete_top_mode(stepper, ref_mode, shift):
    """Top eigenpair of the banded discrete operator by shift-inverse
    iteration, seeded with the shooting eigenfunction."""
    ab = stepper.ab.copy()
    ab[2] -= shift
    ab[2, -1] = 1.0    # Dirichlet row
    v = ref_mode.copy()
    for _ in range(40):
        v = solve_banded((4, 2), ab, v)
        v /= np.max(np.abs(v))
    av = band_matvec(stepper.ab, v)
    mask = np.abs(v) > 1e-3
    lam = float(np.median(av[mask] / v[mask]))
    return lam, v


class TestStepImex:
    """A single 0.01 step of evolve_similarity."""

    def test_zero_stays_zero(self, params53, grid_default):
        log = evolve_similarity(np.zeros_like(grid_default.nodes), 0.0, 0.01,
                                params53, grid_default, dtau=0.01)
        assert np.all(log.final.v == 0.0)
        assert log.final.tau == 0.01

    def test_static_profile_single_step(self, params53, profile53):
        log = evolve_similarity(profile53.u, 0.0, 0.01, params53,
                                profile53.grid, dtau=0.01)
        drift = np.max(np.abs(log.final.v - profile53.u))
        # the interior defect of the fourth-order operator bounds this;
        # see the decisions ledger for why 1e-8*dtau is out of reach
        assert drift <= 2e-9

    def test_equals_one_explicit_source_cn_step(self, params53, profile53):
        grid, u = profile53.grid, profile53.u
        log = evolve_similarity(u, 0.0, 0.01, params53, grid, dtau=0.01)
        assert len(log.taus) == 2
        assert log.final.tau == 0.01
        # the self-calibrated Robin row, the nonlinearity as the source
        stepper = _CrankNicolson(grid, params53, beta=calibrated_beta(
            u, grid, params53))
        np.testing.assert_array_equal(
            log.final.v, stepper.step(u, 0.01, odd_power(u, params53.p)))

    @pytest.mark.parametrize("dtau", [0.0, 1e-13, math.nan])
    def test_degenerate_dtau_rejected(self, params53, grid_default, dtau):
        with pytest.raises(DomainError):
            evolve_similarity(np.zeros_like(grid_default.nodes), 0.0, 0.01,
                              params53, grid_default, dtau=dtau)

    def test_linear_mode_step_third_order_local(self, params53, potential53,
                                                mode53, selected53):
        # against the discrete operator's own top mode the single-step
        # error is purely temporal, O(dtau^3); halving gives ratio ~8
        stepper = _CrankNicolson(potential53.profile.grid, params53,
                                 potential53.v, beta=None)
        lam_d, v_d = discrete_top_mode(stepper, mode53,
                                       selected53.lambda_bar + 0.02)
        assert lam_d == pytest.approx(selected53.lambda_bar, abs=1e-5)
        errs = []
        for dt in (0.5, 0.25):
            stepped = stepper.step(v_d, dt)
            exact = math.exp(lam_d * dt) * v_d
            errs.append(np.max(np.abs(stepped - exact))
                        / np.max(np.abs(exact)))
        ratio = errs[0] / errs[1]
        assert 6.0 <= ratio <= 10.0


def cn_band(stepper, dtau):
    """I - dtau/2 A with the boundary row, in solve_banded's (4, 2) layout."""
    ab = -0.5 * dtau * stepper.ab
    ab[2] += 1.0
    for k in range(5):      # boundary row n over columns n-4 .. n
        ab[6 - k, k - 5] = stepper._bc[k]
    return ab


class TestCrankNicolsonFactor:
    @pytest.mark.parametrize("robin", [True, False])
    def test_step_solves_the_dense_cn_system(self, params53, robin):
        # ab[2 + i - j, j] = A[i, j], with row n left to the boundary
        grid = RadialGrid.uniform(10.0, 0.1)
        beta = robin_beta(params53, grid.rho_max) if robin else None
        stepper = _CrankNicolson(grid, params53, beta=beta)
        ab = stepper.ab
        n1 = ab.shape[1]
        dense = np.zeros((n1, n1))
        for j in range(n1):
            for k in range(7):
                if 0 <= j + k - 2 < n1:
                    dense[j + k - 2, j] = ab[k, j]
        assert not np.any(dense[-1])
        # the biased edge row n-1 is exact on quadratics:
        # A rho^2 = 2 d + (1 + 1/(p-1)) rho^2
        rho, d, p = grid.nodes, params53.d, params53.p
        assert dense[-2] @ rho ** 2 == pytest.approx(
            2.0 * d + (1.0 + 1.0 / (p - 1.0)) * rho[-2] ** 2, rel=1e-12)
        dtau = 0.01
        v = np.cos(grid.nodes) * np.exp(-grid.nodes ** 2 / 8.0)
        source = 0.2 * v ** 3
        lhs = np.eye(n1) - 0.5 * dtau * dense
        lhs[-1, -5:] = stepper._bc     # boundary row n over n-4 .. n
        rhs = v + 0.5 * dtau * (dense @ v) + dtau * source
        rhs[-1] = 0.0
        np.testing.assert_allclose(stepper.step(v, dtau, source),
                                   np.linalg.solve(lhs, rhs),
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("robin", [True, False])
    def test_step_matches_solve_banded_bitwise(self, params53, robin):
        # the default grid, whose factors swap rows only in the boundary
        # rows (4 of them for Robin at dtau 1e-4, none for Dirichlet), so
        # step runs the two sweeps; drho 0.0025, whose factors at dtau 0.01
        # swap interior rows, so step runs dgbtrs; d = 11 under a dtau that
        # changes every step, as under the stability cap
        cases = [(params53, 0.01, (0.01, 0.005, 0.01, 1e-4)),
                 (params53, 0.0025, (0.01, 1e-4)),
                 (derived_exponents(11, 3.0), 0.01,
                  tuple(0.005 * 0.9 ** k for k in range(5)))]
        paths = set()
        for params, drho, dtaus in cases:
            grid = RadialGrid.uniform(16.0, drho)
            rho = grid.nodes
            beta = robin_beta(params, grid.rho_max) if robin else None
            potential = None if robin else 0.3 * np.exp(-rho ** 2 / 8.0)
            stepper = _CrankNicolson(grid, params, potential, beta)
            v = np.exp(-rho ** 2 / 4.0) * (1.0 + 0.1 * rho)
            for dtau in dtaus:
                source = 0.2 * v ** 3
                band = cn_band(stepper, dtau)
                # (I - B)(x + v) = 2 v + dtau s, B = dtau/2 A, with bc . v
                # on the boundary row
                rhs = 2.0 * v + dtau * source
                rhs[-1] = np.dot(stepper._bc, v[-5:])
                expected = solve_banded((4, 2), band, rhs) - v
                # the same x from (I - B) x = (I + B) v + dtau s
                rhs_plus = (v + 0.5 * dtau * band_matvec(stepper.ab, v)
                            + dtau * source)
                rhs_plus[-1] = 0.0
                two_term = solve_banded((4, 2), band, rhs_plus)
                x = stepper.step(v, dtau, source)
                assert stepper._dtau == dtau
                assert np.array_equal(x, expected)
                # the two forms round apart by O(eps dtau / h^2)
                np.testing.assert_allclose(x, two_term,
                                           rtol=1e-13 * (0.01 / drho) ** 2)
                lu, _, sweep = stepper._factorized(dtau)
                # None for dgbtrs, else the count of boundary-row swaps
                paths.add(None if sweep is None else len(sweep[1]))
                # the sweeps read lu itself, not a copy of its band
                assert sweep is None or np.shares_memory(sweep[0], lu)
                v = x
        # every path ran: dgbtrs, and the sweeps with 4 boundary-row swaps
        # (Robin) or none (Dirichlet)
        assert {None, 4 if robin else 0} <= paths

    def test_non_finite_rhs_raises(self, params53, grid_default):
        stepper = _CrankNicolson(grid_default, params53, beta=None)
        v = np.exp(-grid_default.nodes ** 2)
        stepper.step(v, 0.01)
        v[10] = math.nan
        with pytest.raises(ValueError):
            stepper.step(v, 0.01)

    def test_singular_matrix_raises(self, params53, grid_default):
        stepper = _CrankNicolson(grid_default, params53, beta=None)
        stepper._bc = np.zeros(5)      # an empty boundary row
        with pytest.raises(LinAlgError):
            stepper.step(np.exp(-grid_default.nodes ** 2), 0.01)


class TestEvolveSimilarity:
    def test_zero_run(self, params53, grid_default):
        log = evolve_similarity(np.zeros_like(grid_default.nodes),
                                0.0, 1.0, params53, grid_default)
        assert np.all(log.norms["lr"] == 0.0)
        assert not log.blown_up

    def test_static_profile_drift_over_five(self, params53, profile53):
        log = evolve_similarity(profile53.u, 0.0, 5.0, params53,
                                profile53.grid, dtau=0.01,
                                reference=profile53.u)
        drift = np.max(np.abs(log.final.v - profile53.u))
        assert drift <= 1e-5 * (1.0 + profile53.max_abs_u)
        assert not log.blown_up

    def test_supersolution_departs_monotonically(self, params53, profile53):
        log = evolve_similarity(1.5 * profile53.u, 0.0, 0.1, params53,
                                profile53.grid, dtau=0.005,
                                reference=profile53.u)
        assert np.all(np.diff(log.norms["dist_ref"]) > 0.0)

    def test_blowup_detected_and_flagged(self, params53, profile53):
        log = evolve_similarity(1.5 * profile53.u, 0.0, 5.0, params53,
                                profile53.grid, dtau=0.005)
        assert log.blown_up
        assert log.taus[-1] < 1.0
        assert np.max(np.abs(log.final.v)) > 1e6

    def test_csv_rows(self, params53, profile53):
        log = evolve_similarity(profile53.u, 0.0, 0.05, params53,
                                profile53.grid, dtau=0.01)
        rows = list(log.to_csv_rows())
        assert rows[0] == ("tau", "t", "l1", "lq", "lr", "lpr", "l2w",
                           "dist_ref")
        assert len(rows) == log.taus.size + 1
        assert float(rows[1][1]) == pytest.approx(1.0)  # t = e^0
        # a reference changes what dist_ref holds, not the columns
        ref_log = evolve_similarity(profile53.u, 0.0, 0.02, params53,
                                    profile53.grid, dtau=0.01,
                                    reference=1.2 * profile53.u)
        assert next(ref_log.to_csv_rows()) == rows[0]
        assert tuple(log.norms) == tuple(ref_log.norms) == rows[0][2:]

    @pytest.mark.parametrize("vmax", [1e-200, 5e-324])
    def test_tiny_field_steps_uncapped(self, params53, grid_default, vmax):
        # 3 vmax^2 underflows to 0 while vmax > 0: no cap, not a division
        # by zero; at 5e-324 the boundary value is exactly 0 and the Robin
        # coefficient falls back to the tail law
        assert stability_cap(vmax, params53) == math.inf
        assert stability_cap(1.0, params53) == 0.5 / 3.0
        v0 = vmax * np.exp(-grid_default.nodes ** 2 / 4.0)
        log = evolve_similarity(v0, 0.0, 0.05, params53, grid_default)
        assert log.taus.size == 6
        assert not log.blown_up

    @pytest.mark.parametrize("dtau", [0.0, -0.01, math.nan, 1e-300])
    def test_bad_dtau_rejected_before_stepping(self, params53, grid_default,
                                               dtau):
        # 1e-300 is positive but would take far more than MAX_STEPS steps
        with pytest.raises(DomainError):
            evolve_similarity(np.zeros_like(grid_default.nodes), 0.0, 1.0,
                              params53, grid_default, dtau=dtau)

    def test_dist_ref_without_reference_is_the_lr_norm(self, params53,
                                                       profile53):
        log = evolve_similarity(1.2 * profile53.u, 0.0, 0.1, params53,
                                profile53.grid, dtau=0.01)
        assert np.array_equal(log.norms["dist_ref"], log.norms["lr"])
        # the same bits as the distance to an explicit zero reference
        v = log.final.v
        kit = _NormKit(profile53.grid, params53)
        (dist,), _ = kit.lebesgue(v - np.zeros_like(v), (2.0 * params53.q_c,))
        assert log.norms["dist_ref"][-1] == dist


class TestLinearizedEvolve:
    def test_eigenmode_rate_matches_lambda(self, selected53, potential53,
                                           mode53):
        log = linearized_evolve(mode53, potential53, 0.0, 5.0, dtau=0.01)
        rate, r2 = fit_log_slope(log.taus, np.log(log.norms["lr"]))
        assert abs(rate - selected53.lambda_bar) <= 1e-3
        assert r2 > 0.999999
        # the rate reads lr alone, and the run logs nothing else
        assert tuple(log.norms) == ("lr",)
        assert ",".join(next(log.to_csv_rows())) == "tau,t,lr"

    def test_zero_stays_zero(self, potential53):
        z = np.zeros_like(potential53.profile.grid.nodes)
        log = linearized_evolve(z, potential53, 0.0, 1.0)
        assert np.all(log.final.v == 0.0)

    def test_projected_component_decays_at_second_eigenvalue(
            self, params53, selected53, potential53, mode53):
        grid = potential53.profile.grid
        kit_w = np.exp(np.where(grid.nodes > 0,
                                (params53.d - 1) * np.log(grid.nodes + 1e-300)
                                + grid.nodes ** 2 / 4.0, -np.inf))
        w0 = np.exp(-grid.nodes ** 2)          # generic even datum
        h = grid.drho
        proj = (np.sum(kit_w * w0 * mode53) /
                np.sum(kit_w * mode53 * mode53))
        w0 = w0 - proj * mode53
        log = linearized_evolve(w0, potential53, 0.0, 5.0, dtau=0.01)
        rate, _ = fit_log_slope(log.taus[20:], np.log(log.norms["lr"][20:]))
        matrix_eigs = matrix_spectrum(selected53.alpha_bar, params53, grid,
                               cutoff=-4.0)
        lam2 = matrix_eigs[1]
        assert rate <= lam2 + 1e-2

    def test_richardson_second_order(self, potential53, mode53):
        runs = {dt: linearized_evolve(mode53, potential53, 0.0, 1.0,
                                      dtau=dt).final.v
                for dt in (0.04, 0.02, 0.01)}
        e1 = np.max(np.abs(runs[0.04] - runs[0.02]))
        e2 = np.max(np.abs(runs[0.02] - runs[0.01]))
        assert e1 / e2 == pytest.approx(4.0, abs=0.3)


def test_demo_drift_run_takes_one_norm_pass_per_state(monkeypatch,
                                                      params53):
    # the drift run reads only final.v: its dist_ref is its lr column,
    # so each logged state costs one _NormKit.lebesgue call
    passes, logs = [], []
    lebesgue, evolve = _NormKit.lebesgue, dynamics.evolve_similarity

    def counted(self, v, gammas):
        passes.append(gammas)
        return lebesgue(self, v, gammas)

    def drift_run(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(_NormKit, "lebesgue", counted)
            logs.append(evolve(*args, **kwargs))
        return logs[-1]

    monkeypatch.setattr(dynamics, "evolve_similarity", drift_run)
    nonuniqueness_demo(params53, q=2.0, r=10.0)
    assert len(logs) == 1
    assert len(passes) == logs[0].taus.size
    assert passes[0] == (1.0, 2.0, 10.0, 30.0)


class TestEvolvePerturbation:
    def test_zero_perturbation_is_fixed_point(self, params53, potential53):
        z = np.zeros_like(potential53.profile.grid.nodes)
        log = evolve_perturbation(z, potential53, 0.0, 2.0)
        assert np.all(log.final.v == 0.0)

    def test_quadratic_tangency(self, params53, potential53, mode53):
        ratios = []
        for scale in (1.0, 0.5, 0.25):
            eps = 0.02 * scale
            nl = evolve_perturbation(eps * mode53, potential53, 0.0, 2.0,
                                     dtau=0.01)
            lin = linearized_evolve(eps * mode53, potential53, 0.0, 2.0,
                                    dtau=0.01)
            ratios.append(np.max(np.abs(nl.final.v - lin.final.v)) / eps ** 2)
        assert max(ratios) / min(ratios) < 1.5
        assert all(np.isfinite(r) for r in ratios)


class TestAncientBranch:
    def test_bounds_hold(self, params53, selected53, potential53, mode53):
        lam = selected53.lambda_bar
        g2 = abs(quadratic_mode_coupling(potential53, mode53))
        eps = 0.05 * lam / (g2 * math.exp(lam * -2.0))
        log = ancient_branch(potential53, mode53, lam, eps, -12.0, -2.0,
                             params53, dtau=0.005)
        assert log.extras["lower_bound_ok"]
        assert log.extras["lower_bound_margin"] > 1.0
        assert log.extras["delta_ok"]
        assert log.extras["fitted_delta"] >= log.extras["delta_floor"]
        # the gap to the mode is read, then dropped from the log
        assert ",".join(next(log.to_csv_rows())) == (
            "tau,t,l1,lq,lr,lpr,l2w,dist_ref")
        assert set(log.extras) == {
            "mode_norm_r", "lower_bound_ok", "lower_bound_margin",
            "residual_rate", "fitted_delta", "delta_floor", "delta_ok",
            "residual_fit_r2"}

    def test_epsilon_halving_is_second_order(self, params53, selected53,
                                             potential53, mode53):
        # time-translation covariance of the seed: halving eps acts as a
        # shift tau -> tau - ln2/lambda, equivalently the branch scales
        # linearly in eps up to a second-order residual
        lam = selected53.lambda_bar
        g2 = abs(quadratic_mode_coupling(potential53, mode53))
        eps = 0.05 * lam / (g2 * math.exp(lam * -2.0))
        norms = {}
        for scale in (1.0, 0.5, 0.25):
            log = ancient_branch(potential53, mode53, lam, eps * scale,
                                 -8.0, -2.0, params53, dtau=0.01)
            norms[scale] = log.norms["lr"][-1] / scale
        dev1 = abs(norms[0.5] - norms[1.0]) / norms[1.0]
        dev2 = abs(norms[0.25] - norms[0.5]) / norms[0.5]
        assert dev1 < 0.1
        assert dev2 < 0.7 * dev1   # shrinks linearly in eps

    def test_oversized_seed_rejected(self, params53, selected53,
                                     potential53, mode53):
        # seeding against the mode runs into the heteroclinic plateau and
        # the norm falls below half the linear-mode law: the failure is
        # recorded, with its margin
        lam = selected53.lambda_bar
        log = ancient_branch(potential53, -mode53, lam, 0.5, -12.0, -2.0,
                             params53, dtau=0.005)
        assert log.extras["lower_bound_ok"] is False
        assert log.extras["lower_bound_margin"] < 1.0

    def test_zero_seed_is_zero(self, params53, potential53, mode53,
                               selected53):
        log = evolve_perturbation(0.0 * mode53, potential53, -4.0, -2.0)
        assert np.all(log.final.v == 0.0)


class TestPhysicalNorm:
    def test_critical_exponent_is_identity(self, params53):
        t, val = to_physical_norm(3.7, -1.3, params53.q_c, params53)
        assert t == pytest.approx(math.exp(-1.3))
        assert val == pytest.approx(3.7)

    def test_static_profile_supercritical_divergence(self, params53):
        # constant similarity norm diverges like t^-(1/(p-1) - d/(2r))
        taus = np.linspace(-8.0, -2.0, 13)
        r = 10.0
        vals = [to_physical_norm(1.0, tau, r, params53)[1] for tau in taus]
        slope, r2 = fit_log_slope(taus, np.log(vals))
        assert slope == pytest.approx(
            -(1.0 / (params53.p - 1.0) - params53.d / (2 * r)), abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_subcritical_vanishes_at_zero(self, params53):
        q = 2.0  # below q_c: positive exponent, norm -> 0 as t -> 0
        _, val_small = to_physical_norm(1.0, -20.0, q, params53)
        _, val_tiny = to_physical_norm(1.0, -40.0, q, params53)
        assert val_small < 1e-6
        assert val_tiny < val_small

    def test_rejects_bad_exponent(self, params53):
        for gamma in (0.5, math.nan):
            with pytest.raises(DomainError):
                to_physical_norm(1.0, 0.0, gamma, params53)


class TestDemo:
    def test_demo_passes_all_checks(self, demo53):
        assert demo53.passed
        for name, ok in demo53.checks.items():
            assert ok, name

    def test_demo_report_contents(self, demo53, params53):
        d = demo53.as_dict()
        # the keys of demo.json: a renamed field must show here
        assert set(d) == {
            "params", "q", "r", "alpha_star_bracket", "alpha_bar",
            "lambda_bar", "ell_bar", "ell_uncertainty", "epsilon",
            "tau_window", "eigen_check_gap", "static_drift",
            "static_drift_tol", "measured_mode_rate", "measured_slope",
            "predicted_slope", "slope_r2", "decades", "feasibility",
            "checks", "pass", "tolerances"}
        assert d["params"] == params53.as_dict()
        assert d["pass"] is True
        assert d["q"] == 2.0 and d["r"] == 10.0
        assert 0.0 < d["lambda_bar"] < 0.05
        assert d["ell_bar"] > 0.0
        assert d["decades"] >= 2.0
        assert d["slope_r2"] >= 0.99
        assert abs(d["measured_slope"] - d["predicted_slope"]) <= \
            0.1 * abs(d["predicted_slope"])
        assert d["feasibility"]["satisfied"] is True

    def test_beyond_threshold_rejected(self, params117):
        with pytest.raises(NoUnstableExpanderError):
            nonuniqueness_demo(params117, q=2.0, r=40.0)

    def test_regime_guard_runs_first(self, params117):
        # r < q_c and 1/(p-1) - d/(2r) < 0 here too; the regime decides
        with pytest.raises(NoUnstableExpanderError):
            nonuniqueness_demo(params117, q=2.0, r=30.0)

    def test_critical_q_rejected(self, params53):
        with pytest.raises(DomainError):
            nonuniqueness_demo(params53, q=params53.q_c, r=10.0)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_norm_kit_matches_lq_norm(params53, gamma):
    # 534 nodes: an odd interval count, where a trapezoid fallback would
    # disagree with Simpson by ~1e-4
    grid = RadialGrid.uniform(16.0, 0.03)
    bump = np.where(grid.nodes < 1.0, (1.0 - grid.nodes ** 2) ** 2, 0.0)
    expected = lq_norm(RadialFunction(grid=grid, values=bump), gamma,
                       params53.d)
    (got,), _ = _NormKit(grid, params53).lebesgue(bump, (gamma,))
    assert got == pytest.approx(expected, rel=1e-14)


def test_norm_kit_bitwise_where_tail_powers_underflow(params53,
                                                      grid_default):
    # exp(-rho^2)^gamma is subnormal or zero past rho ~ 8.4 at gamma 10
    # and past rho ~ 4.9 at gamma 30: the nodes dropped there change nothing
    kit = _NormKit(grid_default, params53)
    v = np.exp(-grid_default.nodes ** 2) * np.cos(grid_default.nodes)
    gammas = (10.0, 30.0)
    norms, _ = kit.lebesgue(v, gammas)
    for gamma, nrm in zip(gammas, norms):
        plain = float((kit.sphere * np.dot(
            kit.w_meas, np.abs(v) ** gamma)) ** (1.0 / gamma))
        assert nrm == plain


def test_tiny_field_norm_is_not_zero(params53, grid_default):
    # every (1e-11)^30 underflows; the Simpson sum of rho^4 is exact up
    # to O(h^4), far inside the tolerance after the 30th root
    c, gamma, d = 1e-11, 30.0, params53.d
    exact = c * (sphere_area(d) * grid_default.rho_max ** d / d) ** (
        1.0 / gamma)
    field = np.full(grid_default.nodes.size, c)
    (got,), _ = _NormKit(grid_default, params53).lebesgue(field, (gamma,))
    assert got == pytest.approx(exact, rel=1e-14)
    assert lq_norm(RadialFunction(grid=grid_default, values=field), gamma,
                   d) == got


def test_large_field_norm_is_finite(grid_default):
    # 30^220 overflows, and the axis weight 0 times inf made the sum NaN;
    # the Simpson sum of rho^10 is exact up to O(h^4), shrunk by the 220th
    # root
    c, gamma, d = 30.0, 220.0, 11
    exact = c * (sphere_area(d) * grid_default.rho_max ** d / d) ** (
        1.0 / gamma)
    field = np.full(grid_default.nodes.size, c)
    got = lebesgue_norms(grid_default.measure_weights(d), field, (gamma,),
                         sphere_area(d))[0][0]
    assert got == pytest.approx(exact, rel=1e-12)
