import math

import numpy as np
import pytest
from scipy import special
from scipy.linalg import LinAlgError, solve_banded

from expanderlab import dynamics
from expanderlab.exceptions import DomainError, NoUnstableExpanderError
from expanderlab.exponents import derived_exponents, odd_power
from expanderlab.profiles import RadialGrid, shoot_profile
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
    """I - dtau/2 A with the boundary row as factored, in solve_banded's
    (4, 2) layout."""
    ab = -0.5 * dtau * stepper.ab
    ab[2] += 1.0
    row = stepper._factorized(dtau)[3]
    for k in range(5):      # boundary row n over columns n-4 .. n
        ab[6 - k, k - 5] = row[k]
    return ab


def backward_error(band, y, rhs):
    """max|M y - rhs| / (eps ||M||_inf max|y|), M in (4, 2) band storage."""
    norm = np.max(band_matvec(np.abs(band), np.ones_like(y)))
    return (np.max(np.abs(band_matvec(band, y) - rhs))
            / (np.finfo(float).eps * norm * np.max(np.abs(y))))


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
        # the default grid, whose factors swap no rows, so step runs the
        # two sweeps; drho 0.0025, whose factors at dtau 0.01 swap
        # interior rows, so step runs dgbtrs; d = 11 under a dtau that
        # changes every step, as under the stability cap.  dgbtrs gives
        # solve_banded's x bit for bit; the sweeps, on U scaled to a unit
        # diagonal, round apart from it, so both paths are held to a
        # normwise backward error of 4; measured, the sweeps read at most
        # 0.48, solve_banded 0.39 and dgbtrs 0.34
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
                _, _, sweep, row = stepper._factorized(dtau)
                # (I - B)(x + v) = 2 v + dtau s, B = dtau/2 A, with row . v
                # on the boundary row
                rhs = 2.0 * v + dtau * source
                rhs[-1] = np.dot(row, v[-5:])
                expected = solve_banded((4, 2), band, rhs) - v
                # the same x from (I - B) x = (I + B) v + dtau s
                rhs_plus = (v + 0.5 * dtau * band_matvec(stepper.ab, v)
                            + dtau * source)
                rhs_plus[-1] = 0.0
                two_term = solve_banded((4, 2), band, rhs_plus)
                x = stepper.step(v, dtau, source)
                if sweep is None:
                    assert np.array_equal(x, expected)
                assert backward_error(band, x + v, rhs) <= 4.0
                # the two forms round apart by O(eps dtau / h^2)
                np.testing.assert_allclose(x, two_term,
                                           rtol=1e-13 * (0.01 / drho) ** 2)
                paths.add("dgbtrs" if sweep is None else "sweep")
                v = x
        assert paths == {"sweep", "dgbtrs"}

    def test_boundary_row_never_pivots(self, params53, potential53):
        # the scaled boundary row stays below the diagonals it meets, so
        # without interior swaps the factors have identity pivots and step
        # takes the two sweeps: for the Robin row at the calibrated, zero
        # and a large beta, and for the Dirichlet row under the profile's
        # potential; drho 0.0025 at dtau 0.01 swaps interior rows and
        # keeps dgbtrs
        prof = potential53.profile
        betas = (calibrated_beta(prof.u, prof.grid, params53), 0.0, 5.0,
                 None)
        for drho, dtau_max in ((0.02, 0.04), (0.01, 0.04), (0.005, 0.01),
                               (0.0025, None)):
            grid = RadialGrid.uniform(16.0, drho)
            rho = grid.nodes
            for beta in betas:
                potential = None if beta is not None else np.interp(
                    rho, prof.grid.nodes, potential53.v)
                stepper = _CrankNicolson(grid, params53, potential, beta)
                if dtau_max is None:
                    _, piv, sweep, _ = stepper._factorized(0.01)
                    assert sweep is None
                    assert not np.array_equal(piv, np.arange(rho.size))
                    continue
                for dtau in np.geomspace(1e-6, dtau_max, 25).tolist():
                    lu, piv, sweep, _ = stepper._factorized(dtau)
                    assert np.array_equal(piv, np.arange(rho.size)), (
                        drho, beta, dtau)
                    # no swap, no fill-in: the upper sweep has width 2
                    assert not np.any(lu[:4])
                    # the sweeps read lu itself, not a copy of its band
                    assert all(np.shares_memory(a, lu) for a in sweep)

    def test_non_finite_rhs_raises(self, params53, grid_default):
        stepper = _CrankNicolson(grid_default, params53, beta=None)
        v = np.exp(-grid_default.nodes ** 2)
        stepper.step(v, 0.01)
        v[10] = math.nan
        with pytest.raises(ValueError):
            stepper.step(v, 0.01)

    @pytest.mark.parametrize("bad, where", [
        (math.inf, "v"), (-math.inf, "v"), (math.nan, "source")],
        ids=["inf-v", "minus-inf-v", "nan-source"])
    def test_non_finite_input_raises(self, params53, grid_default, bad,
                                     where):
        stepper = _CrankNicolson(grid_default, params53, beta=None)
        v = np.exp(-grid_default.nodes ** 2)
        source = np.zeros_like(v)
        stepper.step(v, 0.01, source)
        (v if where == "v" else source)[10] = bad
        with pytest.raises(ValueError):
            stepper.step(v, 0.01, source)

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
        (dist,) = kit.lebesgue(v - np.zeros_like(v), (2.0 * params53.q_c,))
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

    def test_free_modes_decay_at_the_cn_rate(self, params53):
        # the zero profile: f_k = e^(-x) L_k^(d/2-1)(x), x = rho^2/4, has
        # rate lam_k = 1/(p-1) - d/2 - k, which CN turns into
        # log((1 + z/2)/(1 - z/2))/dtau = lam + lam^3 dtau^2/12
        # + lam^5 dtau^4/80 + ..., z = lam dtau.  Measured misses: at most
        # 7.1e-9 (k = 2, dtau 0.02), against 6.4e-8 to 2.1e-6 at dtau 0.02
        # without the lam^5 term
        d, p = params53.d, params53.p
        potential = PotentialField.from_profile(shoot_profile(0.0, params53))
        x, a = potential.profile.grid.nodes ** 2 / 4.0, d / 2.0 - 1.0
        for k in range(3):
            lam = 1.0 / (p - 1.0) - d / 2.0 - k
            f = (np.exp(-x) * special.eval_genlaguerre(k, a, x)
                 / special.eval_genlaguerre(k, a, 0.0))
            for dtau in (0.02, 0.005):
                log = linearized_evolve(f, potential, 0.0, 1.0, dtau=dtau)
                rate = np.polyfit(log.taus, np.log(log.norms["lr"]), 1)[0]
                cn_rate = (lam + lam ** 3 * dtau ** 2 / 12.0
                           + lam ** 5 * dtau ** 4 / 80.0)
                assert abs(rate - cn_rate) <= 2e-8, (k, dtau)


def test_demo_drift_run_takes_one_norm_pass_per_block(monkeypatch,
                                                      params53):
    # the drift run reads only final.v: its dist_ref is its lr column,
    # so each block of logged states costs one lebesgue_norms call
    passes, logs = [], []
    evolve = dynamics.evolve_similarity

    def counted(w_meas, values, gammas, sphere, work=None):
        passes.append((len(values), gammas))
        return lebesgue_norms(w_meas, values, gammas, sphere, work)

    def drift_run(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(dynamics, "lebesgue_norms", counted)
            logs.append(evolve(*args, **kwargs))
        return logs[-1]

    monkeypatch.setattr(dynamics, "evolve_similarity", drift_run)
    nonuniqueness_demo(params53, q=2.0, r=10.0)
    assert len(logs) == 1
    rows = dynamics.LOG_ELEMENTS // logs[0].final.v.size
    assert len(passes) == math.ceil(logs[0].taus.size / rows)
    assert [n for n, _ in passes[:-1]] == [rows] * (len(passes) - 1)
    assert {g for _, g in passes} == {(1.0, 2.0, 10.0, 30.0)}


def logged_states(monkeypatch, v0):
    """The list the run's states go to: v0, then each CN step's result."""
    states, step = [np.array(v0, dtype=float)], _CrankNicolson.step

    def recorded(self, v, dtau, source=None):
        states.append(step(self, v, dtau, source).copy())
        return states[-1].copy()

    monkeypatch.setattr(_CrankNicolson, "step", recorded)
    return states


def assert_rows_are_one_row_calls(log, states, kit, columns):
    """Each logged value is, bit for bit, the single-state call the
    per-state logger made for it."""
    assert len(states) == log.taus.size
    for name, spec in columns.items():
        col = log.norms[name]
        assert col.flags.c_contiguous
        for v, tau, got in zip(states, log.taus, col):
            if isinstance(spec, str):
                want = kit.weighted_l2(v)
            elif isinstance(spec, tuple):
                gamma, f, amp, rate = spec
                want = kit.lebesgue(v - amp * math.exp(rate * tau) * f,
                                    (gamma,))[0]
            else:
                want = kit.lebesgue(v, (spec,))[0]
            assert got == want, (name, tau)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_logged_rows_are_one_row_calls(monkeypatch, params53, profile53,
                                       potential53, mode53, selected53,
                                       extra):
    # runs of one row short of a block, a block, and a row past it; the
    # reference and the mode gap are the columns of v minus a shift
    grid, u = profile53.grid, profile53.u
    rows = dynamics.LOG_ELEMENTS // grid.nodes.size + extra
    kit = _NormKit(grid, params53)
    states = logged_states(monkeypatch, 1.2 * u)
    log = evolve_similarity(1.2 * u, 0.0, 0.01 * (rows - 1), params53, grid,
                            dtau=0.01, q=2.5, r=10.0, reference=u)
    assert_rows_are_one_row_calls(
        log, states, kit, dynamics._columns(params53, 2.5, 10.0, u))
    gap = (mode53, 0.01, selected53.lambda_bar)
    states = logged_states(monkeypatch, 0.01 * mode53)
    log = evolve_perturbation(0.01 * mode53, potential53, 0.0,
                              0.01 * (rows - 1), q=2.5, r=10.0, mode_gap=gap)
    columns = dynamics._columns(params53, 2.5, 10.0)
    columns["mode_gap"] = (10.0, *gap)
    assert_rows_are_one_row_calls(log, states, kit, columns)


@pytest.mark.parametrize("scale, dtau", [(1.1, 0.02), (1.2, 0.5)])
def test_capped_blowup_rows_are_one_row_calls(monkeypatch, params53,
                                              profile53, scale, dtau):
    # cap-bound runs that take more steps than the nominal count (at dtau
    # 0.5, 121 against 10) and stop, blown up, in the middle of a block
    grid, v0 = profile53.grid, scale * profile53.u
    states = logged_states(monkeypatch, v0)
    log = evolve_similarity(v0, 0.0, 5.0, params53, grid, dtau=dtau, q=2.5)
    assert log.blown_up
    assert log.taus.size % (dynamics.LOG_ELEMENTS // grid.nodes.size)
    assert np.sum(np.diff(log.taus) < 0.999 * dtau) > 100
    assert_rows_are_one_row_calls(log, states, _NormKit(grid, params53),
                                  dynamics._columns(params53, 2.5, None))


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


def polyfit_line(x, y):
    """The line fit as numpy's least-squares solver gives it: the slope
    and the coefficient of determination."""
    coeffs = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - np.polyval(coeffs, x)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return float(coeffs[0]), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


@pytest.mark.parametrize("n, x0, x1", [
    (2, 0.0, 5.0), (3, -12.0, -2.0), (51, 0.0, 5.0), (501, 0.0, 5.0),
    (2001, -12.0, -2.0)])
def test_fit_log_slope_matches_least_squares(n, x0, x1):
    # noisy lines shaped like the demo's fits
    rng = np.random.default_rng(n)
    x = np.linspace(x0, x1, n)
    y = -0.19 * x - 6.0 + 1e-6 * rng.standard_normal(n)
    slope, r2 = fit_log_slope(x, y)
    want_slope, want_r2 = polyfit_line(x, y)
    assert slope == pytest.approx(want_slope, rel=1e-12, abs=0.0)
    assert r2 == pytest.approx(want_r2, rel=1e-12, abs=0.0)
    assert fit_log_slope(x, np.full(n, 3.0)) == (0.0, 1.0)


def test_fit_log_slope_two_points_near_minus_two():
    # the demo's divergence fit over --tau0 -2.004 --tau1 -2: the exact
    # slope of the two logged points, which the uncentred solve of polyfit
    # misses by 4.6e-14
    x = np.array([-2.004, -2.0])
    y = np.array([-5.606571615896261, -5.607335593029165])
    slope, r2 = fit_log_slope(x, y)
    assert slope == pytest.approx(polyfit_line(x, y)[0], rel=1e-12, abs=0.0)
    assert slope == -0.19099428322610895
    assert r2 == 1.0


def test_branch_and_rate_fits_never_call_lstsq(refuse_numpy_linalg,
                                               params53, selected53,
                                               potential53, mode53):
    # the first call of numpy's least-squares solver pages in about 1 MiB,
    # which the 20-state log blocks spend instead: the demo's dynamics
    # stages must not reach it under any name numpy binds it to
    with pytest.raises(AssertionError, match="lstsq called"):
        np.polyfit([0.0, 1.0], [0.0, 1.0], 1)
    lam = selected53.lambda_bar
    log = linearized_evolve(mode53, potential53, 0.0, 5.0, dtau=0.01)
    rate, _ = fit_log_slope(log.taus, np.log(log.norms["lr"]))
    assert abs(rate - lam) <= 1e-3
    g2 = abs(quadratic_mode_coupling(potential53, mode53))
    eps = 0.05 * lam / (g2 * math.exp(lam * -2.0))
    log = ancient_branch(potential53, mode53, lam, eps, -8.0, -2.0,
                         params53, dtau=0.01)
    assert log.extras["delta_ok"]


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
    (got,) = _NormKit(grid, params53).lebesgue(bump, (gamma,))
    assert got == pytest.approx(expected, rel=1e-14)


def test_norm_kit_bitwise_where_tail_powers_underflow(params53,
                                                      grid_default):
    # exp(-rho^2)^gamma is subnormal or zero past rho ~ 8.4 at gamma 10
    # and past rho ~ 4.9 at gamma 30: the nodes dropped there change
    # nothing; integer gammas >= 3, taken by products, land within 4 ulp
    kit = _NormKit(grid_default, params53)
    v = np.exp(-grid_default.nodes ** 2) * np.cos(grid_default.nodes)
    gammas = (2.0, 12.5, 10.0, 30.0)
    norms = kit.lebesgue(v, gammas)
    for gamma, nrm in zip(gammas, norms):
        plain = float((kit.sphere * np.dot(
            kit.w_meas, np.abs(v) ** gamma)) ** (1.0 / gamma))
        if gamma.is_integer() and gamma >= 3.0:
            assert nrm == pytest.approx(plain, rel=4 * 2.0 ** -52, abs=0.0)
        else:
            assert nrm == plain


def test_tiny_field_norm_is_not_zero(params53, grid_default):
    # every (1e-11)^30 underflows; the Simpson sum of rho^4 is exact up
    # to O(h^4), far inside the tolerance after the 30th root
    c, gamma, d = 1e-11, 30.0, params53.d
    exact = c * (sphere_area(d) * grid_default.rho_max ** d / d) ** (
        1.0 / gamma)
    field = np.full(grid_default.nodes.size, c)
    (got,) = _NormKit(grid_default, params53).lebesgue(field, (gamma,))
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
    got = lebesgue_norms(grid_default.measure_weights(d), field[None],
                         (gamma,), sphere_area(d))[0, 0]
    assert got == pytest.approx(exact, rel=1e-12)
