"""Time evolution in similarity variables and the non-uniqueness demo.

The similarity-variable flow

    v_tau = v'' + ((d-1)/rho + rho/2) v' + v/(p-1) + |v|^(p-1) v

has the shot profiles as fixed points.  Time stepping is IMEX: the linear
operator (optionally including a frozen potential) is advanced by
Crank-Nicolson as a banded solve, the nonlinearity explicitly under a
stability cap.  The drift (rho/2) d/drho is kept inside the implicit part
with centered differences; its advection speed at the outer boundary would
cripple any explicit treatment.  Interior stencils are fourth order so that
the discrete defect of a static profile sits well below the drift
tolerances; the axis uses the even extension (the radial Laplacian at zero
is d times the second derivative) and the outer boundary the Robin
condition matching the profile tail law.

The demo assembles the backward-in-time evidence: a slightly unstable
profile, its top eigenmode seeded at very negative tau, the perturbation
equation integrated forward, and the physical-variable divergence rate of
the two solutions compared against the predicted exponent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np
# solve_banded stays bound here: bench/instrument.py wraps this name
from scipy.linalg import LinAlgError, solve_banded  # noqa: F401
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .exceptions import DomainError
from .exponents import (
    FeasibilityCheck,
    ProblemParams,
    check_feasibility,
    odd_power,
)
from .profiles import (
    DEFAULT_GRID,
    RadialGrid,
    estimate_ell,
    fit_log_slope,
    require_positive,
)
# _NormKit stays bound here: bench/instrument.py wraps this name
from .semigroup import _NormKit, lebesgue_norms
from .spectral import (
    PotentialField,
    matrix_spectrum,
    select_unstable_expander,
)

STABILITY_C = 0.5
MAX_STEPS = 10 ** 7     # a run of more nominal steps is refused up front
BLOWUP = 1e6            # a run stops once max|v| passes this, or
                        # 2^(1000/p) where |v|^p would near overflow first
# a run logs its states a block of this many elements at a time, 20 states
# at n = 1601; its 1 MiB of scratch is about what the first call of numpy's
# lstsq pages in, which the closed-form fit_log_slope never makes, so the
# demo's peak RSS holds, while a run that fits no line peaks 1 MiB higher
LOG_ELEMENTS = 2 ** 15


@dataclass
class EvolutionState:
    """Radial field at one similarity time."""

    tau: float
    v: np.ndarray


def robin_beta(params: ProblemParams, rho_max: float) -> float:
    """Log-derivative the profile tail satisfies at rho_max, with the
    curvature correction of the rho^-2 term.

    The plain first-order law v'/v = -2/((p-1) rho) leaves an O(rho^-3)
    model error that a static profile feels as a spurious boundary source;
    the correction coefficient c = m(m+2-d), m = 2/(p-1), removes most of
    it.  c is the linear part of the rho^-2 coefficient; the nonlinear
    part |ell|^(p-1) is left out.
    """
    m = 2.0 / (params.p - 1.0)
    c = m * (m + 2.0 - params.d)
    return (m / rho_max
            + 2.0 * c / rho_max ** 3 / (1.0 + c / rho_max ** 2))


# fourth-order one-sided first-derivative weights at the last node,
# offsets -4..0 in units of h
_EDGE_D1 = np.array([3.0, -16.0, 36.0, -48.0, 25.0]) / 12.0
# fourth-order second- and first-derivative weights at node n-1, offsets
# -3..1 in units of h
_EDGE_D2_BIASED = np.array([-1.0, 4.0, 6.0, -20.0, 11.0]) / 12.0
_EDGE_D1_BIASED = np.array([-1.0, 6.0, -18.0, 10.0, 3.0]) / 12.0
# band-storage slots of row n-1's entries in columns n-4 .. n; row n's
# are one band row lower
_EDGE = (np.arange(5, 0, -1), np.arange(-5, 0))


def calibrated_beta(v: np.ndarray, grid: RadialGrid,
                    params: ProblemParams) -> float:
    """Outer Robin coefficient read off the data's own tail.

    beta = -v'(rho_max)/v(rho_max) with a fourth-order one-sided
    derivative, so the initial data satisfies the boundary row exactly and
    a static profile feels no spurious boundary source.  Falls back to the
    tail-law value when the boundary value is numerically zero.
    """
    vmax = float(np.max(np.abs(v)))
    if v[-1] == 0.0 or abs(v[-1]) < 1e-10 * vmax:
        return robin_beta(params, grid.rho_max)
    dv = float(np.dot(_EDGE_D1, v[-5:])) / grid.drho
    return -dv / float(v[-1])


def operator_bands(grid: RadialGrid, params: ProblemParams,
                   potential: Optional[np.ndarray] = None) -> np.ndarray:
    """The linear generator A on the grid in LAPACK (4, 2) band storage,
    ab[2 + i - j, j] = A[i, j].

    All stencils are fourth order; the axis rows use the even extension.
    Row n-1 is the biased fourth-order row over the last five nodes; row n
    is left to the boundary condition, see _CrankNicolson.
    """
    nodes = grid.nodes
    n = nodes.size - 1
    h = grid.drho
    d, p = params.d, params.p
    c = np.full(n + 1, 1.0 / (p - 1.0))
    if potential is not None:
        c = c + np.asarray(potential, dtype=float)
    ab = np.zeros((7, n + 1))
    up2, up1, diag, dn1, dn2 = ab[0, 2:], ab[1, 1:], ab[2], ab[3], ab[4]

    # axis row: L0 v(0) = d v''(0) + v(0)/(p-1), fourth-order even stencil
    diag[0] = -15.0 * d / (6.0 * h * h) + c[0]
    up1[0] = 16.0 * d / (6.0 * h * h)
    up2[0] = -d / (6.0 * h * h)

    # first off-axis row with even ghosts v[-1] = v[1], v[-2] = v[2]
    w1 = (d - 1.0) / h + 0.5 * h
    dn1[0] = 16.0 / (12 * h * h) - 8.0 * w1 / (12 * h)
    diag[1] = -31.0 / (12 * h * h) + w1 / (12 * h) + c[1]
    up1[1] = 16.0 / (12 * h * h) + 8.0 * w1 / (12 * h)
    up2[1] = -1.0 / (12 * h * h) - w1 / (12 * h)

    idx = np.arange(2, n - 1)
    rho = nodes[idx]
    w = (d - 1.0) / rho + 0.5 * rho
    dn2[idx - 2] = -1.0 / (12 * h * h) + w / (12 * h)
    dn1[idx - 1] = 16.0 / (12 * h * h) - 8.0 * w / (12 * h)
    diag[idx] = -30.0 / (12 * h * h) + c[idx]
    up1[idx] = 16.0 / (12 * h * h) + 8.0 * w / (12 * h)
    up2[idx] = -1.0 / (12 * h * h) - w / (12 * h)

    # biased fourth-order next-to-boundary row over the last five nodes;
    # any defect here is amplified by the slow tail quasi-mode
    wm = (d - 1.0) / nodes[n - 1] + 0.5 * nodes[n - 1]
    edge = _EDGE_D2_BIASED / (h * h) + wm * _EDGE_D1_BIASED / h
    edge[3] += c[n - 1]
    ab[_EDGE] = edge
    return ab


class _CrankNicolson:
    """Banded CN propagator for the linear part, explicit source hook.

    The outer boundary is an algebraic row in the implicit matrix:
    either the Robin tail condition with a fourth-order one-sided
    derivative, or homogeneous Dirichlet for fields in the decaying class.
    Enforcing it as a constraint instead of a ghost keeps the boundary
    model error out of the PDE rows, where the 1/h^2 scaling would
    amplify it through the slow tail quasi-mode.  _bc is the condition
    itself; the matrix carries it times 1 / (1/h + h/dtau), whose entries,
    at most 4 dtau / (h^2 + dtau), stay below the diagonal
    1 + 1.25 dtau/h^2 of the rows they meet, so the factorization never
    swaps the boundary row in.  Without swaps U is kept as D U', with
    D^-1 taken once per dtau, so a step divides by nothing.
    """

    def __init__(self, grid: RadialGrid, params: ProblemParams,
                 potential: Optional[np.ndarray] = None,
                 beta: Optional[float] = None):
        """beta is the Robin coefficient; None selects Dirichlet."""
        self.ab = operator_bands(grid, params, potential)
        self._h = grid.drho
        if beta is None:
            self._bc = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        else:
            self._bc = _EDGE_D1 / grid.drho + np.array([0, 0, 0, 0, beta])
        self._dtau = None
        self._lu = None

    def _factorized(self, dtau: float):
        """(lu, piv, sweep, row): the LU factors of I - dtau/2 A with its
        scaled boundary row, refactored only when dtau changes, in
        dgbtrf's layout (the (4, 2) band under 4 fill-in rows), and row,
        the boundary row as factored.  If no row was swapped, U is stored
        as D U' with U' unit-upper and 1/D in its diagonal row: sweep is
        (lower, upper, dinv), views of lu from rows 6 and 4 on as dtbsv's
        unit bands and of that row, without a copy; else it is None and
        step calls dgbtrs."""
        if self._dtau != dtau:
            n = self.ab.shape[1]
            row = self._bc / (1.0 / self._h + self._h / dtau)
            buf = np.zeros(11 * n + 6)
            ab = buf[:11 * n].reshape((11, n), order="F")
            ab[4:] = -0.5 * dtau * self.ab
            ab[6] += 1.0
            ab[5 + _EDGE[0], _EDGE[1]] = row    # boundary row n
            if not np.isfinite(ab).all():
                raise ValueError("array must not contain infs or NaNs")
            # lu is ab, in place in buf: 6 spare slots hold lower's view
            lu, piv, info = dgbtrf(ab, 4, 2, overwrite_ab=True)
            if info != 0:
                raise LinAlgError("singular matrix")
            sweep = None
            # bytes, not an int32 ufunc, whose code no other step pages in
            if piv.tobytes() == np.arange(n, dtype=piv.dtype).tobytes():
                # no swap leaves fill-in rows 0-3 zero: U has width 2
                dinv = np.divide(1.0, lu[6], out=lu[6])
                lu[5, 1:] *= dinv[:-1]
                lu[4, 2:] *= dinv[:-2]
                sweep = (buf[6:].reshape((11, n), order="F"),
                         buf[4:-2].reshape((11, n), order="F"), dinv)
            self._lu = (lu, piv, sweep, row)
            self._dtau = dtau
        return self._lu

    def step(self, v: np.ndarray, dtau: float,
             source: Optional[np.ndarray] = None) -> np.ndarray:
        """x solving (I - dtau/2 A) x = (I + dtau/2 A) v + dtau source with
        the boundary row's condition.  That is the same system as
        (I - dtau/2 A)(x + v) = 2 v + dtau source, so the step solves for
        x + v, with row . v on the (scaled) boundary row, and applies no
        band product; bc . x = 0 then holds to roundoff.

        Without row swaps the solve is division-free: a unit-lower dtbsv
        sweep, one product by dinv, a unit-upper dtbsv sweep of width 2;
        x is solve_banded's within rounding.  With swaps, dgbtrs gives
        solve_banded's x bit for bit."""
        lu, piv, sweep, row = self._factorized(dtau)
        rhs = 2.0 * v
        if source is not None:
            rhs += dtau * source
        rhs[-1] = np.dot(row, v[-5:])
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        if sweep is None:
            x, _ = dgbtrs(lu, 4, 2, rhs, piv, overwrite_b=True)
        else:
            lower, upper, dinv = sweep
            # (k, a, x, incx, offx, lower, trans, diag, overwrite_x)
            x = dtbsv(4, lower, rhs, 1, 0, 1, 0, 1, 1)
            x *= dinv
            x = dtbsv(2, upper, x, 1, 0, 0, 0, 1, 1)
        x -= v
        return x


def stability_cap(vmax: float, params: ProblemParams) -> float:
    """Largest stable step for the explicit nonlinearity at max|v| = vmax;
    none when p vmax^(p-1) is 0 (vmax = 0, or an underflow)."""
    rate = params.p * vmax ** (params.p - 1.0)
    if rate == 0.0:
        return math.inf
    return STABILITY_C / rate


@dataclass
class TrajectoryLog:
    """Per-step record of a trajectory: norms holds its columns, in order,
    each one contiguous array over taus, logged a block of states at a time."""

    taus: np.ndarray
    norms: dict
    blown_up: bool
    final: EvolutionState
    extras: dict = field(default_factory=dict)

    def to_csv_rows(self):
        yield ("tau", "t", *self.norms)
        columns = [col.tolist() for col in self.norms.values()]
        for tau, *row in zip(self.taus.tolist(), *columns):
            t = math.exp(tau)
            if t < sys.float_info.min:
                # a subnormal t loses digits or reads 0.0: a 17-digit
                # decimal instead, whose import costs 0.3 MiB of RSS
                import decimal
                t = decimal.Context(prec=17).exp(decimal.Decimal(tau))
            yield (repr(tau), str(t), *map(repr, row))


def _log_rows(kit: _NormKit, block: np.ndarray, taus: list, columns: dict,
              work: np.ndarray) -> np.ndarray:
    """One row per column spec, one value per state in block, logged at
    taus, as each state's own calls would give it: a spec is an exponent
    gamma (the L^gamma norm), "l2w" (weighted_l2) or (gamma, f, amp,
    rate) (the L^gamma norm of v - amp e^(rate tau) f); work is (3, k,
    n) scratch."""
    gammas = tuple(dict.fromkeys(
        g for g in columns.values() if not isinstance(g, (str, tuple))))
    norms = lebesgue_norms(kit.w_meas, block, gammas, kit.sphere, work[1:])
    out = np.empty((len(columns), len(block)))
    for row, spec in zip(out, columns.values()):
        if isinstance(spec, str):
            np.sqrt(np.vecdot(np.multiply(block, block, out=work[0]),
                              kit.w_l2w), out=row)
        elif isinstance(spec, tuple):
            gamma, f, amp, rate = spec
            np.multiply([[amp * math.exp(rate * t)] for t in taus], f,
                        out=work[0])
            row[:] = lebesgue_norms(
                kit.w_meas, np.subtract(block, work[0], out=work[0]),
                (gamma,), kit.sphere, work[1:])[:, 0]
        else:
            row[:] = norms[:, gammas.index(spec)]
    return out


def _check_window(tau0: float, tau1: float, dtau: float) -> float:
    """dtau, checked to step from tau0 up to tau1 in MAX_STEPS or fewer."""
    if not tau1 > tau0:
        raise DomainError("need tau1 > tau0")
    dtau = require_positive("dtau", dtau)
    if tau1 - tau0 > MAX_STEPS * dtau:
        raise DomainError(f"dtau={dtau} takes more than {MAX_STEPS} steps "
                          f"from tau0={tau0} to tau1={tau1}")
    t = max(abs(tau0), abs(tau1))
    if not dtau > 0.5 * math.ulp(t):     # else tau += dtau leaves tau as is
        raise DomainError(f"dtau={dtau} is below half the float spacing "
                          f"at tau={t}")
    return dtau


def _evolve(v0: np.ndarray, grid: RadialGrid, params: ProblemParams,
            tau0: float, tau1: float, dtau: float,
            potential: Optional[np.ndarray],
            source_fn: Optional[Callable[[np.ndarray], np.ndarray]],
            columns: dict) -> TrajectoryLog:
    """Step v0 from tau0 to tau1, logging columns after every step: each
    name maps, in order, to a column spec of _log_rows.  States
    are logged LOG_ELEMENTS // n at a time and at the end, one array per
    block, joined once; max|v|, for the cap and the blow-up test, is taken
    every step.  With a frozen potential the field decays and the outer
    row is Dirichlet, otherwise the Robin condition calibrated on v0's
    tail."""
    dtau = _check_window(tau0, tau1, dtau)
    v = np.asarray(v0, dtype=float).copy()
    if v.shape != grid.nodes.shape:
        raise DomainError("initial data must live on the grid")
    blowup = min(BLOWUP, 2.0 ** (1000.0 / params.p))
    vmax = float(max(v.max(), -v.min()))
    if not vmax <= blowup:
        raise DomainError(f"initial data must be finite with max|v| <= "
                          f"{blowup:g}, the blow-up threshold")
    beta = None if potential is not None else calibrated_beta(v, grid, params)
    stepper = _CrankNicolson(grid, params, potential, beta)
    kit = _NormKit(grid, params)
    buf = np.empty((4, max(1, LOG_ELEMENTS // v.size), v.size))
    block = buf[0]      # the rest is _log_rows' scratch
    tau, taus, block[0], parts = tau0, [tau0], v, []

    def log_block():
        rows = (len(taus) - 1) % len(block) + 1
        parts.append(_log_rows(kit, block[:rows], taus[-rows:], columns,
                               buf[1:, :rows]))

    while tau < tau1 - 1e-12:
        dt = min(dtau, tau1 - tau)
        if source_fn is not None:
            cap = stability_cap(vmax, params)
            if dt > cap:
                dt = 0.9 * cap
        source = source_fn(v) if source_fn is not None else None
        v = stepper.step(v, dt, source)
        tau += dt
        i = len(taus) % len(block)
        if not i:
            log_block()
        block[i] = v
        taus.append(tau)
        vmax = float(max(v.max(), -v.min()))
        if vmax > blowup:
            break
    log_block()
    table = np.concatenate(parts, axis=1)

    return TrajectoryLog(
        taus=np.array(taus),
        norms={k: table[j] for j, k in enumerate(columns)},
        blown_up=vmax > blowup, final=EvolutionState(tau=tau, v=v))


def _columns(params: ProblemParams, q, r,
             reference: Optional[np.ndarray] = None) -> dict:
    """The columns of a full trajectory: L^1, L^q, L^r, L^(pr), l2w and
    dist_ref, the L^r distance to reference (without one, the L^r norm)."""
    q, r = _default_exponents(params, q, r)
    return {"l1": 1.0, "lq": q, "lr": r, "lpr": params.p * r, "l2w": "l2w",
            "dist_ref": r if reference is None else (r, reference, 1.0, 0.0)}


def _default_exponents(params: ProblemParams, q, r):
    if q is None:
        q = 0.5 * (1.0 + params.q_c)
    if r is None:
        r = 2.0 * params.q_c
    if not (q >= 1.0 and r >= 1.0):
        raise DomainError(f"Lebesgue exponents must be >= 1, got q={q}, "
                          f"r={r}")
    return float(q), float(r)


def evolve_similarity(v0: np.ndarray, tau0: float, tau1: float,
                      params: ProblemParams,
                      grid: RadialGrid = DEFAULT_GRID,
                      dtau: float = 0.01, q: Optional[float] = None,
                      r: Optional[float] = None,
                      reference: Optional[np.ndarray] = None) -> TrajectoryLog:
    """Integrate the full similarity-variable equation, logging _columns.

    The outer Robin coefficient is calibrated on the initial data's own
    tail.  Steps shrink automatically under the explicit-nonlinearity cap;
    the run terminates early with a flag when max|v| passes
    min(1e6, 2^(1000/p)), before |v|^p can overflow.
    """
    return _evolve(v0, grid, params, tau0, tau1, dtau, None,
                   lambda v: odd_power(v, params.p),
                   _columns(params, q, r, reference))


def linearized_evolve(w0: np.ndarray, potential: PotentialField,
                      tau0: float, tau1: float, dtau: float = 0.01,
                      q: Optional[float] = None,
                      r: Optional[float] = None) -> TrajectoryLog:
    """Evolve the linearized flow, potential frozen at a profile; log lr."""
    prof = potential.profile
    q, r = _default_exponents(prof.params, q, r)
    return _evolve(w0, prof.grid, prof.params, tau0, tau1, dtau,
                   potential.v, None, {"lr": r})


def evolve_perturbation(psi0: np.ndarray, potential: PotentialField,
                        tau0: float, tau1: float,
                        dtau: float = 0.01, q: Optional[float] = None,
                        r: Optional[float] = None,
                        mode_gap: Optional[tuple] = None) -> TrajectoryLog:
    """Evolve the deviation from a frozen profile under the full flow.

    The linearized generator is implicit; only the quadratic-order
    remainder of the nonlinearity is explicit, so the profile itself is an
    exact fixed point of the scheme up to its own discretization defect.
    The parameters are the potential's profile's.  mode_gap = (f, eps,
    lam) logs one more column, the L^r norm of psi - eps e^(lam tau) f.
    """
    prof = potential.profile
    params = prof.params
    u_bar = prof.u
    n_bar = odd_power(u_bar, params.p)
    v_pot = potential.v

    def remainder(psi):
        return (odd_power(u_bar + psi, params.p) - n_bar - v_pot * psi)

    columns = _columns(params, q, r)
    if mode_gap is not None:
        columns["mode_gap"] = (columns["lr"], *mode_gap)
    return _evolve(psi0, prof.grid, params, tau0, tau1, dtau, v_pot,
                   remainder, columns)


def ancient_branch(potential: PotentialField, eigmode: np.ndarray,
                   lambda_bar: float, epsilon: float,
                   tau0: float, tau1: float, params: ProblemParams,
                   dtau: float = 0.005, q: Optional[float] = None,
                   r: Optional[float] = None) -> TrajectoryLog:
    """Numerical unstable-manifold branch seeded by the top eigenmode.

    Seeds eps e^(lambda tau0) times the eigenmode at very negative tau0 and
    integrates the perturbation equation to tau1.  The log's extras record
    the two certificates, pass or fail: (a) lower_bound_ok, the L^r norm
    stays above half the linear-mode law eps e^(lambda tau) ||f||_r across
    the window (a seed that leaves the linear regime fails it), and (b)
    delta_ok, the gap to the pure mode grows at a fitted rate
    lambda + delta with delta >= min(p-1, 1) lambda / 2 (it fails, with a
    NaN delta, when fewer than two points of the fit window are logged).
    """
    if lambda_bar <= 0.0:
        raise DomainError("ancient branch needs a positive top eigenvalue")
    prof = potential.profile
    q, r = _default_exponents(params, q, r)
    (mode_r,) = _NormKit(prof.grid, params).lebesgue(eigmode, (r,))
    psi0 = epsilon * math.exp(lambda_bar * tau0) * eigmode
    log = evolve_perturbation(psi0, potential, tau0, tau1, dtau=dtau, q=q,
                              r=r, mode_gap=(eigmode, epsilon, lambda_bar))

    taus = log.taus
    lower = 0.5 * epsilon * np.exp(lambda_bar * taus) * mode_r
    gap = log.norms.pop("mode_gap")        # its CSV keeps eight columns
    window = taus >= tau0 + 0.2 * (tau1 - tau0)
    good = window & (gap > 1e-13 * np.max(gap))
    slope = r2 = math.nan
    if taus[good].size >= 2:
        slope, r2 = fit_log_slope(taus[good], np.log(gap[good]))
    delta = slope - lambda_bar
    delta_floor = 0.5 * min(params.p - 1.0, 1.0) * lambda_bar
    log.extras.update({
        "mode_norm_r": mode_r,
        "lower_bound_ok": bool(np.all(log.norms["lr"] > lower)),
        "lower_bound_margin": float(np.min(log.norms["lr"] / lower)),
        "residual_rate": slope,
        "fitted_delta": delta,
        "delta_floor": delta_floor,
        "delta_ok": bool(delta >= delta_floor),
        "residual_fit_r2": r2,
    })
    return log


def quadratic_mode_coupling(potential: PotentialField,
                            mode: np.ndarray) -> float:
    """Projection of the quadratic remainder onto the mode itself.

    For amplitude a along the top mode the reduced dynamics is
    a' = lambda a + g2 a^2 + ...; g2 controls how fast the branch leaves
    the linear regime, relative to lambda.  Weighted inner products.
    """
    prof = potential.profile
    p = prof.params.p
    w_l2w = prof.grid.l2w_weights(prof.params.d)
    u = prof.u
    with np.errstate(divide="ignore", invalid="ignore"):
        curv = 0.5 * p * (p - 1.0) * np.abs(u) ** (p - 3.0) * u
    curv = np.where(np.abs(u) > 1e-300, curv, 0.0)
    num = float(np.dot(w_l2w, curv * mode ** 3))
    den = float(np.dot(w_l2w, mode ** 2))
    return num / den


@dataclass
class DemoReport:
    """Assembled non-uniqueness evidence for one parameter set."""

    params: ProblemParams
    q: float
    r: float
    alpha_star_bracket: tuple
    alpha_bar: float
    lambda_bar: float
    ell_bar: float
    ell_uncertainty: float
    epsilon: float
    tau_window: tuple
    eigen_check_gap: float
    static_drift: float
    static_drift_tol: float
    measured_mode_rate: float
    measured_slope: float
    predicted_slope: float
    slope_r2: float
    decades: float
    feasibility: FeasibilityCheck
    checks: dict
    tolerances: dict
    branch_log: TrajectoryLog = field(repr=False)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def as_dict(self) -> dict:
        """Every field but the branch log, the nested records as their own
        dicts, and pass."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "branch_log"}
        out.update(params=self.params.as_dict(),
                   feasibility=self.feasibility.as_dict())
        out["pass"] = self.passed
        return out


def nonuniqueness_demo(params: ProblemParams, q: Optional[float] = None,
                       r: Optional[float] = None,
                       epsilon: Optional[float] = None,
                       grid: RadialGrid = DEFAULT_GRID,
                       tau0: float = -12.0, tau1: float = -2.0,
                       dtau: float = 0.005) -> DemoReport:
    """Two solutions from one singular datum, diverging at the predicted rate.

    Pipeline: locate the marginal shooting value, select a slightly
    unstable profile, verify its eigenvalue two ways, ride the unstable
    manifold backward in time, and fit the physical-variable divergence
    log ||u1 - u2||_r against log t.  The report carries one boolean per
    sub-check, each decided once, here: a lambda_bar outside the smallness
    window or a seed that leaves the linear regime is a failed check, not
    an exception.  pass means all of them hold.
    """
    params.require_unstable_regime()
    q, r = _default_exponents(params, q, r)
    if epsilon is not None:
        epsilon = require_positive("epsilon", epsilon)
    if not (q < params.q_c < r):
        raise DomainError(
            f"need 1 <= q < q_c < r, got q={q}, r={r}, q_c={params.q_c}")
    _check_window(tau0, tau1, dtau)
    rate_dtau = _check_window(0.0, 5.0, min(dtau * 2, 0.01))

    # r > q_c makes 1/(p-1) - d/(2r) positive
    sel = select_unstable_expander(params, 0.2 * params.growth_exponent(r),
                                   grid=grid)
    lam = sel.lambda_bar
    feas = check_feasibility(params, lam, q, r)

    # independent eigenvalue verification through the weighted matrix
    mat = matrix_spectrum(sel.alpha_bar, params, grid)
    eigen_gap = abs(mat[0] - lam) if mat else math.inf
    eigen_ok = eigen_gap <= max(1e-4 * abs(lam), 1e-6)

    # the static reference is carried analytically; its time-stepped drift
    # is a scheme diagnostic, reported separately
    drift_log = evolve_similarity(sel.profile.u, 0.0, 5.0, params, grid,
                                  dtau=rate_dtau, q=q, r=r)
    static_drift = float(np.max(np.abs(drift_log.final.v - sel.profile.u)))
    drift_tol = 1e-5 * (1.0 + sel.profile.max_abs_u)
    drift_ok = static_drift <= drift_tol

    potential = PotentialField.from_profile(sel.profile)
    mode = sel.eigenpair.f
    kit = _NormKit(grid, params)
    (mode_pr,) = kit.lebesgue(mode, (params.p * r,))
    lin_log = linearized_evolve(mode, potential, 0.0, 5.0,
                                dtau=rate_dtau, q=q, r=r)
    rate, _ = fit_log_slope(lin_log.taus, np.log(lin_log.norms["lr"]))
    rate_ok = abs(rate - lam) <= 1e-3

    if epsilon is None:
        # profile-relative cap: the branch endpoint stays at 5% of the
        # profile in the strong norm, taken on the grid: the tail beyond
        # rho_max would add a few parts in 1e15
        (u_bar_pr,) = kit.lebesgue(sel.profile.u, (params.p * r,))
        eps_cap = 0.05 * u_bar_pr / (math.exp(lam * tau1) * mode_pr)
        # mode-feedback cap: the quadratic self-coupling g2 distorts the
        # growth rate by g2 a / lambda, so the endpoint amplitude must
        # scale with lambda itself for a clean exponential fit
        g2 = abs(quadratic_mode_coupling(potential, mode))
        eps_feedback = (0.05 * lam / (g2 * math.exp(lam * tau1))
                        if g2 > 0 else eps_cap)
        epsilon = min(eps_cap, eps_feedback)

    branch = ancient_branch(potential, mode, lam, epsilon, tau0, tau1,
                            params, dtau=dtau, q=q, r=r)

    # physical divergence of the two solutions from the common datum: the
    # L^r norm scales with t^(-growth_exponent(r)), and log t = tau
    taus = branch.taus
    slope, r2 = fit_log_slope(
        taus, np.log(branch.norms["lr"]) - params.growth_exponent(r) * taus)
    predicted = -feas.slack
    decades = (tau1 - tau0) / math.log(10.0)
    slope_ok = abs(slope - predicted) <= 0.1 * abs(predicted)
    r2_ok = r2 >= 0.99 and decades >= 2.0

    ell, ell_unc = estimate_ell(sel.profile)

    checks = {
        "feasibility_slack_positive": bool(feas.satisfied),
        "eigenvalue_cross_method": bool(eigen_ok),
        "static_drift": bool(drift_ok),
        "eigenmode_rate": bool(rate_ok),
        "ancient_lower_bound": bool(branch.extras["lower_bound_ok"]),
        "ancient_delta": bool(branch.extras["delta_ok"]),
        "blowup_slope": bool(slope_ok),
        "blowup_fit_quality": bool(r2_ok),
    }
    return DemoReport(
        params=params, q=q, r=r,
        alpha_star_bracket=sel.alpha_star.bracket,
        alpha_bar=sel.alpha_bar, lambda_bar=lam,
        ell_bar=ell, ell_uncertainty=ell_unc, epsilon=float(epsilon),
        tau_window=(tau0, tau1), eigen_check_gap=float(eigen_gap),
        static_drift=static_drift, static_drift_tol=drift_tol,
        measured_mode_rate=float(rate), measured_slope=float(slope),
        predicted_slope=float(predicted), slope_r2=float(r2),
        decades=float(decades), feasibility=feas, checks=checks,
        branch_log=branch,
        tolerances={
            "eigen_cross_method": "max(1e-4 rel, 1e-6 abs)",
            "static_drift": drift_tol,
            "eigenmode_rate_abs": 1e-3,
            "slope_rel": 0.1,
            "r2_min": 0.99,
            "decades_min": 2.0,
        })
