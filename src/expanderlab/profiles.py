"""Radial profile solver for expanding self-similar solutions.

The profile U(rho) of an expander u(t,x) = t^(-1/(p-1)) U(|x|/sqrt(t))
solves

    U'' + ((d-1)/rho + rho/2) U' + U/(p-1) + |U|^(p-1) U = 0,
    U(0) = alpha > 0,  U'(0) = 0.

Every alpha > 0 gives a bounded profile with a finite tail limit
ell(alpha) = lim rho^(2/(p-1)) U(rho).  Shooting starts from a fourth-order
Taylor expansion at a small rho_0 (the (d-1)/rho coefficient is singular at
the origin) and integrates with an adaptive embedded Runge-Kutta method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .exceptions import DomainError, IntegrationError, TailNotResolvedError
from .exponents import ProblemParams, odd_power

RHO0_DEFAULT = 1e-4
RTOL = 1e-10
ATOL = 1e-12
MAX_NODES = 10 ** 8     # 0.8 GB per node array; a larger grid is refused


def require_positive(name: str, value: float) -> float:
    """value as a float; DomainError unless it is finite and positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {value}")
    return float(value)


def require_alpha(alpha: float) -> float:
    """alpha as a float; DomainError unless it is finite and nonnegative."""
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise DomainError(
            f"shooting value alpha must be finite and nonnegative, got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class RadialGrid:
    """n equal cells on [0, rho_max], nodes ending at rho_max exactly;
    uniform(rho_max, drho) takes n = round(rho_max / drho)."""

    n: int
    rho_max: float

    def __post_init__(self):
        if self.n + 1 > MAX_NODES:
            raise DomainError(f"grid exceeds {MAX_NODES} nodes (rho_max / drho "
                              "too large)")
        require_positive("rho_max", self.rho_max)
        if self.rho_max < 10.0:
            raise DomainError("rho_max must be at least 10")
        if self.n + 1 < 100:
            raise DomainError("grid needs at least 100 nodes")

    @classmethod
    def uniform(cls, rho_max: float = 16.0, drho: float = 0.01) -> "RadialGrid":
        ratio = (require_positive("rho_max", rho_max)
                 / require_positive("drho", drho))
        if not math.isfinite(ratio):
            raise DomainError(f"rho_max / drho overflows ({rho_max}/{drho})")
        return cls(n=int(round(ratio)), rho_max=float(rho_max))

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.rho_max, self.n + 1)

    @property
    def drho(self) -> float:
        return self.rho_max / self.n

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite-Simpson weights, the rule of scipy.integrate.simpson (an
        odd interval count ends on the parabola through the last three
        nodes); every radial norm in the package integrates against them."""
        n = self.nodes.size
        m = n if n % 2 == 1 else n - 1      # nodes under plain Simpson
        w = np.zeros(n)
        w[:m] = 1.0
        w[1:m - 1:2] = 4.0
        w[2:m - 1:2] = 2.0
        w *= self.drho / 3.0
        if m < n:
            w[-3:] += np.array([-1.0, 8.0, 5.0]) * (self.drho / 12.0)
        return w

    def measure_weights(self, d: int) -> np.ndarray:
        """Simpson weights times rho^(d-1), the radial measure of R^d up to
        the sphere area; built once per dimension."""
        cache = self.__dict__.setdefault("_measure_weights", {})
        if d not in cache:
            cache[d] = self.weights * self.nodes ** (d - 1.0)
        return cache[d]

    def l2w_weights(self, d: int) -> np.ndarray:
        """Simpson weights times rho^(d-1) e^(rho^2/4), the measure of the
        weighted L2 space of the linearization; built once per dimension."""
        cache = self.__dict__.setdefault("_l2w_weights", {})
        if d not in cache:
            cache[d] = self.weights * np.exp(log_weight(self.nodes, d))
        return cache[d]


DEFAULT_GRID = RadialGrid.uniform()


def log_weight(rho: np.ndarray, d: int) -> np.ndarray:
    """log of the weight rho^(d-1) e^(rho^2/4) of the similarity space."""
    with np.errstate(divide="ignore"):
        return (d - 1.0) * np.log(rho) + rho ** 2 / 4.0


@dataclass
class ExpanderProfile:
    """A shot profile sampled on a grid, with its ODE defect."""

    alpha: float
    params: ProblemParams
    grid: RadialGrid
    u: np.ndarray
    du: np.ndarray
    residual_max: float
    zero_crossings: int

    @property
    def max_abs_u(self) -> float:
        return float(np.max(np.abs(self.u)))

    def to_csv_rows(self):
        yield ("rho", "u", "du")
        for r, a, b in zip(self.grid.nodes, self.u, self.du):
            yield (repr(float(r)), repr(float(a)), repr(float(b)))


def series_coefficients(alpha: float, params: ProblemParams):
    """Taylor coefficients c2, c4 of U = alpha + c2 rho^2 + c4 rho^4 + ...

    c2 balances the regular part of the ODE at the origin:
        2 d c2 + alpha/(p-1) + |alpha|^(p-1) alpha = 0
    and c4 comes from the next order, including the linearized nonlinearity.
    """
    d, p = params.d, params.p
    with np.errstate(over="ignore"):
        n_alpha = float(odd_power(alpha, p))
        np_prime = p * float(np.abs(alpha) ** (p - 1.0))
    c2 = -(alpha / (p - 1.0) + n_alpha) / (2.0 * d)
    c4 = -c2 * (1.0 + 1.0 / (p - 1.0) + np_prime) / (4.0 * d + 8.0)
    if not math.isfinite(c4):     # c4 ~ alpha^(2p-1) overflows first
        raise DomainError(f"shooting value alpha={alpha} overflows the "
                          "Taylor start")
    return c2, c4


def series_start(alpha: float, params: ProblemParams,
                 rho0: float = RHO0_DEFAULT):
    """Evaluate the fourth-order Taylor start (U, U') at rho0."""
    require_alpha(alpha)
    if not 0.0 < rho0 < 1.0:
        raise DomainError("rho0 must lie in (0, 1)")
    c2, c4 = series_coefficients(alpha, params)
    u = alpha + c2 * rho0 ** 2 + c4 * rho0 ** 4
    du = 2.0 * c2 * rho0 + 4.0 * c4 * rho0 ** 3
    return u, du


def _start_rho(alpha: float, params: ProblemParams) -> float:
    """Shrink rho0 when the curvature scale is below the default start.

    The quadratic term must stay a tiny correction: |c2| rho0^2 <= 1e-9 alpha.
    """
    c2, _ = series_coefficients(alpha, params)
    if c2 == 0.0:
        return RHO0_DEFAULT
    safe = math.sqrt(1e-9 * max(abs(alpha), 1.0) / abs(c2))
    return min(RHO0_DEFAULT, safe)


def _rhs(params: ProblemParams):
    d, p = params.d, float(params.p)

    def f(rho, y):
        u, du = y
        nl = math.copysign(abs(u) ** p, u)
        return (du, -((d - 1.0) / rho + 0.5 * rho) * du - u / (p - 1.0) - nl)

    return f


def integrate_profile(alpha: float, params: ProblemParams, rho_end: float,
                      rho0: Optional[float] = None):
    """Integrate the profile ODE once; returns the dense solution object."""
    require_alpha(alpha)
    require_positive("rho_end", rho_end)
    r0 = _start_rho(alpha, params) if rho0 is None else rho0
    y0 = series_start(alpha, params, r0)
    sol = solve_ivp(_rhs(params), (r0, rho_end), y0, method="DOP853",
                    rtol=RTOL, atol=ATOL, dense_output=True)
    if not sol.success or not np.all(np.isfinite(sol.y)):
        raise IntegrationError(
            f"profile integration failed at alpha={alpha}: {sol.message}",
            last_rho=float(sol.t[-1]) if sol.t.size else r0)
    return sol, r0


def profile_on_nodes(alpha: float, params: ProblemParams,
                     nodes: np.ndarray) -> np.ndarray:
    """Profile values U_alpha at arbitrary nodes in (0, rho_max]."""
    sol, _ = integrate_profile(alpha, params, float(np.max(nodes)))
    return sol.sol(nodes)[0]


def _residual_max(grid: RadialGrid, u: np.ndarray, du: np.ndarray,
                  params: ProblemParams) -> float:
    """Max ODE defect on the interior grid.

    U'' is recovered from du by a sixth-order central stencil, so the
    check is independent of the integrator's own right-hand side.
    """
    h = grid.drho
    rho = grid.nodes[3:-3]
    d2u = (-du[:-6] + 9 * du[1:-5] - 45 * du[2:-4]
           + 45 * du[4:-2] - 9 * du[5:-1] + du[6:]) / (60.0 * h)
    d, p = params.d, params.p
    nl = odd_power(u[3:-3], p)
    defect = (d2u + ((d - 1.0) / rho + 0.5 * rho) * du[3:-3]
              + u[3:-3] / (p - 1.0) + nl)
    return float(np.max(np.abs(defect)))


def shoot_profile(alpha: float, params: ProblemParams,
                  grid: RadialGrid = DEFAULT_GRID) -> ExpanderProfile:
    """Shoot the profile for one alpha and sample it on the grid."""
    sol, _ = integrate_profile(alpha, params, grid.rho_max)
    return sample_profile(sol, alpha, params, grid)


def sample_profile(sol, alpha: float, params: ProblemParams,
                   grid: RadialGrid) -> ExpanderProfile:
    """Sample integrate_profile's dense solution sol, run to grid.rho_max,
    on the grid."""
    r0 = sol.t[0]
    u = np.empty_like(grid.nodes)
    du = np.empty_like(grid.nodes)
    u[0], du[0] = alpha, 0.0
    inner = grid.nodes[1:] < r0
    if np.any(inner):
        # nodes below the series start (only for extreme alpha)
        c2, c4 = series_coefficients(alpha, params)
        rr = grid.nodes[1:][inner]
        u[1:][inner] = alpha + c2 * rr ** 2 + c4 * rr ** 4
        du[1:][inner] = 2.0 * c2 * rr + 4.0 * c4 * rr ** 3
    vals = sol.sol(grid.nodes[1:][~inner])
    u[1:][~inner] = vals[0]
    du[1:][~inner] = vals[1]

    res = _residual_max(grid, u, du, params)
    crossings = int(np.sum(u[:-1] * u[1:] < 0.0))
    return ExpanderProfile(alpha=alpha, params=params, grid=grid, u=u, du=du,
                           residual_max=res, zero_crossings=crossings)


def estimate_ell(profile: ExpanderProfile):
    """Tail constant ell(alpha) and its uncertainty.

    rho^(2/(p-1)) U(rho) approaches ell with an O(rho^-2) correction; the
    estimate is the mean over [0.85 rho_max, rho_max] and the uncertainty is
    the drift from the previous window scaled by the correction-law factor,
    which makes it an upper bound on the remaining bias.  Raises
    TailNotResolvedError when the drift exceeds 10% of the value itself.
    """
    grid = profile.grid
    rho_max = grid.rho_max
    w = grid.nodes ** (2.0 / (profile.params.p - 1.0)) * profile.u
    win_a = (grid.nodes >= 0.70 * rho_max) & (grid.nodes < 0.85 * rho_max)
    win_b = grid.nodes >= 0.85 * rho_max
    ma = float(np.mean(w[win_a]))
    ell = float(np.mean(w[win_b]))
    # Under the rho^-2 correction law the residual bias of the last-window
    # mean is kappa times the inter-window drift; report that as the bar.
    inv2_a = float(np.mean(grid.nodes[win_a] ** -2.0))
    inv2_b = float(np.mean(grid.nodes[win_b] ** -2.0))
    kappa = inv2_b / max(inv2_a - inv2_b, 1e-300)
    # 1.2 guards against higher-order corrections the rho^-2 model misses
    unc = 1.2 * abs(ell - ma) * kappa
    if unc > 0.1 * max(abs(ell), 1e-12):
        raise TailNotResolvedError(
            f"tail windows disagree ({unc:.3e} vs ell={ell:.3e}); "
            f"increase rho_max beyond {rho_max}")
    return ell, unc


def fit_tail_exponent(profile: ExpanderProfile) -> float:
    """Log-log slope of |U| over the last decade of rho."""
    nodes = profile.grid.nodes
    mask = nodes >= profile.grid.rho_max / 10.0
    x = np.log(nodes[mask])
    y = np.log(np.abs(profile.u[mask]))
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


@dataclass
class SweepRow:
    alpha: float
    ell: Optional[float]
    uncertainty: Optional[float]
    residual: Optional[float]
    error: Optional[str] = None


@dataclass
class EllSweep:
    rows: list
    continuity_jump: float

    def to_csv_rows(self):
        yield ("alpha", "ell", "uncertainty", "residual", "error")
        for r in self.rows:
            yield (repr(float(r.alpha)),
                   "" if r.ell is None else repr(float(r.ell)),
                   "" if r.uncertainty is None else repr(float(r.uncertainty)),
                   "" if r.residual is None else repr(float(r.residual)),
                   r.error or "")


def sweep_ell(alpha_list: Sequence[float], params: ProblemParams,
              grid: RadialGrid = DEFAULT_GRID) -> EllSweep:
    """Tabulate ell(alpha) over a list of shooting values.

    Rows are independent; per-alpha failures become row-level markers.  The
    continuity diagnostic is the largest jump of ell between adjacent
    alpha samples (sorted).
    """
    rows = []
    for a in alpha_list:
        try:
            prof = shoot_profile(float(a), params, grid)
            ell, unc = estimate_ell(prof)
            rows.append(SweepRow(alpha=float(a), ell=ell, uncertainty=unc,
                                 residual=prof.residual_max))
        except Exception as exc:  # row-level isolation by design
            rows.append(SweepRow(alpha=float(a), ell=None, uncertainty=None,
                                 residual=None, error=str(exc)))
    good = sorted((r.alpha, r.ell) for r in rows if r.ell is not None)
    jump = 0.0
    for (_, e1), (_, e2) in zip(good, good[1:]):
        jump = max(jump, abs(e2 - e1))
    return EllSweep(rows=rows, continuity_jump=jump)
