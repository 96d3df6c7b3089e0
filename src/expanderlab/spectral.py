"""Spectrum of the linearization around an expander profile.

In similarity variables the linearized generator is

    L f = f'' + ((d-1)/rho + rho/2) f' + (1/(p-1) + V(rho)) f,
    V = p |U_alpha|^(p-1),

self-adjoint in the weighted space with weight w(rho) = rho^(d-1) e^(rho^2/4).
Positive eigenvalues measure linear instability of the profile.  Two
independent routes are implemented:

* a Pruefer-phase shooting method.  With the scaled angle
  theta = atan2(f, f') the phase obeys

      theta' = cos^2(theta) + Qt sin^2(theta) + W sin(theta) cos(theta),
      Qt = 1/(p-1) + V - lambda,  W = (d-1)/rho + rho/2,

  which never overflows: the two asymptotic branches of f differ by
  e^(rho^2/4), untenable in raw (f, f') form.  Zeros of f are exactly the
  upward crossings of theta through multiples of pi, so
  floor(theta(rho_max)/pi) counts the eigenvalues above the shift lambda
  (Sturm oscillation).

* a symmetric finite-difference matrix.  The substitution g = sqrt(w) f
  turns the conservative discretization of (1/w)(w f')' into a symmetric
  tridiagonal matrix on cell-centered nodes; the zero-flux condition at the
  axis is automatic because w(0) = 0.  Eigenvalues are Richardson
  extrapolated in the cell size and serve as the oracle for shooting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigvalsh_tridiagonal

from .exceptions import (
    BadBracketError,
    DomainError,
    EmptyBracketError,
    IntegrationError,
    NoUnstableExpanderError,
    ResolutionError,
)
from .exponents import ProblemParams
from .profiles import (
    RHO0_DEFAULT,
    ExpanderProfile,
    RadialGrid,
    _start_rho,
    integrate_profile,
    profile_on_nodes,
    series_coefficients,
    shoot_profile,
)

RTOL = 1e-10
ATOL = 1e-12


@dataclass
class PotentialField:
    """V_alpha = p |U_alpha|^(p-1) sampled on the profile grid."""

    profile: ExpanderProfile
    v: np.ndarray
    sup_norm: float

    @classmethod
    def from_profile(cls, profile: ExpanderProfile) -> "PotentialField":
        p = profile.params.p
        v = p * np.abs(profile.u) ** (p - 1.0)
        return cls(profile=profile, v=v, sup_norm=float(np.max(v)))


@dataclass
class EigenPair:
    """One eigenvalue with its normalized eigenfunction (f(0) = 1)."""

    lam: float
    f: np.ndarray
    zero_count: int
    method: str                   # "shooting" or "matrix"
    l2w_norm: float
    match_defect: float = 0.0     # log-derivative mismatch at the glue point

    def to_csv_rows(self, grid: RadialGrid):
        yield ("rho", "f")
        for r, v in zip(grid.nodes, self.f):
            yield (repr(float(r)), repr(float(v)))


@dataclass
class AlphaStarResult:
    """Location of the first shooting value with an interior neutral zero."""

    alpha_star: Optional[float]
    bracket: tuple
    zero_count_lo: int
    zero_count_hi: int
    tolerance: float
    evaluations: list = field(default_factory=list)
    monotone: bool = True

    @property
    def found(self) -> bool:
        return self.alpha_star is not None


class _PhaseShooter:
    """Pruefer-phase integration for one frozen alpha.

    Caches the dense profile and the phase endpoint per lambda; all public
    spectral operations funnel through here.
    """

    def __init__(self, alpha: float, params: ProblemParams, rho_max: float,
                 rho0: Optional[float] = None):
        if not (math.isfinite(alpha) and alpha >= 0):
            raise DomainError(
                f"alpha must be finite and nonnegative, got {alpha}")
        self.alpha = float(alpha)
        self.params = params
        self.rho_max = float(rho_max)
        if alpha > 0:
            self.rho0 = _start_rho(alpha, params) if rho0 is None else rho0
            # the profile energy decays along rho and is increasing in |U|,
            # so |U| <= alpha everywhere and V is capped by its axis value
            self.sup_v_bound = params.p * alpha ** (params.p - 1.0)
        else:
            self.rho0 = rho0 if rho0 is not None else RHO0_DEFAULT
            self.sup_v_bound = 0.0
        self._dense = None
        self._theta_cache = {}

    @property
    def _usol(self):
        if self.alpha == 0.0:
            return None
        if self._dense is None:
            self._dense, _ = integrate_profile(self.alpha, self.params,
                                               self.rho_max, rho0=self.rho0)
        return self._dense

    def potential(self, rho):
        if self.alpha == 0.0:
            return np.zeros_like(np.asarray(rho, dtype=float))
        u = self._usol.sol(rho)[0]
        return self.params.p * np.abs(u) ** (self.params.p - 1.0)

    def _eigen_series(self, lam: float):
        """Regular-solution Taylor start f = 1 + b2 rho^2 + b4 rho^4."""
        d, p = self.params.d, self.params.p
        alpha = self.alpha
        if alpha > 0:
            v0 = p * alpha ** (p - 1.0)
            c2, _ = series_coefficients(alpha, self.params)
            v2 = p * (p - 1.0) * alpha ** (p - 2.0) * c2
        else:
            v0 = v2 = 0.0
        kappa0 = 1.0 / (p - 1.0) + v0 - lam
        b2 = -kappa0 / (2.0 * d)
        b4 = -(b2 * (1.0 + kappa0) + v2) / (4.0 * d + 8.0)
        r0 = self.rho0
        f = 1.0 + b2 * r0 ** 2 + b4 * r0 ** 4
        df = 2.0 * b2 * r0 + 4.0 * b4 * r0 ** 3
        return f, df

    def theta_end(self, lam: float) -> float:
        """Phase at rho_max for the regular solution of (L - lam) f = 0.

        The profile rides along as an augmented state so the right-hand
        side stays pure arithmetic; interpolating a precomputed profile
        per evaluation is several times slower.
        """
        key = float(lam)
        if key in self._theta_cache:
            return self._theta_cache[key]
        d, p = self.params.d, float(self.params.p)
        c0 = 1.0 / (p - 1.0) - lam
        pm1 = 1.0 / (p - 1.0)

        if self.alpha == 0.0:
            def rhs(rho, y):
                s, c = math.sin(y[0]), math.cos(y[0])
                w = (d - 1.0) / rho + 0.5 * rho
                return (c * c + c0 * s * s + w * s * c,)

            y0 = ()
        else:
            def rhs(rho, y):
                theta, u, du = y
                w = (d - 1.0) / rho + 0.5 * rho
                au = abs(u)
                qt = c0 + p * au ** (p - 1.0)
                s, c = math.sin(theta), math.cos(theta)
                nl = math.copysign(au ** p, u)
                return (c * c + qt * s * s + w * s * c,
                        du, -w * du - u * pm1 - nl)

        f0, df0 = self._eigen_series(lam)
        theta0 = math.atan2(f0, df0)
        if self.alpha == 0.0:
            state0 = (theta0,)
        else:
            from .profiles import series_start
            u0, du0 = series_start(self.alpha, self.params, self.rho0)
            state0 = (theta0, u0, du0)
        sol = solve_ivp(rhs, (self.rho0, self.rho_max), state0,
                        method="DOP853", rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise IntegrationError(
                f"phase integration failed (alpha={self.alpha}, lam={lam}): "
                f"{sol.message}", last_rho=float(sol.t[-1]))
        theta = float(sol.y[0, -1])
        self._theta_cache[key] = theta
        return theta

    def count_above(self, lam: float) -> int:
        """Number of eigenvalues strictly above lam (zeros of the shifted
        neutral solution)."""
        return int(math.floor(self.theta_end(lam) / math.pi))

    def theta_target(self, lam: float) -> float:
        """Phase of the decaying branch at rho_max, principal value."""
        d, p = self.params.d, self.params.p
        kappa = (-0.5 * self.rho_max
                 + 2.0 * (-lam - d / 2.0 + 1.0 / (p - 1.0)) / self.rho_max)
        return math.atan2(1.0, kappa)

    def solve_f(self, lam: float, rho_span, f0, df0):
        """Raw (f, f') integration with the frozen potential."""
        d, p = self.params.d, float(self.params.p)
        c0 = 1.0 / (p - 1.0) - lam
        usol = self._usol

        def rhs(rho, y):
            f, df = y
            qt = c0 if usol is None else c0 + p * abs(usol.sol(rho)[0]) ** (p - 1.0)
            w = (d - 1.0) / rho + 0.5 * rho
            return (df, -w * df - qt * f)

        sol = solve_ivp(rhs, rho_span, (f0, df0), method="DOP853",
                        rtol=RTOL, atol=ATOL, dense_output=True)
        if not sol.success or not np.all(np.isfinite(sol.y)):
            raise IntegrationError(
                f"eigenfunction integration failed: {sol.message}",
                last_rho=float(sol.t[-1]))
        return sol


def neutral_zero_count(alpha: float, params: ProblemParams,
                       grid: Optional[RadialGrid] = None,
                       rho0: Optional[float] = None) -> int:
    """Interior zeros of the neutral solution L f = 0, f(0)=1, f'(0)=0.

    By Sturm oscillation this equals the number of positive eigenvalues.
    """
    rho_max = grid.rho_max if grid is not None else 16.0
    return _PhaseShooter(alpha, params, rho_max, rho0=rho0).count_above(0.0)


def find_alpha_star(params: ProblemParams, bracket=(0.1, 50.0),
                    tol: float = 1e-6,
                    grid: Optional[RadialGrid] = None) -> AlphaStarResult:
    """Bisect the first 0 -> >=1 transition of the neutral zero count.

    Returns an absent result (alpha_star None) when the count stays zero on
    the whole bracket, which is the expected outcome beyond the instability
    power threshold.  A nonzero count at the lower endpoint is a caller
    error.  Only a single transition is assumed; evaluations are recorded
    and an observed count decrease flips the monotone flag.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    evals = []

    def count(a):
        c = neutral_zero_count(a, params, grid)
        evals.append((a, c))
        return c

    c_lo = count(lo)
    if c_lo != 0:
        raise BadBracketError(
            f"neutral zero count at alpha={lo} is already {c_lo}")
    c_hi = count(hi)
    if c_hi == 0:
        # scan interior before declaring the bracket transition-free
        for a in np.geomspace(lo * 1.5, hi / 1.5, 8):
            if count(float(a)) > 0:
                hi, c_hi = float(a), evals[-1][1]
                break
        else:
            monotone = _counts_monotone(evals)
            return AlphaStarResult(alpha_star=None, bracket=(lo, hi),
                                   zero_count_lo=0, zero_count_hi=0,
                                   tolerance=tol, evaluations=evals,
                                   monotone=monotone)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if count(mid) == 0:
            lo = mid
        else:
            hi, c_hi = mid, evals[-1][1]
    return AlphaStarResult(alpha_star=0.5 * (lo + hi), bracket=(lo, hi),
                           zero_count_lo=0, zero_count_hi=c_hi,
                           tolerance=tol, evaluations=evals,
                           monotone=_counts_monotone(evals))


def _counts_monotone(evals) -> bool:
    pairs = sorted(evals)
    return all(c1 <= c2 for (_, c1), (_, c2) in zip(pairs, pairs[1:]))


def eigenvalue_shoot(alpha: float, params: ProblemParams,
                     lambda_bracket, grid: Optional[RadialGrid] = None,
                     lambda_tol: float = 1e-11,
                     shooter: Optional[_PhaseShooter] = None) -> EigenPair:
    """Locate the single eigenvalue inside lambda_bracket by phase matching.

    The miss function is the gap between the integrated phase at rho_max
    and the phase of the decaying asymptotic branch (log-derivative
    -rho/2 + 2(-lam - d/2 + 1/(p-1))/rho, correction O(rho^-2) dropped).
    Steps are false-position proposals inside the bracket with bisection
    fallback.  At rho_max = 16 the miss function is nearly a step in
    lambda, so the search is in effect bisection: it takes about 40 miss
    evaluations to reach lambda_tol, as many as bisection or brentq.  The
    eigenfunction is rebuilt by gluing a forward integration to a backward
    one seeded on the decaying branch; forward-only reconstruction would be
    polluted by the e^(rho^2/4) growing branch past mid-domain.
    """
    if grid is None:
        grid = RadialGrid.uniform()
    sh = shooter if shooter is not None else _PhaseShooter(
        alpha, params, grid.rho_max)

    lo, hi = float(lambda_bracket[0]), float(lambda_bracket[1])
    if not lo < hi:
        raise DomainError("lambda bracket must satisfy lo < hi")
    n_lo, n_hi = sh.count_above(lo), sh.count_above(hi)
    if n_lo == n_hi:
        raise EmptyBracketError(
            f"no eigenvalue in ({lo}, {hi}): phase count {n_lo} at both ends")
    if n_lo != n_hi + 1:
        raise BadBracketError(
            f"bracket ({lo}, {hi}) straddles {n_lo - n_hi} eigenvalues")

    k = n_hi

    def miss(lam):
        return sh.theta_end(lam) - (k * math.pi + sh.theta_target(lam))

    m_lo, m_hi = miss(lo), miss(hi)
    if not (m_lo > 0 > m_hi):
        raise EmptyBracketError(
            f"miss function does not change sign on ({lo}, {hi})")
    a, b, fa, fb = lo, hi, m_lo, m_hi
    for _ in range(200):
        if b - a <= max(lambda_tol, 8 * np.finfo(float).eps * max(abs(a), abs(b))):
            break
        x = b - fb * (b - a) / (fb - fa)      # secant proposal
        if not (a < x < b):
            x = 0.5 * (a + b)                 # bisection fallback
        fx = miss(x)
        if fx > 0:
            a, fa = x, fx
        else:
            b, fb = x, fx
    lam = 0.5 * (a + b)
    f, zero_count, l2w, defect = _reconstruct_eigenfunction(sh, lam, grid)
    return EigenPair(lam=lam, f=f, zero_count=zero_count, method="shooting",
                     l2w_norm=l2w, match_defect=defect)


def _reconstruct_eigenfunction(sh: _PhaseShooter, lam: float,
                               grid: RadialGrid):
    rho_max = grid.rho_max
    d, p = sh.params.d, sh.params.p

    f0, df0 = sh._eigen_series(lam)
    fwd = sh.solve_f(lam, (sh.rho0, rho_max), f0, df0)

    # The forward solution decays until roundoff excites the e^(rho^2/4)
    # branch, so its phase-space envelope is V-shaped.  The bottom of the V
    # is the contamination crossover; gluing where the envelope still sits
    # 1e4 above it keeps the relative contamination near 1e-4.
    probe = grid.nodes[(grid.nodes > max(2.0 * sh.rho0, 0.05))
                       & (grid.nodes <= 0.95 * rho_max)]
    pf, pdf = fwd.sol(probe)
    envelope = np.hypot(pf, pdf)
    i_min = int(np.argmin(envelope))
    clean = np.nonzero(envelope[:i_min + 1] >= 1e4 * envelope[i_min])[0]
    rho_m = float(probe[clean[-1]] if clean.size else probe[i_min])

    kappa = (-0.5 * rho_max
             + 2.0 * (-lam - d / 2.0 + 1.0 / (p - 1.0)) / rho_max)
    bwd = sh.solve_f(lam, (rho_max, rho_m), 1.0, kappa)

    fm_f, dfm_f = fwd.sol(rho_m)
    fm_b, dfm_b = bwd.sol(rho_m)
    scale = fm_f / fm_b
    defect = abs(dfm_f / fm_f - dfm_b / fm_b) / max(1.0, abs(dfm_f / fm_f))

    f = np.empty_like(grid.nodes)
    inner = grid.nodes < rho_m
    small = grid.nodes < sh.rho0
    f[small] = 1.0
    take = inner & ~small
    f[take] = fwd.sol(grid.nodes[take])[0]
    f[~inner] = scale * bwd.sol(grid.nodes[~inner])[0]

    fmax = np.max(np.abs(f))
    sig = np.where(np.abs(f) > 1e-12 * fmax, np.sign(f), 0.0)
    sig = sig[sig != 0.0]
    zero_count = int(np.sum(sig[:-1] != sig[1:]))

    logw = _log_weight(grid.nodes, d)
    integrand = f * f * np.exp(logw)
    l2w = math.sqrt(_simpson(integrand, grid))
    return f, zero_count, l2w, float(defect)


def _log_weight(nodes: np.ndarray, d: int) -> np.ndarray:
    with np.errstate(divide="ignore"):
        logw = (d - 1.0) * np.log(nodes) + nodes ** 2 / 4.0
    return logw


def _simpson(vals: np.ndarray, grid: RadialGrid) -> float:
    from scipy.integrate import simpson
    return float(simpson(vals, x=grid.nodes))


def lambda_ceiling(sh: _PhaseShooter) -> float:
    """Rigorous Rayleigh upper bound for the top eigenvalue plus margin."""
    p, d = sh.params.p, sh.params.d
    return 1.0 / (p - 1.0) - d / 2.0 + sh.sup_v_bound + 1.0


def _bracket_top(sh: _PhaseShooter):
    """Bracket the largest eigenvalue by doubling up from the floor.

    Never integrates far above the top eigenvalue: at shifts lambda much
    beyond it the phase equation turns stiff (the decaying branch attracts
    at rate |Qt|), so the Rayleigh ceiling is used only as a sanity cap,
    not as a probe point.
    """
    floor = 1.0 / (sh.params.p - 1.0) - sh.params.d / 2.0 - 0.25
    if sh.count_above(floor) < 1:
        raise EmptyBracketError("no eigenvalue above the free-operator floor")
    ceiling = lambda_ceiling(sh)
    lo, step = floor, 1.0
    hi = lo + step
    while sh.count_above(hi) > 0:
        lo = hi
        step *= 2.0
        hi = floor + step
        if hi > ceiling:
            raise BadBracketError(
                "Rayleigh ceiling violated; potential unresolved")
    return lo, hi


def top_eigenpair(alpha: float, params: ProblemParams,
                  grid: Optional[RadialGrid] = None,
                  shooter: Optional[_PhaseShooter] = None) -> EigenPair:
    """Largest eigenvalue of L_alpha, wherever it sits on the real line."""
    if grid is None:
        grid = RadialGrid.uniform()
    sh = shooter if shooter is not None else _PhaseShooter(
        alpha, params, grid.rho_max)
    lo, hi = _bracket_top(sh)
    while sh.count_above(lo) != 1:
        mid = 0.5 * (lo + hi)
        if sh.count_above(mid) >= 1:
            lo = mid
        else:
            hi = mid
    return eigenvalue_shoot(alpha, params, (lo, hi), grid, shooter=sh)


def positive_spectrum(alpha: float, params: ProblemParams,
                      grid: Optional[RadialGrid] = None) -> list:
    """All positive eigenvalues with eigenfunctions, descending.

    The list length always equals the neutral zero count; each eigenvalue
    is bracketed by bisection on the phase count, then refined by
    eigenvalue_shoot.
    """
    if alpha <= 0:
        raise DomainError("positive_spectrum needs alpha > 0")
    if grid is None:
        grid = RadialGrid.uniform()
    sh = _PhaseShooter(alpha, params, grid.rho_max)
    n = sh.count_above(0.0)
    if n == 0:
        return []
    pairs = []
    _, hi_known = _bracket_top(sh)
    for j in range(n):
        # bracket the (j+1)-th eigenvalue from the top: count j+1 -> j
        lo, hi = 0.0, hi_known
        while not (sh.count_above(lo) == j + 1 and sh.count_above(hi) == j):
            mid = 0.5 * (lo + hi)
            if sh.count_above(mid) >= j + 1:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-13:
                break
        pairs.append(eigenvalue_shoot(alpha, params, (lo, hi), grid,
                                      shooter=sh))
        hi_known = pairs[-1].lam
    return pairs


def matrix_spectrum(alpha: float, params: ProblemParams, grid: RadialGrid,
                    cutoff: float = -1.0) -> list:
    """Eigenvalues above cutoff from the weighted symmetric matrix route.

    Cell-centered conservative differences; the symmetrizing substitution
    g = sqrt(w) f gives a symmetric tridiagonal matrix, so the spectrum is
    structurally real.  Assembled at the grid spacing and at half that
    spacing, then Richardson extrapolated (the scheme error is clean h^2).
    """
    if not grid.is_uniform:
        raise DomainError("matrix route requires a uniform grid")
    h = grid.drho
    if h > 0.05:
        raise ResolutionError(
            f"grid spacing {h} too coarse for the matrix route (max 0.05)")
    rho_max = grid.rho_max

    dense = None
    if alpha > 0:
        dense, _ = integrate_profile(alpha, params, rho_max)

    def eigs(step):
        m = int(round(rho_max / step))
        centers = (np.arange(m) + 0.5) * step
        faces = np.arange(m + 1) * step
        logw_c = _log_weight(centers, params.d)
        logw_f = _log_weight(faces, params.d)
        if alpha > 0:
            u = dense.sol(centers)[0]
            v = params.p * np.abs(u) ** (params.p - 1.0)
        else:
            v = np.zeros(m)
        off = np.exp(logw_f[1:-1] - 0.5 * (logw_c[:-1] + logw_c[1:])) / step ** 2
        flux_r = np.exp(logw_f[1:] - logw_c) / step ** 2
        flux_l = np.empty(m)
        flux_l[0] = 0.0                      # w(0) = 0: zero-flux axis
        flux_l[1:] = np.exp(logw_f[1:-1] - logw_c[1:]) / step ** 2
        diag = -(flux_r + flux_l) + 1.0 / (params.p - 1.0) + v
        top = float(np.max(diag) + 2.0 * np.max(off)) + 1.0
        vals = eigvalsh_tridiagonal(diag, off, select="v",
                                    select_range=(cutoff, top))
        return np.sort(vals)[::-1]

    coarse = eigs(h)
    fine = eigs(h / 2.0)
    n = min(coarse.size, fine.size)
    if n == 0:
        return []
    extrap = (4.0 * fine[:n] - coarse[:n]) / 3.0
    return [float(x) for x in extrap if x > cutoff]


@dataclass
class SelectedExpander:
    """Unstable profile with an arbitrarily small positive top eigenvalue."""

    alpha_star: AlphaStarResult
    alpha_bar: float
    lambda_bar: float
    profile: ExpanderProfile
    eigenpair: EigenPair
    potential_gap_sup: float      # sup |V_alpha_bar - V_alpha_star|
    second_lambda: Optional[float] = None


def select_unstable_expander(params: ProblemParams, eps_target: float,
                             grid: Optional[RadialGrid] = None,
                             bracket=(0.1, 50.0),
                             tol: float = 1e-6) -> SelectedExpander:
    """Find alpha_bar just past alpha_star with top eigenvalue in
    (0, eps_target).

    Searches (alpha_star, alpha_star + 0.1 alpha_star], taking the largest
    sampled alpha whose top eigenvalue stays below the target and bisecting
    toward 0.9 eps_target when the window overshoots.  Each step is decided
    by Sturm counts alone: lambda_top > x exactly when count_above(x) >= 1,
    so a step costs at most three phase integrations (at 0, eps_target and
    0.9 eps_target) and the eigenpair is solved once, at the accepted alpha.
    Rejects powers at or beyond the instability threshold, where no radial
    profile is unstable.
    """
    if not (math.isfinite(eps_target) and eps_target > 0):
        raise DomainError(
            f"eps_target must be finite and positive, got {eps_target}")
    if params.jl_finite and params.p >= params.p_jl:
        raise NoUnstableExpanderError(
            f"p={params.p} is at or beyond the threshold "
            f"p_jl={params.p_jl}: no unstable radial expander exists")
    if params.p <= params.p_fujita:
        raise NoUnstableExpanderError(
            f"p={params.p} is at or below the Fujita power "
            f"{params.p_fujita}; the instability mechanism needs p above it")
    if grid is None:
        grid = RadialGrid.uniform()

    star = find_alpha_star(params, bracket=bracket, tol=tol, grid=grid)
    if not star.found:
        raise NoUnstableExpanderError(
            f"no neutral-zero transition found on alpha in {bracket}")
    a_star = star.alpha_star
    delta = 0.1 * a_star

    def top_above(sh, lam):
        return sh.count_above(lam) >= 1

    a_hi = a_star + delta
    sh_hi = _PhaseShooter(a_hi, params, grid.rho_max)
    if not top_above(sh_hi, eps_target) and top_above(sh_hi, 0.0):
        a_bar, sh_bar = a_hi, sh_hi
    else:
        # overshoot: bisect lambda_top toward 0.9 eps_target
        lo, hi = a_star, a_hi
        a_bar, sh_bar = None, None
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            sh = _PhaseShooter(mid, params, grid.rho_max)
            if top_above(sh, eps_target):
                hi = mid
            elif not top_above(sh, 0.0):
                lo = mid
            else:
                a_bar, sh_bar = mid, sh
                if top_above(sh, 0.9 * eps_target) or hi - lo < tol:
                    break
                lo = mid
        if a_bar is None:
            raise NoUnstableExpanderError(
                f"could not isolate lambda_top in (0, {eps_target}) above "
                f"alpha_star={a_star}")
    pair = top_eigenpair(a_bar, params, grid, shooter=sh_bar)

    profile = shoot_profile(a_bar, params, grid)
    v_bar = PotentialField.from_profile(profile).v
    v_star = params.p * np.abs(
        profile_on_nodes(a_star, params, grid.nodes)) ** (params.p - 1.0)
    gap = float(np.max(np.abs(v_bar - v_star)))

    second = None
    if sh_bar.count_above(0.0) > 1:
        second = positive_spectrum(a_bar, params, grid)[1].lam

    return SelectedExpander(alpha_star=star, alpha_bar=a_bar,
                            lambda_bar=pair.lam, profile=profile,
                            eigenpair=pair, potential_gap_sup=gap,
                            second_lambda=second)
