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
  upward crossings of theta through multiples of pi, so floor(theta/pi)
  counts the eigenvalues above the shift lambda (Sturm oscillation), read
  at rho_max or at the first step past which a certificate rules out any
  further zero (_PhaseShooter.theta_end).  The counts isolate each
  eigenvalue in a bracket; inside it the eigenvalue is the root of an
  interior matching miss, the forward phase from the axis against the
  backward phase of the decaying branch, both taken at the last turning
  point rho_m, where the miss is smooth in lambda.  Safeguarded Newton
  steps on it, with the lambda-derivatives carried along both
  integrations, converge in a few evaluations (the matching-point method,
  Pryce, Numerical Solution of Sturm-Liouville Problems, 1993).  Counts
  and matching run on the profile's integrator, profiles._integrate_to_end,
  a DOP853 written out on Python floats, the matching legs with their
  right-hand sides written out at every stage.  The forward legs carry the
  profile along; the backward leg reads V off the profile's own dense
  output, the U of every other call bit for bit.  zero_count is the Sturm
  index; f, glued on first read off the matching legs as r sin theta, is
  never raw.

* a symmetric finite-difference matrix.  The substitution g = sqrt(w) f
  turns the conservative discretization of (1/w)(w f')' into a symmetric
  tridiagonal matrix on cell-centered nodes; the zero-flux condition at the
  axis is automatic because w(0) = 0.  Eigenvalues are Richardson
  extrapolated in the cell size and serve as the oracle for shooting.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .exceptions import (
    BadBracketError,
    DomainError,
    EmptyBracketError,
    NoUnstableExpanderError,
    ResolutionError,
)
from .exponents import ProblemParams
from .profiles import (
    DEFAULT_GRID,
    ExpanderProfile,
    RadialGrid,
    _fused_rhs,
    _integrate_to_end,
    integrate_profile,
    log_weight,
    require_alpha,
    require_positive,
    sample_profile,
    series_coefficients,
    series_start,
)
from .semigroup import _NormKit, _clenshaw_curtis

# the matching legs' right-hand sides as source (profiles._fused_rhs): the
# names each closes over, its state, body and rates (see match_phases)
_PHASE = ("s = math.sin(theta)", "c = math.cos(theta)",
          "w = (d - 1.0) / rho + 0.5 * rho")
_PHASE_RATES = (
    "c * c + qt * s * s + w * s * c",
    "((qt - 1.0) * 2.0 * s * c + w * (c * c - s * s)) * eta - s * s")
_FORWARD_LEG = (
    "d, p, c0, pm1", ("theta", "eta", "u", "du"),
    ("au = abs(u)", "qt = c0 + p * au ** (p - 1.0)", *_PHASE),
    (*_PHASE_RATES, "du", "-w * du - u * pm1 - math.copysign(au ** p, u)"))
_BACKWARD_LEG = ("d, p, c0, u", ("theta", "eta"),
                 ("qt = c0 + p * abs(u(rho)) ** (p - 1.0)", *_PHASE),
                 _PHASE_RATES)
LAMBDA_TOL = 1e-11      # eigenvalue_shoot's final bracket width
ALPHA_STAR_BRACKET = (0.1, 50.0)     # find_alpha_star's default
# slack of each inequality of theta_end's early-stop certificate, far above
# the phase error left at the stop once MAX_PHASE_GROWTH holds (under 3e-8
# against an rtol 1e-13 run in 120 random counts), so it cannot flip a sign
STOP_MARGIN = 1e-6
# log of the most an earlier phase error may have grown by when a count
# stops: past an ill-conditioned zero (lam next to an eigenvalue) the phase
# is as accurate as at rho_max again once the errors made there have decayed
MAX_PHASE_GROWTH = math.log(1e4)


def __getattr__(name):
    # bench/instrument.py wraps spectral.solve_ivp, which no code here calls;
    # held, imported only when asked for, until that seam is dropped
    # (ROADMAP item 4)
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class PotentialField:
    """V_alpha = p |U_alpha|^(p-1) sampled on the profile grid."""

    profile: ExpanderProfile
    v: np.ndarray

    @classmethod
    def from_profile(cls, profile: ExpanderProfile) -> "PotentialField":
        p = profile.params.p
        return cls(profile=profile, v=p * np.abs(profile.u) ** (p - 1.0))


@dataclass
class EigenPair:
    """One eigenvalue, its Sturm index (its eigenfunction's zeros) and its
    phase miss; f (f(0) = 1) is glued on first read, where lam was matched,
    on the grid in glue, which its CSV rows take."""

    lam: float
    zero_count: int
    match_defect: float           # larger phase miss at the bracket's ends
    glue: tuple = field(repr=False, compare=False)  # shooter, grid, rho_m

    @functools.cached_property
    def f(self) -> np.ndarray:
        sh, grid, rho_m = self.glue
        return _reconstruct_eigenfunction(sh, self.lam, grid, rho_m)

    @property
    def l2w_norm(self) -> float:
        sh, grid, _ = self.glue
        return _NormKit(grid, sh.params).weighted_l2(self.f)

    def to_csv_rows(self):
        yield ("rho", "f")
        for r, v in zip(self.glue[1].nodes, self.f):
            yield (repr(float(r)), repr(float(v)))


@dataclass
class AlphaStarResult:
    """Location of the first shooting value with an interior neutral zero."""

    alpha_star: Optional[float]
    bracket: tuple
    zero_count_hi: int
    tolerance: float
    evaluations: list = field(default_factory=list)
    monotone: bool = True

    @property
    def found(self) -> bool:
        return self.alpha_star is not None


class _PhaseShooter:
    """Pruefer-phase integration for one frozen alpha >= 0.

    Caches the dense profile (at alpha = 0 the zero solution), the phase
    endpoint per lambda and the eigenpairs solved so far, from the top
    down (_descend); all public spectral operations funnel through here.
    Every public call takes the one _shooter holds for its (alpha, params,
    rho_max), so separate calls at one alpha, and matrix_spectrum's
    profile, share one integration and one set of pairs.  Phase and
    profile (integrate_profile) both start from series_start's (rho0, U,
    U'), taken here once with _eigen_series' terms V(0), V2 of V on the axis.
    """

    def __init__(self, alpha: float, params: ProblemParams, rho_max: float):
        self.alpha = require_alpha(alpha)
        if 0.0 < self.alpha < sys.float_info.min:
            # alpha^(p-2) of the axis potential overflows for p < 2
            raise DomainError(f"shooting value alpha must be 0 or at least "
                              f"{sys.float_info.min} for the spectrum, got "
                              f"{alpha}")
        self.params = params
        self.rho_max = require_positive("rho_max", rho_max)
        self.rho0, self.u0, self.du0 = series_start(self.alpha, params)
        p = params.p
        if self.alpha > 0:
            c2, _ = series_coefficients(self.alpha, params)
            self._v0 = p * self.alpha ** (p - 1.0)
            self._v2 = p * (p - 1.0) * self.alpha ** (p - 2.0) * c2
        else:
            self._v0 = self._v2 = 0.0
        self._dense = None
        self._theta_cache = {}
        self._grid, self._pairs = None, []

    @property
    def _usol(self):
        if self._dense is None:
            self._dense = integrate_profile(self.alpha, self.params,
                                            self.rho_max)
        return self._dense

    def _eigen_series(self, lam: float):
        """Regular-solution Taylor start f = 1 + b2 rho^2 + b4 rho^4 at rho0:
        (f, f') and their lambda-derivatives."""
        d, p = self.params.d, self.params.p
        kappa0 = 1.0 / (p - 1.0) + self._v0 - lam
        b2 = -kappa0 / (2.0 * d)
        b4 = -(b2 * (1.0 + kappa0) + self._v2) / (4.0 * d + 8.0)
        b2_lam = 1.0 / (2.0 * d)
        b4_lam = -(b2_lam * (1.0 + kappa0) - b2) / (4.0 * d + 8.0)
        r0 = self.rho0
        f = 1.0 + b2 * r0 ** 2 + b4 * r0 ** 4
        df = 2.0 * b2 * r0 + 4.0 * b4 * r0 ** 3
        f_lam = b2_lam * r0 ** 2 + b4_lam * r0 ** 4
        df_lam = 2.0 * b2_lam * r0 + 4.0 * b4_lam * r0 ** 3
        return f, df, f_lam, df_lam

    def theta_end(self, lam: float) -> float:
        """Phase of the regular solution of (L - lam) f = 0 at the end of its
        count: at rho_max, or at the first accepted step rho where a
        certificate rules out any zero of f on [rho, inf), so floor(theta /
        pi) is the same count either way.  The certificate:

        * the profile energy E = U'^2/2 + U^2/(2(p-1)) + |U|^(p+1)/(p+1)
          does not increase (E' = -W U'^2), so V <= p U_b^(p-1) on [rho,
          inf) with U_b = min(sqrt(2(p-1)E), ((p+1)E)^(1/(p+1)));
        * g = sqrt(w) f obeys g'' + Q_eff g = 0, and W^2/4 + W'/2 >= s^2/16
          + d/4 for d >= 3, so 1/(p-1) + p U_b^(p-1) - lam < rho^2/16 + d/4
          makes Q_eff < 0 on [rho, inf); then g g' > 0 at rho, that is
          sin(theta) (cos(theta) + (W/2) sin(theta)) > 0, makes (g g')' =
          g'^2 - Q_eff g^2 > 0, and g never returns to zero.

        Both inequalities hold with STOP_MARGIN to spare, and the stop also
        waits until no earlier phase error has grown by more than
        exp(MAX_PHASE_GROWTH): errors grow at rate d(theta')/d(theta) =
        (Qt - 1) sin(2 theta) + W cos(2 theta), which is positive next to a
        zero of f.  For lam just below an eigenvalue f follows the decaying
        eigenfunction to a last zero whose phase is ill-conditioned (1e-6
        off at alpha*, lam = 0); the wait moves that stop from rho = 7.3 to
        9.3, where the phase is accurate to 1e-8 again.  At an eigenvalue g
        decays and the certificate fails until rounding has grown the other
        branch back in (near rho = 11 in double precision).  The profile
        rides along as an augmented state so the right-hand side stays pure
        arithmetic on Python floats; interpolating a precomputed profile per
        evaluation is several times slower.  This runs on
        _integrate_to_end, as match_phases and its dense legs do: scipy's
        DOP853 steps and step control at the same tolerances, every stage
        sum written out on Python floats, about three times as cheap as
        numpy stage sums (4.6 against 13.6 ms for a full-domain (5,3) count).
        Its phase and scipy's differ by rounding only (2e-15 on that
        count), and a count only reads floor(theta / pi).
        """
        key = float(lam)
        if key in self._theta_cache:
            return self._theta_cache[key]
        d, p = self.params.d, float(self.params.p)
        c0 = 1.0 / (p - 1.0) - lam
        pm1 = 1.0 / (p - 1.0)
        q_floor = d / 4.0 - STOP_MARGIN * (1.0 + abs(c0))

        def rhs(rho, y):
            theta, u, du = y
            w = (d - 1.0) / rho + 0.5 * rho
            au = abs(u)
            qt = c0 + p * au ** (p - 1.0)
            s, c = math.sin(theta), math.cos(theta)
            nl = math.copysign(au ** p, u)
            return (c * c + qt * s * s + w * s * c,
                    du, -w * du - u * pm1 - nl)

        growth, last = 0.0, None

        def settled(rho, y):
            nonlocal growth, last
            theta, u, du = y
            s, c = math.sin(theta), math.cos(theta)
            w = (d - 1.0) / rho + 0.5 * rho
            # d(theta')/d(theta), trapezoid-summed over the accepted steps
            jac = ((c0 + p * abs(u) ** (p - 1.0) - 1.0) * 2.0 * s * c
                   + w * (c * c - s * s))
            if last is not None:
                growth = max(0.0, growth
                             + 0.5 * (jac + last[1]) * (rho - last[0]))
            last = (rho, jac)
            if growth > MAX_PHASE_GROWTH:
                return False
            e = (0.5 * du * du + 0.5 * pm1 * u * u
                 + abs(u) ** (p + 1.0) / (p + 1.0))
            u_b = min(math.sqrt(2.0 * (p - 1.0) * e),
                      ((p + 1.0) * e) ** (1.0 / (p + 1.0)))
            u_b = (1.0 + STOP_MARGIN) * u_b + STOP_MARGIN
            if c0 + p * u_b ** (p - 1.0) >= rho * rho / 16.0 + q_floor:
                return False
            return s * (c + 0.5 * w * s) > STOP_MARGIN

        f0, df0, _, _ = self._eigen_series(lam)
        state0 = (math.atan2(f0, df0), self.u0, self.du0)
        _, end = _integrate_to_end(
            rhs, (self.rho0, self.rho_max), state0, settled,
            f"phase integration failed (alpha={self.alpha}, lam={lam})")
        theta = end[0]
        self._theta_cache[key] = theta
        return theta

    def _descend(self, n: int, grid: RadialGrid) -> list:
        """The n largest eigenpairs on grid, descending.

        The top eigenvalue is isolated inside _bracket_top's bracket, the
        j-th (j >= 2) between 0 and the (j-1)-th, so j >= 2 needs j positive
        eigenvalues.  Each is shot once and kept, as theta_end keeps its
        phases; pairs solved on another grid are dropped.  Grids compare by
        value: equal grids have the same nodes.  Only shooters held by
        _shooter descend, so the module-level eigenvalue_shoot, called
        without this shooter, finds it in the slot.
        """
        if grid != self._grid:
            self._grid, self._pairs = grid, []
        while len(self._pairs) < n:
            j = len(self._pairs) + 1
            lo, hi = (_bracket_top(self) if j == 1
                      else (0.0, self._pairs[-1].lam))
            self._pairs.append(eigenvalue_shoot(
                self.alpha, self.params, _isolate(self, lo, hi, j), grid))
        return self._pairs[:n]

    def count_above(self, lam: float) -> int:
        """Number of eigenvalues strictly above lam (zeros of the shifted
        neutral solution)."""
        return int(math.floor(self.theta_end(lam) / math.pi))

    @functools.cached_property
    def _u(self):
        """U(rho) for the backward phase leg, which cannot carry the profile
        along: the dense profile's walker, bit for bit _usol.sol's U."""
        return self._usol.sol.walker(0)

    def match_phases(self, lam: float, rho_m: float):
        """theta_fwd(rho_m) - theta_bwd(rho_m) and its lambda-derivative.

        theta_fwd is the phase of the regular solution, integrated from rho0
        with the profile riding along as in theta_end; theta_bwd is the
        phase of the decaying branch, integrated back from its principal
        value atan2(1, f'/f) at rho_max, where going backward is the
        stable direction.  Both carry eta = dtheta/dlambda, which obeys

            eta' = ((Qt - 1) sin 2 theta + W cos 2 theta) eta - sin^2 theta.

        Both legs run on _integrate_to_end, the forward one on 4 floats and
        the backward one on 2, each on its fused step (_legs).  Its error
        estimates, small differences of large stage terms, round otherwise
        than scipy's numpy sums, so its step widths differ; the phases agree
        with scipy's DOP853 to about 1e-14 (profiles tests), but see
        eigenvalue_shoot where steps are bound by stability.
        """
        (_, (theta_f, eta_f, _, _)), (_, (theta_b, eta_b)) = self._legs(
            lam, rho_m, False)
        return theta_f - theta_b, eta_f - eta_b

    def solve_f(self, lam: float, rho_m: float):
        """match_phases' two legs at lam as dense runs (_Dop853Result), which
        take a plain run's steps, so their end phases are the matched ones."""
        return self._legs(lam, rho_m, True)

    def _legs(self, lam: float, rho_m: float, dense: bool):
        """match_phases' legs on _FORWARD_LEG and _BACKWARD_LEG, written out
        at every stage of their trial steps: bit for bit, 20% faster."""
        d, p = self.params.d, float(self.params.p)
        c0 = 1.0 / (p - 1.0) - lam
        fwd = _fused_rhs(*_FORWARD_LEG)(d, p, c0, 1.0 / (p - 1.0))
        bwd = _fused_rhs(*_BACKWARD_LEG)(d, p, c0, self._u)
        f0, df0, f_lam, df_lam = self._eigen_series(lam)
        eta0 = (df0 * f_lam - f0 * df_lam) / (f0 * f0 + df0 * df0)
        # log-derivative f'/f of the decaying branch at rho_max, -rho/2 +
        # 2(-lam - d/2 + 1/(p-1))/rho, correction O(rho^-3) dropped
        slope = (-0.5 * self.rho_max
                 + 2.0 * (-lam - d / 2.0 + 1.0 / (p - 1.0)) / self.rho_max)
        eta_max = (2.0 / self.rho_max) / (1.0 + slope * slope)
        what = f"phase matching failed (alpha={self.alpha}, lam={lam})"
        return (_integrate_to_end(fwd, (self.rho0, rho_m),
                                  (math.atan2(f0, df0), eta0, self.u0,
                                   self.du0), None, what, dense),
                _integrate_to_end(bwd, (self.rho_max, rho_m),
                                  (math.atan2(1.0, slope), eta_max), None,
                                  what, dense))


@functools.lru_cache(maxsize=1)
def _shooter(alpha: float, params: ProblemParams,
             rho_max: float) -> _PhaseShooter:
    """The shooter of the last (alpha, params, rho_max) asked for.

    One slot: calls at one alpha in a row (a Sturm count, the top pair, the
    positive spectrum, the matrix check's profile) integrate the profile
    and solve each pair once, and a sweep over alpha keeps one shooter
    alive.  A shooter's results do not depend on what it cached before, so
    the slot changes no result.  An invalid alpha or rho_max raises in
    _PhaseShooter and is not cached.
    """
    return _PhaseShooter(alpha, params, rho_max)


def neutral_zero_count(alpha: float, params: ProblemParams,
                       grid: RadialGrid = DEFAULT_GRID) -> int:
    """Interior zeros of the neutral solution L f = 0, f(0)=1, f'(0)=0.

    By Sturm oscillation this equals the number of positive eigenvalues.
    """
    return _shooter(alpha, params, grid.rho_max).count_above(0.0)


def find_alpha_star(params: ProblemParams, bracket=ALPHA_STAR_BRACKET,
                    tol: float = 1e-6,
                    grid: RadialGrid = DEFAULT_GRID) -> AlphaStarResult:
    """Bisect the first 0 -> >=1 transition of the neutral zero count.

    Returns an absent result (alpha_star None), after the two end counts,
    when the count at the upper end is zero, which is the expected outcome
    beyond the instability power threshold; the interior is not scanned.
    A nonzero count at the lower endpoint is a caller error.  Only a
    single transition is assumed; evaluations are recorded and an
    observed count decrease flips the monotone flag.  The bisection ends
    at width tol, or earlier once no float lies strictly between the ends.
    """
    require_positive("tol", tol)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise DomainError(f"alpha bracket must satisfy lo < hi, got "
                          f"({lo}, {hi})")
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
    while c_hi > 0 and hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if count(mid) == 0:
            lo = mid
        else:
            hi, c_hi = mid, evals[-1][1]
    return AlphaStarResult(alpha_star=0.5 * (lo + hi) if c_hi > 0 else None,
                           bracket=(lo, hi), zero_count_hi=c_hi,
                           tolerance=tol, evaluations=evals,
                           monotone=_counts_monotone(evals))


def _counts_monotone(evals) -> bool:
    pairs = sorted(evals)
    return all(c1 <= c2 for (_, c1), (_, c2) in zip(pairs, pairs[1:]))


def eigenvalue_shoot(alpha: float, params: ProblemParams,
                     lambda_bracket,
                     grid: RadialGrid = DEFAULT_GRID) -> EigenPair:
    """Locate the single eigenvalue inside lambda_bracket by phase matching
    at an interior point; the one solver behind top_eigenpair and
    positive_spectrum (see _PhaseShooter._descend).

    The bracket must hold exactly one eigenvalue by the Sturm counts (k + 1
    above lo, k above hi).  The shooter is _shooter's for (alpha, params,
    grid.rho_max), so its cached profile and phases are reused.  The miss

        m(lam) = theta_fwd(rho_m) - theta_bwd(rho_m) - k pi

    (see _PhaseShooter.match_phases) vanishes exactly at the eigenvalue
    with k interior zeros and is smooth and strictly decreasing in lambda;
    it has the sign of the same miss taken at rho_max = 16, the regular
    solution's phase there (run without theta_end's early stop) less k pi
    and the decaying branch's phase, nearly a step in lambda.  rho_m is the
    turning point of _matching_point at the bracket midpoint.  Newton steps
    on m stay inside the sign-change bracket, fall back to bisection, and
    never step less than LAMBDA_TOL / 2, so a converged step lands past the
    root and closes the bracket: the result is the midpoint of a sign
    change of m no wider than LAMBDA_TOL, typically after 7 to 10 matching
    evaluations, the two bracket ends included.  m is only as smooth as the
    step control at RTOL: where the backward leg's steps are bound by
    stability, m can change sign several times across a band around the
    root (7 times across 1.25e-10 at (3, 2, alpha = 5)), and the result is
    one of those sign changes, which other rounding moves within the band.
    zero_count is k, match_defect max(m(a), -m(b)) on the final bracket
    (a, b), and the eigenfunction is glued at rho_m when first read.
    """
    sh = _shooter(alpha, params, grid.rho_max)
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
    rho_m = _matching_point(sh, 0.5 * (lo + hi), grid.nodes)

    def miss(lam):
        gap, dgap = sh.match_phases(lam, rho_m)
        return gap - k * math.pi, dgap

    (m_lo, d_lo), (m_hi, d_hi) = miss(lo), miss(hi)
    if not (m_lo > 0 > m_hi):
        raise EmptyBracketError(
            f"miss function does not change sign on ({lo}, {hi})")
    a, b, m_a, m_b = lo, hi, m_lo, m_hi
    # Newton starts from the end with the smaller miss
    x, fx, dx = (lo, m_lo, d_lo) if -m_hi > m_lo else (hi, m_hi, d_hi)
    for _ in range(200):
        tol = max(LAMBDA_TOL, 8 * np.finfo(float).eps * max(abs(a), abs(b)))
        if b - a <= tol:
            break
        step = -fx / dx if dx < 0 else math.inf
        # at least half a tolerance, so that a converged step crosses the
        # root and closes the bracket
        x = x + math.copysign(max(abs(step), 0.5 * tol), step)
        if not a < x < b:
            x = 0.5 * (a + b)                 # bisection fallback
        fx, dx = miss(x)
        if fx >= 0:
            a, m_a = x, fx
        else:
            b, m_b = x, fx
    return EigenPair(0.5 * (a + b), k, max(m_a, -m_b), (sh, grid, rho_m))


def _matching_point(sh: _PhaseShooter, lam: float, nodes) -> float:
    """The node where the phases are matched: the outermost + to - sign
    change of the Liouville normal-form coefficient

        Q_eff = 1/(p-1) + V - lam - W^2/4 - W'/2

    on [0.05, rho_max / 2], or its argmax when it has none.
    Past the last turning point the regular solution is exponential and
    its forward phase loses lambda; the backward phase stays clean down to
    it.
    """
    d, p = sh.params.d, sh.params.p
    r = nodes[(nodes >= 0.05) & (nodes <= 0.5 * sh.rho_max)]
    v = p * np.abs(sh._usol.sol(r)[0]) ** (p - 1.0)
    w = (d - 1.0) / r + 0.5 * r
    dw = 0.5 - (d - 1.0) / r ** 2
    q_eff = 1.0 / (p - 1.0) + v - lam - 0.25 * w * w - 0.5 * dw
    down = np.nonzero((q_eff[:-1] > 0) & (q_eff[1:] <= 0))[0]
    return float(r[down[-1]] if down.size else r[np.argmax(q_eff)])


def _reconstruct_eigenfunction(sh: _PhaseShooter, lam: float,
                               grid: RadialGrid, rho_m: float) -> np.ndarray:
    """The eigenfunction at lam, f = 1 on the axis, read off the dense
    matching legs (_PhaseShooter.solve_f) as f = r sin(theta), log r summed
    between a leg's knots and grid nodes: the forward r from hypot(f, f')
    at rho0, the backward r equal to it at rho_m, signed (-1)^k.  No raw
    (f, f') can overflow."""
    fwd, bwd = sh.solve_f(lam, rho_m)
    k = round(float(fwd.y[0, -1] - bwd.y[0, -1]) / math.pi)
    f0, df0, _, _ = sh._eigen_series(lam)
    log_r = math.log(math.hypot(f0, df0))
    f = np.ones_like(grid.nodes)
    inner = grid.nodes < rho_m
    for leg, at in ((fwd, inner & (grid.nodes >= sh.rho0)), (bwd, ~inner)):
        nodes = grid.nodes[at]
        pts = np.array(sorted(leg.t.tolist() + nodes.tolist()))
        log_r = log_r + _log_amplitude(sh, lam, leg, pts)
        f[at] = np.sin(leg.sol(nodes)[0]) * np.exp(
            log_r[np.searchsorted(pts, nodes)])
        log_r = log_r[-1]
    f[~inner] *= (-1.0) ** k
    return f


def _log_amplitude(sh: _PhaseShooter, lam: float, leg, pts):
    """log r(pts) - log r(pts[0]) on a dense matching leg, where (log r)' =
    (1 - Qt) sin(theta) cos(theta) - W cos^2(theta), U from the forward
    leg's state or the profile, by the 9-node Clenshaw-Curtis rule on each
    interval of pts, ascending, 32 at a time to bound the temporaries."""
    d, p = sh.params.d, sh.params.p
    x0, w = _clenshaw_curtis(8)
    mid, half = 0.5 * (pts[1:] + pts[:-1]), 0.5 * np.diff(pts)
    steps = np.zeros(pts.size)
    for i in range(0, half.size, 32):
        x = (mid[i:i + 32, None] + half[i:i + 32, None] * x0).ravel()
        y = leg.sol(x)
        u = y[2] if len(y) == 4 else sh._usol.sol(x)[0]
        s, c = np.sin(y[0]), np.cos(y[0])
        qt = 1.0 / (p - 1.0) + p * np.abs(u) ** (p - 1.0) - lam
        rate = ((1.0 - qt) * s - ((d - 1.0) / x + 0.5 * x) * c) * c
        steps[i + 1:i + 33] = half[i:i + 32] * (rate.reshape(-1, 9) @ w)
    return np.cumsum(steps)


def _bracket_top(sh: _PhaseShooter):
    """Bracket the largest eigenvalue by doubling up from the floor.

    The Rayleigh ceiling is a sanity cap, not a probe point.  At shifts
    lambda far above the top eigenvalue the phase equation is stiff (the
    decaying branch attracts at rate |Qt|), but a count there ends early:
    theta_end's certificate holds as soon as V drops below lambda, a few
    steps off the axis (at alpha = 300, (5,3), lam = 65533.75 ends at rho =
    0.013).
    """
    floor = sh.params.growth_exponent(1.0) - 0.25
    if sh.count_above(floor) < 1:
        raise EmptyBracketError("no eigenvalue above the free-operator floor")
    # Rayleigh bound plus margin: the profile energy decays along rho and
    # is increasing in |U|, so |U| <= alpha everywhere and V is capped by
    # its axis value p alpha^(p-1)
    ceiling = sh.params.growth_exponent(1.0) + sh._v0 + 1.0
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
                  grid: RadialGrid = DEFAULT_GRID) -> EigenPair:
    """Largest eigenvalue of L_alpha, wherever it sits on the real line.

    The first step of the descending walk (_descend) of _shooter's shooter
    for (alpha, params, grid.rho_max), the one a positive_spectrum call at
    the same alpha also takes, so on equal grids either call reuses the
    other's top pair.
    """
    return _shooter(alpha, params, grid.rho_max)._descend(1, grid)[0]


def _isolate(sh: _PhaseShooter, lo: float, hi: float, m: int):
    """Bisect [lo, hi] on Sturm counts until it holds exactly the m-th
    eigenvalue from the top: m eigenvalues above lo, m - 1 above hi.

    Needs at least m above lo and at most m - 1 above hi; gives up once the
    bracket is narrower than 1e-13.
    """
    while sh.count_above(lo) != m or sh.count_above(hi) != m - 1:
        mid = 0.5 * (lo + hi)
        if sh.count_above(mid) >= m:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return lo, hi


def positive_spectrum(alpha: float, params: ProblemParams,
                      grid: RadialGrid = DEFAULT_GRID) -> list:
    """All positive eigenvalues with eigenfunctions, descending.

    The list length always equals the neutral zero count.  The pairs are
    the descending walk (_descend) of _shooter's shooter for (alpha,
    params, grid.rho_max), shared with top_eigenpair and
    neutral_zero_count, so the first is the very pair top_eigenpair
    returns; pairs the shooter already holds are not solved again.
    alpha = 0 (the zero profile) takes the same path.
    """
    sh = _shooter(alpha, params, grid.rho_max)
    n = sh.count_above(0.0)
    return sh._descend(n, grid) if n else []


def matrix_spectrum(alpha: float, params: ProblemParams, grid: RadialGrid,
                    cutoff: float = -1.0) -> list:
    """Eigenvalues above cutoff from the weighted symmetric matrix route.

    Cell-centered conservative differences; the symmetrizing substitution
    g = sqrt(w) f gives a symmetric tridiagonal matrix, so the spectrum is
    structurally real.  Assembled on m and 2m cells of [0, rho_max], then
    Richardson extrapolated (the scheme error is clean h^2), with m =
    max(grid.n, round(2 rho_max sqrt(V(0)))), V(0) = p alpha^(p-1): cells
    at most 0.5/sqrt(V(0)) wide resolve the axis spike of V.  A count the
    grid refuses raises ResolutionError before anything is integrated.
    The profile is _shooter's for (alpha, params, grid.rho_max), which a
    shooting call at the same alpha has integrated already.
    """
    if grid.drho > 0.05:
        raise ResolutionError(f"grid spacing {grid.drho} too coarse for the "
                              "matrix route (max 0.05)")
    sh = _shooter(alpha, params, grid.rho_max)
    v0 = sh._v0
    m = max(grid.n, round(2.0 * grid.rho_max * math.sqrt(v0)))
    try:
        levels = [RadialGrid(k * m, grid.rho_max) for k in (1, 2)]
    except DomainError as exc:
        raise ResolutionError(f"{m} cells for V(0) = {v0:.3g}: {exc}") from exc

    def eigs(level):
        step = level.drho
        centers = (np.arange(level.n) + 0.5) * step
        logw_c = log_weight(centers, params.d)
        logw_f = log_weight(level.nodes, params.d)
        v = params.p * np.abs(sh._usol.sol(centers)[0]) ** (params.p - 1.0)
        off = np.exp(logw_f[1:-1] - 0.5 * (logw_c[:-1] + logw_c[1:])) / step ** 2
        flux_r = np.exp(logw_f[1:] - logw_c) / step ** 2
        flux_l = np.empty(level.n)
        flux_l[0] = 0.0                      # w(0) = 0: zero-flux axis
        flux_l[1:] = np.exp(logw_f[1:-1] - logw_c[1:]) / step ** 2
        diag = -(flux_r + flux_l) + 1.0 / (params.p - 1.0) + v
        # the eigensolve, with these alive, set crossval's peak RSS
        del centers, logw_c, logw_f, v, flux_r, flux_l
        top = float(np.max(diag) + 2.0 * np.max(off)) + 1.0
        vals = eigvalsh_tridiagonal(diag, off, select="v",
                                    select_range=(cutoff, top))
        return np.sort(vals)[::-1]

    coarse, fine = (eigs(level) for level in levels)
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


def select_unstable_expander(params: ProblemParams, eps_target: float,
                             grid: RadialGrid = DEFAULT_GRID
                             ) -> SelectedExpander:
    """Find alpha_bar just past alpha_star with top eigenvalue in
    (0, eps_target).

    alpha_star is find_alpha_star's on its default bracket and tolerance.
    Searches (alpha_star, alpha_star + 0.1 alpha_star], taking the largest
    sampled alpha whose top eigenvalue stays below the target and bisecting
    toward 0.9 eps_target when the window overshoots.  Each step is decided
    by Sturm counts alone: lambda_top > x exactly when count_above(x) >= 1,
    so a step costs at most three phase integrations (at 0, eps_target and
    0.9 eps_target) and the eigenpair is solved once, at the accepted alpha,
    on _shooter's shooter for it, whose dense profile the returned profile
    samples; when the last alpha counted is the accepted one, the slot
    still holds that shooter and nothing is integrated again.  Rejects
    powers outside (p_fujita, p_jl), where no radial profile is unstable.
    """
    params.require_unstable_regime()
    require_positive("eps_target", eps_target)

    star = find_alpha_star(params, grid=grid)
    if not star.found:
        raise NoUnstableExpanderError(
            f"no neutral-zero transition found on alpha in {star.bracket}")
    a_star = star.alpha_star
    delta = 0.1 * a_star

    def top_above(alpha, lam):
        return _shooter(alpha, params, grid.rho_max).count_above(lam) >= 1

    a_hi = a_star + delta
    if not top_above(a_hi, eps_target) and top_above(a_hi, 0.0):
        a_bar = a_hi
    else:
        # overshoot: bisect lambda_top toward 0.9 eps_target
        lo, hi = a_star, a_hi
        a_bar = None
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if top_above(mid, eps_target):
                hi = mid
            elif not top_above(mid, 0.0):
                lo = mid
            else:
                a_bar = mid
                if (top_above(mid, 0.9 * eps_target)
                        or hi - lo < star.tolerance):
                    break
                lo = mid
        if a_bar is None:
            raise NoUnstableExpanderError(
                f"could not isolate lambda_top in (0, {eps_target}) above "
                f"alpha_star={a_star}")
    pair = top_eigenpair(a_bar, params, grid)
    profile = sample_profile(pair.glue[0]._usol, a_bar, params, grid)
    return SelectedExpander(alpha_star=star, alpha_bar=a_bar,
                            lambda_bar=pair.lam, profile=profile,
                            eigenpair=pair)

