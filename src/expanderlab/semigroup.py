"""The free semigroup of the similarity-variable linear flow.

Acting on radial data, the flow generated by

    L0 = d^2/drho^2 + ((d-1)/rho + rho/2) d/drho + 1/(p-1)

is an exponentially rescaled heat convolution:

    (S0(tau) u)(xi) = e^(tau/(p-1)) (G_a * u)(e^(tau/2) xi),   a = e^tau - 1,

with G_a the heat kernel of variance parameter a.  On the Gaussian family
A e^(-rho^2/(4v)) the action is closed form (amplitude and variance map),
which pins the semigroup law exactly and serves as the oracle for the
quadrature path on general radial data.  On that path the angular part of
the d-dimensional convolution is a Kummer function in closed form, so only
the radius integral is computed numerically, by a nested Clenshaw-Curtis
ladder on the cubic spline of the data, over panels of one lattice that
every node shares (a window under two of them wide keeps panels of its
own): the data factor is sampled once per panel and order, and only the
kernel once per node.

For d <= 63 it is summed in the package, to 1.6e-14 at about 15 ns per
element at d = 5: its power series below beta_c, max(2, nu^2 / 5) for odd
d and max(18, nu^2 / 4.5) for even d, its large-beta expansion above, and
from beta_e up (odd d) that expansion less its e^(-2 beta) term, which
there moves no bit; past d = 63 it is scipy's hyp1f1 (see _angular_factor).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .exceptions import DomainError, QuadratureAccuracyError
from .exponents import ProblemParams
from .profiles import RadialGrid, fit_log_slope


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass
class GaussianDatum:
    """A e^(-rho^2 / (4 v)); v > 0 is the heat-kernel variance parameter."""

    amplitude: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.amplitude)
                and math.isfinite(self.variance)):
            raise DomainError("Gaussian amplitude and variance must be finite")
        if self.variance <= 0.0:
            raise DomainError("Gaussian variance must be positive")

    def values_on(self, nodes: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-np.asarray(nodes) ** 2
                                       / (4.0 * self.variance))

    def lq_norm(self, gamma: float, d: int) -> float:
        """Exact L^gamma(R^d) norm: |A| (4 pi v / gamma)^(d / (2 gamma))."""
        if not gamma >= 1.0:
            raise DomainError("Lebesgue exponent must be >= 1")
        try:
            return abs(self.amplitude) * (
                4.0 * math.pi * self.variance / gamma) ** (d / (2.0 * gamma))
        except OverflowError:
            raise DomainError(f"L^{gamma:g} norm overflows at d={d}") from None


@dataclass
class RadialFunction:
    """Radial profile given by its values on a grid, and zero past rho_max."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes.shape:
            raise DomainError("values must match the grid")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("values must be finite")


def lebesgue_norms(w_meas: np.ndarray, values: np.ndarray,
                   gammas: Sequence[float], sphere: float,
                   work: Optional[np.ndarray] = None) -> np.ndarray:
    """(sphere sum_i w_meas_i |f_i|^gamma)^(1/gamma) for each row f of
    values (k, n) and gamma in gammas, shape (k, len(gammas)); a row's
    norms are its one-row call's, in any order of gammas.  work, (2, k, n)
    scratch, spares a caller of many blocks a heap trim per call and any
    block-sized allocation.  Nodes with |f| < 2^(-1000/gamma) are left
    out: their terms lie below 2^-1000, and pow is some 50x slower on a
    subnormal result.  The cut grows with gamma, so |f|, taken once, is
    cut in place, gammas in ascending order.  gamma 1 sums |f|; an integer
    gamma in [2, 2^16) is taken by binary powering, whose
    products then stay normal, within 1.5 ulp of pow's norm; other gammas
    by pow, one pass whatever gamma's bit length.  A row whose largest
    power would leave [2^-500, 2^900] (then also at every larger gamma)
    has |f| taken again and divided by its maximum.  Sums are
    np.dot's bits (np.vecdot, not a matrix product), roots Python floats'.
    If the cut leaves only nodes of weight 0 (the axis, at huge gamma), the
    norm is taken again with them set to 0.  NaN nodes give NaN norms.
    """
    power, mag = np.empty((2, *values.shape)) if work is None else work
    np.abs(values, out=mag)
    top_list, lows = mag.max(axis=1).tolist(), mag.min(axis=1).tolist()
    norms = np.empty((len(values), len(gammas)))
    for gamma, j in sorted((g, j) for j, g in enumerate(gammas)):
        units = [t if 0.0 < t and not -500.0 <= gamma * math.log2(t) <= 900.0
                 else 1.0 for t in top_list]
        for i, unit in enumerate(units):
            if unit != 1.0:
                np.divide(np.abs(values[i], out=mag[i]), unit, out=mag[i])
        cut = 2.0 ** (-1000.0 / gamma)
        if not all(low / unit >= cut for low, unit in zip(lows, units)):
            np.copyto(mag, 0.0, where=mag < cut)
        terms = mag
        # one pow costs about as much as the 30 products of binary
        # powering at gamma 2^16 - 1, and 17x less at 1e300 (cut included)
        if 2.0 <= gamma < 65536.0 and float(gamma).is_integer():
            for bit in bin(int(gamma))[3:]:     # left to right, from |f|
                terms = np.multiply(terms, terms, out=power)
                if bit == "1":
                    np.multiply(power, mag, out=power)
        elif gamma != 1.0:
            terms = np.power(mag, gamma, out=power)
        for i, total in enumerate(np.vecdot(terms, w_meas).tolist()):
            if total == 0.0 < top_list[i]:
                norms[i, j] = lebesgue_norms(
                    w_meas, np.where(w_meas > 0.0, values[i], 0.0)[None],
                    (gamma,), sphere)[0, 0]
            else:
                norms[i, j] = units[i] * (sphere * total) ** (1.0 / gamma)
    return norms


class _NormKit:
    """Norms against the grid's Simpson weights, one state at a time."""

    def __init__(self, grid: RadialGrid, params: ProblemParams):
        self.w_meas = grid.measure_weights(params.d)
        self.sphere = sphere_area(params.d)
        self.w_l2w = grid.l2w_weights(params.d)

    def lebesgue(self, v: np.ndarray, gammas: tuple) -> list[float]:
        """The L^gamma norms of v for each gamma in gammas."""
        return lebesgue_norms(self.w_meas, v[None], gammas,
                              self.sphere)[0].tolist()

    def weighted_l2(self, v: np.ndarray) -> float:
        return float(math.sqrt(np.dot(self.w_l2w, v * v)))


def lq_norm(f: RadialFunction, gamma: float, d: int) -> float:
    """L^gamma norm over R^d of a radial profile: the grid's Simpson
    weights against the rho^(d-1) measure, with f zero past rho_max."""
    if not gamma >= 1.0:
        raise DomainError("Lebesgue exponent must be >= 1")
    return float(lebesgue_norms(f.grid.measure_weights(d), f.values[None],
                                (gamma,), sphere_area(d))[0, 0])


def apply_S0_gaussian(tau: float, g: GaussianDatum,
                      params: ProblemParams) -> GaussianDatum:
    """Closed-form action of the free semigroup on a Gaussian.

    Convolving with the heat kernel adds variances; the similarity
    rescaling then maps v to 1 + (v - 1) e^(-tau), whose fixed point is the
    self-similar Gaussian v = 1, and the amplitude A to
    A (v / v_tau)^(d/2) e^((1/(p-1) - d/2) tau).  Exact to roundoff.
    """
    if not math.isfinite(tau) or tau < 0.0:
        raise DomainError("tau must be finite and nonnegative")
    v = g.variance
    variance = v * math.exp(-tau) - math.expm1(-tau)
    try:
        amplitude = (g.amplitude * (v / variance) ** (params.d / 2.0)
                     * math.exp(params.growth_exponent(1.0) * tau))
    except OverflowError:
        raise DomainError(
            f"tau={tau}: the amplitude leaves the double range") from None
    return GaussianDatum(amplitude=amplitude, variance=variance)


# fit window of growth_rate_gaussian
_GROWTH_TAUS = np.linspace(2.0, 6.0, 9)
# verify_smoothing's tau grid, 2^0 .. 2^-10
_SMOOTHING_TAUS = [2.0 ** (-k) for k in range(0, 11)]
# verify_smoothing's estimate, L^eta -> L^eta' with eta = 1, eta' = 2
_SMOOTHING_ETA, _SMOOTHING_ETA_PRIME = 1.0, 2.0


def growth_rate_gaussian(eta: float, params: ProblemParams) -> float:
    """Fitted growth exponent of the free flow in L^eta.

    A fixed datum relaxes onto the heat kernel and decays at the mass rate
    1/(p-1) - d/2 for every eta, so the operator growth rate is probed with
    the variance-matched family v(tau) = 1e6 e^tau, which saturates the
    bound up to O(1e-6), over tau in [2, 6].  The fitted slope equals
    1/(p-1) - d/(2 eta).
    """
    logr = []
    for tau in _GROWTH_TAUS:
        g = GaussianDatum(amplitude=1.0, variance=1e6 * math.exp(tau))
        out = apply_S0_gaussian(float(tau), g, params)
        logr.append(math.log(out.lq_norm(eta, params.d)
                             / g.lq_norm(eta, params.d)))
    return fit_log_slope(_GROWTH_TAUS, logr)[0]


# ---------------------------------------------------------------------------
# quadrature path for general radial data


# the orders of the radial ladder; each one's nodes are the even nodes of
# the next, so going up an order evaluates only the new odd nodes
_ORDERS = (24, 48, 96, 192, 384)


@functools.cache
def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes cos(j pi / n), j = 0..n, and closed-form weights of the
    Clenshaw-Curtis rule on [-1, 1], n even; exact up to degree n + 1.  On
    a C^2 spline it converges as fast as Gauss-Legendre at equal sample
    counts (Trefethen, SIAM Review 50 (2008) 67-87), and its nodes nest."""
    j = np.arange(n + 1)
    k = np.arange(1, n // 2 + 1)
    theta = np.pi * j / n
    b = 2.0 / (4.0 * k ** 2 - 1.0)
    b[-1] /= 2.0
    c = np.full(n + 1, 2.0 / n)
    c[0] = c[-1] = 1.0 / n
    return np.cos(theta), c * (1.0 - np.cos(np.outer(theta, 2 * k)) @ b)


# nodes x panels x 49 (the second order of the radial ladder) per block,
# of lattice panels its nodes share or, under _LATTICE_WINDOW, their own:
# keeps each quadrature temporary of a block near 1 MB even at order 384.
# The lattice's sample points and data factor are held once for all blocks
_BLOCK_ELEMENTS = 2 ** 14
# windows of 16 kernel widths from this up (tau >= 1.95e-3) share the
# lattice: at tau = 1e-3 (0.72), 1601 nodes at d = 5 took 12 ms on panels
# of their own, 18 ms on the lattice (medians of 12 runs, 2-vCPU box)
_LATTICE_WINDOW = 1.0


def _beta_half(d: int) -> float:
    """J(0) = B(1/2, nu + 1): with m = floor(nu), 2^(2m+1) / ((m+1) C(2m+1,
    m)) correctly rounded for odd d, pi C(2m+2, m+1) / 4^(m+1) for even d."""
    m = (d - 3) // 2
    if d % 2:
        return 2 ** (2 * m + 1) / ((m + 1) * math.comb(2 * m + 1, m))
    return math.pi * (math.comb(2 * m + 2, m + 1) / 4 ** (m + 1))


@functools.cache
def _angular_forms(d: int) -> tuple[float, float, list, list, float, float]:
    """beta_c; beta_e, the least float >= beta_c at which sum_s |c_s 2^-s|
    beta^-s e^(-2 beta), a bound on the e^(-2 beta) term, is at most 2^-55
    of 1 - sum_(s>0) |c_s 2^-s| beta^-s, a lower bound on the first, so
    under half an ulp of it (beta_c for even d);
    B(k + 1/2, nu + 1) beta_c^(2k) / (2k)! while over 2^-53 of the sum;
    c_s 2^-s while the term at beta_c is over 2^-53 and, past s = nu,
    shrinks; 2^j and 2^nu Gamma(nu + 1) 2^-(j (nu + 1)), which keep (2^j /
    beta)^(nu + 1) normal down to J = 2^-1074.  Highest power first."""
    nu = (d - 3) / 2.0
    beta_c = max(2.0, nu * nu / 5.0) if d % 2 else max(18.0, nu * nu / 4.5)
    series = [_beta_half(d)]
    while series[-1] >= 2.0 ** -53 * sum(series):
        n = len(series)
        series.append(series[-1] * beta_c ** 2 / (4.0 * n * (n + nu + 0.5)))
    coef = [1.0]
    for s in range(int(2.0 * beta_c + nu) + 2):     # terms grow past it
        c = coef[-1] * (nu + 1.0 + s) * (s - nu) / (2.0 * (s + 1))
        if abs(c) < 2.0 ** -53 * beta_c ** (s + 1) or (
                s > nu and abs(c) >= abs(coef[-1]) * beta_c):
            break
        coef.append(c)

    def skip(beta):
        terms = sum(abs(c) * beta ** -s for s, c in enumerate(coef))
        return terms * math.exp(-2.0 * beta) <= 2.0 ** -55 * (2.0 - terms)

    lo = hi = beta_c
    while d % 2 and not skip(hi):
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:     # bisect to a float
        lo, hi = (lo, mid) if skip(mid) else (mid, hi)
    prefactor = math.gamma(nu + 1.0) * 2.0 ** nu
    j = math.ceil((math.log2(prefactor) + 52.0) / (nu + 1.0))
    return (beta_c, hi, series[-2::-1], coef[::-1], 2.0 ** j,
            prefactor * 2.0 ** (-j * (nu + 1.0)))


def _angular_factor(beta: np.ndarray, d: int) -> np.ndarray:
    """J(beta) = int_{-1}^{1} e^(beta (c - 1)) (1 - c^2)^((d-3)/2) dc.

    With c = 1 - 2t this is Kummer's integral (DLMF 13.4.1),

        J = 2^(2 nu + 1) B(nu + 1, nu + 1) M(nu + 1, 2 nu + 2, -2 beta),

    nu = (d - 3)/2, exact for every d >= 3 and beta >= 0.  For d <= 63 it
    is summed over three ranges, with the coefficients of _angular_forms:
    below beta_c, the power series of e^(beta c) integrated term by term,

        J = e^(-beta) sum_k B(k + 1/2, nu + 1) beta^(2k) / (2k)!,

    whose terms are all positive, by Horner in (beta / beta_c)^2; on
    [beta_c, beta_e), the large-beta expansion (DLMF 13.7.2), by Horner in
    1/beta,

        J = 2^nu Gamma(nu + 1) beta^-(nu + 1) [sum_s c_s (2 beta)^-s
            + cos(pi (nu + 1)) e^(-2 beta) sum_s c_s (-2 beta)^-s],

    c_s = (nu + 1)_s (-nu)_s / s!; from beta_e up, its first term alone:
    the second is under 2^-55 of it there and moves no bit (beta_e is 19.1
    to 19.4 for d <= 9, 670 at d = 63).  For odd d, c_s = 0 past s = nu and
    the sums are finite (DLMF 10.49(ii)); they alternate, and cancel little
    from beta_c = max(2, nu^2 / 5) up.  For even d the second term is zero
    (beta_e = beta_c) and the first is cut at its smallest term, near
    e^(-2 beta), below 2^-53 from beta_c = max(18, nu^2 / 4.5) up.  The
    expansion is taken at max(beta, beta_c) everywhere, and the series
    written over it below beta_c.  For d > 63, J is scipy's hyp1f1 times
    J(0) = B(1/2, nu + 1).

    Against a 40-digit reference on beta in [0, 1e12], beta_c and its
    neighbours included, J is within 1.6e-14 relative for every d <= 63
    (4e-15 for d <= 10).  On the semigroup workload's beta (a 2-vCPU box)
    it costs about 15 ns per element at d = 5 and 40 ns at d = 4.
    """
    nu = (d - 3) / 2.0
    beta = np.asarray(beta, dtype=float)
    if d > 63:
        from scipy.special import hyp1f1
        return _beta_half(d) * hyp1f1(nu + 1.0, 2.0 * nu + 2.0, -2.0 * beta)
    beta_c, beta_e, series, coef, scale, prefactor = _angular_forms(d)
    x = np.maximum(beta, beta_c, out=np.empty_like(beta))
    inv = np.reciprocal(x, out=np.empty_like(x))
    x.fill(coef[0])
    for c in coef[1:]:
        x *= inv
        x += c
    low = beta < beta_c
    if d % 2:
        # on [beta_c, beta_e) only; c_s (-1)^s > 0
        mid = beta < beta_e
        mid ^= low
        y = inv[mid]
        sign = (-1) ** ((d - 1) // 2)       # cos(pi (nu + 1))
        plus = np.full_like(y, sign * abs(coef[0]))
        for c in coef[1:]:
            plus *= y
            plus += sign * abs(c)
        y = beta[mid]
        y *= -2.0
        plus *= np.exp(y, out=y)
        x[mid] += plus
    inv *= scale
    x *= np.power(inv, nu + 1.0, out=inv)
    x *= prefactor
    y = beta[low]
    y2 = (y / beta_c) ** 2
    total = np.full_like(y, series[0])
    for c in series[1:]:
        total *= y2
        total += c
    x[low] = total * np.exp(-y)
    return x[()]


def _even_spline(f: RadialFunction) -> Callable[[np.ndarray], np.ndarray]:
    """Cubic spline of f on [0, rho_max], with slope 0 on the axis and
    not-a-knot at rho_max: the not-a-knot spline of f mirrored through the
    axis, on the only part _panels evaluates (past rho_max f is zero).

    The slopes times the spacing, m_i, solve one tridiagonal system: m_0 =
    0, m_(i-1) + 4 m_i + m_(i+1) = 3 (f_(i+1) - f_(i-1)) inside, and the
    not-a-knot condition less the last interior row at rho_max.  A point
    is evaluated as the cubic of its cell, found by index arithmetic.
    """
    y = f.values
    n, h = f.grid.n, f.grid.drho
    diff = np.diff(y)
    ab = np.ones((3, n))
    ab[1, :-1] = 4.0
    ab[2, -2] = 2.0
    rhs = np.append(3.0 * (diff[:-1] + diff[1:]),
                    0.5 * (diff[-2] + 5.0 * diff[-1]))
    m = np.concatenate([[0.0], solve_banded((1, 1), ab, rhs)])
    # per cell, the cubic in t = (s - rho_i) / h in [0, 1]
    c0, c1 = y[:-1], m[:-1]
    c2 = 3.0 * diff - 2.0 * m[:-1] - m[1:]
    c3 = m[:-1] + m[1:] - 2.0 * diff

    def evaluate(s: np.ndarray) -> np.ndarray:
        t = s / h
        i = np.minimum(t.astype(np.intp), n - 1)
        t -= i
        # Horner in place; np.take gathers about 3x faster than c[i]
        value = np.take(c3, i)
        for c in (c2, c1, c0):
            value *= t
            value += np.take(c, i)
        return value

    return evaluate


def _panels(x: np.ndarray, width: float, rho_max: float):
    """Radial integration panels for the evaluation points x.

    Node i integrates over [x_i - 8 width, x_i + 8 width] clipped to [0,
    rho_max], where the data live.  The spline is only piecewise smooth,
    so from 16 width = _LATTICE_WINDOW up node i takes the panels first_i
    to last_i - 1 of the lattice cut at 0, 0.5, 1, ... and rho_max, every
    one that meets its window (none past rho_max).  A narrower window is
    cut into 0.5-wide chunks from its left end, rows padded with zero-width
    panels, which carry zero weight (first_i = 0, last_i = the most chunks
    of any row): a panel of its own is the only layout that resolves the
    kernel down to the float spacing of rho_max.  Returns (left, right,
    first, last), the edges of shape (1, lattice panels) or (nodes, 1|2).
    """
    lo = np.minimum(np.maximum(0.0, x - 8.0 * width), rho_max)
    hi = np.minimum(x + 8.0 * width, rho_max)
    if 16.0 * width < _LATTICE_WINDOW:
        chunks = np.ceil((hi - lo) / 0.5).astype(int)[:, None]
        k = np.arange(int(np.max(chunks)) + 1)
        cuts = np.where(k < chunks, lo[:, None] + 0.5 * k, hi[:, None])
        first = np.zeros(x.size, dtype=int)
        return cuts[:, :-1], cuts[:, 1:], first, first + k[-1]
    cuts = np.append(np.arange(0.0, rho_max, 0.5), rho_max)
    first = (2.0 * lo).astype(int)
    last = np.where(hi > lo, np.ceil(2.0 * hi).astype(int), first)
    return cuts[None, :-1], cuts[None, 1:], first, last


def apply_S0(tau: float, f: RadialFunction,
             params: ProblemParams) -> RadialFunction:
    """Free-semigroup action on gridded radial data by direct quadrature.

    The d-dimensional convolution reduces to a radius integral against
    e^(-(x-s)^2/(4a)) J(xs/(2a)) s^(d-1); the angular factor J is a
    confluent hypergeometric function in closed form.  The radius integral
    runs over the panels of _panels, shared lattice panels unless the
    window is under two of them wide, doubling the Clenshaw-Curtis order
    from 24 to 384 until two orders agree to 1e-8 relative, plus a floor
    tied to the output scale, node by node.  The rules nest, so each order
    after the first evaluates the integrand only at its new nodes.  Runs
    of nodes with the same panels are integrated in blocks of at most
    _BLOCK_ELEMENTS / (49 * panels) rows, one vectorised order ladder per
    block; a node leaves its block once it has converged.  On the lattice,
    the sample points and the data factor f(s) s^(d-1) are computed once
    per panel and order and read by every block as views.
    """
    if not math.isfinite(tau) or tau < 0.0:
        raise DomainError("tau must be finite and nonnegative")
    if tau == 0.0:
        return RadialFunction(grid=f.grid, values=f.values.copy())
    d = params.d
    rho_max = f.grid.rho_max
    try:
        a = math.expm1(tau)
        width = math.sqrt(2.0 * a)
        # a quadrature point is rounded by up to a float spacing of rho_max,
        # which moves the kernel exponent (x - s)^2 / (4a) within 8 widths
        # of x by up to 8 spacings / width: past 1e-6 that rounding alone
        # could break the accuracy contract (tau < 4e-16 at rho_max = 16)
        if 8.0 * float(np.spacing(rho_max)) > 1e-6 * width:
            raise DomainError(
                f"tau={tau} is too small for rho_max={rho_max}: the kernel "
                f"width {width:.3g} is under 8e6 float spacings of rho_max, "
                "so rounding alone could exceed the 1e-6 accuracy")
        prefactor = (sphere_area(d - 1) * (4.0 * math.pi * a) ** (-d / 2.0)
                     * math.exp(tau / (params.p - 1.0)))
        # a unit input integrates to this; anchors the convergence criterion
        # to the output scale instead of each node's (possibly tiny) value
        unit_total = (4.0 * math.pi * a) ** (d / 2.0) / sphere_area(d - 1)
    except OverflowError:
        raise DomainError(f"tau={tau} is too large for d={d}: the kernel "
                          "normalisation leaves the double range") from None
    evaluate = _even_spline(f)
    floor = 2e-8 * float(np.max(np.abs(f.values))) * unit_total

    x = math.exp(0.5 * tau) * f.grid.nodes
    left, right, first, last = _panels(x, width, rho_max)
    half = 0.5 * (right - left)
    shared = left.shape[0] == 1
    # per order, the lattice's sample points and data factor at its new
    # nodes; a panel of a node's own is sampled by its block alone
    table = {}
    out = np.empty_like(x)
    runs = [0, *(np.flatnonzero(np.diff(first) | np.diff(last)) + 1), x.size]
    for run, end in zip(runs, runs[1:]):
        j, k = first[run], last[run]
        rows = max(1, _BLOCK_ELEMENTS // (49 * max(1, k - j)))
        for start in range(run, end, rows):
            idx = np.arange(start, min(start + rows, end))
            # spline interpolants are only C^2, so convergence is algebraic;
            # 1e-8 agreement leaves two orders of margin on the 1e-6 contract
            prev = samples = None
            for n in _ORDERS:
                x_cc, w_cc = _clenshaw_curtis(n)
                own = slice(None) if shared else idx
                data = table.get(n)
                if data is None:
                    s = left[own, :, None] + half[own, :, None] * (
                        (x_cc if samples is None else x_cc[1::2]) + 1.0)
                    data = s, evaluate(s) * s ** (d - 1.0)
                    if shared:
                        table[n] = data
                s, g = (v[:, j:k] for v in data)
                xs = x[idx, None, None]
                # e^(-(x - s)^2 / (4a)) g J, built in one buffer
                fresh = xs - s
                fresh *= fresh
                fresh /= -4.0 * a
                np.exp(fresh, out=fresh)
                fresh *= g
                fresh *= _angular_factor(xs * s / (2.0 * a), d)
                if samples is None:
                    samples = fresh
                else:
                    both = np.empty(fresh.shape[:2] + (n + 1,))
                    both[..., ::2] = samples
                    both[..., 1::2] = fresh
                    samples = both
                total = np.einsum("ijk,ijk->i", half[own, j:k, None] * w_cc,
                                  samples)
                if prev is not None:
                    miss = np.abs(total - prev)
                    done = miss <= 1e-8 * np.abs(total) + floor
                    out[idx[done]] = prefactor * total[done]
                    if done.all():
                        break
                    idx, total, samples = (
                        v[~done] for v in (idx, total, samples))
                prev = total
            else:
                raise QuadratureAccuracyError(
                    "radial quadrature did not converge",
                    achieved=float(np.max(miss[~done])))

    return RadialFunction(grid=f.grid, values=out)


@dataclass
class SmoothingReport:
    """Numerical check of verify_smoothing's estimate; fitted_M is the
    empirical constant."""

    eta: float
    eta_prime: float
    gamma: float
    gamma_prime: float
    tau_list: list
    ratios: list
    fitted_M: float
    refined_max: float
    passed: bool

    def as_dict(self) -> dict:
        """The fields, with passed under the key pass."""
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


def verify_smoothing(samples: Sequence[GaussianDatum],
                     params: ProblemParams) -> SmoothingReport:
    """Check the L^1 -> L^2 gain of integrability of the free flow
    numerically (eta = _SMOOTHING_ETA, eta' = _SMOOTHING_ETA_PRIME).

    For each Gaussian sample u and each time tau of _SMOOTHING_TAUS the
    normalized ratio

        ||S0(tau) u||_eta' a(tau)^((d/2)(1/eta - 1/eta'))
            e^(-(1/(p-1) - d/(2 eta)) tau) / ||u||_eta

    must stay bounded as tau -> 0; S0 and the norms are closed forms.  The
    report fits the constant M as the max over the sample set and declares
    failure only if a twice-refined tau grid pushes the max beyond 10 M.
    Its gamma, gamma' repeat eta, eta': one Lebesgue norm on each side.
    """
    eta, eta_prime = _SMOOTHING_ETA, _SMOOTHING_ETA_PRIME
    taus = list(_SMOOTHING_TAUS)

    def ratios_for(ts):
        out = []
        for t in ts:
            A = math.expm1(t) ** (0.5 * params.d
                                  * (1.0 / eta - 1.0 / eta_prime))
            damp = math.exp(-params.growth_exponent(eta) * t)
            for u in samples:
                evolved = apply_S0_gaussian(t, u, params)
                num = evolved.lq_norm(eta_prime, params.d)
                den = u.lq_norm(eta, params.d)
                out.append(num * A * damp / den)
        return out

    ratios = ratios_for(taus)
    fitted = max(ratios)
    # the refined grid adds the midpoints; the original taus are in ratios
    refined_max = max([fitted, *ratios_for(
        [0.5 * (a + b) for a, b in zip(taus, taus[1:])])])
    return SmoothingReport(eta=eta, eta_prime=eta_prime, gamma=eta,
                           gamma_prime=eta_prime, tau_list=taus,
                           ratios=ratios, fitted_M=fitted,
                           refined_max=refined_max,
                           passed=refined_max <= 10.0 * fitted)
