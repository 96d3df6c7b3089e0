"""Radial profile solver for expanding self-similar solutions.

The profile U(rho) of an expander u(t,x) = t^(-1/(p-1)) U(|x|/sqrt(t))
solves

    U'' + ((d-1)/rho + rho/2) U' + U/(p-1) + |U|^(p-1) U = 0,
    U(0) = alpha > 0,  U'(0) = 0.

Every alpha > 0 gives a bounded profile with a finite tail limit
ell(alpha) = lim rho^(2/(p-1)) U(rho).  Shooting starts from a fourth-order
Taylor expansion at a small rho_0 (the (d-1)/rho coefficient is singular at
the origin) and integrates with an adaptive embedded Runge-Kutta method,
the package's one DOP853 driver (_integrate_to_end): scipy's tableau,
first step and step control, with each trial step generated on Python
floats (_count_step; _fused_rhs writes a right-hand side given as source
out at every stage).  The spectral module's phase and eigenfunction
integrations run on it too.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

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


def series_start(alpha: float, params: ProblemParams):
    """(rho0, U, U') of the fourth-order Taylor start, the one start of every
    profile and phase integration at alpha.  rho0 is RHO0_DEFAULT, shrunk
    when the curvature scale is below it so that the quadratic term stays a
    tiny correction: |c2| rho0^2 <= 1e-9 max(alpha, 1)."""
    require_alpha(alpha)
    c2, c4 = series_coefficients(alpha, params)
    rho0 = RHO0_DEFAULT
    if c2 != 0.0:
        rho0 = min(rho0, math.sqrt(1e-9 * max(abs(alpha), 1.0) / abs(c2)))
    u = alpha + c2 * rho0 ** 2 + c4 * rho0 ** 4
    du = 2.0 * c2 * rho0 + 4.0 * c4 * rho0 ** 3
    return rho0, u, du


def _rhs(params: ProblemParams):
    d, p = params.d, float(params.p)

    def f(rho, y):
        u, du = y
        nl = math.copysign(abs(u) ** p, u)
        return (du, -((d - 1.0) / rho + 0.5 * rho) * du - u / (p - 1.0) - nl)

    return f


def _padded(rows, width: int) -> np.ndarray:
    """The rows as a matrix of the given width, each zero-filled past its
    last entry."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


class DOP853:
    """The tableau of DOP853 (Hairer, Norsett and Wanner, Solving ODEs I,
    II.5, as Hairer's dop853.f publishes it), held as the float values of
    scipy.integrate.DOP853's class attributes of the same names, bit for
    bit: the coefficients A, B, C of the 12 stages, the 5th- and 3rd-order
    error weights E5 and E3, the 3 extra stages A_EXTRA, C_EXTRA of the
    interpolant and its coefficients D.  Importing scipy.integrate would
    load some 270 modules for these numbers."""

    n_stages = 12
    TOO_SMALL_STEP = ("Required step size is less than spacing between "
                      "numbers.")
    A = _padded([
        [],
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0.0, 0.08876275643042054],
        [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
         0.12546768756682242],
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
         -0.017578125],
        [0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
         0.10726203044637328, -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996],
        [0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
         -0.590290826836843, 21.230051448181193, 15.279233632882423,
         -33.28821096898486, -0.020331201708508627],
        [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505,
         2.4936055526796523, -3.0467644718982196],
        [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235,
         -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    ], 12)
    A_EXTRA = _padded([
        [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
         -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
         0.00820105229563469, 0.007567897660545699, -0.008298],
        [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
         0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
         -0.00010834732869724932, 0.0003825710908356584,
         -0.00034046500868740456, 0.1413124436746325],
        [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
         7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0,
         0.0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
    ], 16)
    D = _padded([
        [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
         -3.0689499459498917, 2.38466765651207, 2.117034582445028,
         -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
         -0.08899033645133331, 18.148505520854727, -9.194632392478356,
         -4.436036387594894],
        [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
         165.20045171727028, -374.5467547226902, -22.113666853125306,
         7.733432668472264, -30.674084731089398, -9.332130526430229,
         15.697238121770845, -31.139403219565178, -9.35292435884448,
         35.81684148639408],
        [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
         -189.17813819516758, 527.8081592054236, -11.57390253995963,
         6.8812326946963, -1.0006050966910838, 0.7777137798053443,
         -2.778205752353508, -60.19669523126412, 84.32040550667716,
         11.99229113618279],
        [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
         -231.5293791760455, 357.6391179106141, 93.40532418362432,
         -37.45832313645163, 104.0996495089623, 29.8402934266605,
         -43.53345659001114, 96.32455395918828, -39.17726167561544,
         -149.72683625798564],
    ], 16)
    B = np.array([
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
        1.8915178993145003, -5.801203960010585, 0.3111643669578199,
        -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
    C = np.array([
        0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
        0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
        0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
    E3 = np.array([
        -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
        1.8915178993145003, -5.801203960010585, -0.4226823213237919,
        -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
    E5 = np.array([
        0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
        -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
        0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
    C_EXTRA = np.array([0.1, 0.2, 0.7777777777777778])


# each extra stage s of the interpolant with its row cut to the first s
# entries and its node
_EXTRA = [(s, a[:s], float(c)) for s, (a, c) in enumerate(
    zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=DOP853.n_stages + 1)]


@dataclass
class _Dop853Result:
    """A dense run of _integrate_to_end: the accepted rho and states, the
    right-hand side calls and the interpolant."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    sol: Optional["_DenseSteps"]


class _DenseSteps:
    """The dense output of a DOP853 run (_integrate_to_end with dense): per
    step its start t_old, width h, start state y_old and DOP853's 7
    interpolant rows F, stacked so that a call evaluates all its points at
    once.  A point takes its step as scipy's OdeSolution picks it (on a step
    boundary the step with the lower index, outside the span the end step),
    and the rows are summed in Dop853DenseOutput's order.  walker(i) gives
    component i at one float with the same bits, for a caller that asks
    point by point along an ascending run."""

    def __init__(self, ts, t_old, h, y_old, rows):
        self._ascending = ts[-1] >= ts[0]
        self._side = "left" if self._ascending else "right"
        self._ts_sorted = ts if self._ascending else ts[::-1]
        self._t_old, self._h = t_old, h
        self._y_old = y_old.T.copy()                    # (n, steps)
        self._rows = rows.transpose(1, 2, 0).copy()     # (7, n, steps)

    def __call__(self, t):
        t = np.asarray(t)
        pts = t.reshape(-1)
        last = self._h.size - 1
        seg = np.searchsorted(self._ts_sorted, pts, side=self._side) - 1
        np.clip(seg, 0, last, out=seg)
        if not self._ascending:
            seg = last - seg
        x = (pts - self._t_old[seg]) / self._h[seg]
        y = np.zeros((self._y_old.shape[0], pts.size))
        for i, row in enumerate(self._rows[::-1]):
            y += row[:, seg]            # one row gathered at a time
            y *= x if i % 2 == 0 else 1 - x
        y += self._y_old[:, seg]
        return y[:, 0] if t.ndim == 0 else y

    def walker(self, component: int):
        """Component `component` as a function of one float of an
        ascending run: __call__'s step, walked to from the step of the call
        before (an integration's stages stay within a step or two), and
        __call__'s sums in its order, so bit for bit its value."""
        knots = self._ts_sorted.tolist()
        rows = self._rows[::-1, component]
        # __call__ adds the top row to zeros, which turns -0.0 into 0.0
        steps = list(zip(self._t_old.tolist(), self._h.tolist(),
                         (rows[0] + 0.0).tolist(),
                         *(row.tolist() for row in rows[1:]),
                         self._y_old[component].tolist()))
        last = len(steps) - 1
        i = 0

        def value(t):
            nonlocal i
            while i and t <= knots[i]:
                i -= 1
            while i < last and knots[i + 1] < t:
                i += 1
            t_old, h, f6, f5, f4, f3, f2, f1, f0, y_old = steps[i]
            x = (t - t_old) / h
            x1 = 1 - x
            return ((((((f6 * x + f5) * x1 + f4) * x + f3) * x1 + f2) * x
                     + f1) * x1 + f0) * x + y_old

        return value


def _initial_step(rhs, t0: float, tf: float, y: tuple, f0: tuple) -> float:
    """scipy's select_initial_step for DOP853 at RTOL, ATOL from the state y
    at t0 toward tf, f0 = rhs(t0, y), both tuples of floats: the width of
    the first trial step, found with one more call of rhs.  Where the first
    derivative is 0 and the second call NaN, max(d1, d2) is 0 and its bound
    inf, as in scipy."""
    n = len(y)
    direction = 1.0 if tf >= t0 else -1.0
    scale = [ATOL + abs(v) * RTOL for v in y]

    def rms(values):
        return math.sqrt(sum(v * v for v in values)) / n ** 0.5

    d0 = rms(v / s for v, s in zip(y, scale))
    d1 = rms(f / s for f, s in zip(f0, scale))
    length = abs(tf - t0)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    f1 = rhs(t0 + h0 * direction,
             tuple(v + h0 * direction * f for v, f in zip(y, f0)))
    d2 = rms((g - f) / s for g, f, s in zip(f1, f0, scale)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        big = max(d1, d2)
        h1 = (0.01 / big) ** 0.125 if big else math.inf
    return min(100 * h0, h1, length)


def _step_update(h_abs: float, e5: float, e3: float, n: int,
                 rejected: bool):
    """scipy's DOP853 step control after a trial step of width h_abs with
    squared scaled error norms e5, e3 over n components: (accepted, the
    width of the next trial), which a rejection shrinks and an acceptance
    grows, except right after a rejection."""
    if e5 == 0 and e3 == 0:
        error_norm = 0.0
    else:
        error_norm = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)
    if error_norm < 1:
        factor = (10 if error_norm == 0
                  else min(10, 0.9 * error_norm ** -0.125))
        return True, h_abs * (min(1, factor) if rejected else factor)
    return False, h_abs * max(0.2, 0.9 * error_norm ** -0.125)


def _sum(coefs, i: int) -> str:
    """Source of the sum of coefs[j] * k{j}_{i} over the nonzero coefs, one
    term a line: short lines keep a code object's location table small."""
    return "\n + ".join(f"{float(c)!r} * k{j}_{i}"
                        for j, c in enumerate(coefs) if c)


def _items(n: int, *names) -> str:
    """Source of the items name_0, ..., name_{n-1} of each name, one a
    line, each followed by a comma."""
    return "".join(f"{name}_{i},\n" for name in names for i in range(n))


def _step_source(n: int, stage) -> list:
    """Source lines of step(rhs, t, h, y, f): one DOP853 trial step of width
    h from a state y of n Python floats at t, f = rhs(t, y), stage(s, rho,
    state) the lines that set k{s}_0, ... to rhs at those expressions.  It
    returns the new state, rhs there, the squared norms of the 5th- and
    3rd-order error estimates, scaled as scipy's DOP853 scales them, and
    the 13 stages, flat, for _dense_steps.  Every sum is written out over
    the nonzero entries of the tableau, as dataclasses writes out an
    __init__: with the sums looped six (5,3) counts took 23 ms, not 7.4."""
    last = DOP853.n_stages
    body = [f"({_items(n, 'y')}) = y", f"({_items(n, 'k0')}) = f"]
    for s in range(1, last):
        body += stage(s, f"t + {float(DOP853.C[s])!r} * h",
                      [f"y_{i} + ({_sum(DOP853.A[s, :s], i)}) * h"
                       for i in range(n)])
    body += [f"n_{i} = y_{i} + h * ({_sum(DOP853.B, i)})" for i in range(n)]
    body += stage(last, "t + h", [f"n_{i}" for i in range(n)])
    for i in range(n):
        body += [f"s_{i} = {ATOL!r} + max(abs(y_{i}), abs(n_{i})) * {RTOL!r}",
                 f"e5_{i} = ({_sum(DOP853.E5, i)}) / s_{i}",
                 f"e3_{i} = ({_sum(DOP853.E3, i)}) / s_{i}"]
    e5, e3 = ("\n + ".join(f"{e}_{i} * {e}_{i}" for i in range(n))
              for e in ("e5", "e3"))
    stages = _items(n, *(f"k{j}" for j in range(last + 1)))
    body.append(f"return (({_items(n, 'n')}), ({_items(n, f'k{last}')}), "
                f"({e5}), ({e3}), ({stages}))")
    return ["def step(rhs, t, h, y, f):", *(f"    {line}" for line in body)]


@functools.lru_cache(maxsize=None)
def _count_step(n: int):
    """_step_source's step(rhs, t, h, y, f) for any rhs of n floats, called
    at each stage on a float and a tuple; generated once per n."""
    def stage(s, rho, state):
        values = "".join(f"{x},\n" for x in state)
        return [f"({_items(n, f'k{s}')}) = rhs({rho}, ({values}))"]

    namespace = {}
    exec("\n".join(_step_source(n, stage)), namespace)
    return namespace["step"]


@functools.lru_cache(maxsize=None)
def _fused_rhs(args: str, state: tuple, body: tuple, rates: tuple):
    """make(args), generated on first use, for a right-hand side given as
    source: rhs(rho, y) unpacks y into state, runs body (args make's, math
    the module; no name of step's: t, h, y, f, rhs, name_i) and returns
    the rates.  rhs.step, _step_source's step with these lines at every
    stage in place of a call, does _count_step(n)'s float operations in
    its order, bit for bit, with no call, tuple or unpacking per stage."""
    def stage(s, rho, values):
        return [f"rho = {rho}", *map("{} = {}".format, state, values), *body,
                *(f"k{s}_{i} = {rate}" for i, rate in enumerate(rates))]

    lines = [f"def make({args}):", "    def rhs(rho, y):",
             f"        ({', '.join(state)},) = y",
             *(f"        {line}" for line in body),
             f"        return ({', '.join(rates)},)",
             *(f"    {line}" for line in _step_source(len(state), stage)),
             "    rhs.step = step", "    return rhs"]
    namespace = {"math": math}
    exec("\n".join(lines), namespace)
    return namespace["make"]


def _dense_steps(rhs, ts, ys, ks) -> _DenseSteps:
    """The DOP853 interpolant of a run of accepted steps from ts[i], ys[i]
    to ts[i + 1], ys[i + 1], ks[i] the 13 stages of step i, shape (steps,
    13, n): the 3 extra stages and the 7 rows of every step at once, each
    extra stage's states summed across the steps by numpy and rhs called
    on each as a float and a tuple of floats."""
    t_old, h, y_old = ts[:-1], np.diff(ts), ys[:-1]
    K = np.empty((h.size, DOP853.n_stages + 4, ys.shape[1]))
    K[:, :DOP853.n_stages + 1] = ks
    for s, a, c in _EXTRA:
        states = y_old + h[:, None] * (K[:, :s].transpose(0, 2, 1) @ a)
        K[:, s] = [rhs(rho, tuple(y)) for rho, y in zip(
            (t_old + c * h).tolist(), states.tolist())]
    delta = ys[1:] - y_old
    rows = np.empty((h.size, 7, ys.shape[1]))
    rows[:, 0] = delta
    rows[:, 1] = h[:, None] * K[:, 0] - delta
    rows[:, 2] = 2 * delta - h[:, None] * (K[:, DOP853.n_stages] + K[:, 0])
    rows[:, 3:] = h[:, None, None] * (DOP853.D @ K)
    return _DenseSteps(ts, t_old, h, y_old, rows)


def _integrate_to_end(rhs, span, state0, stop, what: str,
                      dense: bool = False):
    """(rho, state) where y' = rhs(rho, y) from state0 at span[0] ends: at
    span[1], or, given a stop, at the first accepted step, span[0]
    included, where stop(rho, state) holds.  The state is a tuple of n
    floats, as rhs and stop read it and rhs returns it.  The package's one
    DOP853 driver: scipy's first step and step control at RTOL, ATOL, each
    trial step rhs.step where rhs carries one (_fused_rhs) and
    _count_step(n) otherwise, on Python floats with no numpy.  With dense,
    for a run without a stop, it returns instead a _Dop853Result of the run:
    the accepted rho and states, the calls of rhs, and in sol the DOP853
    interpolant of every accepted step (_dense_steps; None when no step was
    taken).  A failed run, from a non-finite start or a step below ten
    spacings of rho, raises IntegrationError "{what} at rho = ...", at the
    last rho reached."""
    t, tf = float(span[0]), float(span[1])
    y = tuple(map(float, state0))
    if stop is not None and stop(t, y):
        return t, y
    f = tuple(rhs(t, y))
    if not all(map(math.isfinite, y + f)):
        raise IntegrationError(f"{what} at rho = {t}: non-finite start",
                               last_rho=t)
    n = len(y)
    step = getattr(rhs, "step", None) or _count_step(n)
    direction = 1.0 if tf >= t else -1.0
    h_abs = _initial_step(rhs, t, tf, y, f)
    nfev = 2
    # accepted steps of a dense run, packed, 8 bytes a float
    ts, ys, ks = array("d", [t]), array("d", y), array("d")
    while direction * (t - tf) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while not h_abs < min_step:     # scipy's test, NaN included
            t_new = t + h_abs * direction
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, e5, e3, stages = step(rhs, t, h, y, f)
            nfev += 12
            accepted, h_abs = _step_update(h_abs, e5, e3, n, rejected)
            if accepted:
                break
            rejected = True
        else:
            raise IntegrationError(
                f"{what} at rho = {t}: {DOP853.TOO_SMALL_STEP}", last_rho=t)
        if dense:
            ts.append(t_new)
            ys.extend(y_new)
            ks.extend(stages)
        t, y, f = t_new, y_new, f_new
        if stop is not None and stop(t, y):
            break
    if not dense:
        return t, y
    t_arr, y_arr = np.frombuffer(ts), np.frombuffer(ys).reshape(-1, n)
    sol = None
    if ks:
        sol = _dense_steps(rhs, t_arr, y_arr, np.frombuffer(ks).reshape(
            -1, DOP853.n_stages + 1, n))
    return _Dop853Result(t=t_arr, y=y_arr.T, nfev=nfev + 3 * (len(ts) - 1),
                         sol=sol)


def integrate_profile(alpha: float, params: ProblemParams, rho_end: float):
    """Integrate the profile ODE once from series_start's rho0 to rho_end;
    returns the dense run of _integrate_to_end (rho0 is its t[0])."""
    r0, *y0 = series_start(alpha, params)
    require_positive("rho_end - rho0", rho_end - r0)
    what = f"profile integration failed at alpha={alpha}"
    sol = _integrate_to_end(_rhs(params), (r0, rho_end), y0, None, what,
                            dense=True)
    if not np.isfinite(sol.y).all():
        raise IntegrationError(f"{what} at rho = {sol.t[-1]}: non-finite "
                               "state", last_rho=float(sol.t[-1]))
    return sol


def profile_on_nodes(alpha: float, params: ProblemParams,
                     nodes: np.ndarray) -> np.ndarray:
    """Profile values U_alpha at arbitrary nodes in (0, rho_max]."""
    return integrate_profile(alpha, params, float(np.max(nodes))).sol(nodes)[0]


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
    return sample_profile(integrate_profile(alpha, params, grid.rho_max),
                          alpha, params, grid)


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


def fit_log_slope(x, y):
    """Least-squares slope of y against x with the coefficient of
    determination, in closed form from the centred data dx = x - mean(x),
    dy = y - mean(y): slope = sum(dx dy) / sum(dx^2) and
    r2 = 1 - sum((dy - slope dx)^2) / sum(dy^2), 1.0 when sum(dy^2) = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx, dy = x - np.mean(x), y - np.mean(y)
    slope = float(np.dot(dx, dy) / np.dot(dx, dx))
    ss_tot = float(np.dot(dy, dy))
    res = dy - slope * dx
    r2 = 1.0 - float(np.dot(res, res)) / ss_tot if ss_tot > 0 else 1.0
    return slope, r2


def fit_tail_exponent(profile: ExpanderProfile) -> float:
    """Log-log slope of |U| over the last decade of rho."""
    nodes = profile.grid.nodes
    mask = nodes >= profile.grid.rho_max / 10.0
    return fit_log_slope(np.log(nodes[mask]),
                         np.log(np.abs(profile.u[mask])))[0]


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


# the trial steps of the profile (2 components) and the counts (3), built
# at import, before every workload's own allocations: on first use they
# raised crossval's median peak RSS by 0.13 MiB, and building the 4-float
# one, which the fused matching legs no longer use, by 0.09 MiB
for _n in (2, 3):
    _count_step(_n)
