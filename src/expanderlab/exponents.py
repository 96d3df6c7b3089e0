"""Critical exponents of the focusing nonlinear heat equation and the
elementary inequalities used by the non-uniqueness pipeline.

All quantities are derived from the dimension d >= 3 and the power p > 1:

    q_c      = d (p - 1) / 2          scaling-critical Lebesgue exponent
    p_fujita = 1 + 2 / d
    p_c      = 1 + 4 / (d - 2)        energy-critical power
    p_jl     = 1 + 4 / (d - 4 - 2 sqrt(d - 1))   for d >= 11, else infinite

The instability mechanism exists only for p_fujita < p < p_jl, which is why
the regime classification below is branch-exact: finiteness of p_jl is keyed
on the integer dimension (d <= 10 means infinite), never on a float compare
against a sentinel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import DomainError, NoUnstableExpanderError


class Regime(enum.Enum):
    """Mutually exclusive classification of (d, p) for p above Fujita."""

    BELOW_FUJITA = "below-fujita"
    SUBCRITICAL = "subcritical"
    SUPERCRITICAL = "supercritical"
    BEYOND_JL = "beyond-jl"


@dataclass(frozen=True)
class ProblemParams:
    """Dimension, power, and every derived critical exponent."""

    d: int
    p: float
    q_c: float
    p_fujita: float
    p_c: float
    p_jl: float           # math.inf when jl_finite is False
    jl_finite: bool
    regime: Regime

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "p": self.p,
            "q_c": self.q_c,
            "p_fujita": self.p_fujita,
            "p_c": self.p_c,
            "p_jl": self.p_jl if self.jl_finite else None,
            "p_jl_finite": self.jl_finite,
            "regime": self.regime.value,
        }

    def growth_exponent(self, gamma: float) -> float:
        """1/(p-1) - d/(2 gamma), the growth rate of the free flow in L^gamma;
        at gamma = 1 the top of the free spectrum."""
        return 1.0 / (self.p - 1.0) - self.d / (2.0 * gamma)

    def require_unstable_regime(self) -> None:
        """Raise NoUnstableExpanderError unless p_fujita < p < p_jl, the only
        powers with a linearly unstable radial expander."""
        if self.regime in (Regime.BELOW_FUJITA, Regime.BEYOND_JL):
            raise NoUnstableExpanderError(
                f"p={self.p} is in the {self.regime.value} regime (Fujita "
                f"power {self.p_fujita}, p_jl={self.p_jl}): no unstable "
                "radial expander exists")


@dataclass(frozen=True)
class FeasibilityCheck:
    """Outcome of the eigenvalue-smallness condition for exponents (q, r)."""

    lambda_bar: float
    q: float
    r: float
    limit: float          # 1/(p-1) - d/(2r)
    slack: float          # limit - lambda_bar
    satisfied: bool

    def as_dict(self) -> dict:
        return asdict(self)


def joseph_lundgren(d: int) -> float:
    """Power threshold above which no radial profile is linearly unstable."""
    if d <= 10:
        return math.inf
    return 1.0 + 4.0 / (d - 4.0 - 2.0 * math.sqrt(d - 1.0))


def derived_exponents(d: int, p: float) -> ProblemParams:
    """Populate all critical exponents for dimension d and power p.

    Raises DomainError for d < 3 or p <= 1.
    """
    if int(d) != d or d < 3:
        raise DomainError(f"dimension must be an integer >= 3, got {d}")
    d = int(d)
    if not p > 1.0:
        raise DomainError(f"power must satisfy p > 1, got {p}")

    q_c = d * (p - 1.0) / 2.0
    p_fujita = 1.0 + 2.0 / d
    p_c = 1.0 + 4.0 / (d - 2.0)
    jl_finite = d >= 11
    p_jl = joseph_lundgren(d)

    if p <= p_fujita:
        regime = Regime.BELOW_FUJITA
    elif p < p_c:
        regime = Regime.SUBCRITICAL
    elif (not jl_finite) or p < p_jl:
        regime = Regime.SUPERCRITICAL
    else:
        regime = Regime.BEYOND_JL

    return ProblemParams(
        d=d, p=p, q_c=q_c, p_fujita=p_fujita, p_c=p_c,
        p_jl=p_jl, jl_finite=jl_finite, regime=regime,
    )


def check_feasibility(params: ProblemParams, lambda_bar: float,
                      q: float, r: float) -> FeasibilityCheck:
    """Decide whether lambda_bar is small enough for the (q, r) pair.

    The condition is 0 < lambda_bar < 1/(p-1) - d/(2r) together with the
    ordering 1 <= q < q_c < r; the ordering itself is a precondition and
    violations raise DomainError.
    """
    if not (1.0 <= q < params.q_c):
        raise DomainError(
            f"need 1 <= q < q_c, got q={q} with q_c={params.q_c}")
    if not (r > params.q_c):
        raise DomainError(f"need r > q_c, got r={r} with q_c={params.q_c}")

    limit = params.growth_exponent(r)
    slack = limit - lambda_bar
    satisfied = 0.0 < lambda_bar < limit
    return FeasibilityCheck(lambda_bar=lambda_bar, q=q, r=r, limit=limit,
                            slack=slack, satisfied=satisfied)


def odd_power(v, p):
    """sign(v) |v|^p, the odd power used throughout for real exponents,
    taken as v |v|^(p-1): numpy squares at p = 3, copies at p = 2 and
    takes a sqrt at p = 1.5; the others go through one pow."""
    return v * np.abs(v) ** (p - 1.0)


def taylor_remainder_gap(x, y, p):
    """First-order Taylor remainder of v -> |v|^(p-1) v and its bound.

    Returns (lhs, rhs) with lhs <= rhs guaranteed:
      lhs = | |x+y|^(p-1)(x+y) - |x|^(p-1)x - p|x|^(p-1)y |
      rhs = p|y|^p                                           if p <= 2
            (p(p-1)/2)(1 v 2^(p-3)) (|x|^(p-2)y^2 + |y|^p)   if p >  2

    Accepts scalars or arrays (broadcast).
    """
    if np.any(np.asarray(p) <= 1.0):
        raise DomainError("remainder bounds require p > 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    lhs = np.abs(odd_power(x + y, p) - odd_power(x, p)
                 - p * np.abs(x) ** (p - 1.0) * y)
    small = p <= 2.0
    rhs_small = p * np.abs(y) ** p
    with np.errstate(invalid="ignore", divide="ignore"):
        # |x|^(p-2) only enters for p > 2 where the exponent is positive
        rhs_big = (p * (p - 1.0) / 2.0) * np.maximum(1.0, 2.0 ** (p - 3.0)) * (
            np.abs(x) ** (p - 2.0) * y ** 2 + np.abs(y) ** p)
    rhs = np.where(small, rhs_small, rhs_big)
    if lhs.ndim == 0:
        return float(lhs), float(rhs)
    return lhs, rhs


def contraction_remainder_gap(x, y, z, p):
    """Difference remainder of v -> |v|^(p-1) v and its two-case bound.

    Returns (lhs, rhs) with lhs <= rhs guaranteed:
      lhs = | |x+y|^(p-1)(x+y) - |x+z|^(p-1)(x+z) - p|x|^(p-1)(y-z) |
      rhs = p (|y|^(p-1) + |z|^(p-1)) |y-z|                          if p <= 2
            p(p-1)(1 v 3^(p-3)) (|y|+|z|)
                 (|x|^(p-2) + |y|^(p-2) + |z|^(p-2)) |y-z|           if p >  2
    """
    if np.any(np.asarray(p) <= 1.0):
        raise DomainError("remainder bounds require p > 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    p = np.asarray(p, dtype=float)
    lhs = np.abs(odd_power(x + y, p) - odd_power(x + z, p)
                 - p * np.abs(x) ** (p - 1.0) * (y - z))
    small = p <= 2.0
    rhs_small = p * (np.abs(y) ** (p - 1.0) + np.abs(z) ** (p - 1.0)) * np.abs(y - z)
    with np.errstate(invalid="ignore", divide="ignore"):
        rhs_big = (p * (p - 1.0) * np.maximum(1.0, 3.0 ** (p - 3.0))
                   * (np.abs(y) + np.abs(z))
                   * (np.abs(x) ** (p - 2.0) + np.abs(y) ** (p - 2.0)
                      + np.abs(z) ** (p - 2.0))
                   * np.abs(y - z))
    rhs = np.where(small, rhs_small, rhs_big)
    if lhs.ndim == 0:
        return float(lhs), float(rhs)
    return lhs, rhs
