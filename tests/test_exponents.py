import math
from decimal import Decimal, getcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expanderlab.exceptions import DomainError
from expanderlab.exponents import (
    FeasibilityCheck,
    Regime,
    check_feasibility,
    contraction_remainder_gap,
    derived_exponents,
    odd_power,
    taylor_remainder_gap,
)


def p_jl_decimal(d: int) -> float:
    """High-precision oracle for the instability power threshold."""
    getcontext().prec = 50
    val = 1 + 4 / (Decimal(d) - 4 - 2 * (Decimal(d) - 1).sqrt())
    return float(val)


class TestDerivedExponents:
    def test_d5_p3(self):
        pp = derived_exponents(5, 3.0)
        assert pp.q_c == 5.0
        assert pp.p_c == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert not pp.jl_finite and math.isinf(pp.p_jl)
        assert pp.regime is Regime.SUPERCRITICAL

    def test_d11_p7(self):
        pp = derived_exponents(11, 7.0)
        assert pp.jl_finite
        assert pp.p_jl == pytest.approx(p_jl_decimal(11), rel=1e-14)
        assert abs(pp.p_jl - 6.92207) < 1e-4
        assert pp.regime is Regime.BEYOND_JL

    def test_d3_p5_energy_critical_boundary(self):
        pp = derived_exponents(3, 5.0)
        assert pp.p_c == 5.0
        assert pp.q_c == 6.0
        # boundary power sits on the supercritical side of the split
        assert pp.regime is Regime.SUPERCRITICAL

    def test_d4_p2_subcritical(self):
        pp = derived_exponents(4, 2.0)
        assert pp.p_fujita == 1.5
        assert pp.p_c == 3.0
        assert pp.p_fujita < pp.p < pp.p_c
        assert pp.regime is Regime.SUBCRITICAL

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            derived_exponents(2, 3.0)
        with pytest.raises(DomainError):
            derived_exponents(5, 1.0)
        with pytest.raises(DomainError):
            derived_exponents(5, 0.5)

    def test_jl_infinite_up_to_ten(self):
        for d in range(3, 11):
            pp = derived_exponents(d, 2.0)
            assert not pp.jl_finite
            assert math.isinf(pp.p_jl)

    def test_jl_finite_decreasing_above_eleven(self):
        vals = [derived_exponents(d, 2.0).p_jl for d in range(11, 21)]
        assert all(math.isfinite(v) for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        for d, v in zip(range(11, 21), vals):
            assert v == pytest.approx(p_jl_decimal(d), rel=1e-13)

    def test_ordering_invariant_when_finite(self):
        for d in range(11, 30):
            pp = derived_exponents(d, 2.0)
            assert pp.p_fujita < pp.p_c < pp.p_jl

    def test_qc_strictly_increasing(self):
        ds = [3, 4, 5, 8, 11, 15]
        ps = [1.2, 1.5, 2.0, 3.0, 5.0]
        for p in ps:
            qs = [derived_exponents(d, p).q_c for d in ds]
            assert all(a < b for a, b in zip(qs, qs[1:]))
        for d in ds:
            qs = [derived_exponents(d, p).q_c for p in ps]
            assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_doubly_critical_curve(self):
        # q_c = p exactly when d(p-1)/2 = p, i.e. p = d/(d-2)
        for d in [3, 4, 5, 10]:
            p = d / (d - 2.0)
            pp = derived_exponents(d, p)
            assert pp.q_c == pytest.approx(p, rel=1e-12)

    def test_regimes_exhaustive_and_exclusive(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(3, 25))
            p = float(1.0 + rng.uniform(0.01, 12.0))
            pp = derived_exponents(d, p)
            if p <= pp.p_fujita:
                assert pp.regime is Regime.BELOW_FUJITA
            else:
                flags = [pp.regime is Regime.SUBCRITICAL,
                         pp.regime is Regime.SUPERCRITICAL,
                         pp.regime is Regime.BEYOND_JL]
                assert sum(flags) == 1


class TestFeasibility:
    def test_example_d5_p3(self):
        pp = derived_exponents(5, 3.0)
        fc = check_feasibility(pp, lambda_bar=0.05, q=2.0, r=10.0)
        assert isinstance(fc, FeasibilityCheck)
        assert fc.satisfied
        assert fc.slack == pytest.approx(0.5 - 0.25 - 0.05, abs=1e-15)

    def test_zero_lambda_not_satisfied(self):
        pp = derived_exponents(5, 3.0)
        fc = check_feasibility(pp, lambda_bar=0.0, q=2.0, r=10.0)
        assert not fc.satisfied

    def test_boundary_lambda_not_satisfied(self):
        pp = derived_exponents(5, 3.0)
        limit = 1.0 / (pp.p - 1.0) - pp.d / (2.0 * 10.0)
        fc = check_feasibility(pp, lambda_bar=limit, q=2.0, r=10.0)
        assert not fc.satisfied
        assert fc.slack == pytest.approx(0.0, abs=1e-15)

    def test_ordering_violations_raise(self):
        pp = derived_exponents(5, 3.0)
        with pytest.raises(DomainError):
            check_feasibility(pp, 0.05, q=5.0, r=10.0)   # q == q_c
        with pytest.raises(DomainError):
            check_feasibility(pp, 0.05, q=2.0, r=5.0)    # r == q_c
        with pytest.raises(DomainError):
            check_feasibility(pp, 0.05, q=0.5, r=10.0)   # q < 1

    def test_monotone_in_lambda_and_r(self):
        pp = derived_exponents(5, 3.0)
        rng = np.random.default_rng(11)
        for _ in range(300):
            lam = float(rng.uniform(1e-6, 0.4))
            r = float(rng.uniform(5.5, 40.0))
            base = check_feasibility(pp, lam, q=2.0, r=r)
            if base.satisfied:
                smaller = float(rng.uniform(0.5, 1.0)) * lam
                assert check_feasibility(pp, smaller, q=2.0, r=r).satisfied
                assert check_feasibility(pp, lam, q=2.0, r=r * 2.0).satisfied


class TestRemainderBounds:
    def test_taylor_example_p2(self):
        lhs, rhs = taylor_remainder_gap(1.0, 1.0, 2.0)
        assert lhs == pytest.approx(1.0, abs=1e-14)
        assert rhs == pytest.approx(2.0, abs=1e-14)

    def test_taylor_zero_perturbation(self):
        for p in [1.5, 2.0, 3.7]:
            lhs, rhs = taylor_remainder_gap(0.83, 0.0, p)
            assert lhs == 0.0
            assert rhs == 0.0

    def test_contraction_identical_args(self):
        lhs, _ = contraction_remainder_gap(0.3, 0.9, 0.9, 2.5)
        assert lhs == pytest.approx(0.0, abs=1e-14)

    def test_contraction_example(self):
        lhs, rhs = contraction_remainder_gap(0.0, 1.0, -1.0, 2.0)
        assert lhs == pytest.approx(2.0, abs=1e-14)
        assert rhs == pytest.approx(8.0, abs=1e-14)

    def test_taylor_randomized(self):
        rng = np.random.default_rng(2024)
        n = 100_000
        x = rng.uniform(-10.0, 10.0, n)
        y = rng.uniform(-10.0, 10.0, n)
        p = rng.uniform(1.0 + 1e-6, 6.0, n)
        lhs, rhs = taylor_remainder_gap(x, y, p)
        slack = rhs - lhs
        assert slack.min() >= -1e-9 * np.maximum(1.0, rhs).min() or np.all(
            lhs <= rhs * (1 + 1e-12) + 1e-12)

    def test_contraction_randomized(self):
        rng = np.random.default_rng(2025)
        n = 100_000
        x = rng.uniform(-10.0, 10.0, n)
        y = rng.uniform(-10.0, 10.0, n)
        z = rng.uniform(-10.0, 10.0, n)
        p = rng.uniform(1.0 + 1e-6, 6.0, n)
        lhs, rhs = contraction_remainder_gap(x, y, z, p)
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)


class TestOddPower:
    # v |v|^(p-1): a square at p = 3, a copy at p = 2, a sqrt at p = 1.5,
    # one pow otherwise; an array p is how taylor_remainder_gap calls it
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(p=st.sampled_from([1.5, 2.0, 2.5, 3.0, 5.0, None]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_odd_fixes_zeros_and_nan_within_2_ulp(self, p, seed):
        rng = np.random.default_rng(seed)
        if p is None:
            p = rng.uniform(1.0 + 1e-6, 6.0, 67)
        # |v| in 2^-150..2^150, so that every |v|^p at p < 6 is normal
        v = np.ldexp(rng.standard_normal(64), rng.integers(-150, 150, 64))
        v = np.concatenate([v, [0.0, -0.0, math.nan]])
        got = odd_power(v, p)
        # bit for bit, the signed zeros included (a NaN's sign is free)
        assert np.array_equal(odd_power(-v, p)[:66].view(np.uint64),
                              (-got[:66]).view(np.uint64))
        assert np.array_equal(got[64:66].view(np.uint64),
                              v[64:66].view(np.uint64))
        assert math.isnan(got[66])
        with mpmath.workdps(30):
            for vi, pi, gi in zip(v[:64], np.broadcast_to(p, v.shape), got):
                x = mpmath.mpf(float(vi))
                want = float(mpmath.sign(x) * abs(x) ** mpmath.mpf(float(pi)))
                assert abs(gi - want) <= 2.0 * math.ulp(want)
