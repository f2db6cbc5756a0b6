"""Mittag-Leffler kernel tests.

Frozen high-precision values were produced with an mpmath oracle (40-2000
digits) evaluating the defining power series in extended precision and,
independently, the spectral Laplace-transform representation; both routes
agree to >= 20 digits on every frozen point.  The hardest value,
E_0.55(-100), was additionally confirmed by brute-force summation of 21634
series terms at 2000 digits.  The points at alpha = 0.999 and 0.99999 lie in
the spectral band next to the kernel's sharp peak; they come from the series
at 60 digits, confirmed at 90, with alpha taken as the double it rounds to
(at 1 - alpha = 1e-5 the decimal alpha moves E by ~5e-12 relative).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from zlab.errors import ContractError
from zlab.special import (MlParams, l2_norm_f_squared, ml_cdf, ml_cdf_grid,
                          ml_density, ml_neg)

# (alpha, x, E_alpha(-x)) from the extended-precision oracle
ML_NEG_ORACLE = [
    (0.55, 2.0, 0.2457108013854200890199),
    (0.55, 12.0, 0.04283506729085031663344),
    (0.55, 100.0, 0.0050900491312184919516),
    (0.75, 7.0, 0.04580712045223096816328),
    (0.75, 40.0, 0.007075674755826427833626),
    (0.9, 15.0, 0.007928602432344447056984),
    (0.999, 12.0, 1.089497871981649165782259e-4),
    (0.999, 20.0, 5.597906803527708741006869e-5),
    (0.99999, 12.0, 7.172187930319341071631967e-6),
    (0.99999, 20.0, 5.616211240337638394428698e-7),
]


class TestMlNeg:
    def test_alpha_one_is_exp(self):
        xs = np.linspace(0.0, 50.0, 500)
        errs = [abs(ml_neg(1.0, float(x)) - math.exp(-x)) for x in xs]
        assert max(errs) < 1e-10

    def test_trivial_points(self):
        assert ml_neg(1.0, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-14)
        assert ml_neg(0.55, 0.0) == 1.0

    @pytest.mark.parametrize("alpha,x,expected", ML_NEG_ORACLE)
    def test_oracle_values(self, alpha, x, expected):
        assert ml_neg(alpha, x) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_alpha_half_matches_erfcx(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x); crosses all three evaluation regimes
        for x in np.linspace(0.01, 25.0, 60):
            assert ml_neg(0.5, float(x)) == pytest.approx(
                float(erfcx(x)), rel=1e-10, abs=1e-12)

    def test_domain_errors(self):
        for bad_alpha in (0.0, -0.3, 1.2):
            with pytest.raises(ContractError):
                ml_neg(bad_alpha, 1.0)
        with pytest.raises(ContractError):
            ml_neg(0.7, -0.5)

    def test_bounds(self):
        for alpha in (0.51, 0.75, 0.99):
            for x in np.geomspace(1e-6, 1e5, 40):
                val = ml_neg(alpha, float(x))
                assert 0.0 < val <= 1.0


class TestMlDensity:
    def test_alpha_one_exponential(self):
        p = MlParams(1.0, 0.3)
        assert ml_density(p, 1.0) == pytest.approx(0.3 * math.exp(-0.3), rel=1e-14)

    def test_oracle_value(self):
        assert ml_density(MlParams(0.55, 0.3), 2.0) == pytest.approx(
            0.06867923056583605382172, rel=1e-9)

    def test_origin_singularity_normalisation(self):
        # f(x) * Gamma(alpha) * x^(1-alpha) / lam -> 1 as x -> 0+, approached
        # at the next-series-term rate z * Gamma(a)/Gamma(2a), z = lam x^a
        p = MlParams(0.55, 0.3)
        for x in (1e-6, 1e-9, 1e-12):
            scaled = ml_density(p, x) * math.gamma(0.55) * x**0.45 / 0.3
            band = 2.0 * 0.3 * x**0.55 * math.gamma(0.55) / math.gamma(1.1)
            assert scaled == pytest.approx(1.0, abs=band)
            assert scaled < 1.0

    def test_domain_error(self):
        with pytest.raises(ContractError):
            ml_density(MlParams(0.55, 0.3), 0.0)
        with pytest.raises(ContractError):
            ml_density(MlParams(0.55, 0.3), -1.0)

    def test_scaling_identity(self):
        # f(x; a, lam) = lam^(1/a) f(lam^(1/a) x; a, 1)
        for alpha, lam in ((0.55, 0.3), (0.75, 1.7), (0.9, 0.05)):
            p = MlParams(alpha, lam)
            std = MlParams(alpha, 1.0)
            scale = lam ** (1.0 / alpha)
            for x in np.geomspace(1e-3, 50.0, 25):
                lhs = ml_density(p, float(x))
                rhs = scale * ml_density(std, float(scale * x))
                assert lhs == pytest.approx(rhs, rel=1e-9)


class TestMlCdf:
    def test_alpha_one_closed_form(self):
        p = MlParams(1.0, 0.3)
        for x in np.linspace(0.0, 30.0, 200):
            assert ml_cdf(p, float(x)) == pytest.approx(
                -math.expm1(-0.3 * x), abs=1e-10)
        assert ml_cdf(p, 1.0) == pytest.approx(1.0 - math.exp(-0.3), rel=1e-12)

    def test_zero(self):
        for alpha, lam in ((0.55, 0.3), (0.8, 2.0), (1.0, 1.0)):
            assert ml_cdf(MlParams(alpha, lam), 0.0) == 0.0

    def test_small_x_power_law(self):
        # F(x) ~ lam x^alpha / Gamma(alpha + 1); the relative deviation is the
        # next series term z Gamma(a+1)/Gamma(2a+1) (z = lam x^a), which is
        # 2.0% at x = 0.01 and inside 1% once x <= 0.0028
        p = MlParams(0.55, 0.3)

        def leading(x):
            return 0.3 * x**0.55 / math.gamma(1.55)

        assert ml_cdf(p, 0.002) == pytest.approx(leading(0.002), rel=0.01)
        assert ml_cdf(p, 0.01) == pytest.approx(leading(0.01), rel=0.025)
        z = 0.3 * 0.01**0.55
        expected_dev = z * math.gamma(1.55) / math.gamma(2.1)
        actual_dev = 1.0 - ml_cdf(p, 0.01) / leading(0.01)
        assert actual_dev == pytest.approx(expected_dev, rel=0.05)

    def test_limit_at_infinity(self):
        assert ml_cdf(MlParams(0.55, 0.3), 1e6) > 0.99

    def test_domain_error(self):
        with pytest.raises(ContractError):
            ml_cdf(MlParams(0.55, 0.3), -0.1)

    @given(
        x1=st.floats(min_value=1e-6, max_value=1e4),
        x2=st.floats(min_value=1e-6, max_value=1e4),
        alpha=st.floats(min_value=0.505, max_value=1.0),
        lam=st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_strictly_monotone(self, x1, x2, alpha, lam):
        if x1 == x2:
            return
        lo, hi = sorted((x1, x2))
        p = MlParams(alpha, lam)
        f_lo, f_hi = ml_cdf(p, lo), ml_cdf(p, hi)
        assert f_lo <= f_hi
        if f_hi < 1.0 - 1e-9:  # strictness is resolvable below saturation
            assert f_lo < f_hi

    def test_finite_difference_matches_density(self):
        # central differences of F against f, relative 1e-5 on a log grid
        p = MlParams(0.55, 0.3)
        for x in np.geomspace(1e-3, 10.0, 30):
            h = 5e-4 * x
            deriv = (ml_cdf(p, x + h) - ml_cdf(p, x - h)) / (2.0 * h)
            assert deriv == pytest.approx(ml_density(p, float(x)), rel=1e-5)

    def test_grid_matches_scalar(self):
        p = MlParams(0.55, 0.3)
        xs = np.concatenate([[0.0], np.geomspace(1e-8, 1e5, 200)])
        grid = ml_cdf_grid(p, xs)
        scalars = np.array([ml_cdf(p, float(x)) for x in xs])
        np.testing.assert_allclose(grid, scalars, rtol=5e-11, atol=1e-13)


class TestL2Norm:
    def test_alpha_one_closed_form(self):
        assert l2_norm_f_squared(MlParams(1.0, 0.3)) == pytest.approx(0.15, rel=1e-12)
        assert l2_norm_f_squared(MlParams(1.0, 1.0)) == pytest.approx(0.5, rel=1e-12)

    def test_oracle_values(self):
        # split-interval high-precision quadrature oracle (substituted origin,
        # adaptive mid section, three-term algebraic tail)
        assert l2_norm_f_squared(MlParams(0.55, 0.3)) == pytest.approx(
            0.3217649634027315866907, rel=5e-8)
        assert l2_norm_f_squared(MlParams(0.75, 1.0)) == pytest.approx(
            0.6377234979682668143349, rel=5e-8)

    def test_alpha_guard(self):
        with pytest.raises(ContractError):
            MlParams(0.5, 0.3)  # boundary alpha excluded: integral diverges


class TestMlParams:
    def test_validation(self):
        with pytest.raises(ContractError):
            MlParams(1.1, 0.3)
        with pytest.raises(ContractError):
            MlParams(0.75, 0.0)
        with pytest.raises(ContractError):
            MlParams(0.75, -2.0)
