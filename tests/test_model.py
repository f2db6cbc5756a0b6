"""Analytic-model tests.

The alpha = 1 (H = 1/2) oracles below are hand-derived closed forms with the
exponential kernel F(x) = 1 - exp(-lam x), f(x) = lam exp(-lam x):

    Z(k)        = 2 (rho nu / lam)^2 v e^{-lam (k-1) d} (1 - e^{-lam d})
                  * [ (1 - e^{-lam d})/lam - d e^{-lam d} ]
    Var[s2](t)  = (nu/lam)^2 v [ (1-e^{-lam d})^2 (1 - e^{-2 lam (t-d)})/(2 lam)
                  + d - 2(1-e^{-lam d})/lam + (1-e^{-2 lam d})/(2 lam) ]

(stationary variance drops the (1 - e^{-2 lam (t-d)}) factor).  Rough-alpha
lag profiles g_alpha(k) are frozen from a 40-digit quadrature oracle
cross-checked by two independent splittings.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from zlab.errors import ContractError
from zlab.model import (TRADING_DAY, ForwardVarianceCurve, ModelParams,
                        ZumbachCurve, _f_conv_curve, fourth_moment_r, g0, g_alpha,
                        stationary_fourth_moment_r, stationary_var_sigma2,
                        var_sigma2, zumbach_asymptotic, zumbach_correl,
                        zumbach_correl_small_delta, zumbach_cov, zumbach_curve)
from zlab.special import MlParams, l2_norm_f_squared, ml_cdf, ml_cdf_grid, ml_series_grid

D = TRADING_DAY
SEC4 = ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=-0.7)
CLASSICAL = ModelParams(hurst=0.5, lam=0.3, nu=0.45, rho=-0.7)
FLAT = ForwardVarianceCurve.flat(0.025)

G_ALPHA_ORACLE = {
    (0.55, 1): 0.5203569225840380,
    (0.55, 2): 0.3419651999462469,
    (0.55, 5): 0.2202795523680629,
    (0.55, 10): 0.1602111750532927,
    (0.55, 20): 0.1169507699907381,
    (0.75, 1): 0.5501757536309197,
    (0.75, 2): 0.4372144167626884,
    (0.75, 5): 0.3419868022137338,
    (0.75, 10): 0.2863682287477063,
    (0.75, 20): 0.2403495534539648,
}


def closed_form_z_alpha1(params, level, k, delta):
    lam, nu, rho = params.lam, params.nu, params.rho
    e_d = math.exp(-lam * delta)
    return (2.0 * (rho * nu / lam) ** 2 * level * math.exp(-lam * (k - 1) * delta)
            * (1.0 - e_d) * ((1.0 - e_d) / lam - delta * e_d))


def closed_form_var_alpha1(params, level, t, delta, stationary=False):
    lam, nu = params.lam, params.nu
    e_d = math.exp(-lam * delta)
    head = (1.0 - e_d) ** 2 / (2.0 * lam)
    if not stationary:
        head *= 1.0 - math.exp(-2.0 * lam * (t - delta))
    edge = delta - 2.0 * (1.0 - e_d) / lam + (1.0 - math.exp(-2.0 * lam * delta)) / (2.0 * lam)
    return (nu / lam) ** 2 * level * (head + edge)


class TestTypes:
    def test_model_params_validation(self):
        with pytest.raises(ContractError):
            ModelParams(hurst=0.0, lam=0.3, nu=0.45, rho=-0.7)
        with pytest.raises(ContractError):
            ModelParams(hurst=0.6, lam=0.3, nu=0.45, rho=-0.7)
        with pytest.raises(ContractError):
            ModelParams(hurst=0.1, lam=0.0, nu=0.45, rho=-0.7)
        with pytest.raises(ContractError):
            ModelParams(hurst=0.1, lam=0.3, nu=0.45, rho=-1.5)
        assert ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=-0.7).alpha == 0.55

    def test_curve_validation(self):
        with pytest.raises(ContractError):
            ForwardVarianceCurve.flat(0.0)
        with pytest.raises(ContractError):
            ForwardVarianceCurve.piecewise_linear([0.0, 1.0], [0.02, -0.01])
        with pytest.raises(ContractError):
            ForwardVarianceCurve.piecewise_linear([1.0, 0.5], [0.02, 0.03])

    def test_curve_evaluation(self):
        pl = ForwardVarianceCurve.piecewise_linear([0.0, 1.0, 2.0], [0.02, 0.04, 0.03])
        assert pl(0.5) == pytest.approx(0.03)
        assert pl(1.5) == pytest.approx(0.035)
        assert pl(10.0) == pytest.approx(0.03)  # constant extrapolation
        with pytest.raises(ContractError):
            pl(-0.1)
        assert pl.integral(0.0, 2.0) == pytest.approx(0.02 / 2 + 0.04 + 0.03 / 2 + 0.035 - 0.035)
        assert pl.integral(0.0, 2.0) == pytest.approx(0.03 + 0.035)

    def test_piecewise_integral_without_np_trapezoid(self, monkeypatch):
        # numpy < 2 has no np.trapezoid; the documented floor is numpy 1.24
        monkeypatch.delattr(np, "trapezoid", raising=False)
        pl = ForwardVarianceCurve.piecewise_linear([0.0, 1.0, 2.0], [0.02, 0.04, 0.03])
        # knots inside [0.5, 1.5] and flat extrapolation beyond t = 2
        assert pl.integral(0.5, 1.5) == pytest.approx(
            0.5 * (0.03 + 0.04) / 2 + 0.5 * (0.04 + 0.035) / 2, rel=1e-14)
        assert pl.integral(1.5, 3.0) == pytest.approx(
            0.5 * (0.035 + 0.03) / 2 + 1.0 * 0.03, rel=1e-14)

    def test_zumbach_curve_invariants(self):
        with pytest.raises(ContractError):
            ZumbachCurve(delta=D, t=0.0, lags=np.array([1]), values=np.array([1.0]))
        with pytest.raises(ContractError):
            ZumbachCurve(delta=D, t=1.0, lags=np.array([0]), values=np.array([1.0]))


class TestG0:
    def test_flat_at_zero(self):
        assert g0(SEC4, FLAT, 0.0) == pytest.approx(0.025, abs=0.0)

    def test_alpha1_closed_form(self):
        assert g0(CLASSICAL, FLAT, 2.0) == pytest.approx(0.025 * 1.6, rel=1e-12, abs=0.0)

    def test_flat_formula_sec4(self):
        expected = 0.025 * (1.0 + 0.3 / math.gamma(1.55))
        assert g0(SEC4, FLAT, 1.0) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_quadrature_cross_check(self):
        # flat fast path against the defining fractional integral, by a
        # midpoint-rule oracle on the substituted integrand
        alpha, lam = SEC4.alpha, SEC4.lam
        t = 1.7
        ys = np.linspace(0.0, t**alpha, 200001)
        mids = 0.5 * (ys[1:] + ys[:-1])
        frac = 0.025 * np.diff(ys).sum() / alpha  # flat curve: integrand constant
        assert frac == pytest.approx(0.025 * t**alpha / alpha)
        oracle = 0.025 + lam / math.gamma(alpha) * frac
        assert g0(SEC4, FLAT, t) == pytest.approx(oracle, rel=1e-10, abs=0.0)

    def test_piecewise_matches_midpoint_oracle(self):
        pl = ForwardVarianceCurve.piecewise_linear([0.0, 0.5, 2.0], [0.02, 0.05, 0.03])
        alpha, lam = SEC4.alpha, SEC4.lam
        t = 1.3
        ys = np.linspace(0.0, t**alpha, 400001)
        mids = 0.5 * (ys[1:] + ys[:-1])
        vals = pl(t - mids ** (1.0 / alpha))
        oracle = pl(t) + lam / math.gamma(alpha) * float(np.sum(vals * np.diff(ys))) / alpha
        assert g0(SEC4, pl, t) == pytest.approx(oracle, rel=1e-7, abs=0.0)

    def test_dominates_curve(self):
        for t in (0.1, 0.5, 2.0):
            assert g0(SEC4, FLAT, t) >= FLAT(t)


class TestKernelRule:
    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5])
    def test_flat_curve_is_level_times_cdf(self, hurst):
        # the closed form xi0 * F(upper) that a flat curve reduces to; t_arg = upper
        # puts the curve argument down to time 0
        p = ModelParams(hurst=hurst, lam=0.3, nu=0.45, rho=-0.7)
        upper = np.array([0.0, 1e-9, D / 7, D / 2, D, 0.1])
        got = _f_conv_curve(p, FLAT, upper, upper)
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], 0.025 * ml_cdf_grid(p.ml(), upper[1:]),
                                   rtol=1e-15, atol=0.0)

    def test_batch_equals_one_element_calls(self):
        # in a batch, knots outside an element's range become zero-width
        # segments of that element, which must add nothing
        pl = ForwardVarianceCurve.piecewise_linear([0.0, 1 - D / 2, 1 - D / 5, 1.5],
                                                   [0.03, 0.02, 0.04, 0.025])
        upper = np.linspace(0.0, D, 13)
        t_arg = 1.0 - D + upper
        one = [_f_conv_curve(SEC4, pl, upper[i:i + 1], t_arg[i:i + 1])[0]
               for i in range(upper.size)]
        np.testing.assert_allclose(_f_conv_curve(SEC4, pl, upper, t_arg), one,
                                   rtol=1e-15, atol=0.0)


class TestGAlpha:
    def test_alpha_one_is_half(self):
        for k in (1, 2, 17, 300):
            assert g_alpha(1.0, k) == 0.5

    @pytest.mark.parametrize("key,expected", sorted(G_ALPHA_ORACLE.items()))
    def test_oracle_values(self, key, expected):
        alpha, k = key
        assert g_alpha(alpha, k) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_decreasing_in_lag(self):
        vals = [g_alpha(0.55, k) for k in range(1, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_lag_decay_exponent(self):
        # g(2k)/g(k) -> 2^(alpha-1)
        alpha = 0.55
        ratio = g_alpha(alpha, 512) / g_alpha(alpha, 256)
        assert ratio == pytest.approx(2.0 ** (alpha - 1.0), rel=2e-3, abs=0.0)


class TestZumbachCov:
    def test_zero_at_rho_zero(self):
        p = ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=0.0)
        assert zumbach_cov(p, FLAT, 1.0, 1, D) == 0.0

    def test_zero_at_nu_zero(self):
        p = ModelParams(hurst=0.05, lam=0.3, nu=0.0, rho=-0.7)
        assert zumbach_cov(p, FLAT, 1.0, 1, D) == 0.0

    def test_alpha1_closed_form(self):
        for k in range(1, 11):
            quad_val = zumbach_cov(CLASSICAL, FLAT, 1.0, k, D)
            closed = closed_form_z_alpha1(CLASSICAL, 0.025, k, D)
            assert quad_val == pytest.approx(closed, rel=1e-7, abs=0.0)

    def test_rho_sign_invariance(self):
        p_neg = ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=-0.7)
        p_pos = ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=0.7)
        assert zumbach_cov(p_neg, FLAT, 1.0, 1, D) == zumbach_cov(p_pos, FLAT, 1.0, 1, D)

    def test_positive_on_parameter_grid(self):
        for hurst in (0.05, 0.25, 0.5):
            for lam in (0.1, 1.0):
                for nu in (0.2, 0.8):
                    p = ModelParams(hurst=hurst, lam=lam, nu=nu, rho=-0.5)
                    assert zumbach_cov(p, FLAT, 1.0, 1, D) > 0.0

    def test_t_independence_flat(self):
        a = zumbach_cov(SEC4, FLAT, 1.0, 1, D)
        b = zumbach_cov(SEC4, FLAT, 4.0, 1, D)
        assert a == pytest.approx(b, rel=1e-10, abs=0.0)

    def test_h_half_negligible(self):
        for k in range(1, 11):
            ratio = zumbach_cov(SEC4, FLAT, 1.0, k, D) / zumbach_cov(CLASSICAL, FLAT, 1.0, k, D)
            assert ratio > 10.0

    def test_domain_guards(self):
        with pytest.raises(ContractError):
            zumbach_cov(SEC4, FLAT, 0.5 * D, 1, D)
        with pytest.raises(ContractError):
            zumbach_cov(SEC4, FLAT, 1.0, 0, D)
        with pytest.raises(ContractError):
            zumbach_cov(SEC4, FLAT, 1.0, 1, -D)

    def test_piecewise_linear_reduces_to_flat(self):
        pl = ForwardVarianceCurve.piecewise_linear([0.0, 2.0], [0.025, 0.025])
        assert zumbach_cov(SEC4, pl, 1.0, 1, D) == pytest.approx(
            zumbach_cov(SEC4, FLAT, 1.0, 1, D), rel=1e-9, abs=0.0)

    def test_piecewise_linear_tracks_local_level(self):
        # the asymmetry is proportional to the curve near t, so a sloped curve
        # at t where xi0(t) is double the flat level roughly doubles Z
        pl = ForwardVarianceCurve.piecewise_linear([0.0, 4.0], [0.025, 0.125])
        t = 2.0
        z_pl = zumbach_cov(SEC4, pl, t, 1, D)
        z_flat = zumbach_cov(SEC4, FLAT, t, 1, D)
        assert z_pl == pytest.approx(z_flat * pl(t) / 0.025, rel=0.01, abs=0.0)

    def test_knot_inside_the_day_is_cut(self):
        # kink of xi0 at t - delta/2 leaves the integrand a weak singularity
        # at s = delta/2; independent reference from adaptive quad, with the
        # inner integral in its integrated-by-parts form
        # F(delta-s) xi0(t-delta) + int_0^(delta-s) F(u) xi0'(t-s-u) du
        # and int_0^x F = x z E_{a,a+2}(-z), z = lam x^a, summed as a series
        t, k = 1.0, 2
        knot = t - D / 2
        pl = ForwardVarianceCurve.piecewise_linear([0.0, knot, 2.0], [0.02, 0.05, 0.02])
        p = SEC4.ml()
        slope_lo, slope_hi = 0.03 / knot, -0.03 / (2.0 - knot)

        def int_cdf(x):
            z = p.lam * x**p.alpha
            return x * z * float(ml_series_grid(p.alpha, 2.0, np.array([z]))[0])

        def inner(s):
            split = min(t - s - knot, D - s) if s < D / 2 else 0.0
            lo = int_cdf(split)
            hi = int_cdf(D - s) - lo
            return ml_cdf(p, D - s) * pl(t - D) + slope_hi * lo + slope_lo * hi

        def outer(s):
            return (ml_cdf(p, s + k * D) - ml_cdf(p, s + (k - 1) * D)) * inner(s)

        ref = 2.0 * (SEC4.rho * SEC4.nu / SEC4.lam) ** 2 * quad(
            outer, 0.0, D, points=[D / 2], epsabs=0.0, epsrel=1e-12)[0]
        assert zumbach_cov(SEC4, pl, t, k, D) == pytest.approx(ref, rel=1e-9, abs=0.0)


class TestAsymptotic:
    def test_zero_at_rho_zero(self):
        p = ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=0.0)
        assert zumbach_asymptotic(p, FLAT, 1.0, 1, D) == 0.0

    def test_alpha1_arithmetic(self):
        # 2 (0.315)^2 (1/252)^3 (1/2) 0.025, independent of k
        expected = 2.0 * 0.315**2 * D**3 * 0.5 * 0.025
        for k in (1, 5, 10):
            assert zumbach_asymptotic(CLASSICAL, FLAT, 1.0, k, D) == pytest.approx(
                expected, rel=1e-12, abs=0.0)

    def test_lambda_independence_exact(self):
        vals = [zumbach_asymptotic(
            ModelParams(hurst=0.05, lam=lam, nu=0.45, rho=-0.7), FLAT, 1.0, 3, D)
            for lam in (0.1, 0.3, 1.0)]
        assert vals[0] == vals[1] == vals[2]

    def test_monotone_decay_in_lag(self):
        vals = [zumbach_asymptotic(SEC4, FLAT, 1.0, k, D) for k in range(1, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ratio_to_exact_approaches_one(self):
        gaps = []
        for delta in (1.0 / 252.0, 1e-3, 1e-4, 1e-5):
            ratio = (zumbach_cov(SEC4, FLAT, 1.0, 1, delta)
                     / zumbach_asymptotic(SEC4, FLAT, 1.0, 1, delta))
            gaps.append(abs(ratio - 1.0))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_delta_scaling_exponent(self):
        deltas = np.geomspace(1e-5, 1e-3, 5)
        logz = [math.log(zumbach_cov(SEC4, FLAT, 1.0, 1, float(d))) for d in deltas]
        slope = np.polyfit(np.log(deltas), logz, 1)[0]
        assert slope == pytest.approx(2.0 * SEC4.alpha + 1.0, abs=0.02)

    def test_curve_builder(self):
        zc = zumbach_curve(SEC4, FLAT, 1.0, range(1, 6), D)
        assert zc.lags.tolist() == [1, 2, 3, 4, 5]
        assert np.all(zc.values > 0.0)
        assert np.all(zc.asymptotic > 0.0)
        assert zc.values[0] == pytest.approx(zumbach_cov(SEC4, FLAT, 1.0, 1, D), abs=0.0)

    def test_curve_builder_rho_zero_is_identically_zero(self):
        p = ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=0.0)
        zc = zumbach_curve(p, FLAT, 1.0, range(1, 6), D)
        assert np.all(zc.values == 0.0)
        assert np.all(zc.asymptotic == 0.0)


class TestVarSigma2:
    def test_zero_at_nu_zero(self):
        p = ModelParams(hurst=0.05, lam=0.3, nu=0.0, rho=-0.7)
        assert var_sigma2(p, FLAT, 1.0, D) == 0.0

    def test_alpha1_closed_form(self):
        got = var_sigma2(CLASSICAL, FLAT, 1.0, D)
        assert got == pytest.approx(closed_form_var_alpha1(CLASSICAL, 0.025, 1.0, D),
                                    rel=1e-8, abs=0.0)

    def test_increasing_in_nu(self):
        lo = var_sigma2(ModelParams(0.05, 0.3, 0.3, -0.7), FLAT, 1.0, D)
        hi = var_sigma2(ModelParams(0.05, 0.3, 0.6, -0.7), FLAT, 1.0, D)
        assert 0.0 < lo < hi

    def test_piecewise_linear_reduces_to_flat(self):
        pl = ForwardVarianceCurve.piecewise_linear([0.0, 2.0], [0.025, 0.025])
        assert var_sigma2(SEC4, pl, 1.0, D) == pytest.approx(
            var_sigma2(SEC4, FLAT, 1.0, D), rel=1e-9, abs=0.0)

    def test_knot_inside_the_range_is_cut(self):
        # xi0(t - delta - s) kinks at s = t - delta - 0.4; adaptive reference
        # told about the kink
        t = 1.0
        c = t - D
        pl = ForwardVarianceCurve.piecewise_linear([0.0, 0.4, 2.0], [0.02, 0.05, 0.02])
        p = SEC4.ml()

        def main(s):
            return (ml_cdf(p, s + D) - ml_cdf(p, s)) ** 2 * pl(c - s)

        ref = (quad(main, 0.0, c, points=[c - 0.4], limit=200, epsabs=0.0, epsrel=1e-12)[0]
               + quad(lambda s: ml_cdf(p, s) ** 2 * pl(t - s), 0.0, D,
                      epsabs=0.0, epsrel=1e-12)[0])
        assert var_sigma2(SEC4, pl, t, D) == pytest.approx(
            (SEC4.nu / SEC4.lam) ** 2 * ref, rel=1e-9, abs=0.0)


class TestFourthMoment:
    def test_gaussian_limit_nu_zero(self):
        p = ModelParams(hurst=0.05, lam=0.3, nu=0.0, rho=-0.7)
        assert fourth_moment_r(p, FLAT, 1.0, D) == pytest.approx(
            3.0 * 0.025**2 * D**2, rel=1e-12, abs=0.0)

    def test_rho_zero_drops_leverage_term(self):
        p_rho = ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=-0.7)
        p_nor = ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=0.0)
        with_term = fourth_moment_r(p_rho, FLAT, 1.0, D)
        without = fourth_moment_r(p_nor, FLAT, 1.0, D)
        assert with_term > without > 0.0

    def test_positive(self):
        assert fourth_moment_r(SEC4, FLAT, 1.0, D) > 0.0

    def test_piecewise_linear_reduces_to_flat(self):
        pl = ForwardVarianceCurve.piecewise_linear([0.0, 2.0], [0.025, 0.025])
        assert fourth_moment_r(SEC4, pl, 1.0, D) == pytest.approx(
            fourth_moment_r(SEC4, FLAT, 1.0, D), rel=1e-6, abs=0.0)

    def test_piecewise_at_t_equal_delta(self):
        # the leverage term evaluates the curve down to time 0 here
        pl = ForwardVarianceCurve.piecewise_linear([0.0, 2.0], [0.025, 0.025])
        assert fourth_moment_r(SEC4, pl, D, D) == pytest.approx(
            fourth_moment_r(SEC4, FLAT, D, D), rel=1e-6, abs=0.0)

    @pytest.mark.xfail(strict=True, reason=(
        "the 48-node inner rule of the piecewise leverage term meets the "
        "(s-u)^alpha endpoint of its integrand: 2.3e-7 off"))
    def test_piecewise_linear_reduces_to_flat_tightly(self):
        pl = ForwardVarianceCurve.piecewise_linear([0.0, 2.0], [0.025, 0.025])
        assert fourth_moment_r(SEC4, pl, 1.0, D) == pytest.approx(
            fourth_moment_r(SEC4, FLAT, 1.0, D), rel=1e-9, abs=0.0)


class TestStationaryLimits:
    def test_alpha1_closed_form(self):
        got = stationary_var_sigma2(CLASSICAL, 0.025, D)
        assert got == pytest.approx(
            closed_form_var_alpha1(CLASSICAL, 0.025, None, D, stationary=True), rel=1e-8, abs=0.0)

    def test_nu_zero(self):
        p = ModelParams(hurst=0.05, lam=0.3, nu=0.0, rho=-0.7)
        assert stationary_var_sigma2(p, 0.025, D) == 0.0
        assert stationary_fourth_moment_r(p, 0.025, D) == pytest.approx(
            3.0 * 0.025**2 * D**2, rel=1e-12, abs=0.0)

    def test_finite_t_limits_to_stationary(self):
        # flat curve: the finite-t formulas differ only through integral
        # horizons and approach the stationary values like t^(-2 alpha - 1)
        # (~6e-4 relative at t = 30 years for alpha = 0.75)
        p = ModelParams(hurst=0.25, lam=0.3, nu=0.45, rho=-0.7)
        assert var_sigma2(p, FLAT, 30.0, D) == pytest.approx(
            stationary_var_sigma2(p, 0.025, D), rel=1e-3, abs=0.0)
        assert fourth_moment_r(p, FLAT, 30.0, D) == pytest.approx(
            stationary_fourth_moment_r(p, 0.025, D), rel=1e-3, abs=0.0)
        gap30 = abs(var_sigma2(p, FLAT, 30.0, D) / stationary_var_sigma2(p, 0.025, D) - 1.0)
        gap100 = abs(var_sigma2(p, FLAT, 100.0, D) / stationary_var_sigma2(p, 0.025, D) - 1.0)
        assert gap100 < gap30

    @pytest.mark.parametrize("hurst", [0.25, 0.4])
    def test_small_delta_equivalent_var(self, hurst):
        # Var[s2] / ((nu/lam)^2 xi delta^2 ||f||^2) -> 1; approach rate is
        # delta^(2 alpha - 1), so the 2% band needs alpha comfortably above 1/2
        p = ModelParams(hurst, 0.3, 0.45, -0.7)
        delta = 1e-4
        equiv = (p.nu / p.lam) ** 2 * 0.025 * delta**2 * l2_norm_f_squared(p.ml())
        assert stationary_var_sigma2(p, 0.025, delta) / equiv == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("hurst", [0.25, 0.4])
    def test_small_delta_equivalent_fourth(self, hurst):
        p = ModelParams(hurst, 0.3, 0.45, -0.7)
        delta = 1e-4
        xi = 0.025
        equiv = (3.0 * xi**2 * delta**2
                 + 3.0 * (p.nu / p.lam) ** 2 * xi * delta**2 * l2_norm_f_squared(p.ml()))
        assert stationary_fourth_moment_r(p, xi, delta) / equiv == pytest.approx(1.0, abs=0.02)


class TestQuadratureGuard:
    def test_nonconvergent_integrand_raises(self):
        from zlab.errors import QuadratureError
        from zlab.model import _ts_quad

        with pytest.raises(QuadratureError):
            _ts_quad(lambda s, _: np.sin(1.0 / s) / s, 0.0, 1.0)


class TestZumbachCorrel:
    def test_zero_at_rho_zero(self):
        p = ModelParams(hurst=0.3, lam=0.3, nu=0.45, rho=0.0)
        assert zumbach_correl(p, 0.025, 1, D) == 0.0

    def test_degenerate_at_nu_zero(self):
        p = ModelParams(hurst=0.3, lam=0.3, nu=0.0, rho=-0.7)
        with pytest.raises(ContractError):
            zumbach_correl(p, 0.025, 1, D)
        with pytest.raises(ContractError):
            zumbach_correl_small_delta(p, 0.025, 1, D)

    def test_alpha1_self_consistency_small_delta(self):
        p = ModelParams(hurst=0.5, lam=0.3, nu=0.45, rho=-0.7)
        delta = 1e-4
        exact = zumbach_correl(p, 0.025, 1, delta)
        approx = zumbach_correl_small_delta(p, 0.025, 1, delta)
        assert exact / approx == pytest.approx(1.0, abs=0.01)

    def test_positive_and_bounded(self):
        p = ModelParams(hurst=0.3, lam=0.3, nu=0.45, rho=-0.7)
        val = zumbach_correl(p, 0.025, 1, D)
        assert 0.0 < val < 1.0

    def test_rough_beats_classical_scaling(self):
        # delta^(2 alpha - 1) scaling: at daily delta the rough correlation
        # dwarfs the classical one
        rough = zumbach_correl(SEC4, 0.025, 1, D)
        classical = zumbach_correl(CLASSICAL, 0.025, 1, D)
        assert rough / classical > 10.0
