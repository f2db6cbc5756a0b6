"""Mittag-Leffler kernel tests.

Frozen high-precision values were produced with an mpmath oracle (40-2000
digits) evaluating the defining power series in extended precision and,
independently, the spectral Laplace-transform representation; both routes
agree to >= 20 digits on every frozen point.  The hardest value,
E_0.55(-100), was additionally confirmed by brute-force summation of 21634
series terms at 2000 digits.  The points at alpha = 0.999 and 0.99999 come
from the series at 60 digits, confirmed at 90, with alpha taken as the
double it rounds to (at 1 - alpha = 1e-5 the decimal alpha moves E by ~5e-12
relative); the small-alpha points sum the series at 80 digits, confirmed at
120.  The band oracle (t = x^(1/alpha) from 6.9 to 1e6, the contour's range
and one series-side point) takes E_{a,1} at x = t**alpha as a double, and
the density at that x for 9.1 <= t <= 30.5 and at the decimal t otherwise
(the two differ by <= 2e-16 relative).  For t <= 60 it sums the series at
>= t/2.3 + 60 digits; beyond, the algebraic asymptotic series at 50 digits,
which agrees with the power series to >= 37 digits at t = 100 and 1000.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from zlab import special
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
    # small alpha, just below the series edge x = 7**alpha, where the series
    # needs hundreds of terms
    (0.05, 1.0, 0.4927841512002519796722),
    (0.05, 1.1, 0.4689714936835999985456),
    (0.1, 1.0, 0.4855644643110821015915),
    (0.1, 1.2, 0.4400807689106189294868),
]

# (alpha, t, E_alpha(-t^alpha), f(t; alpha, 1)) from the extended-precision
# oracle: one point inside the series regime (t <= 7), then across the
# contour's range, at the former band edges 9.2 and 30 and far out in the
# former tail
ML_BAND_ORACLE = [
    (0.51, 6.9, 1.964429821321103851367e-1, 1.307587840212587858291e-2),
    (0.51, 7.5, 1.890344040341444969416e-1, 1.166429717204509747264e-2),
    (0.51, 8.0, 1.834565327274854467991e-1, 1.067175865642452925464e-2),
    (0.51, 9.1, 1.727263151966475537292e-1, 8.9245593499988575746e-3),
    (0.51, 9.2, 1.71840637694790741993e-1, 8.789562739358961955014e-3),
    (0.51, 9.3, 1.70968290252259566473e-1, 8.657938206982115324162e-3),
    (0.51, 15.0, 1.360136861154980700506e-1, 4.398714665645747751383e-3),
    (0.51, 29.9, 9.686512331959118036597e-2, 1.612562643958486500943e-3),
    (0.51, 30.0, 9.670426270862463931777e-2, 1.604660326494667918765e-3),
    (0.51, 30.5, 9.591163845414419978282e-2, 1.566096489002989544308e-3),
    (0.51, 45.0, 7.895365264616975666093e-2, 8.811590562484230854806e-4),
    (0.51, 100.0, 5.275424072849432659543e-2, 2.67485635718443792979e-4),
    (0.51, 1e3, 1.633255973083335049557e-2, 8.33098292943334518823e-6),
    (0.51, 1e6, 4.817287907383293530905e-4, 2.45689139832990374532e-10),
    (0.75, 6.9, 8.237550231970658929344e-2, 1.080419012368192231699e-2),
    (0.75, 7.5, 7.639993675404610080956e-2, 9.179919891105232931938e-3),
    (0.75, 8.0, 7.209120673157269686126e-2, 8.089339067370514627098e-3),
    (0.75, 9.1, 6.425027537018139637666e-2, 6.281321096654139395964e-3),
    (0.75, 9.2, 6.362885073047479469138e-2, 6.147892241904379598956e-3),
    (0.75, 9.3, 6.302055584359558411836e-2, 6.01869604731279129386e-3),
    (0.75, 15.0, 4.155777355914775433492e-2, 2.365099091098007737088e-3),
    (0.75, 29.9, 2.341425879031894929162e-2, 6.36296714543351556435e-4),
    (0.75, 30.0, 2.335082756161786968983e-2, 6.323342909320996662194e-4),
    (0.75, 30.5, 2.303951081048334850754e-2, 6.130873081007406745723e-4),
    (0.75, 45.0, 1.68571838114366966687e-2, 2.980940506055522964089e-4),
    (0.75, 100.0, 9.01218074194001403508e-3, 6.982693655883842240827e-5),
    (0.75, 1e3, 1.559991417150545562797e-3, 1.176752034325227159623e-6),
    (0.75, 1e6, 8.722339191781115246829e-6, 6.541965977026103726414e-12),
    (0.9, 6.9, 2.799521806637280492472e-2, 5.699031236775815335849e-3),
    (0.9, 7.5, 2.495031282957907636699e-2, 4.515496438664640989347e-3),
    (0.9, 8.0, 2.288424492662051667223e-2, 3.780120970378500304399e-3),
    (0.9, 9.1, 1.938673284361075303495e-2, 2.672819668537514922481e-3),
    (0.9, 9.2, 1.912327733000411512154e-2, 2.596834775047151069516e-3),
    (0.9, 9.3, 1.886726000298815492876e-2, 2.524026829913498222907e-3),
    (0.9, 15.0, 1.087687637796362410039e-2, 7.833428952091142460193e-4),
    (0.9, 29.9, 5.370375799010010933564e-3, 1.763335211033836082394e-4),
    (0.9, 30.0, 5.352803264482611711409e-3, 1.751193043101510553859e-4),
    (0.9, 30.5, 5.266727360792450263264e-3, 1.692354754073606725511e-4),
    (0.9, 45.0, 3.617309039977475718164e-3, 7.666642552333273019204e-5),
    (0.9, 100.0, 1.711370533218406835493e-3, 1.582684939375897937284e-5),
    (0.9, 1e3, 2.104263244703048208978e-4, 1.900137951561077428692e-7),
    (0.9, 1e6, 4.184679412257416644848e-7, 3.76623632798413737742e-13),
    (0.999, 6.9, 1.236494729317184833318e-3, 1.058170001354292967186e-3),
    (0.999, 7.5, 7.545012148739843494734e-4, 5.940015083514060345929e-4),
    (0.999, 8.0, 5.180854381397881197152e-4, 3.699270357895443803696e-4),
    (0.999, 9.1, 2.625240627104615823435e-4, 1.357235723299242265157e-4),
    (0.999, 9.2, 2.495289019363910155987e-4, 1.243617133484360846208e-4),
    (0.999, 9.3, 2.376170455092024665229e-4, 1.140404285184287983897e-4),
    (0.999, 15.0, 7.868300408872017054245e-5, 6.552632844344510778504e-6),
    (0.999, 29.9, 3.609128283434285225254e-5, 1.300114991922349060079e-6),
    (0.999, 30.0, 3.59617397884302148439e-5, 1.290762871530950616556e-6),
    (0.999, 30.5, 3.532777858486589696823e-5, 1.245487630418010302988e-6),
    (0.999, 45.0, 2.338728303900578790698e-5, 5.446854624892689331468e-7),
    (0.999, 100.0, 1.025995179477929912028e-5, 1.046407173900572655649e-7),
    (0.999, 1e3, 1.009544456529104457386e-6, 1.01057126318613633524e-9),
    (0.999, 1e6, 1.014498020516872057567e-9, 1.013485574738480417121e-15),
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
        value = ml_neg(alpha, x)
        assert value == pytest.approx(expected, rel=1e-10, abs=0.0)
        assert value == pytest.approx(expected, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha,t,e_ref,f_ref", ML_BAND_ORACLE)
    def test_band_oracle_values(self, alpha, t, e_ref, f_ref):
        e = ml_neg(alpha, t**alpha)
        f = ml_density(MlParams(alpha, 1.0), t)
        assert e == pytest.approx(e_ref, rel=0.0, abs=1e-12)
        if t <= 7.0:  # series regime: rounding floor ~e^t * 1e-16
            assert f == pytest.approx(f_ref, rel=0.0, abs=1e-12)
        else:  # contour: absolute error ~1e-16
            assert e == pytest.approx(e_ref, rel=1e-11, abs=0.0)
            assert f == pytest.approx(f_ref, rel=0.0, abs=1e-15)

    def test_alpha_half_matches_erfcx(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x); crosses both evaluation regimes
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
    @example(x1=0.505, x2=0.5050000000000001, alpha=1.0, lam=0.625)  # F(lo) == F(hi)
    def test_strictly_monotone(self, x1, x2, alpha, lam):
        if x1 == x2:
            return
        lo, hi = sorted((x1, x2))
        p = MlParams(alpha, lam)
        f_lo, f_hi = ml_cdf(p, lo), ml_cdf(p, hi)
        assert f_lo <= f_hi
        # strictness is resolvable below saturation, where the true increase
        # (at least f(hi) (hi - lo), as the density decreases) spans several
        # ulps of F(hi) and the series' rounding floor (1e-12 absolute, see
        # zlab.special) twice over; one ulp of x apart, both may round to
        # one double
        increase = ml_density(p, hi) * (hi - lo)
        if f_hi < 1.0 - 1e-9 and increase > max(8.0 * math.ulp(f_hi), 2e-12):
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

    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5])
    def test_cached_value_is_the_uncached_core(self, hurst):
        core = special._l2_norm_f_squared
        uncached = core.__wrapped__(hurst + 0.5, 0.3)
        for _ in range(2):
            assert l2_norm_f_squared(MlParams(hurst + 0.5, 0.3)) == uncached
        assert core.cache_info().hits == 1

    def test_equal_parameters_share_one_entry(self):
        assert l2_norm_f_squared(MlParams(0.75, 1)) == l2_norm_f_squared(MlParams(0.75, 1.0))
        info = special._l2_norm_f_squared.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_entries_stay_within_the_bound(self):
        core = special._l2_norm_f_squared
        bound = core.cache_info().maxsize
        for i in range(bound + 5):
            l2_norm_f_squared(MlParams(0.75, 0.3 + 0.01 * i))
        assert core.cache_info().currsize == bound


class TestMlParams:
    def test_validation(self):
        with pytest.raises(ContractError):
            MlParams(1.1, 0.3)
        with pytest.raises(ContractError):
            MlParams(0.75, 0.0)
        with pytest.raises(ContractError):
            MlParams(0.75, -2.0)
