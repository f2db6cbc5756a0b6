"""Analytic moments of the rough Heston model.

The variance process solves the stochastic Volterra equation with power-law
kernel (t-s)^(alpha-1)/Gamma(alpha), alpha = H + 1/2, mean reversion lam,
vol-of-vol nu and spot/vol correlation rho, anchored to a forward variance
curve xi0(t) = E[V_t].  Its resolvent representation

    V_t = xi0(t) + int_0^t f(t-s; alpha, lam) (nu/lam) sqrt(V_s) dB_s

turns every second- and fourth-moment quantity of daily returns
r_t = int_{t-delta}^t sqrt(V) dW and integrated variances
sigma2_t = int_{t-delta}^t V ds into explicit quadratures of the
Mittag-Leffler density f and CDF F from :mod:`zlab.special`.

Implemented quantities
----------------------
* ``g0``                   -- the kernel-adjusted curve xi0 + lam * I^alpha xi0;
* ``zumbach_cov``          -- the lag-k asymmetry covariance
  Z_t(k) = Cov[r_t^2, sigma2_{t+k delta}] - Cov[r_{t+k delta}^2, sigma2_t],
  evaluated from its closed double-quadrature form (positive iff rho != 0);
* ``zumbach_asymptotic``   -- its small-delta equivalent
  2 (rho nu)^2 delta^(2 alpha + 1) g_alpha(k) xi0(t), with the universal lag
  profile ``g_alpha``;
* ``var_sigma2`` / ``fourth_moment_r``          -- finite-t moments; the
  vol-of-vol part of E[r^4] is exactly 3 Var[sigma2] (Fubini and one
  integration by parts turn its convolution term into the edge integral of
  Var[sigma2]), so ``fourth_moment_r`` adds 3 * ``var_sigma2`` to its
  leverage and Gaussian terms;
* ``stationary_var_sigma2`` / ``stationary_fourth_moment_r`` -- their
  t -> infinity limits under xi0(t) -> xi_inf;
* ``zumbach_correl``       -- the correlation-normalised asymmetry in the
  stationary regime, plus its small-delta equivalent
  ``zumbach_correl_small_delta``.

Quadrature policy: integrals against the density f (or the fractional
kernel of ``g0``) go through ``_kernel_integral``: the substitution
u = v^(1/alpha) removes the u^(alpha-1) singularity at the origin, and a
fixed 48-node Gauss-Legendre rule runs on E_{alpha,alpha}(-lam v), which
:mod:`zlab.special` evaluates through its series/contour split, between
curve kinks and the kernel's scales, for a whole array of upper limits in
one batch.  Every other integral runs on ``_ts_quad``, the package's one
tanh-sinh rule.  Its nodes crowd doubly exponentially into the segment
ends, so the endpoint singularities of F(s) and F(delta - s) need no
substitution; it checks itself against the rule at twice its step.
Segments end at curve kinks and, on long ranges, at the day scales
delta * 8^j; the stationary limit adds a closed-form algebraic tail.
Z(k) and the flat-curve leverage term of E[r^4] share one lag integral
(``_lag_integrals``), so ``zumbach_correl`` takes both from one quadrature.
Degenerate inputs (rho = 0 or nu = 0) short-circuit to exact zeros once
the other inputs pass their checks; non-finite horizons, levels and
parameters are contract errors.

All operations are pure functions of immutable inputs.  The lag-free
stationary terms are memoised, so a sweep over lags computes each once: the
bracket of ``stationary_var_sigma2`` per (alpha, lam, xi_inf, delta) and
``special.l2_norm_f_squared`` per (alpha, lam), each in a
``functools.lru_cache`` of at most 128 entries.  Inputs are validated before
the cache, so errors are never cached; a hit returns the very float the
computation returned, so results are unchanged; and ``lru_cache`` is
thread-safe, so calls can run concurrently without locking.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
# ml_cdf is not called here, but perfbench's tracer wraps model.ml_cdf
from .special import (MlParams, _ml_eval, _ts_quad, density_sq_tail,  # noqa: F401
                      l2_norm_f_squared, ml_cdf, ml_cdf_grid)

__all__ = [
    "TRADING_DAY",
    "ModelParams",
    "ForwardVarianceCurve",
    "ZumbachCurve",
    "g0",
    "g_alpha",
    "zumbach_cov",
    "zumbach_asymptotic",
    "zumbach_curve",
    "var_sigma2",
    "fourth_moment_r",
    "stationary_var_sigma2",
    "stationary_fourth_moment_r",
    "zumbach_correl",
    "zumbach_correl_small_delta",
]

TRADING_DAY = 1.0 / 252.0
"""Default day length in years (252 trading days per year)."""

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)

@dataclass(frozen=True)
class ModelParams:
    """Rough Heston parameter tuple (hurst, lam, nu, rho).

    hurst : Hurst exponent of the variance paths, in (0, 1/2]; 1/2 recovers
            the classical square-root model.
    lam   : mean reversion rate, 1/year.
    nu    : vol-of-vol scale; nu = 0 degenerates to a deterministic variance
            path and is accepted so the degenerate limits stay testable.
    rho   : spot/vol correlation in [-1, 1].
    """

    hurst: float
    lam: float
    nu: float
    rho: float

    def __post_init__(self) -> None:
        if not 0.0 < self.hurst <= 0.5:
            raise ContractError(f"hurst must lie in (0, 1/2], got {self.hurst}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ContractError(f"lam must be finite and positive, got {self.lam}")
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise ContractError(f"nu must be finite and nonnegative, got {self.nu}")
        if not -1.0 <= self.rho <= 1.0:
            raise ContractError(f"rho must lie in [-1, 1], got {self.rho}")

    @property
    def alpha(self) -> float:
        """Kernel exponent alpha = hurst + 1/2, in (1/2, 1]."""
        return self.hurst + 0.5

    def ml(self) -> MlParams:
        return MlParams(self.alpha, self.lam)


class ForwardVarianceCurve:
    """Forward variance curve xi0(t), t >= 0, in variance/year units.

    Continuous piecewise-linear between knots with constant extrapolation
    beyond them; a single knot makes the curve flat.  Instances are
    immutable; call them like a function (scalar or array argument).
    """

    def __init__(self, times: np.ndarray, values: np.ndarray):
        self._times = times
        self._values = values

    @classmethod
    def flat(cls, level: float) -> "ForwardVarianceCurve":
        if not (math.isfinite(level) and level > 0.0):
            raise ContractError(f"flat level must be finite and positive, got {level}")
        return cls(np.array([0.0]), np.array([float(level)]))

    @classmethod
    def piecewise_linear(cls, times, values) -> "ForwardVarianceCurve":
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise ContractError("knot arrays must be equal-length 1-d and nonempty")
        if not (np.all(np.isfinite(t)) and np.all(t >= 0.0) and np.all(np.diff(t) > 0.0)):
            raise ContractError("knot times must be finite, nonnegative and strictly increasing")
        if not np.all(np.isfinite(v) & (v > 0.0)):
            raise ContractError("xi0 must be finite and positive at every knot")
        if t.size == 1:
            return cls.flat(float(v[0]))
        return cls(t.copy(), v.copy())

    @property
    def is_flat(self) -> bool:
        return self._times.size == 1

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0):
            raise ContractError("xi0 is only defined for t >= 0")
        out = np.interp(t_arr, self._times, self._values)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def integral(self, a: float, b: float) -> float:
        """Exact integral of the curve over [a, b] (trapezoid across knots)."""
        if b < a or a < 0.0:
            raise ContractError(f"bad integration range [{a}, {b}]")
        grid = np.unique(np.concatenate(
            [[a, b], self._times[(self._times > a) & (self._times < b)]]))
        vals = self(grid)
        # explicit trapezoid sum: np.trapezoid needs numpy >= 2
        return float((np.diff(grid) * (vals[1:] + vals[:-1]) / 2.0).sum())

    def _kinks_between(self, lo: float, hi: float) -> np.ndarray:
        return self._times[(self._times > lo) & (self._times < hi)]


@dataclass(frozen=True)
class ZumbachCurve:
    """Lag-indexed table of asymmetry covariances at day length delta.

    values[i] corresponds to lag ``lags[i]`` days; entries are strictly
    positive whenever rho != 0 and identically zero at rho = 0.
    """

    delta: float
    t: float
    lags: np.ndarray
    values: np.ndarray
    asymptotic: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        _check_horizon(self.delta, self.t)
        if len(self.lags) != len(self.values):
            raise ContractError("lags and values must be equal length")
        _check_lags(self.lags)


def _check_horizon(delta: float, t: float | None = None, xi_inf: float | None = None) -> None:
    """ContractError unless delta > 0, t >= delta and xi_inf > 0 (those given), all finite."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ContractError(f"delta must be finite and positive, got {delta}")
    if t is not None and not (math.isfinite(t) and t >= delta):
        raise ContractError(f"need finite t >= delta, got t={t}, delta={delta}")
    if xi_inf is not None and not (math.isfinite(xi_inf) and xi_inf > 0.0):
        raise ContractError(f"xi_inf must be finite and positive, got {xi_inf}")


def _check_lags(lags) -> np.ndarray:
    for k in lags:
        if k < 1 or int(k) != k:
            raise ContractError(f"k must be a positive integer, got {k}")
    return np.asarray(lags, dtype=int)


def _kernel_integral(alpha: float, lam: float, upper: np.ndarray, fn,
                     cuts: np.ndarray) -> np.ndarray:
    """int_0^upper[i] u^(alpha-1) E_{alpha,alpha}(-lam u^alpha) fn(u)[i] du for every i.

    lam times this kernel is the density f; lam = 0 gives the fractional
    kernel u^(alpha-1) / Gamma(alpha), because E_{alpha,alpha}(0) =
    1/Gamma(alpha).  The substitution u = v^(1/alpha) removes the u^(alpha-1)
    singularity, leaving E_{alpha,alpha}(-lam v) fn(v^(1/alpha)) / alpha,
    which fixed 48-node Gauss-Legendre integrates on each segment between
    the kinks of fn (row i of ``cuts``, shape (n, m)) and the kernel's scales
    lam v = 8^j, all clipped into [0, upper[i]].  Cuts outside that range
    make zero-width segments, which add exactly 0.  fn is called once, on
    the nodes u of shape (n, segments, 48).
    """
    v_hi = upper**alpha
    top = lam * v_hi.max()
    scales = 8.0 ** np.arange(math.ceil(math.log(top, 8.0)) if top > 1.0 else 0) / lam
    cut_v = np.column_stack([np.clip(cuts, 0.0, upper[:, None]) ** alpha,
                             np.minimum(scales, v_hi[:, None])])
    edges = np.sort(np.column_stack([np.zeros_like(v_hi), v_hi, cut_v]), axis=1)
    mid, half = 0.5 * (edges[:, :-1] + edges[:, 1:]), 0.5 * np.diff(edges, axis=1)
    v = mid[..., None] + half[..., None] * _GL_NODES
    vals = _ml_eval(alpha, lam * v, "kernel") * fn(v ** (1.0 / alpha))
    return (half * (vals @ _GL_WEIGHTS)).sum(axis=1) / alpha


def _f_conv_curve(params: ModelParams, curve: ForwardVarianceCurve,
                  upper: np.ndarray, t_arg: np.ndarray) -> np.ndarray:
    """int_0^upper f(u) xi0(t_arg - u) du elementwise over 1-d arrays.

    One ``_kernel_integral`` call for every curve, cut at the curve's kinks
    inside the union of the ranges (t_arg - upper, t_arg).
    """
    kinks = curve._kinks_between(float(np.min(t_arg - upper)), float(np.max(t_arg)))
    return params.lam * _kernel_integral(
        params.alpha, params.lam, upper, lambda u: curve(t_arg[:, None, None] - u),
        t_arg[:, None] - kinks)


def g0(params: ModelParams, curve: ForwardVarianceCurve, t: float) -> float:
    """Kernel-adjusted forward curve g0(t) = xi0(t) + lam * (I^alpha xi0)(t).

    For a flat curve at level v this is v * (1 + lam t^alpha / Gamma(alpha+1)).
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ContractError(f"t must be finite and >= 0, got {t}")
    kinks = curve._kinks_between(0.0, t)
    return curve(t) + params.lam * float(_kernel_integral(
        params.alpha, 0.0, np.array([t]), lambda u: curve(t - u), (t - kinks)[None, :])[0])


def _lag_profile(alpha: float, ks: np.ndarray) -> np.ndarray:
    """``g_alpha`` at every lag of ks, from one quadrature with one row per lag."""
    if alpha == 1.0:
        return np.full(ks.shape, 0.5)
    k = ks[:, None]
    return _ts_quad(lambda s, rest: ((k + s) ** alpha - (k + s - 1.0) ** alpha) * rest ** alpha,
                    0.0, 1.0, epsrel=1e-11) / math.gamma(alpha + 1.0) ** 2


def g_alpha(alpha: float, k: int) -> float:
    """Universal lag profile of the small-delta asymmetry.

    g_alpha(k) = Gamma(alpha+1)^-2 int_0^1 ((k+s)^alpha - (k+s-1)^alpha)
    (1-s)^alpha ds; equals 1/2 for every k at alpha = 1 and decays like
    k^(alpha-1) for alpha < 1.
    """
    if not 0.5 < alpha <= 1.0:
        raise ContractError(f"alpha must lie in (1/2, 1], got {alpha}")
    return float(_lag_profile(alpha, _check_lags([k]))[0])


def _lag_integrals(params: ModelParams, curve: ForwardVarianceCurve, t: float,
                   ks: np.ndarray, delta: float) -> np.ndarray:
    """I_k = int_0^delta [F(s + k delta) - F(s + (k-1) delta)] G(delta - s) ds at
    every lag k >= 0 of ks, with F = 0 below 0 and the lag-free
    G(x) = int_0^x f(u) xi0(t - delta + x - u) du.  Z_t(k) = 2 (rho nu/lam)^2 I_k
    for k >= 1; I_0 is the leverage integral L of ``fourth_moment_r``.
    """
    p = params.ml()
    c = t - delta
    shifts = np.unique(np.concatenate([ks, ks - 1]))
    upper, lower = np.searchsorted(shifts, ks), np.searchsorted(shifts, ks - 1)

    def integrand(s, rest):
        x = np.maximum(s + shifts[:, None] * delta, 0.0)
        cdf = ml_cdf_grid(p, x.ravel()).reshape(x.shape)
        diff = cdf[upper] - cdf[lower]
        # two CDF values near 1 cancel: past F = 1/2 take the difference
        # from the tails E_alpha(-lam x^alpha) instead
        far = cdf > 0.5
        if far.any():
            tail = np.zeros_like(cdf)
            tail[far] = _ml_eval(p.alpha, p.lam * np.power(x[far], p.alpha), "neg")
            diff = np.where(far[lower], tail[lower] - tail[upper], diff)
        return diff * _f_conv_curve(params, curve, rest, c + rest)

    return _ts_quad(integrand, 0.0, delta, t - curve._kinks_between(c, t), epsrel=1e-10)


def zumbach_cov(params: ModelParams, curve: ForwardVarianceCurve, t: float,
                k: int, delta: float = TRADING_DAY) -> float:
    """Lag-k asymmetry covariance Z_t(k) at day length delta.

    Z_t(k) = 2 (rho nu / lam)^2 *
             int_0^delta [F(s + k delta) - F(s + (k-1) delta)] *
                         int_0^(delta - s) f(u) xi0(t - s - u) du ds,

    which is strictly positive iff rho != 0 (and invariant under the sign of
    rho).  Requires t >= delta so the curve is never evaluated at negative
    times; for a flat curve the value does not depend on t.
    """
    return float(_zumbach_covs(params, curve, t, [k], delta)[0])


def _zumbach_covs(params: ModelParams, curve: ForwardVarianceCurve, t: float,
                  lags, delta: float) -> np.ndarray:
    """``zumbach_cov`` at every lag, from one ``_lag_integrals`` call."""
    _check_horizon(delta, t)
    ks = _check_lags(lags)
    if params.rho == 0.0 or params.nu == 0.0:
        return np.zeros(ks.size)
    pref = 2.0 * (params.rho * params.nu / params.lam) ** 2
    return pref * _lag_integrals(params, curve, t, ks, delta)


def zumbach_asymptotic(params: ModelParams, curve: ForwardVarianceCurve,
                       t: float, k: int, delta: float = TRADING_DAY) -> float:
    """Small-delta equivalent 2 (rho nu)^2 delta^(2 alpha + 1) g_alpha(k) xi0(t).

    Independent of lam by construction and proportional to xi0(t).
    """
    return float(_zumbach_asymptotics(params, curve, t, [k], delta)[0])


def _zumbach_asymptotics(params: ModelParams, curve: ForwardVarianceCurve, t: float,
                         lags, delta: float) -> np.ndarray:
    """``zumbach_asymptotic`` at every lag, from one ``_lag_profile`` call."""
    _check_horizon(delta, t)
    ks = _check_lags(lags)
    if params.rho == 0.0 or params.nu == 0.0:
        return np.zeros(ks.size)
    alpha = params.alpha
    return (2.0 * (params.rho * params.nu) ** 2 * delta ** (2.0 * alpha + 1.0)
            * _lag_profile(alpha, ks) * curve(t))


def zumbach_curve(params: ModelParams, curve: ForwardVarianceCurve, t: float,
                  lags, delta: float = TRADING_DAY) -> ZumbachCurve:
    """Evaluate ``zumbach_cov`` and ``zumbach_asymptotic`` over a lag grid."""
    lags = np.asarray(lags, dtype=int)
    return ZumbachCurve(delta=delta, t=t, lags=lags,
                        values=_zumbach_covs(params, curve, t, lags, delta),
                        asymptotic=_zumbach_asymptotics(params, curve, t, lags, delta))


def _sigma2_integrals(p: MlParams, curve: ForwardVarianceCurve, c: float,
                     delta: float) -> float:
    """Var[sigma2] / (nu/lam)^2 at time t = c + delta:

    int_0^c (F(s+delta) - F(s))^2 xi0(c-s) ds + int_0^delta F(s)^2 xi0(t-s) ds.

    The first integrand is of size F(delta)^2 near the origin and decays like
    (delta f(s))^2 for s >> delta, so its segments end at the day scales
    delta * 8^j (``_ts_quad`` drops the cuts beyond c).
    """
    def main(s, rest):
        return (ml_cdf_grid(p, s + delta) - ml_cdf_grid(p, s)) ** 2 * curve(rest)

    def edge(s, rest):
        return ml_cdf_grid(p, s) ** 2 * curve(c + rest)

    main_cuts = np.concatenate([delta * 8.0 ** np.arange(24), c - curve._kinks_between(0.0, c)])
    edge_cuts = c + delta - curve._kinks_between(c, c + delta)
    return (_ts_quad(main, 0.0, c, main_cuts, epsrel=1e-10)
            + _ts_quad(edge, 0.0, delta, edge_cuts, epsrel=1e-10))


def var_sigma2(params: ModelParams, curve: ForwardVarianceCurve, t: float,
               delta: float = TRADING_DAY) -> float:
    """Variance of the daily integrated variance at time t >= delta.

    (nu/lam)^2 [ int_0^(t-delta) (F(s+delta) - F(s))^2 xi0(t-delta-s) ds
               + int_0^delta F(s)^2 xi0(t-s) ds ].
    """
    _check_horizon(delta, t)
    if params.nu == 0.0:
        return 0.0
    return (params.nu / params.lam) ** 2 * _sigma2_integrals(params.ml(), curve, t - delta, delta)


def _leverage(params: ModelParams, curve: ForwardVarianceCurve, t: float,
              delta: float) -> float:
    """Leverage integral L of ``fourth_moment_r``; 0 where rho = 0 or nu = 0.

    A flat curve reads the lag integral I_0.  Other curves run the nested rule
    below, ~2e-7 off I_0 on a constant curve: its middle integral has no cuts.
    """
    if params.rho == 0.0 or params.nu == 0.0:
        return 0.0
    if curve.is_flat:
        return float(_lag_integrals(params, curve, t, np.array([0]), delta)[0])
    lam, c = params.lam, t - delta

    def inner(s, _):
        # int_0^s f(u) int_0^(s-u) f(x) xi0(c+s-u-x) dx du at every node s
        def mid(u):
            return _f_conv_curve(params, curve, (s[:, None, None] - u).ravel(),
                                 (c + s[:, None, None] - u).ravel()).reshape(u.shape)

        return lam * _kernel_integral(params.alpha, lam, s, mid, np.empty((s.size, 0)))

    return _ts_quad(inner, 0.0, delta, t - curve._kinks_between(c, t))


def _r4(params: ModelParams, leverage: float, gauss: float, var_s2: float) -> float:
    """E[r^4] = 12 (rho nu/lam)^2 leverage + gauss + 3 var_s2; gauss alone at nu = 0."""
    if params.nu == 0.0:
        return gauss
    return 12.0 * (params.rho * params.nu / params.lam) ** 2 * leverage + gauss + 3.0 * var_s2


def fourth_moment_r(params: ModelParams, curve: ForwardVarianceCurve, t: float,
                    delta: float = TRADING_DAY) -> float:
    """Fourth moment of the daily return at time t >= delta.

    With c = t - delta,

        E[r^4] = 12 (rho nu/lam)^2 L + G + 3 var_sigma2(t, delta),

    where L = int_0^delta ds int_0^s f(u) int_0^(s-u) f(x) xi0(c+s-u-x) dx du
    is the leverage term and G = 6 int_0^delta xi0(c+s) int_c^(c+s) xi0 ds
    = 3 (int_c^t xi0)^2 the Gaussian term with deterministic variance.  The
    two vol-of-vol terms add up to exactly 3 Var[sigma2]: by Fubini and one
    integration by parts,
    int_0^delta ds int_0^s f(u) F(u) xi0(c+s-u) du = (1/2) int_0^delta
    F(u)^2 xi0(t-u) du, which is the edge integral of ``var_sigma2``, and the
    other term is its main integral.  At nu = 0 only G remains.
    """
    _check_horizon(delta, t)
    return _r4(params, _leverage(params, curve, t, delta), 3.0 * curve.integral(t - delta, t) ** 2,
               var_sigma2(params, curve, t, delta))


def stationary_var_sigma2(params: ModelParams, xi_inf: float,
                          delta: float = TRADING_DAY) -> float:
    """Limit of ``var_sigma2`` as t -> infinity when xi0(t) -> xi_inf.

    (nu/lam)^2 xi_inf [ int_0^inf (F(s+delta)-F(s))^2 ds + int_0^delta F^2 ds ];
    for small delta this is equivalent to (nu/lam)^2 xi_inf delta^2 times the
    squared L2 norm of the density (the approach rate is delta^(2 alpha - 1)).
    """
    _check_horizon(delta, xi_inf=xi_inf)
    if params.nu == 0.0:
        return 0.0
    return (params.nu / params.lam) ** 2 * _stationary_sigma2_integrals(
        float(params.alpha), float(params.lam), float(xi_inf), float(delta))


@functools.lru_cache(maxsize=128)
def _stationary_sigma2_integrals(alpha: float, lam: float, xi_inf: float,
                                 delta: float) -> float:
    """``stationary_var_sigma2`` / (nu/lam)^2, memoised (see the module docstring)."""
    p = MlParams(alpha, lam)
    # beyond upper, (F(s+delta) - F(s))^2 ~ delta^2 f(s+delta/2)^2 has a closed form
    upper = max(60.0 / p.lam ** (1.0 / p.alpha), 1000.0 * delta)
    tail = xi_inf * delta**2 * density_sq_tail(p, upper + 0.5 * delta)
    return _sigma2_integrals(p, ForwardVarianceCurve.flat(xi_inf), upper, delta) + tail


def stationary_fourth_moment_r(params: ModelParams, xi_inf: float,
                               delta: float = TRADING_DAY) -> float:
    """Limit of the return fourth moment as t -> infinity.

    xi_inf 12 (rho nu/lam)^2 int_0^delta F(u) F(delta-u) du + 3 xi_inf^2 delta^2
    + 3 stationary_var_sigma2; equivalent for small delta to
    3 xi_inf^2 delta^2 + 3 (nu/lam)^2 xi_inf delta^2 * l2_norm_f_squared.
    """
    var_s2 = stationary_var_sigma2(params, xi_inf, delta)
    leverage = _leverage(params, ForwardVarianceCurve.flat(xi_inf), delta, delta)
    return _r4(params, leverage, 3.0 * xi_inf**2 * delta**2, var_s2)


def zumbach_correl(params: ModelParams, xi_inf: float, k: int,
                   delta: float = TRADING_DAY) -> float:
    """Correlation-normalised stationary asymmetry.

    Z(k) / sqrt(Var[sigma2] Var[r^2]) with every factor taken in its
    t -> infinity limit under a flat curve at xi_inf; Var[r^2] uses
    E[r^2] = xi_inf * delta.  Z(k) and the leverage term of E[r^4] come from
    one ``_lag_integrals`` call.  Dimensionless and positive for rho != 0;
    the |value| <= 1 bound is checked only by a warning since numerator and
    denominator come from separately computed limits.
    """
    if params.nu == 0.0:
        raise ContractError("correlation is degenerate at nu = 0 (zero variance)")
    _check_horizon(delta, xi_inf=xi_inf)
    lags = np.append(_check_lags([k]), 0)
    if params.rho == 0.0:
        return 0.0
    var_s2 = stationary_var_sigma2(params, xi_inf, delta)
    z_k, leverage = _lag_integrals(params, ForwardVarianceCurve.flat(xi_inf), delta, lags, delta)
    num = 2.0 * (params.rho * params.nu / params.lam) ** 2 * z_k
    var_r2 = _r4(params, leverage, 3.0 * xi_inf**2 * delta**2, var_s2) - (xi_inf * delta) ** 2
    if var_s2 <= 0.0 or var_r2 <= 0.0:
        raise ContractError("degenerate denominator in zumbach_correl")
    out = float(num / math.sqrt(var_s2 * var_r2))
    if abs(out) > 1.0:
        warnings.warn(f"zumbach_correl left [-1, 1]: {out}", stacklevel=2)
    return out


def zumbach_correl_small_delta(params: ModelParams, xi_inf: float, k: int,
                               delta: float = TRADING_DAY) -> float:
    """Small-delta equivalent of ``zumbach_correl``.

    2 (rho nu)^2 delta^(2 alpha - 1) g_alpha(k)
        / sqrt(A * (2 xi_inf + 3 A)),      A = (nu/lam)^2 * ||f||_2^2.

    Derived by combining the small-delta equivalents of the numerator and of
    both variances; the approach rate of the exact ratio to this expression
    is delta^(2 alpha - 1), so it is only informative when that power is
    genuinely small.
    """
    if params.nu == 0.0:
        raise ContractError("correlation is degenerate at nu = 0 (zero variance)")
    _check_horizon(delta, xi_inf=xi_inf)
    _check_lags([k])
    if params.rho == 0.0:
        return 0.0
    alpha = params.alpha
    a_const = (params.nu / params.lam) ** 2 * l2_norm_f_squared(params.ml())
    return (2.0 * (params.rho * params.nu) ** 2 * delta ** (2.0 * alpha - 1.0)
            * g_alpha(alpha, k) / math.sqrt(a_const * (2.0 * xi_inf + 3.0 * a_const)))
