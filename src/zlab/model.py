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
fixed 48-node Gauss-Legendre rule runs between curve kinks.  It integrates
a whole array of upper limits in one batch, flat curves included, so every
quadrature node at which a caller needs the inner integral goes through one
call.  Outer integrals
over the CDF F go through ``_ts_quad``, which runs the package's one fixed
tanh-sinh rule from :mod:`zlab.special`.  Its nodes crowd doubly
exponentially into the segment ends, so the algebraic endpoint
singularities of F(s) and F(delta - s) need no substitution; it checks
itself against the rule at twice its step.
Segments end at curve kinks and, on long ranges, at the day scales
delta * 8^j.  The semi-infinite integral of the stationary limit adds a
closed-form algebraic tail.
Degenerate inputs (rho = 0 or nu = 0) short-circuit to exact zeros.

All operations are pure functions of immutable inputs and can be evaluated
concurrently without locking.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
# ml_cdf is not called here, but perfbench's tracer wraps model.ml_cdf
from .special import (MlParams, _ts_rule, density_sq_tail, l2_norm_f_squared,  # noqa: F401
                      ml_cdf, ml_cdf_grid, ml_series_grid)

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
        if not self.lam > 0.0:
            raise ContractError(f"lam must be positive, got {self.lam}")
        if self.nu < 0.0:
            raise ContractError(f"nu must be nonnegative, got {self.nu}")
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
        if not level > 0.0:
            raise ContractError(f"flat level must be positive, got {level}")
        return cls(np.array([0.0]), np.array([float(level)]))

    @classmethod
    def piecewise_linear(cls, times, values) -> "ForwardVarianceCurve":
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise ContractError("knot arrays must be equal-length 1-d and nonempty")
        if np.any(t < 0.0) or np.any(np.diff(t) <= 0.0):
            raise ContractError("knot times must be nonnegative and strictly increasing")
        if np.any(v <= 0.0):
            raise ContractError("xi0 must be positive at every knot")
        if t.size == 1:
            return cls.flat(float(v[0]))
        return cls(t.copy(), v.copy())

    @property
    def is_flat(self) -> bool:
        return self._times.size == 1

    @property
    def level(self) -> float:
        if not self.is_flat:
            raise ContractError("level is only defined for flat curves")
        return float(self._values[0])

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
        if self.delta <= 0.0 or self.t < self.delta:
            raise ContractError("need delta > 0 and t >= delta")
        if len(self.lags) != len(self.values):
            raise ContractError("lags and values must be equal length")
        if len(self.lags) and np.any(np.asarray(self.lags) < 1):
            raise ContractError("lags must be >= 1")


def _ts_quad(fn, a: float, b: float, cuts=(), epsrel: float = 1e-8) -> float | np.ndarray:
    """int_a^b fn(s, b - s) ds by the tanh-sinh rule on each segment between cuts.

    fn maps two 1-d arrays to one, or to one row per integrand (then the
    result is an array); its second argument, the distance to b, is taken
    from the mirrored node, so it stays exact and positive next to b.
    QuadratureError if the rule at twice the step differs by more than
    1e3 * epsrel * |value|.
    """
    cuts = np.asarray(cuts, dtype=float)
    edges = np.unique(np.concatenate([[a, b], cuts[(cuts > a) & (cuts < b)]]))
    lo, hi = edges[:-1], edges[1:]

    def on_nodes(s, to_hi):
        vals = fn(s.ravel(), ((b - hi)[:, None] + to_hi).ravel())
        return vals.reshape(vals.shape[:-1] + s.shape)

    val = _ts_rule(on_nodes, lo, hi, epsrel, f"on [{a}, {b}]")
    return float(val) if val.ndim == 0 else val


def _kernel_integral(alpha: float, lam: float, upper: np.ndarray, fn,
                     cuts: np.ndarray) -> np.ndarray:
    """int_0^upper[i] u^(alpha-1) E_{alpha,alpha}(-lam u^alpha) fn(u)[i] du for every i.

    lam times this kernel is the density f; lam = 0 gives the fractional
    kernel u^(alpha-1) / Gamma(alpha), because E_{alpha,alpha}(0) =
    1/Gamma(alpha).  The substitution u = v^(1/alpha) removes the u^(alpha-1)
    singularity, leaving E_{alpha,alpha}(-lam v) fn(v^(1/alpha)) / alpha,
    which fixed 48-node Gauss-Legendre integrates on each segment between
    the kinks of fn: row i of ``cuts`` (shape (n, m)), clipped into
    [0, upper[i]].  Cuts outside that range make zero-width segments, which
    add exactly 0.  fn is called once, on the nodes u of shape (n, m + 1, 48).
    """
    v_hi = upper**alpha
    cut_v = np.clip(cuts, 0.0, upper[:, None]) ** alpha
    edges = np.sort(np.column_stack([np.zeros_like(v_hi), v_hi, cut_v]), axis=1)
    mid, half = 0.5 * (edges[:, :-1] + edges[:, 1:]), 0.5 * np.diff(edges, axis=1)
    v = mid[..., None] + half[..., None] * _GL_NODES
    vals = ml_series_grid(alpha, 0.0, lam * v) * fn(v ** (1.0 / alpha))
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
    if t < 0.0:
        raise ContractError(f"t must be >= 0, got {t}")
    kinks = curve._kinks_between(0.0, t)
    return curve(t) + params.lam * float(_kernel_integral(
        params.alpha, 0.0, np.array([t]), lambda u: curve(t - u), (t - kinks)[None, :])[0])


def g_alpha(alpha: float, k: int) -> float:
    """Universal lag profile of the small-delta asymmetry.

    g_alpha(k) = Gamma(alpha+1)^-2 int_0^1 ((k+s)^alpha - (k+s-1)^alpha)
    (1-s)^alpha ds; equals 1/2 for every k at alpha = 1 and decays like
    k^(alpha-1) for alpha < 1.
    """
    if not 0.5 < alpha <= 1.0:
        raise ContractError(f"alpha must lie in (1/2, 1], got {alpha}")
    if k < 1 or int(k) != k:
        raise ContractError(f"k must be a positive integer, got {k}")
    if alpha == 1.0:
        return 0.5

    def integrand(s, rest):
        return ((k + s) ** alpha - (k + s - 1.0) ** alpha) * rest ** alpha

    return _ts_quad(integrand, 0.0, 1.0, epsrel=1e-11) / math.gamma(alpha + 1.0) ** 2


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
    """``zumbach_cov`` at every lag; the lag-free inner integral is evaluated once."""
    if delta <= 0.0:
        raise ContractError(f"delta must be positive, got {delta}")
    if t < delta:
        raise ContractError(f"need t >= delta, got t={t}, delta={delta}")
    for k in lags:
        if k < 1 or int(k) != k:
            raise ContractError(f"k must be a positive integer, got {k}")
    ks = np.asarray(lags, dtype=int)
    if params.rho == 0.0 or params.nu == 0.0:
        return np.zeros(ks.size)
    p = params.ml()
    pref = 2.0 * (params.rho * params.nu / params.lam) ** 2
    c = t - delta
    shifts = np.unique(np.concatenate([ks, ks - 1]))

    def integrand(s, rest):
        cdf = ml_cdf_grid(p, (s + shifts[:, None] * delta).ravel()).reshape(shifts.size, s.size)
        diff = cdf[np.searchsorted(shifts, ks)] - cdf[np.searchsorted(shifts, ks - 1)]
        return diff * _f_conv_curve(params, curve, rest, c + rest)

    return pref * _ts_quad(integrand, 0.0, delta, t - curve._kinks_between(c, t))


def zumbach_asymptotic(params: ModelParams, curve: ForwardVarianceCurve,
                       t: float, k: int, delta: float = TRADING_DAY) -> float:
    """Small-delta equivalent 2 (rho nu)^2 delta^(2 alpha + 1) g_alpha(k) xi0(t).

    Independent of lam by construction and proportional to xi0(t).
    """
    if delta <= 0.0:
        raise ContractError(f"delta must be positive, got {delta}")
    if t < delta:
        raise ContractError(f"need t >= delta, got t={t}, delta={delta}")
    if params.rho == 0.0 or params.nu == 0.0:
        return 0.0
    alpha = params.alpha
    return (2.0 * (params.rho * params.nu) ** 2 * delta ** (2.0 * alpha + 1.0)
            * g_alpha(alpha, k) * curve(t))


def zumbach_curve(params: ModelParams, curve: ForwardVarianceCurve, t: float,
                  lags, delta: float = TRADING_DAY) -> ZumbachCurve:
    """Evaluate ``zumbach_cov`` and ``zumbach_asymptotic`` over a lag grid."""
    lags = np.asarray(lags, dtype=int)
    vals = _zumbach_covs(params, curve, t, lags, delta)
    asym = np.array([zumbach_asymptotic(params, curve, t, int(k), delta) for k in lags])
    return ZumbachCurve(delta=delta, t=t, lags=lags, values=vals, asymptotic=asym)


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
    if delta <= 0.0 or t < delta:
        raise ContractError(f"need delta > 0 and t >= delta, got t={t}, delta={delta}")
    if params.nu == 0.0:
        return 0.0
    return (params.nu / params.lam) ** 2 * _sigma2_integrals(params.ml(), curve, t - delta, delta)


def _int_cdf_bilinear(p: MlParams, delta: float) -> float:
    # int_0^delta F(u) F(delta-u) du
    return _ts_quad(lambda u, rest: ml_cdf_grid(p, u) * ml_cdf_grid(p, rest),
                    0.0, delta, epsrel=1e-10)


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
    if delta <= 0.0 or t < delta:
        raise ContractError(f"need delta > 0 and t >= delta, got t={t}, delta={delta}")
    lam, nu, rho = params.lam, params.nu, params.rho
    c = t - delta
    gauss = 3.0 * curve.integral(c, t) ** 2
    if nu == 0.0:
        return gauss
    if rho == 0.0:
        leverage = 0.0
    elif curve.is_flat:
        leverage = curve.level * _int_cdf_bilinear(params.ml(), delta)
    else:
        def inner(s, _):
            # int_0^s f(u) int_0^(s-u) f(x) xi0(c+s-u-x) dx du at every node s;
            # the middle integral runs without cuts
            def mid(u):
                return _f_conv_curve(params, curve, (s[:, None, None] - u).ravel(),
                                     (c + s[:, None, None] - u).ravel()).reshape(u.shape)

            return lam * _kernel_integral(params.alpha, lam, s, mid, np.empty((s.size, 0)))

        leverage = _ts_quad(inner, 0.0, delta, t - curve._kinks_between(c, t))
    return (12.0 * (rho * nu / lam) ** 2 * leverage + gauss
            + 3.0 * var_sigma2(params, curve, t, delta))


def stationary_var_sigma2(params: ModelParams, xi_inf: float,
                          delta: float = TRADING_DAY) -> float:
    """Limit of ``var_sigma2`` as t -> infinity when xi0(t) -> xi_inf.

    (nu/lam)^2 xi_inf [ int_0^inf (F(s+delta)-F(s))^2 ds + int_0^delta F^2 ds ];
    for small delta this is equivalent to (nu/lam)^2 xi_inf delta^2 times the
    squared L2 norm of the density (the approach rate is delta^(2 alpha - 1)).
    """
    if not xi_inf > 0.0:
        raise ContractError(f"xi_inf must be positive, got {xi_inf}")
    if delta <= 0.0:
        raise ContractError(f"delta must be positive, got {delta}")
    if params.nu == 0.0:
        return 0.0
    p = params.ml()
    # beyond upper, (F(s+delta) - F(s))^2 ~ delta^2 f(s+delta/2)^2 has a closed form
    upper = max(60.0 / p.lam ** (1.0 / p.alpha), 1000.0 * delta)
    tail = xi_inf * delta**2 * density_sq_tail(p, upper + 0.5 * delta)
    return (params.nu / params.lam) ** 2 * (
        _sigma2_integrals(p, ForwardVarianceCurve.flat(xi_inf), upper, delta) + tail)


def stationary_fourth_moment_r(params: ModelParams, xi_inf: float,
                               delta: float = TRADING_DAY) -> float:
    """Limit of the return fourth moment as t -> infinity.

    xi_inf 12 (rho nu/lam)^2 int_0^delta F(u) F(delta-u) du + 3 xi_inf^2 delta^2
    + 3 stationary_var_sigma2; equivalent for small delta to
    3 xi_inf^2 delta^2 + 3 (nu/lam)^2 xi_inf delta^2 * l2_norm_f_squared.
    """
    if not xi_inf > 0.0:
        raise ContractError(f"xi_inf must be positive, got {xi_inf}")
    if delta <= 0.0:
        raise ContractError(f"delta must be positive, got {delta}")
    nu, lam, rho = params.nu, params.lam, params.rho
    gauss = 3.0 * xi_inf**2 * delta**2
    if nu == 0.0:
        return gauss
    leverage = 0.0 if rho == 0.0 else \
        12.0 * (rho * nu / lam) ** 2 * xi_inf * _int_cdf_bilinear(params.ml(), delta)
    return leverage + gauss + 3.0 * stationary_var_sigma2(params, xi_inf, delta)


def zumbach_correl(params: ModelParams, xi_inf: float, k: int,
                   delta: float = TRADING_DAY) -> float:
    """Correlation-normalised stationary asymmetry.

    Z(k) / sqrt(Var[sigma2] Var[r^2]) with every factor taken in its
    t -> infinity limit under a flat curve at xi_inf; Var[r^2] uses
    E[r^2] = xi_inf * delta.  Dimensionless and positive for rho != 0; the
    |value| <= 1 bound is checked only by a warning since numerator and
    denominator come from separately computed limits.
    """
    if params.nu == 0.0:
        raise ContractError("correlation is degenerate at nu = 0 (zero variance)")
    if params.rho == 0.0:
        return 0.0
    flat = ForwardVarianceCurve.flat(xi_inf)
    num = zumbach_cov(params, flat, t=delta, k=k, delta=delta)
    var_s2 = stationary_var_sigma2(params, xi_inf, delta)
    var_r2 = stationary_fourth_moment_r(params, xi_inf, delta) - (xi_inf * delta) ** 2
    if var_s2 <= 0.0 or var_r2 <= 0.0:
        raise ContractError("degenerate denominator in zumbach_correl")
    out = num / math.sqrt(var_s2 * var_r2)
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
    if not xi_inf > 0.0:
        raise ContractError(f"xi_inf must be positive, got {xi_inf}")
    if params.rho == 0.0:
        return 0.0
    alpha = params.alpha
    a_const = (params.nu / params.lam) ** 2 * l2_norm_f_squared(params.ml())
    return (2.0 * (params.rho * params.nu) ** 2 * delta ** (2.0 * alpha - 1.0)
            * g_alpha(alpha, k) / math.sqrt(a_const * (2.0 * xi_inf + 3.0 * a_const)))
