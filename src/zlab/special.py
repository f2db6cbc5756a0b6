"""Mittag-Leffler functions on the negative real axis.

The one-parameter Mittag-Leffler function restricted to the negative half
line,

    E_a(-x) = sum_{k>=0} (-x)^k / Gamma(a*k + 1),        0 < a <= 1,  x >= 0,

interpolates between a pure exponential (a = 1) and heavy power-law decay
(a < 1).  The associated Mittag-Leffler probability density and its CDF,

    f(x; a, lam) = lam * x^(a-1) * sum_{k>=0} (-lam x^a)^k / Gamma(a(k+1)),
    F(x; a, lam) = 1 - E_a(-lam x^a),

are the resolvent kernel of the fractional mean-reversion operator and show
up as convolution weights throughout the model and simulation modules.  The
density is integrable but singular at the origin (~ lam x^(a-1) / Gamma(a))
and has a fat tail (~ x^(-a-1) * a / (lam * Gamma(1-a))) for a < 1.

Evaluation strategy
-------------------
No single expansion of E_{a,b}(-z) is usable across all scales in double
precision: the power series cancels catastrophically once z^(1/a) is large,
and the algebraic tail expansion only converges-in-the-asymptotic-sense once
z^(1/a) is large enough.  One array evaluator serves E, F and f (the scalar
functions are one-element calls to it); it splits its arguments into three
regimes and evaluates each regime for all of its points at once:

* ``z <= 9.2**a``  -- the defining power series, summed in plain double
  precision (``ml_series_grid``; worst cancellation bounded near
  exp(9.2) ~ 1e4, which keeps the rounding floor near 1e-12 absolute);
* ``z >= 30**a``   -- the tail expansion with reciprocal gammas computed via
  the reflection formula and truncation, per point, at the minimum of the
  sin-free term envelope (the raw term magnitudes are not monotone: the
  reflection sine vanishes near poles and must not trip the stopping rule);
* in between      -- the spectral representation of the completely monotone
  function E_a(-p^a) as a Laplace transform of a positive kernel, after
  substituting away the r^(a-1) endpoint singularity, on a fixed tanh-sinh
  rule whose segments end at the kernel's Lorentzian peak, at multiples of
  its width and at the decay scale of the Laplace exponential.

At a = 1 everything collapses to exp/expm1 and is special-cased: the tail
expansion degenerates there (every reciprocal gamma hits a pole), while the
exponential is exact.

The package has one tanh-sinh rule, ``_ts_rule`` (step 1/12, 77 nodes per
segment, checked against its own step-1/6 sub-rule): ``zlab.model`` runs its
outer integrals on it too.  No code path calls an adaptive quadrature.

All public entry points are pure functions; nothing in this module holds
mutable state, so concurrent callers need no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# quad is not called here, but perfbench's tracer wraps special.quad
from scipy.integrate import quad  # noqa: F401

from .errors import ContractError, QuadratureError

__all__ = [
    "MlParams",
    "ml_neg",
    "ml_density",
    "ml_cdf",
    "ml_cdf_grid",
    "l2_norm_f_squared",
]

# Regime switch points in terms of z = lam * x^a; see module docstring.
_SERIES_EDGE = 9.2
_ASYM_EDGE = 30.0
# Within this distance of alpha = 1, evaluate the exponential case instead:
# |E_alpha - E_1| <= ~2 |1 - alpha| there, which keeps the substitution error
# under 1e-11 while avoiding an unresolvably sharp spectral peak.
_ALPHA_ONE_PAD = 5e-12
# Spectral points per block, which keeps each node array of the rule under 1 MB.
_SPECTRAL_BLOCK = 32

# Tanh-sinh rule on (0, 1): y(x) = (1 + tanh(pi/2 sinh x)) / 2 at x = k/12,
# |k| <= 38.  The nodes are symmetric, so _TS_NODES[::-1] holds 1 - y
# without cancellation; the weights carry the step and dy/dx.
_TS_X = np.arange(-38, 39) / 12.0
_TS_NODES = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(_TS_X)))
_TS_WEIGHTS = np.pi / 12.0 * np.cosh(_TS_X) * _TS_NODES * _TS_NODES[::-1]


@dataclass(frozen=True)
class MlParams:
    """Shape/rate pair of the Mittag-Leffler density.

    alpha : shape in (1/2, 1]; alpha = 1 recovers the exponential density.
    lam   : rate > 0, units 1/year.
    """

    alpha: float
    lam: float

    def __post_init__(self) -> None:
        if not 0.5 < self.alpha <= 1.0:
            raise ContractError(f"alpha must lie in (1/2, 1], got {self.alpha}")
        if not self.lam > 0.0:
            raise ContractError(f"lam must be positive, got {self.lam}")


def _ts_rule(fn, lo: np.ndarray, hi: np.ndarray, epsrel: float, what: str) -> np.ndarray:
    """Tanh-sinh integrals of fn over the segments [lo, hi] (shape (..., m)), summed over m.

    fn maps the nodes u and their exact distances hi - u, both (..., m, 77),
    to values that broadcast against them.  The even-indexed nodes form the
    rule at twice the step; QuadratureError names ``what`` if any integral
    differs from it by more than 1e3 * epsrel * |value|.
    """
    width = (hi - lo)[..., None]
    terms = width * _TS_WEIGHTS * fn(lo[..., None] + width * _TS_NODES,
                                     width * _TS_NODES[::-1])
    val = terms.sum(axis=(-2, -1))
    coarse = 2.0 * terms[..., ::2].sum(axis=(-2, -1))
    bad = ~(np.isfinite(val) & (np.abs(val - coarse) <= 1e3 * epsrel * np.abs(val)))
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise QuadratureError(
            f"tanh-sinh rule {what} gave {val.flat[i]:.6e} at step 1/12 and "
            f"{coarse.flat[i]:.6e} at step 1/6")
    return val


def _recip_gamma(x: float) -> float:
    # 1/Gamma(x), finite for every real x (zero at the poles).
    if x > 0.5:
        return 1.0 / math.gamma(x)
    return math.gamma(1.0 - x) * math.sin(math.pi * x) / math.pi


def ml_series_grid(alpha: float, shift: float, z: np.ndarray) -> np.ndarray:
    """Vectorised E_{a,a+shift}(-z) = sum_k (-z)^k / Gamma(a*k + a + shift).

    For 0 <= z <= 9.2**alpha only.  The kernel weights depend bit for bit on
    the gamma argument's evaluation order.
    """
    acc = np.zeros_like(z)
    power = np.ones_like(z)
    neg_z = -z
    for k in range(160):
        g = math.gamma(alpha * k + alpha + shift)
        acc += power / g
        power *= neg_z
        if not (np.abs(power) > 1e-20 * g).any():
            break
    return acc


def _ml_tail(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Tail expansion E_{a,b}(-z) ~ sum_{k>=1} (-1)^(k+1) z^-k / Gamma(b - a k).

    Reciprocal gammas go through the reflection formula, and each element
    stops at the minimum of its sin-free envelope z^-k Gamma(1 - b + a k)/pi.
    """
    total = np.zeros_like(z)
    env_prev = np.full_like(z, np.inf)
    zk = np.ones_like(z)
    live = np.ones(z.shape, dtype=bool)
    for k in range(1, 400):
        zk /= z
        x = beta - alpha * k
        arg = 1.0 - x
        genv = math.gamma(arg) if arg < 170.0 else math.inf
        env = zk * genv / math.pi
        live &= (env <= env_prev) & np.isfinite(env)
        total[live] += (-1) ** (k + 1) * zk[live] * (genv * math.sin(math.pi * x) / math.pi)
        env_prev = env
        live &= env >= 1e-18
        if not np.any(live):
            break
    return total


def _ml_spectral(alpha: float, p: np.ndarray, power: float) -> np.ndarray:
    """sin(pi a)/(a pi) int_0^upper u^power exp(-p u^(1/a)) / ((u + cos(pi a))^2 + sin(pi a)^2) du.

    The spectral (Laplace-transform) kernel after r = u^(1/a), per element of
    p: ``power = 0`` gives E_a(-p^a), ``power = 1/a`` the standard density at
    p; at upper = (50/p)^a the exponential is e^-50.  The rule runs in
    w = u + cos(pi a), so the Lorentzian denominator does not cancel as
    a -> 1, where its width sin(pi a) vanishes.  Segments end at u = 0, at
    the peak w = 0, at w = +-sin(pi a) * 8^j (clipped to upper) and where the
    exponential is e^-1 and e^-8, a sharp step for small a.
    """
    # through 1 - a, which is exact, so sin(pi a) keeps its digits as a -> 1
    sa, ca = math.sin(math.pi * (1.0 - alpha)), -math.cos(math.pi * (1.0 - alpha))
    inv_a = 1.0 / alpha
    w_upper = (50.0 / p) ** alpha + ca
    spread = sa * 8.0 ** np.arange(16)
    peak_edges = np.unique(np.clip(np.concatenate([[ca, 0.0], -spread, spread]),
                                   ca, w_upper.max(initial=ca)))
    edges = np.sort(np.concatenate([np.minimum(peak_edges, w_upper[:, None]),
                                    (np.array([1.0, 8.0]) / p[:, None]) ** alpha + ca], axis=1))
    out = np.empty_like(p)
    for i in range(0, p.size, _SPECTRAL_BLOCK):
        block = slice(i, i + _SPECTRAL_BLOCK)
        pb = p[block, None, None]

        def g(w, _):
            u = w - ca
            return u**power * np.exp(-pb * u**inv_a) / (w * w + sa * sa)

        out[block] = _ts_rule(g, edges[block, :-1], edges[block, 1:], 1e-11,
                              f"on the Mittag-Leffler spectral integral (alpha={alpha})")
    return sa / (alpha * math.pi) * out


def _ml_eval(alpha: float, z: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise over an array z >= 0, for 0 < alpha <= 1:

    ``"neg"``: E_alpha(-z); ``"cdf"``: 1 - E_alpha(-z), summed in the series
    regime as z E_{alpha,alpha+1}(-z) so that tiny values keep their relative
    accuracy; ``"density"``: the standard density f(y; alpha, 1) at
    y = z^(1/alpha), for z > 0.
    """
    if alpha >= 1.0 - _ALPHA_ONE_PAD:
        return -np.expm1(-z) if kind == "cdf" else np.exp(-z)
    density = kind == "density"
    beta = alpha if density else 1.0
    series = z <= _SERIES_EDGE**alpha
    tail = z >= _ASYM_EDGE**alpha
    spectral = ~(series | tail)
    out = np.empty_like(z)
    zs = z[series]
    out[series] = zs * ml_series_grid(alpha, 1.0, zs) if kind == "cdf" \
        else ml_series_grid(alpha, beta - alpha, zs)
    if np.any(tail):
        out[tail] = _ml_tail(alpha, beta, z[tail])
    if np.any(spectral):
        out[spectral] = _ml_spectral(alpha, z[spectral] ** (1.0 / alpha),
                                     1.0 / alpha if density else 0.0)
    if density:
        # series and tail gave E_{alpha,alpha}(-z) = f(y) * y^(1-alpha)
        out[~spectral] *= z[~spectral] ** (1.0 - 1.0 / alpha)
    elif kind == "cdf":
        out[~series] = 1.0 - out[~series]
    return out


def ml_neg(alpha: float, x: float) -> float:
    """Mittag-Leffler function E_alpha(-x) for x >= 0, 0 < alpha <= 1.

    Returns a value in (0, 1]; absolute accuracy is ~1e-12 (validated
    against extended-precision oracles across x in [0, 1e6]).
    """
    if not 0.0 < alpha <= 1.0:
        raise ContractError(f"alpha must lie in (0, 1], got {alpha}")
    if x < 0.0 or not math.isfinite(x):
        raise ContractError(f"x must be finite and >= 0, got {x}")
    return float(_ml_eval(alpha, np.array([x], dtype=float), "neg")[0])


def ml_density(p: MlParams, x: float) -> float:
    """Mittag-Leffler density f(x; alpha, lam) for x > 0.

    Singular (~ lam x^(alpha-1)/Gamma(alpha)) at the origin when alpha < 1,
    so x = 0 is outside the domain.  Evaluation goes through the scaling
    identity f(x; a, lam) = lam^(1/a) * f(lam^(1/a) x; a, 1), which keeps the
    exact leading singular factor in every regime.
    """
    if x <= 0.0 or not math.isfinite(x):
        raise ContractError(f"x must be finite and > 0, got {x}")
    alpha, lam = p.alpha, p.lam
    z = np.array([lam * x**alpha])
    return lam ** (1.0 / alpha) * float(_ml_eval(alpha, z, "density")[0])


def ml_cdf(p: MlParams, x: float) -> float:
    """Mittag-Leffler CDF F(x; alpha, lam) = 1 - E_alpha(-lam x^alpha), x >= 0.

    Strictly increasing with F(0) = 0 and F -> 1; the small-x branch sums the
    series for F directly (z * E_{a, a+1}(-z) with z = lam x^a) so the result
    keeps full relative accuracy where F is tiny.
    """
    if x < 0.0 or not math.isfinite(x):
        raise ContractError(f"x must be finite and >= 0, got {x}")
    return float(_ml_eval(p.alpha, np.array([p.lam * x**p.alpha]), "cdf")[0])


def ml_cdf_grid(p: MlParams, x: np.ndarray) -> np.ndarray:
    """Vectorised ``ml_cdf`` over a nonnegative 1-d array."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ContractError("ml_cdf_grid expects a 1-d array")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ContractError("ml_cdf_grid arguments must be finite and >= 0")
    return _ml_eval(p.alpha, p.lam * np.power(x, p.alpha), "cdf")


def density_sq_tail(p: MlParams, x0: float) -> float:
    """Integral of f(x; alpha, lam)^2 over [x0, inf) for x0 deep in the tail.

    Requires lam^(1/alpha) * x0 >= 30 so the three-term algebraic expansion
    of the standard density, f(y; a, 1) ~ c1 y^(-a-1) + c2 y^(-2a-1) +
    c3 y^(-3a-1), is accurate; integrated in closed form.
    """
    a = p.alpha
    scale = p.lam ** (1.0 / a)
    y0 = scale * x0
    if a < 1.0 and y0 < _ASYM_EDGE:
        raise ContractError(f"tail start {x0} too small (scaled {y0} < {_ASYM_EDGE})")
    c1, c2, c3 = -_recip_gamma(-a), _recip_gamma(-2.0 * a), -_recip_gamma(-3.0 * a)
    return scale * (c1 * c1 * y0 ** (-2 * a - 1) / (2 * a + 1)
                    + 2 * c1 * c2 * y0 ** (-3 * a - 1) / (3 * a + 1)
                    + (c2 * c2 + 2 * c1 * c3) * y0 ** (-4 * a - 1) / (4 * a + 1))


def l2_norm_f_squared(p: MlParams) -> float:
    """Integral over (0, inf) of the squared Mittag-Leffler density.

    Finite only for alpha > 1/2 (the squared origin singularity s^(2a-2)
    must be integrable), which ``MlParams`` already guarantees.  The origin
    piece is computed after the substitution y = v^(1/(2a-1)) that absorbs
    the singularity, the mid section on [0.5, 50], both on the tanh-sinh
    rule, and the tail beyond y = 50 from the algebraic expansion of the
    density.  The origin piece is cut where y^a falls by factors of 8, which
    v^(a/(2a-1)) makes a sharp rise near its end as a -> 1/2.
    """
    alpha, lam = p.alpha, p.lam
    if alpha == 1.0:
        return 0.5 * lam
    a_edge, tail_edge = 0.5, 50.0
    expo = alpha / (2.0 * alpha - 1.0)
    v_edges = np.concatenate([[0.0], a_edge ** (2.0 * alpha - 1.0)
                              * 8.0 ** (-np.arange(3.0, -1.0, -1.0) / expo)])
    origin = _ts_rule(lambda v, _: ml_series_grid(alpha, 0.0, v**expo) ** 2,
                      v_edges[:-1], v_edges[1:], 1e-11,
                      "on the origin piece of l2_norm_f_squared")
    y_edges = np.array([a_edge, 2.0, 8.0, 32.0, tail_edge])
    mid = _ts_rule(lambda y, _: _ml_eval(alpha, y**alpha, "density") ** 2,
                   y_edges[:-1], y_edges[1:], 1e-11, "on the mid piece of l2_norm_f_squared")
    tail = density_sq_tail(MlParams(alpha, 1.0), tail_edge)
    return lam ** (1.0 / alpha) * (float(origin) / (2.0 * alpha - 1.0) + float(mid) + tail)
