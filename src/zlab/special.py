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
z^(1/a) is large enough.  Three regimes are used:

* ``z <= 9.2**a``  -- the defining power series, compensated with
  ``math.fsum`` (worst cancellation bounded near exp(9.2) ~ 1e4, which keeps
  the rounding floor near 1e-12 absolute);
* ``z >= 30**a``   -- the tail expansion with reciprocal gammas computed via
  the reflection formula and truncation at the minimum of the sin-free term
  envelope (the raw term magnitudes are not monotone: the reflection sine
  vanishes near poles and must not trip the stopping rule);
* in between      -- an adaptive Gauss-Kronrod evaluation of the spectral
  representation of the completely monotone function E_a(-p^a) as a Laplace
  transform of a positive kernel, after substituting away the r^(a-1)
  endpoint singularity.

At a = 1 everything collapses to exp/expm1 and is special-cased: the tail
expansion degenerates there (every reciprocal gamma hits a pole), while the
exponential is exact.

All public entry points are pure functions; nothing in this module holds
mutable state, so concurrent callers need no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

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


def _recip_gamma(x: float) -> float:
    # 1/Gamma(x), finite for every real x (zero at the poles).
    if x > 0.5:
        return 1.0 / math.gamma(x)
    return math.gamma(1.0 - x) * math.sin(math.pi * x) / math.pi


def _ml_series(alpha: float, beta: float, z: float) -> float:
    """sum_{k>=0} (-z)^k / Gamma(alpha*k + beta) by compensated summation.

    Only valid in the small-cancellation regime z <= 9.2**alpha (callers
    enforce this); terms peak near k* = z^(1/alpha)/alpha and then decay
    super-exponentially, so 250 terms is far more than ever needed.
    """
    terms = []
    zk = 1.0
    for k in range(250):
        term = zk / math.gamma(alpha * k + beta)
        terms.append(term)
        if abs(term) < 1e-20 and k > 8:
            break
        zk *= -z
    return math.fsum(terms)


def _ml_asym(alpha: float, beta: float, z: float) -> float:
    """Tail expansion E_{a,b}(-z) ~ sum_{k>=1} (-1)^(k+1) z^-k / Gamma(b - a k).

    Reciprocal gammas go through the reflection formula, and the truncation
    point is the minimum of the sin-free envelope z^-k Gamma(1 - b + a k)/pi.
    """
    total = 0.0
    env_prev = math.inf
    zk = 1.0
    for k in range(1, 400):
        zk /= z
        x = beta - alpha * k
        arg = 1.0 - x
        genv = math.gamma(arg) if arg < 170.0 else math.inf
        env = zk * genv / math.pi
        if env > env_prev or not math.isfinite(env):
            break
        total += (-1) ** (k + 1) * zk * (genv * math.sin(math.pi * x) / math.pi)
        env_prev = env
        if env < 1e-18:
            break
    return total


def _spectral_quad(alpha: float, p: float, power: float) -> float:
    """Integrate u^power * exp(-p u^(1/a)) / ((u + cos(pi a))^2 + sin(pi a)^2).

    This is the spectral (Laplace-transform) kernel after the substitution
    r = u^(1/a); ``power = 0`` gives E_a(-p^a) and ``power = 1/a`` gives the
    standard density at p, both up to the prefactor sin(pi a)/(a pi).  The
    denominator is kept in completed-square form (the expanded quadratic
    cancels catastrophically as a -> 1).  Its Lorentzian peak at
    u = -cos(pi a) has width sin(pi a), which gets arbitrarily sharp as
    a -> 1, so that neighbourhood is integrated separately with breakpoints
    at the true peak scale.
    """
    sa = math.sin(alpha * math.pi)
    ca = math.cos(alpha * math.pi)
    inv_a = 1.0 / alpha

    def g(u: float) -> float:
        d = u + ca
        return u**power * math.exp(-p * u**inv_a) / (d * d + sa * sa)

    upper = (50.0 / p) ** alpha
    peak = -ca
    width = max(sa, 1e-4)
    total = 0.0
    lo, hi = max(0.0, peak - 6.0 * width), min(upper, peak + 6.0 * width)
    for a_seg, b_seg in ((0.0, lo), (lo, hi), (hi, upper)):
        if b_seg <= a_seg:
            continue
        pts = [x for x in (peak - width, peak - sa, peak, peak + sa, peak + width)
               if a_seg < x < b_seg]
        val, err = quad(g, a_seg, b_seg, points=pts or None, limit=300,
                        epsabs=1e-18, epsrel=1e-13)
        if not math.isfinite(val):
            raise QuadratureError(
                f"spectral quadrature failed (alpha={alpha}, p={p})")
        total += val
    return sa / (alpha * math.pi) * total


def ml_neg(alpha: float, x: float) -> float:
    """Mittag-Leffler function E_alpha(-x) for x >= 0, 0 < alpha <= 1.

    Returns a value in (0, 1]; absolute accuracy is ~1e-12 (validated
    against extended-precision oracles across x in [0, 1e6]).
    """
    if not 0.0 < alpha <= 1.0:
        raise ContractError(f"alpha must lie in (0, 1], got {alpha}")
    if x < 0.0 or not math.isfinite(x):
        raise ContractError(f"x must be finite and >= 0, got {x}")
    if alpha >= 1.0 - _ALPHA_ONE_PAD:
        return math.exp(-x)
    if x == 0.0:
        return 1.0
    if x <= _SERIES_EDGE**alpha:
        return _ml_series(alpha, 1.0, x)
    if x >= _ASYM_EDGE**alpha:
        return _ml_asym(alpha, 1.0, x)
    return _spectral_quad(alpha, x ** (1.0 / alpha), 0.0)


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
    if alpha >= 1.0 - _ALPHA_ONE_PAD:
        return lam * math.exp(-lam * x)
    scale = lam ** (1.0 / alpha)
    y = scale * x
    z = lam * x**alpha
    if z <= _SERIES_EDGE**alpha:
        return scale * y ** (alpha - 1.0) * _ml_series(alpha, alpha, z)
    if z >= _ASYM_EDGE**alpha:
        return scale * y ** (alpha - 1.0) * _ml_asym(alpha, alpha, z)
    return scale * _spectral_quad(alpha, y, 1.0 / alpha)


def ml_cdf(p: MlParams, x: float) -> float:
    """Mittag-Leffler CDF F(x; alpha, lam) = 1 - E_alpha(-lam x^alpha), x >= 0.

    Strictly increasing with F(0) = 0 and F -> 1; the small-x branch sums the
    series for F directly (z * E_{a, a+1}(-z) with z = lam x^a) so the result
    keeps full relative accuracy where F is tiny.
    """
    if x < 0.0 or not math.isfinite(x):
        raise ContractError(f"x must be finite and >= 0, got {x}")
    alpha, lam = p.alpha, p.lam
    if x == 0.0:
        return 0.0
    if alpha >= 1.0 - _ALPHA_ONE_PAD:
        return -math.expm1(-lam * x)
    z = lam * x**alpha
    if z <= _SERIES_EDGE**alpha:
        return z * _ml_series(alpha, alpha + 1.0, z)
    if z >= _ASYM_EDGE**alpha:
        return 1.0 - _ml_asym(alpha, 1.0, z)
    return 1.0 - _spectral_quad(alpha, z ** (1.0 / alpha), 0.0)


def ml_series_grid(alpha: float, shift: float, z: np.ndarray) -> np.ndarray:
    """Vectorised E_{a,a+shift}(-z) = sum_k (-z)^k / Gamma(a*k + a + shift).

    For 0 <= z <= 9.2**alpha only, like ``_ml_series``.  The kernel weights
    depend bit for bit on the gamma argument's evaluation order.
    """
    acc = np.zeros_like(z)
    power = np.ones_like(z)
    for k in range(160):
        g = math.gamma(alpha * k + alpha + shift)
        acc += power / g
        power *= -z
        if not np.any(np.abs(power) > 1e-20 * g):
            break
    return acc


def ml_cdf_grid(p: MlParams, x: np.ndarray) -> np.ndarray:
    """Vectorised ``ml_cdf`` over a nonnegative array.

    The series regime (which covers every argument the simulation kernel
    weights ever need at production parameters) is evaluated as a vectorised
    polynomial pass; stray points beyond it fall back to the scalar path.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ContractError("ml_cdf_grid expects a 1-d array")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ContractError("ml_cdf_grid arguments must be finite and >= 0")
    alpha, lam = p.alpha, p.lam
    if alpha >= 1.0 - _ALPHA_ONE_PAD:
        return -np.expm1(-lam * x)
    z = lam * np.power(x, alpha)
    out = np.empty_like(z)
    small = z <= _SERIES_EDGE**alpha
    if np.any(small):
        zs = z[small]
        out[small] = zs * ml_series_grid(alpha, 1.0, zs)
    for i in np.nonzero(~small)[0]:
        out[i] = ml_cdf(p, float(x[i]))
    return out


def _phi_tail_coeffs(alpha: float) -> tuple[float, float, float]:
    # Standard-density tail f(y;a,1) ~ c1 y^(-a-1) + c2 y^(-2a-1) + c3 y^(-3a-1).
    return (-_recip_gamma(-alpha), _recip_gamma(-2.0 * alpha), -_recip_gamma(-3.0 * alpha))


def _phi_sq_tail(alpha: float, y0: float) -> float:
    """Closed-form integral of the squared standard-density tail beyond y0 >= 30."""
    c1, c2, c3 = _phi_tail_coeffs(alpha)
    a = alpha
    return (c1 * c1 * y0 ** (-2 * a - 1) / (2 * a + 1)
            + 2 * c1 * c2 * y0 ** (-3 * a - 1) / (3 * a + 1)
            + (c2 * c2 + 2 * c1 * c3) * y0 ** (-4 * a - 1) / (4 * a + 1))


def density_sq_tail(p: MlParams, x0: float) -> float:
    """Integral of f(x; alpha, lam)^2 over [x0, inf) for x0 deep in the tail.

    Requires lam^(1/alpha) * x0 >= 30 so the three-term algebraic expansion
    of the density is accurate; used for tail truncation of semi-infinite
    quadratures elsewhere in the package.
    """
    scale = p.lam ** (1.0 / p.alpha)
    y0 = scale * x0
    if p.alpha < 1.0 and y0 < _ASYM_EDGE:
        raise ContractError(f"tail start {x0} too small (scaled {y0} < {_ASYM_EDGE})")
    return scale * _phi_sq_tail(p.alpha, y0)


def l2_norm_f_squared(p: MlParams) -> float:
    """Integral over (0, inf) of the squared Mittag-Leffler density.

    Finite only for alpha > 1/2 (the squared origin singularity s^(2a-2)
    must be integrable), which ``MlParams`` already guarantees.  The origin
    piece is computed after the substitution y = v^(1/(2a-1)) that absorbs
    the singularity, the mid section by adaptive quadrature, and the tail
    beyond y = 50 from the algebraic expansion of the density.
    """
    alpha, lam = p.alpha, p.lam
    if alpha == 1.0:
        return 0.5 * lam
    a_edge, tail_edge = 0.5, 50.0
    expo = alpha / (2.0 * alpha - 1.0)

    def origin_integrand(v: float) -> float:
        return _ml_series(alpha, alpha, v**expo) ** 2 / (2.0 * alpha - 1.0)

    origin, err = quad(origin_integrand, 0.0, a_edge ** (2.0 * alpha - 1.0),
                       limit=200, epsabs=1e-15, epsrel=1e-11)

    std = MlParams(alpha, 1.0)

    def mid_integrand(y: float) -> float:
        return ml_density(std, y) ** 2

    mid, err2 = quad(mid_integrand, a_edge, tail_edge, limit=300,
                     epsabs=1e-15, epsrel=1e-11)
    if err + err2 > 1e-8 * max(origin + mid, 1e-300):
        raise QuadratureError("l2_norm_f_squared quadrature did not converge")
    tail = _phi_sq_tail(alpha, tail_edge)
    return lam ** (1.0 / alpha) * (origin + mid + tail)
