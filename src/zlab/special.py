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
The power series of E_{a,b}(-z) cancels catastrophically once z^(1/a) is
large, so it cannot serve every scale in double precision.  One array
evaluator serves E, F, f and the kernel E_{a,a}(-z) that ``zlab.model``
integrates (the scalar functions are one-element calls to it); it splits its
arguments into two regimes and evaluates each regime for all of its points
at once:

* ``z <= 7**a`` -- the defining power series, summed in plain double
  precision (``ml_series_grid``; worst cancellation bounded near
  exp(7) ~ 1e3, which keeps the rounding floor below 1e-12 absolute);
* ``z > 7**a``  -- the Hankel integral of e^s s^(a-b) / (s^a + z), by the
  trapezoid rule on one fixed 33-node hyperbolic contour.  Its error is
  absolute (<= ~2e-16), so the relative error grows where the value is
  small: near a = 1, where E falls to ~e^-t (5e-7 relative for E, 1e-5 for
  the density at a = 1 - 1e-9 and t <= 50), and in the far tail of the
  density, which falls like t^(-a-1) (at t = 1e6 it is 3e-12 relative at
  a = 0.55 and 1e-9 at a = 0.9; no library caller goes beyond t = 50).

At a = 1 everything collapses to exp/expm1 and is special-cased: the
exponential keeps its relative accuracy where e^-t falls below the
contour's absolute error.

The package has one tanh-sinh rule, ``_ts_quad`` (step 1/12, 77 nodes per
segment, checked against its step-1/6 sub-rule); ``l2_norm_f_squared`` and
the outer integrals of ``zlab.model`` run on it, Z(k) and the flat leverage
term of E[r^4] as rows of one call.  No code path calls an adaptive quadrature.

All public entry points are pure functions.  The one piece of state is the
memo of ``l2_norm_f_squared``: a ``functools.lru_cache`` of at most 128
entries keyed by (alpha, lam) as floats.  It holds the very float the
computation returned, so a hit changes no result bit, and ``lru_cache`` is
thread-safe, so concurrent callers need no locking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, QuadratureError

__all__ = [
    "MlParams",
    "ml_neg",
    "ml_density",
    "ml_cdf",
    "ml_cdf_grid",
    "l2_norm_f_squared",
]

# Series edge in terms of t = z^(1/a), z = lam * x^a; see module docstring.
_SERIES_EDGE = 7.0
# Start of the scaled tail on which density_sq_tail's expansion holds.
_ASYM_EDGE = 30.0
# Within this distance of alpha = 1, evaluate the exponential case, whose
# relative accuracy alpha = 1 itself needs (e^-t soon falls below the
# contour's absolute error); |E_alpha - E_1| <= ~2 |1 - alpha| keeps the
# switch's error near 1e-11.
_ALPHA_ONE_PAD = 5e-12

# Hankel contour for every z beyond the series (Weideman & Trefethen, Math.
# Comp. 2007; Garrappa, SIAM J. Numer. Anal. 2015): the hyperbola
# sigma(u) = 6.4 (1 + sin(iu - 0.85)) at u_k = k h, h = 4/32, k = 0..32.  The
# weights carry e^sigma_k (h/pi) sigma'(u_k), halved at u = 0: the u < 0 half
# of the contour mirrors the u > 0 half by conjugation.
_HK_H = 4.0 / 32
_HK_U = _HK_H * np.arange(33)
_HK_NODES = 6.4 * (1.0 + np.sin(1j * _HK_U - 0.85))
_HK_WEIGHTS = _HK_H / np.pi * 6.4 * 1j * np.cos(1j * _HK_U - 0.85) * np.exp(_HK_NODES)
_HK_WEIGHTS[0] *= 0.5

# Tanh-sinh rule on (0, 1): y(x) = (1 + tanh(pi/2 sinh x)) / 2 at x = k/12,
# |k| <= 38.  The nodes are symmetric, so _TS_NODES[::-1] holds 1 - y
# without cancellation; the weights carry the step and dy/dx.
_TS_X = np.arange(-38, 39) / 12.0
_TS_NODES = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(_TS_X)))
_TS_WEIGHTS = np.pi / 12.0 * np.cosh(_TS_X) * _TS_NODES * _TS_NODES[::-1]


def __getattr__(name: str):
    # quad is not called here, but perfbench's tracer wraps special.quad;
    # importing scipy.integrate only on that lookup keeps it out of every zlab
    # process.  ROADMAP item 1 deletes this hook with the tracer's quad counts.
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _ts_quad(fn, a: float, b: float, cuts=(), epsrel: float = 1e-8) -> float | np.ndarray:
    """int_a^b fn(s, b - s) ds by the tanh-sinh rule on each segment between cuts.

    fn maps two 1-d arrays, the nodes s and their distances b - s, to one of
    their shape, or to one row per integrand (then the result is an array).
    The distance to b comes from the mirrored node, so it stays exact and
    positive next to b.  The even-indexed nodes form the rule at twice the
    step; QuadratureError if any integral differs from it by more than
    1e3 * epsrel * |value|.
    """
    cuts = np.asarray(cuts, dtype=float)
    edges = np.unique(np.concatenate([[a, b], cuts[(cuts > a) & (cuts < b)]]))[:, None]
    width = edges[1:] - edges[:-1]
    vals = fn((edges[:-1] + width * _TS_NODES).ravel(),
              (b - edges[1:] + width * _TS_NODES[::-1]).ravel())
    terms = width * _TS_WEIGHTS * vals.reshape(vals.shape[:-1] + (width.size, _TS_X.size))
    val = terms.sum(axis=(-2, -1))
    coarse = 2.0 * terms[..., ::2].sum(axis=(-2, -1))
    bad = ~(np.isfinite(val) & (np.abs(val - coarse) <= 1e3 * epsrel * np.abs(val)))
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise QuadratureError(
            f"tanh-sinh rule on [{a}, {b}] gave {val.flat[i]:.6e} at step 1/12 and "
            f"{coarse.flat[i]:.6e} at step 1/6")
    return float(val) if val.ndim == 0 else val


def _recip_gamma(x: float) -> float:
    # 1/Gamma(x), finite for every real x (zero at the poles).
    if x > 0.5:
        return 1.0 / math.gamma(x)
    return math.gamma(1.0 - x) * math.sin(math.pi * x) / math.pi


def ml_series_grid(alpha: float, shift: float, z: np.ndarray) -> np.ndarray:
    """Vectorised E_{a,a+shift}(-z) = sum_k (-z)^k / Gamma(a*k + a + shift).

    For 0 <= z <= 7**alpha only; ``_ml_eval``, which sends every larger z to
    the contour, is its only library caller.  The sum stops once every
    element's next term is below ~1e-20 (at alpha = 0.05 after ~1000 terms);
    the range only keeps the gamma argument below its overflow at 171.6.
    The kernel weights depend bit for bit on the gamma argument's
    evaluation order.
    """
    acc = np.zeros_like(z)
    power = np.ones_like(z)
    neg_z = -z
    for k in range(int((170.0 - shift) / alpha)):
        g = math.gamma(alpha * k + alpha + shift)
        acc += power / g
        power *= neg_z
        if not (np.abs(power) > 1e-20 * g).any():
            break
    return acc


def _ml_contour(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{a,b}(-z) = (1/2 pi i) int e^s s^(a-b) / (s^a + z) ds on a Hankel contour.

    The integrand has no pole on the principal sheet for a < 1; the
    trapezoid rule on the fixed hyperbola _HK_NODES folds everything but
    z into constant weights c_k, so E = sum_k Im[c_k / (s_k^a + z)].
    """
    coeffs = _HK_WEIGHTS * _HK_NODES ** (alpha - beta)
    acc = np.zeros_like(z)
    for s_a, c in zip(_HK_NODES**alpha, coeffs):
        acc += (c / (s_a + z)).imag
    return acc


def _ml_eval(alpha: float, z: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise over an array z >= 0, for 0 < alpha <= 1:

    ``"neg"``: E_alpha(-z); ``"cdf"``: 1 - E_alpha(-z), summed in the series
    regime as z E_{alpha,alpha+1}(-z) so that tiny values keep their relative
    accuracy; ``"kernel"``: E_{alpha,alpha}(-z); ``"density"``: the standard
    density f(y; alpha, 1) = E_{alpha,alpha}(-z) * z^(1 - 1/alpha) at
    y = z^(1/alpha), for z > 0.
    """
    if alpha >= 1.0 - _ALPHA_ONE_PAD:
        return -np.expm1(-z) if kind == "cdf" else np.exp(-z)
    beta = 1.0 if kind in ("neg", "cdf") else alpha
    series = z <= _SERIES_EDGE**alpha
    contour = ~series
    # an all-series array (as the model's kernel grids mostly are) is summed without copies
    zs = z if series.all() else z[series]
    out = zs * ml_series_grid(alpha, 1.0, zs) if kind == "cdf" \
        else ml_series_grid(alpha, beta - alpha, zs)
    if zs is not z:
        out, vals = np.empty_like(z), out
        out[series], out[contour] = vals, _ml_contour(alpha, beta, z[contour])
    if kind == "density":
        out *= z ** (1.0 - 1.0 / alpha)
    elif kind == "cdf":
        out[contour] = 1.0 - out[contour]
    return out


def ml_neg(alpha: float, x: float) -> float:
    """Mittag-Leffler function E_alpha(-x) for x >= 0, 0 < alpha <= 1.

    Returns a value in (0, 1]; absolute accuracy is ~1e-12 (validated
    against extended-precision oracles across x in [0, 1e6]).  Beyond the
    series (x > 7**alpha) the error is absolute, <= ~2e-16, not relative:
    near alpha = 1, where E is ~e^-t (t = x^(1/alpha)), it reaches 5e-7
    relative at alpha = 1 - 1e-9.
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
    exact leading singular factor in every regime.  Beyond the series
    (y = lam^(1/a) x > 7) the error of the standard density is absolute,
    <= ~5e-17, so its relative error grows in the far tail: at y = 1e6 it is
    3e-12 at alpha = 0.55, 1e-9 at 0.9 and 6e-7 at 0.999 (at most 1.2e-11 for
    alpha <= 0.999 and y <= 50, beyond which no library caller goes).
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
    v^(a/(2a-1)) makes a sharp rise near its end as a -> 1/2.  Values are
    memoised per (alpha, lam); see the module docstring.
    """
    return _l2_norm_f_squared(float(p.alpha), float(p.lam))


@functools.lru_cache(maxsize=128)
def _l2_norm_f_squared(alpha: float, lam: float) -> float:
    if alpha == 1.0:
        return 0.5 * lam
    a_edge, tail_edge = 0.5, 50.0
    expo = alpha / (2.0 * alpha - 1.0)
    v_end = a_edge ** (2.0 * alpha - 1.0)
    origin = _ts_quad(lambda v, _: _ml_eval(alpha, v**expo, "kernel") ** 2,
                      0.0, v_end, v_end * 8.0 ** (-np.arange(1.0, 4.0) / expo), 1e-11)
    mid = _ts_quad(lambda y, _: _ml_eval(alpha, y**alpha, "density") ** 2,
                   a_edge, tail_edge, (2.0, 8.0, 32.0), 1e-11)
    tail = density_sq_tail(MlParams(alpha, 1.0), tail_edge)
    return lam ** (1.0 / alpha) * (origin / (2.0 * alpha - 1.0) + mid + tail)
