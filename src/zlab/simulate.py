"""Volterra Euler Monte Carlo engine for the rough variance process.

Discretises the resolvent form

    V_t = xi0(t) + int_0^t f(t-s; alpha, lam) (nu/lam) sqrt(V_s) dB_s

on a uniform step grid t_i = i * dt (dt = delta / steps_per_day) with
integrated-kernel Euler weights

    w_m = (nu/lam) * [F(m dt) - F((m-1) dt)] / dt,        m >= 1,

so the recursion reads V_i = xi0(t_i) + sum_{j<i} w_{i-j} sqrt(max(V_j, 0))
dB_j.  Averaging the kernel over each step handles the u^(alpha-1)
singularity exactly at the first lag, and full truncation max(V, 0) in both
the diffusion coefficient and the daily aggregation is the positivity fix.
Daily open-to-close returns and integrated variances are accumulated with
left-endpoint rules,

    r_d = sum_j sqrt(max(V_j, 0)) dW_j,       s2_d = sum_j max(V_j, 0) dt,

which keeps the discrete Ito isometry E[r_d^2] = E[s2_d] exact.

The convolution is evaluated by direct summation (cost O(N^2) per path,
acceptable at desk scale), organised in blocks so the dominant inter-block
part runs as matrix products over path chunks; the weight table is a plain
array so an FFT or multi-factor Markovian engine can replace the summation
later without touching the interface.

Every path owns an RNG stream derived from (seed, path index), and every
standard error, ``v_day_se`` included, is taken over the paths.
A path's bits depend on the seed, its index, the grid, the parameters and
the numpy/BLAS build (measured on numpy 2.4.6 with OpenBLAS 0.3.31,
SkylakeX core), and not on the chunking or the memory budget.
Paths run one chunk after another, in path order, in near-equal chunks of at
most ``_BLOCK_STEPS`` = 256, the weight table's width (1000 paths as four
chunks of 250); a smaller ``memory_budget_mb`` can shrink them.  The
day-start sums behind ``v_day_mean`` and ``v_day_se`` add the paths one by
one in index order, so no output depends on the chunking.

Per-step work: each block first writes its inter-block terms (the product
plus xi0) into its rows of the step array, and each step then makes four
numpy calls across the chunk's paths: one einsum for the intra-block sum
with the step's inter-block term added last (weight 1), and the clip, root
and scaling that turn dB into the kernel source.  The rest runs once per
block: on all its steps, the negative-state count and the day-start sums,
one sequential accumulate over the block's day starts (at most 64 at a
time) that adds each day's paths in index order; and, on its steps inside
the kept days only, the r terms sqrt(V+) dW (the root goes into z1's
buffer, which is free once dB is formed), the s2 terms and their day sums.

Memory: a chunk holds one step-major (step, path) array, dW until its block
runs, then the block's inter-block terms, and then the kernel source
sqrt(V+) dB, so a 256-step block is a view of it; the block's inter-block
product (then dB), raw states, z1 and dW take four (256, path) buffers, and
the day-start sums two of at most 64 rows.  Each path draws its stream
once: z0, the first n normals, straight into its column of the step array
as dW; its generator then stays at z1, and each block draws its z1 when it
runs.  Each chunk adds its day sums into its columns of the day-major
outputs, which hold only the kept days (``simulate_paths(..., days=)``):
16 bytes per path and kept day, so an estimate at one day t and lags up to
k_max needs k_max + 1 columns, not every day of the horizon.  Each kept
day still adds its steps in step order from zero, so a kept value is the
same bit whatever the window.  The n_steps x 256 weight table is shared by
all chunks, and the cap keeps a chunk's step array no larger than it.  The
budget bounds two things: the chunking, where it counts two step-grid
arrays per path, so at 15120 steps it binds only below ~74 MiB, its count
for 256 paths; and the kept day arrays, which must fit in it whole or the
run raises ``MemoryGuardError`` before it allocates anything.

Summation order: the inter-block part is one BLAS matrix product per block,
of one shape, all earlier steps of >= _PRODUCT_ROWS paths against the
table's full 256 columns.  BLAS sums a product with fewer rows or columns
(its small-matrix kernels) in another order, so a last block narrower than
256 steps still takes the full table, and a chunk of fewer paths pads the
product with zero paths.  Within a block each step adds every path's
earlier steps in step order and then its inter-block term, products and
sums rounded separately.  Both orders are part of the paths.
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import empirical as emp
from .errors import ContractError, MemoryGuardError, SimulationError
from .model import TRADING_DAY, ForwardVarianceCurve, ModelParams
from .special import ml_cdf_grid

__all__ = [
    "SimConfig",
    "PathBatch",
    "MomentEstimates",
    "precompute_kernel_weights",
    "simulate_paths",
    "estimate_zumbach_mc",
    "estimate_moments_mc",
    "export_daily_csv",
]

_BLOCK_STEPS = 256  # convolution block length; the paths depend on it (summation order)
_PRODUCT_ROWS = 8  # fewest paths in a block product; BLAS sums fewer in another order
_DAY_ROWS = 64  # most day starts summed at once, which bounds that scratch


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo controls.

    delta is the day length in years; the step grid has
    n_days * steps_per_day points.  n_paths, steps_per_day, n_days and seed
    are integers, and memory_budget_mb (MiB) is finite.  Paths run in
    near-equal chunks of at most 256, the weight table's width
    (``chunk_paths``).  The memory budget is an upper bound on top: it
    counts two step-grid arrays per path, although a chunk holds one plus a
    few (256, path) block buffers, so it binds only below ~74 MiB at 15120
    steps.  Neither changes any output.  ``simulate_paths`` also refuses a
    run whose kept day arrays (16 bytes per path and kept day) exceed the
    budget.  The convolution's weight table, n_steps x 256 float64 values
    shared by all chunks, sits outside the budget.
    """

    n_paths: int
    steps_per_day: int
    n_days: int
    delta: float = TRADING_DAY
    seed: int = 0
    memory_budget_mb: int = 1024

    def __post_init__(self) -> None:
        for name in ("n_paths", "steps_per_day", "n_days", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ContractError(f"{name} must be an integer, got {value!r}")
        budget = self.memory_budget_mb
        if (isinstance(budget, bool) or not isinstance(budget, numbers.Real)
                or not math.isfinite(budget)):
            raise ContractError(f"memory_budget_mb must be a finite number, got {budget!r}")
        for name in ("n_paths", "steps_per_day", "n_days"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ContractError(f"delta must be finite and positive, got {self.delta}")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ContractError("seed must fit in an unsigned 64-bit integer")
        if self.chunk_paths() < 1:
            raise MemoryGuardError(
                f"a single path is counted at {self.n_steps() * 2 * 8 / 2**20:.0f} MiB "
                f"(two step-grid arrays; the engine holds one plus per-block "
                f"scratch), over the {self.memory_budget_mb} MiB budget")

    def n_steps(self) -> int:
        return self.n_days * self.steps_per_day

    def dt(self) -> float:
        return self.delta / self.steps_per_day

    def chunk_paths(self) -> int:
        # the budget counts two (n_steps, chunk) float64 arrays per path
        # although the engine holds one, and stays an upper bound under the
        # cap; the cap splits the paths into near-equal chunks no wider than
        # the weight table, so a chunk's step array never outgrows it
        budget = int(self.memory_budget_mb * 2**20 * 0.8) // (self.n_steps() * 2 * 8)
        n_chunks = -(-self.n_paths // _BLOCK_STEPS)
        return min(budget, -(-self.n_paths // n_chunks))


@dataclass(frozen=True)
class PathBatch:
    """Daily aggregates of a simulation run.

    r, s2           : (n_paths, len(days)) arrays of daily returns and
                      integrated variances (s2 >= 0 by the truncation scheme),
                      transposed views of day-major (len(days), n_paths)
                      arrays; column j holds calendar day days.start + j.
    days            : the kept 1-based calendar days, a step-1 range;
                      every day of the horizon unless the run asked for
                      fewer.
    v_day_mean/_se  : cross-path mean of the raw (untruncated) variance state
                      at each day start of the horizon (every day, whatever
                      ``days``), with its standard error.
    neg_fraction    : fraction of steps where the recursion went negative
                      before truncation (diagnostic).
    weight_checksum : CRC-32 of the kernel weight table used.
    """

    r: np.ndarray
    s2: np.ndarray
    config: SimConfig
    weight_checksum: int
    neg_fraction: float
    v_day_mean: np.ndarray = field(repr=False, default=None)
    v_day_se: np.ndarray = field(repr=False, default=None)
    days: range = None

    def __post_init__(self) -> None:
        if self.days is None:
            object.__setattr__(self, "days", range(1, self.config.n_days + 1))


@dataclass(frozen=True)
class MomentEstimates:
    var_sigma2: float
    var_sigma2_se: float
    fourth_moment_r: float
    fourth_moment_r_se: float


def precompute_kernel_weights(params: ModelParams, config: SimConfig) -> np.ndarray:
    """Integrated-kernel Euler weights, index m = 1..n_steps (entry 0 unused).

    w_m = (nu/lam) [F(m dt) - F((m-1) dt)] / dt; partial sums telescope to
    sum_{m<=M} w_m dt = (nu/lam) F(M dt), which pins the cumulative kernel
    mass exactly at every horizon.
    """
    n = config.n_steps()
    dt = config.dt()
    cdf = ml_cdf_grid(params.ml(), dt * np.arange(n + 1))
    w = np.empty(n + 1)
    w[0] = 0.0
    w[1:] = (params.nu / params.lam) * np.diff(cdf) / dt
    return w


def _path_rng(config: SimConfig, path_index: int) -> np.random.Generator:
    """The generator of the path's RNG stream."""
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _path_normals(config: SimConfig, path_index: int, n: int) -> np.ndarray:
    """The path's normals (z0, z1) as one (2, n) array, as the engine draws them in pieces."""
    return _path_rng(config, path_index).standard_normal((2, n))


def _add_by_day(acc, rows, i0, spd):
    """acc[day] += rows[b] for the block's steps i0 + b, each day's terms in step order.

    Whole days take one add per offset within the day; a day cut by a block
    edge is summed step by step.  (np.add.reduceat rounds differently.)
    """
    width = rows.shape[0]
    head = min(-i0 % spd, width)
    n_full = (width - head) // spd
    for b in range(head):
        acc[i0 // spd] += rows[b]
    if n_full:
        d0 = (i0 + head) // spd
        days = rows[head:head + n_full * spd].reshape(n_full, spd, -1)
        for o in range(spd):
            acc[d0:d0 + n_full] += days[:, o]
    for b in range(head + n_full * spd, width):
        acc[(i0 + b) // spd] += rows[b]


def _add_day_starts(states, xi, day, dev_rows, sq_rows, dev_sum, dev_sumsq):
    """Add the day-start states (one row a day from ``day`` on) to the days' sums.

    The states go in as deviations from xi0, so the sums stay exact where
    the paths agree (nu = 0) instead of cancelling.  One sequential
    accumulate per array adds each day's terms to its running sum path by
    path, in index order, so the sums do not depend on the chunking.
    """
    k = states.shape[0]
    days = slice(day, day + k)
    dev, sq = dev_rows[:k], sq_rows[:k]
    np.subtract(states, xi[:k, None], out=dev[:, 1:])
    np.multiply(dev[:, 1:], dev[:, 1:], out=sq[:, 1:])
    dev[:, 0] = dev_sum[days]
    sq[:, 0] = dev_sumsq[days]
    np.add.accumulate(dev, axis=1, out=dev)
    np.add.accumulate(sq, axis=1, out=sq)
    dev_sum[days] = dev[:, -1]
    dev_sumsq[days] = sq[:, -1]


def _simulate_chunk(xi_step, w_rev, table, config, params, lo, hi, days, day_r, day_s2,
                    dev_sum, dev_sumsq):
    n = config.n_steps()
    n_chunk = hi - lo
    dt = config.dt()
    sqrt_dt = math.sqrt(dt)
    spd = config.steps_per_day
    rho = params.rho
    rho_perp = math.sqrt(1.0 - rho * rho)

    # the step array is step-major, (step, path): the per-step vectors run
    # across paths and a block is a view of it.  The block product takes
    # >= _PRODUCT_ROWS paths, so a smaller chunk pads the array with zero
    # paths that only the product reads; the padding also keeps a one-path
    # chunk's column strided, which a step's einsum sums in order (it hands
    # a contiguous column to numpy's dot loop, which sums in another order).
    src = np.zeros((n, max(n_chunk, _PRODUCT_ROWS)))
    x_or_dw = src[:, :n_chunk]  # dW until its block runs, then the kernel source

    # the step array takes dW = sqrt(dt) z0, the first n normals of the
    # path's stream; each path keeps its generator, now at z1, and every
    # block draws its z1 when it runs
    rngs = []
    z0 = np.empty(n)
    for c in range(n_chunk):
        rng = _path_rng(config, lo + c)
        rng.standard_normal(out=z0)
        np.multiply(z0, sqrt_dt, out=x_or_dw[:, c])
        rngs.append(rng)

    prod = np.empty((src.shape[1], _BLOCK_STEPS))  # (path, step) as BLAS writes it, then dB
    v_blk = np.empty((_BLOCK_STEPS, n_chunk))
    z_blk = np.empty((n_chunk, _BLOCK_STEPS))
    d_w_blk = np.empty((_BLOCK_STEPS, n_chunk))
    sqrt_v = np.empty(n_chunk)
    # day-start sums: column 0 carries the day's running sum, the rest its
    # deviations (or their squares), one row per day start
    n_starts = min(-(-_BLOCK_STEPS // spd), _DAY_ROWS)
    dev_rows = np.empty((n_starts, n_chunk + 1))
    sq_rows = np.empty((n_starts, n_chunk + 1))
    r_out = day_r[:, lo:hi]
    s2_out = day_s2[:, lo:hi]
    # the kept days' steps; only they form r and s2 terms
    s_lo, s_hi = (days.start - 1) * spd, (days.stop - 1) * spd
    neg = 0

    # overflowing states are caught by the finiteness guard below; numpy's
    # intermediate warnings would only add noise on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n, _BLOCK_STEPS):
            hi_blk = min(i0 + _BLOCK_STEPS, n)
            width = hi_blk - i0
            # one product shape for every block: all earlier steps against
            # the table's full width
            if i0:
                np.matmul(src[:i0].T, table[n - i0:], out=prod)
            else:
                prod.fill(0.0)
            v_all = v_blk[:width]
            x = x_or_dw[i0:hi_blk]  # the block's dW, then its inter-block terms, then its source
            d_w = d_w_blk[:width]
            d_w[...] = x
            # row b of x takes step i0 + b's inter-block term, which the
            # step's einsum adds last with weight 1
            np.add(prod[:n_chunk, :width].T, xi_step[i0:hi_blk, None], out=x)
            # dB = rho dW + rho_perp sqrt(dt) z1, formed in the product's
            # memory, free now, laid out (step, path)
            d_b = prod.reshape(-1)[:x.size].reshape(x.shape)
            np.multiply(d_w, rho, out=d_b)
            z = z_blk[:, :width]
            for rng, row in zip(rngs, z):
                rng.standard_normal(out=row)
            z *= rho_perp * sqrt_dt
            d_b += z.T
            # row b of v_all is the raw state V_{i0+b}: the einsum sums each
            # path's earlier steps of the block in order and then the
            # inter-block term, products and sums rounded separately, as
            # numpy's own matmul loop does (optimize would hand it to BLAS,
            # which sums in another order)
            for b in range(width):
                v = v_all[b]
                np.einsum('kp,k->p', x[:b + 1], w_rev[_BLOCK_STEPS - 1 - b:], out=v)
                np.maximum(v, 0.0, out=sqrt_v)
                np.sqrt(sqrt_v, out=sqrt_v)
                np.multiply(d_b[b], sqrt_v, out=x[b])
            if not np.all(np.isfinite(x)):
                bad = np.argwhere(~np.isfinite(x))[0]
                raise SimulationError(
                    f"non-finite variance state at path {lo + int(bad[1])}, "
                    f"step {i0 + int(bad[0])}")

            for b0 in range(-i0 % spd, width, spd * _DAY_ROWS):
                _add_day_starts(v_all[b0::spd][:_DAY_ROWS], xi_step[i0 + b0:hi_blk:spd],
                                (i0 + b0) // spd, dev_rows, sq_rows, dev_sum, dev_sumsq)
            neg += int(np.count_nonzero(v_all < 0.0))
            a, b = max(s_lo - i0, 0), min(s_hi - i0, width)
            if a >= b:
                continue
            v_pos = v_all[a:b]
            np.maximum(v_pos, 0.0, out=v_pos)
            # the r terms sqrt(V+) dW; the root goes into z1's buffer, free
            # once dB is formed, laid out (step, path) like v_pos
            root = np.sqrt(v_pos, out=z_blk.reshape(-1)[:v_pos.size].reshape(v_pos.shape))
            r_terms = d_w[a:b]
            r_terms *= root
            _add_by_day(r_out, r_terms, i0 + a - s_lo, spd)
            v_pos *= dt  # the s2 terms V+ dt
            _add_by_day(s2_out, v_pos, i0 + a - s_lo, spd)
    return neg


def simulate_paths(params: ModelParams, curve: ForwardVarianceCurve,
                   config: SimConfig, *, days: range | None = None) -> PathBatch:
    """Generate daily return / integrated-variance aggregates.

    Bit-identical for a fixed (config, params, curve) and build, whatever the
    chunking, memory budget or day window (see the module notes).
    The cross-path mean of the raw variance state equals xi0(t) in
    expectation at every grid time (the stochastic term is a martingale
    increment sum), which ``v_day_mean`` tracks per day start.

    Parameters
    ----------
    params, curve : model inputs; nu = 0 yields the deterministic variance
        path V = xi0 exactly.
    config : SimConfig
        Grid, seed and resource controls.
    days : range, optional
        The 1-based calendar days whose r and s2 the batch keeps, a
        non-empty step-1 range inside 1..n_days; None keeps every day.
        The paths, ``neg_fraction`` and the day-start statistics do not
        depend on it.

    Raises ``MemoryGuardError``, before anything is allocated, when the
    kept day arrays, 16 bytes per path and kept day, exceed
    ``config.memory_budget_mb`` MiB.
    """
    n_days = config.n_days
    if days is None:
        days = range(1, n_days + 1)
    if (not isinstance(days, range) or days.step != 1 or not days
            or days.start < 1 or days.stop > n_days + 1):
        raise ContractError(
            f"days must be a non-empty step-1 range inside 1..{n_days}, got {days!r}")
    npaths = config.n_paths
    day_bytes = 16 * npaths * len(days)
    if day_bytes > config.memory_budget_mb * 2**20:
        raise MemoryGuardError(
            f"the day arrays of {npaths} paths x {len(days)} kept days take "
            f"{day_bytes / 2**20:.0f} MiB, over the {config.memory_budget_mb} MiB budget; "
            f"keep fewer days or raise the budget")

    w = precompute_kernel_weights(params, config)
    n = config.n_steps()
    # row n - j holds w[j .. j + _BLOCK_STEPS - 1] (zero-padded), so block i0
    # reads its inter-block weights as table[n - i0:]; the copy is needed
    # because matmul on an overlapping stride-tricked view bypasses BLAS and
    # runs ~20x slower
    w_pad = np.concatenate([w, np.zeros(_BLOCK_STEPS)])
    table = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(w_pad, _BLOCK_STEPS)[n:0:-1])
    # (w_255, ..., w_1, 1), zero-padded past w_n: step b of a block reads
    # w_rev[255 - b:], its intra-block weights and a 1 for its inter-block term
    w_rev = np.append(w_pad[_BLOCK_STEPS - 1:0:-1], 1.0)
    xi_step = np.asarray(curve(config.dt() * np.arange(n)), dtype=float)
    if xi_step.ndim == 0:
        xi_step = np.full(n, float(xi_step))

    # day-major, kept days only: each chunk adds its day sums into its columns
    day_r = np.zeros((len(days), npaths))
    day_s2 = np.zeros((len(days), npaths))
    dev_sum = np.zeros(n_days)
    dev_sumsq = np.zeros(n_days)
    chunk = config.chunk_paths()
    neg = 0
    for lo in range(0, npaths, chunk):
        neg += _simulate_chunk(xi_step, w_rev, table, config, params, lo,
                               min(lo + chunk, npaths), days, day_r, day_s2,
                               dev_sum, dev_sumsq)

    dev_mean = dev_sum / npaths
    v_mean = xi_step[::config.steps_per_day] + dev_mean
    v_var = np.maximum(dev_sumsq / npaths - dev_mean**2, 0.0)
    v_se = np.sqrt(v_var / npaths)
    return PathBatch(
        r=day_r.T, s2=day_s2.T, config=config,
        weight_checksum=zlib.crc32(w.tobytes()),
        neg_fraction=neg / (npaths * n),
        v_day_mean=v_mean, v_day_se=v_se, days=days)


def _centered(x: np.ndarray) -> np.ndarray:
    # shift by the first element before centering: a constant array comes out
    # exactly zero (the plain sample mean of identical values can round)
    shifted = x - x[0]
    return shifted - shifted.mean()


def _check_day(batch: PathBatch, t_day: int, k: int = 0) -> None:
    # the kept days lie inside 1..n_days, so this also bounds t_day by the horizon
    days = batch.days
    if t_day < days.start or t_day + k >= days.stop:
        raise ContractError(
            f"the batch keeps days {days.start}..{days.stop - 1}, which must hold "
            f"t_day = {t_day} and t_day + k = {t_day + k}")


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Mean of the per-path values x and its standard error."""
    n = x.size
    se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return float(x.mean()), se


def estimate_zumbach_mc(batch: PathBatch, t_day: int, k: int) -> tuple[float, float]:
    """Sample estimate of the lag-k asymmetry at calendar day t_day (1-based).

    The batch must keep days t_day..t_day + k (``PathBatch.days``); day t
    is its column t - days.start.

    Returns (estimate, standard_error).  The statistic is the difference of
    the two cross-path covariances Cov[r_t^2, s2_{t+k}] - Cov[r_{t+k}^2, s2_t]
    (population divisor, both legs centred); it coincides with the
    expectation-difference form of the asymmetry in population because
    E[r^2] = E[s2] at every day, and it is exactly zero when the variance
    path is deterministic.  The standard error comes from the path-wise
    deltas and scales as 1/sqrt(n_paths).
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    _check_day(batch, t_day, k)
    t, tk = t_day - batch.days.start, t_day + k - batch.days.start
    a = _centered(batch.r[:, t] ** 2)
    b = _centered(batch.s2[:, tk])
    c = _centered(batch.r[:, tk] ** 2)
    d = _centered(batch.s2[:, t])
    return _mean_se(a * b - c * d)


def estimate_moments_mc(batch: PathBatch, t_day: int) -> MomentEstimates:
    """Sample Var[s2] and E[r^4] at day t_day with standard errors.

    The batch must keep day t_day (``PathBatch.days``).
    """
    _check_day(batch, t_day)
    t = t_day - batch.days.start
    var_s2, var_s2_se = _mean_se(_centered(batch.s2[:, t]) ** 2)
    r4, r4_se = _mean_se(batch.r[:, t] ** 4)
    return MomentEstimates(var_sigma2=var_s2, var_sigma2_se=var_s2_se,
                           fourth_moment_r=r4, fourth_moment_r_se=r4_se)


def export_daily_csv(batch: PathBatch, fileobj=None, series_fileobj=None) -> None:
    """Write the daily aggregates to ``fileobj``, ``series_fileobj`` or both, in one pass.

    ``fileobj`` gets the dump, CSV rows (path_id, day, r, sigma2);
    ``series_fileobj`` gets the paths as ``empirical.write_generic_csv``
    writes ``empirical.series_from_batch(batch)``.  Numbers are written as
    ``%.17g``; each path's numbers are formatted once for the files given
    (``empirical._format_rows``), and each file gets the path's block in one
    ``write`` call before the next path is formatted.  The batch must hold
    every day of its horizon, which is checked before anything is written.
    """
    emp._check_every_day(batch)
    days = [f"{day}," for day in range(1, batch.r.shape[1] + 1)]
    files = [fh for fh in (fileobj, series_fileobj) if fh is not None]
    if fileobj is not None:
        fileobj.write("path_id,day,r,sigma2\n")
    if series_fileobj is not None:
        series_fileobj.write(emp._GENERIC_HEADER)
    for pid, (s, generic) in enumerate(emp._series_heads(emp.series_from_batch(batch))):
        heads = [(f"{pid},", days)] if fileobj is not None else []
        if series_fileobj is not None:
            heads.append(generic)
        for fh, text in zip(files, emp._format_rows(s.r, s.s2, *heads)):
            fh.write(text)
