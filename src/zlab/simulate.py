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

Every path owns an RNG stream derived from (seed, path index); with
``antithetic`` enabled, paths 2i and 2i+1 share stream i with negated
normals.  Runs are bit-reproducible for a fixed configuration, including the
``memory_budget_mb`` that sets the path chunking, on a fixed numpy/BLAS
build; another chunking gives statistically equivalent, not equal, paths.
Path generation is embarrassingly parallel; aggregation is a deterministic
reduction over chunks.

Memory: a chunk holds one step-grid array per path (dB, overwritten by the
kernel source as the steps run) and a few (256, path) step-major block
buffers.  Each block copies its dB into one of them, turns it into the
kernel source step by step there and copies it back for the later blocks'
matrix products; it redraws its dW from the path's stream when it runs.
The n_steps x 256 weight table is shared by all chunks.  The budget still
counts two step-grid arrays per path, as when dW was stored too, so the
chunking, and with it every path, is unchanged.

Summation order: the inter-block part is one BLAS matrix product per block;
within a block each step adds every path's earlier steps in step order,
products and sums rounded separately.  Both orders are part of the paths.
"""

from __future__ import annotations

import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo controls.

    delta is the day length in years; the step grid has
    n_days * steps_per_day points.  The memory budget sets the path
    chunking, and with it the paths.  A chunk holds one step-grid array per
    path plus a few (256, path) step-major block buffers, but the budget
    counts two step-grid arrays per path, so a run takes about half of it;
    the count is kept because changing it would change the chunking and
    every path.  The convolution's weight table, n_steps x 256 float64
    values shared by all chunks, sits outside the budget.
    """

    n_paths: int
    steps_per_day: int
    n_days: int
    delta: float = TRADING_DAY
    seed: int = 0
    antithetic: bool = False
    memory_budget_mb: int = 1024

    def __post_init__(self) -> None:
        for name in ("n_paths", "steps_per_day", "n_days"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.delta <= 0.0:
            raise ContractError(f"delta must be positive, got {self.delta}")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ContractError("seed must fit in an unsigned 64-bit integer")
        if self.antithetic and self.n_paths % 2:
            raise ContractError("antithetic sampling needs an even n_paths")
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
        # counts two (chunk, n_steps) float64 arrays per path although the
        # engine holds one: the count fixes the chunking, and so the paths
        per_path = self.n_steps() * 2 * 8
        chunk = int(self.memory_budget_mb * 2**20 * 0.8) // per_path
        chunk = min(chunk, self.n_paths)
        if self.antithetic and chunk > 1:
            chunk -= chunk % 2
        return chunk


@dataclass(frozen=True)
class PathBatch:
    """Daily aggregates of a simulation run.

    r, s2           : (n_paths, n_days) arrays of daily returns and
                      integrated variances (s2 >= 0 by the truncation scheme).
    v_day_mean/_se  : cross-path mean of the raw (untruncated) variance state
                      at each day start, with its standard error.
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


def _path_stream(config: SimConfig, path_index: int):
    """Seed of the path's RNG stream, and whether the path negates its normals."""
    if config.antithetic:
        stream, flip = divmod(path_index, 2)
    else:
        stream, flip = path_index, 0
    return np.random.SeedSequence(entropy=config.seed, spawn_key=(stream,)), bool(flip)


def _path_normals(config: SimConfig, path_index: int, n: int) -> np.ndarray:
    ss, flip = _path_stream(config, path_index)
    z = np.random.Generator(np.random.PCG64(ss)).standard_normal((2, n))
    return -z if flip else z


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


def _simulate_chunk(xi_step, w, table, config, params, lo, hi, day_r, day_s2,
                    dev_sum, dev_sumsq):
    n = config.n_steps()
    n_chunk = hi - lo
    dt = config.dt()
    sqrt_dt = math.sqrt(dt)
    spd = config.steps_per_day
    rho = params.rho
    rho_perp = math.sqrt(1.0 - rho * rho)

    # dW_i = +-sqrt(dt) z0_i is redrawn block by block from a second generator
    # on the path's stream (z0 leads the stream); negation is exact, so the
    # antithetic twin keeps its bits
    x_or_db = np.empty((n_chunk, n))  # dB until step i runs, then the kernel source
    rngs = []
    dw_scale = np.empty(n_chunk)
    for c in range(n_chunk):
        z = _path_normals(config, lo + c, n)
        d_b = x_or_db[c]  # rho dW + rho_perp sqrt(dt) z1, formed in place
        np.multiply(z[0], sqrt_dt, out=d_b)
        d_b *= rho
        z[1] *= rho_perp * sqrt_dt
        d_b += z[1]
        ss, flip = _path_stream(config, lo + c)
        rngs.append(np.random.Generator(np.random.PCG64(ss)))
        dw_scale[c] = -sqrt_dt if flip else sqrt_dt

    # the per-step vectors run across paths, so the block buffers and the
    # accumulators are (step or day, path): a column of a (path, step) array
    # strides a whole row per element
    r_acc = np.zeros((config.n_days, n_chunk))
    s2_acc = np.zeros((config.n_days, n_chunk))
    x_blk = np.empty((_BLOCK_STEPS, n_chunk))  # the block's dB, then its source
    z_blk = np.empty((n_chunk, _BLOCK_STEPS))
    d_w_blk = np.empty((_BLOCK_STEPS, n_chunk))
    sqrt_blk = np.empty((_BLOCK_STEPS, n_chunk))
    neg = 0

    # overflowing states are caught by the finiteness guard below; numpy's
    # intermediate warnings would only add noise on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n, _BLOCK_STEPS):
            hi_blk = min(i0 + _BLOCK_STEPS, n)
            width = hi_blk - i0
            if i0:
                past = (x_or_db[:, :i0] @ table[n - i0:, :width]).T.copy()
            else:
                past = np.zeros((width, n_chunk))
            past += xi_step[i0:hi_blk, None]
            x = x_blk[:width]
            x[...] = x_or_db[:, i0:hi_blk].T
            # row b of past becomes the raw state V_{i0+b}; the einsum sums
            # each path's earlier steps in order, products and sums rounded
            # separately, as numpy's own matmul loop does (optimize would
            # hand it to BLAS, which sums in another order)
            for b in range(width):
                v = past[b]
                if b:
                    v += np.einsum('kp,k->p', x[:b], w[b:0:-1])
                sqrt_v = sqrt_blk[b]
                np.maximum(v, 0.0, out=sqrt_v)
                np.sqrt(sqrt_v, out=sqrt_v)
                x[b] *= sqrt_v
            if not np.all(np.isfinite(x)):
                bad = np.argwhere(~np.isfinite(x))[0]
                raise SimulationError(
                    f"non-finite variance state at path {lo + int(bad[1])}, "
                    f"step {i0 + int(bad[0])}")
            x_or_db[:, i0:hi_blk] = x.T

            # day-start states as deviations from xi0: the sums stay exact
            # where the paths agree (nu = 0) instead of cancelling
            for b in range(-i0 % spd, width, spd):
                dev = past[b] - xi_step[i0 + b]
                day = (i0 + b) // spd
                dev_sum[day] += float(dev.sum())
                dev_sumsq[day] += float(np.dot(dev, dev))
            neg += int(np.count_nonzero(past < 0.0))
            for rng, row in zip(rngs, z_blk[:, :width]):
                rng.standard_normal(out=row)
            d_w = d_w_blk[:width]
            np.multiply(z_blk[:, :width].T, dw_scale, out=d_w)
            d_w *= sqrt_blk[:width]  # the r terms sqrt(V+) dW
            _add_by_day(r_acc, d_w, i0, spd)
            np.maximum(past, 0.0, out=past)
            past *= dt  # the s2 terms V+ dt
            _add_by_day(s2_acc, past, i0, spd)

    day_r[lo:hi] = r_acc.T
    day_s2[lo:hi] = s2_acc.T
    return neg


def simulate_paths(params: ModelParams, curve: ForwardVarianceCurve,
                   config: SimConfig, threads: int = 1) -> PathBatch:
    """Generate daily return / integrated-variance aggregates.

    Bit-identical for a fixed (config, params, curve) and build, whatever the
    thread count; the chunking (from ``memory_budget_mb``) is part of config.
    The cross-path mean of the raw variance state equals xi0(t) in
    expectation at every grid time (the stochastic term is a martingale
    increment sum), which ``v_day_mean`` tracks per day start.

    Parameters
    ----------
    params, curve : model inputs; nu = 0 yields the deterministic variance
        path V = xi0 exactly.
    config : SimConfig
        Grid, seed and resource controls.
    threads : int
        Path chunks processed concurrently (results merged in fixed order).
    """
    w = precompute_kernel_weights(params, config)
    n = config.n_steps()
    # row n - j holds w[j .. j + _BLOCK_STEPS - 1] (zero-padded), so block i0
    # reads its inter-block weights as table[n - i0:]; the copy is needed
    # because matmul on an overlapping stride-tricked view bypasses BLAS and
    # runs ~20x slower
    w_pad = np.concatenate([w, np.zeros(_BLOCK_STEPS)])
    table = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(w_pad, _BLOCK_STEPS)[n:0:-1])
    xi_step = np.asarray(curve(config.dt() * np.arange(n)), dtype=float)
    if xi_step.ndim == 0:
        xi_step = np.full(n, float(xi_step))

    day_r = np.empty((config.n_paths, config.n_days))
    day_s2 = np.empty((config.n_paths, config.n_days))
    chunk = config.chunk_paths()
    ranges = [(lo, min(lo + chunk, config.n_paths))
              for lo in range(0, config.n_paths, chunk)]
    dev_sums = [(np.zeros(config.n_days), np.zeros(config.n_days)) for _ in ranges]

    def run(idx):
        lo, hi = ranges[idx]
        return _simulate_chunk(xi_step, w, table, config, params, lo, hi,
                               day_r, day_s2, *dev_sums[idx])

    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            negs = list(pool.map(run, range(len(ranges))))
    else:
        negs = [run(i) for i in range(len(ranges))]

    dev_sum = sum(s for s, _ in dev_sums)
    dev_sumsq = sum(s for _, s in dev_sums)
    npaths = config.n_paths
    dev_mean = dev_sum / npaths
    v_mean = xi_step[::config.steps_per_day] + dev_mean
    v_var = np.maximum(dev_sumsq / npaths - dev_mean**2, 0.0)
    v_se = np.sqrt(v_var / npaths)
    return PathBatch(
        r=day_r, s2=day_s2, config=config,
        weight_checksum=zlib.crc32(w.tobytes()),
        neg_fraction=sum(negs) / (npaths * n),
        v_day_mean=v_mean, v_day_se=v_se)


def _centered(x: np.ndarray) -> np.ndarray:
    # shift by the first element before centering: a constant array comes out
    # exactly zero (the plain sample mean of identical values can round)
    shifted = x - x[0]
    return shifted - shifted.mean()


def _check_day(batch: PathBatch, t_day: int, k: int = 0) -> None:
    if t_day < 1:
        raise ContractError(f"t_day must be >= 1, got {t_day}")
    if t_day + k > batch.config.n_days:
        raise ContractError(
            f"need t_day + k <= n_days, got {t_day} + {k} > {batch.config.n_days}")


def estimate_zumbach_mc(batch: PathBatch, t_day: int, k: int) -> tuple[float, float]:
    """Sample estimate of the lag-k asymmetry at calendar day t_day (1-based).

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
    a = _centered(batch.r[:, t_day - 1] ** 2)
    b = _centered(batch.s2[:, t_day + k - 1])
    c = _centered(batch.r[:, t_day + k - 1] ** 2)
    d = _centered(batch.s2[:, t_day - 1])
    deltas = a * b - c * d
    n = deltas.size
    se = float(deltas.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return float(deltas.mean()), se


def estimate_moments_mc(batch: PathBatch, t_day: int) -> MomentEstimates:
    """Sample Var[s2] and E[r^4] at day t_day with standard errors."""
    _check_day(batch, t_day)
    s = batch.s2[:, t_day - 1]
    q = _centered(s) ** 2
    r4 = batch.r[:, t_day - 1] ** 4
    n = s.size
    root_n = math.sqrt(n)
    return MomentEstimates(
        var_sigma2=float(q.mean()),
        var_sigma2_se=float(q.std(ddof=1) / root_n) if n > 1 else float("inf"),
        fourth_moment_r=float(r4.mean()),
        fourth_moment_r_se=float(r4.std(ddof=1) / root_n) if n > 1 else float("inf"),
    )


def export_daily_csv(batch: PathBatch, fileobj) -> None:
    """Dump daily aggregates as CSV rows (path_id, day, r, sigma2).

    Numbers are written as ``%.17g``; each path is formatted as one block
    and passed to one ``write`` call.
    """
    fileobj.write("path_id,day,r,sigma2\n")
    n_paths, n_days = batch.r.shape
    cells = [None] * (3 * n_days)
    cells[0::3] = range(1, n_days + 1)
    for pid in range(n_paths):
        cells[1::3] = batch.r[pid].tolist()
        cells[2::3] = batch.s2[pid].tolist()
        fileobj.write((f"{pid},%d,%.17g,%.17g\n" * n_days) % tuple(cells))
