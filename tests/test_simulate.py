"""Monte Carlo engine tests.

Statistical assertions run at pinned seeds (the engine is bit-reproducible
for a fixed configuration), with thresholds verified to hold at those seeds;
moment-agreement checks against the analytic module are placed in the
scheme's validity regime (mild truncation).  At the extreme production-style
parameter set (hurst 0.05, nu/lam = 1.5) the one-step conditional noise of
the variance state exceeds its level, so the truncation max(V, 0) is
exercised on most steps; the raw state stays exactly unbiased (martingale
property) while truncated aggregates acquire a positive level bias.  That
regime is characterised explicitly below and in the acceptance suite.
"""

import io
import math

import numpy as np
import pytest

from zlab.empirical import series_from_batch, write_generic_csv
from zlab.errors import ContractError, MemoryGuardError, SimulationError
from zlab.model import (TRADING_DAY, ForwardVarianceCurve, ModelParams,
                        var_sigma2, zumbach_cov)
from zlab.simulate import (MomentEstimates, PathBatch, SimConfig, _path_normals,
                           estimate_moments_mc, estimate_zumbach_mc,
                           export_daily_csv, precompute_kernel_weights,
                           simulate_paths)
from zlab.special import ml_cdf

D = TRADING_DAY
SEC4 = ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=-0.7)
MILD = ModelParams(hurst=0.3, lam=0.3, nu=0.2, rho=-0.7)
FLAT = ForwardVarianceCurve.flat(0.025)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            SimConfig(n_paths=0, steps_per_day=1, n_days=1)
        with pytest.raises(ContractError):
            SimConfig(n_paths=2, steps_per_day=1, n_days=1, delta=0.0)
        # counts and the seed are integers (numpy's too, bool not), and the
        # budget is finite; each of these used to fail inside the engine
        base = dict(n_paths=2, steps_per_day=1, n_days=1)
        for name, value in (("n_paths", 2.5), ("steps_per_day", 2.0), ("seed", 1.5),
                            ("n_paths", True), ("n_days", np.float64(3.0)),
                            ("memory_budget_mb", math.nan),
                            ("memory_budget_mb", math.inf)):
            with pytest.raises(ContractError, match=name):
                SimConfig(**{**base, name: value})
        cfg = SimConfig(n_paths=np.int64(2), steps_per_day=np.int32(1),
                        n_days=np.uint8(1), seed=np.uint64(2**64 - 1))
        assert cfg.chunk_paths() == 2

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_is_rejected(self, delta):
        # nan <= 0 is false: the check must ask for a finite delta, or the
        # run fails later inside the kernel weights with a message that
        # does not name delta
        with pytest.raises(ContractError, match="delta"):
            SimConfig(n_paths=2, steps_per_day=1, n_days=1, delta=delta)

    def test_chunk_rule(self):
        # near-equal chunks of at most 256 paths, the weight table's width;
        # a smaller budget count still wins
        for n_paths, budget, chunk in (
                (1000, 1024, 250), (1100, 1024, 220), (512, 1024, 256),
                (100_000, 1024, 256), (31, 1024, 31), (480, 1, 218)):
            cfg = SimConfig(n_paths=n_paths, steps_per_day=4, n_days=60,
                            memory_budget_mb=budget)
            assert cfg.chunk_paths() == chunk, (n_paths, budget)

    def test_chunks_no_wider_than_the_weight_table(self):
        from zlab.simulate import _BLOCK_STEPS

        for n_paths in (*range(1, 600), 1000, 1100, 4097, 100_000, 10**6):
            for budget in (1, 4, 1024):
                cfg = SimConfig(n_paths=n_paths, steps_per_day=4, n_days=60,
                                memory_budget_mb=budget)
                chunk = cfg.chunk_paths()
                assert 1 <= chunk <= min(n_paths, _BLOCK_STEPS), (n_paths, budget)
                if budget == 1024:
                    # near-equal: the fewest chunks of at most 256 paths
                    assert -(-n_paths // chunk) == -(-n_paths // _BLOCK_STEPS), n_paths

    def test_memory_guard(self):
        with pytest.raises(MemoryGuardError):
            SimConfig(n_paths=1, steps_per_day=1000, n_days=10000,
                      memory_budget_mb=1)


class TestKernelWeights:
    def test_alpha_one_closed_form(self):
        p = ModelParams(hurst=0.5, lam=0.3, nu=0.45, rho=-0.7)
        cfg = SimConfig(n_paths=2, steps_per_day=5, n_days=4)
        w = precompute_kernel_weights(p, cfg)
        dt = cfg.dt()
        for m in range(1, cfg.n_steps() + 1):
            expected = (0.45 / 0.3) * math.exp(-0.3 * (m - 1) * dt) \
                * -math.expm1(-0.3 * dt) / dt
            assert w[m] == pytest.approx(expected, rel=1e-12)

    def test_partial_sum_telescopes_to_cdf(self):
        cfg = SimConfig(n_paths=2, steps_per_day=10, n_days=30)
        w = precompute_kernel_weights(SEC4, cfg)
        dt = cfg.dt()
        for m_tot in (1, 17, 300):
            lhs = w[1:m_tot + 1].sum() * dt
            rhs = (SEC4.nu / SEC4.lam) * ml_cdf(SEC4.ml(), m_tot * dt)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_first_lag_dominates_for_rough_kernel(self):
        cfg = SimConfig(n_paths=2, steps_per_day=20, n_days=10)
        w = precompute_kernel_weights(SEC4, cfg)
        dt = cfg.dt()
        p = SEC4.ml()
        ratio = ml_cdf(p, dt) / (ml_cdf(p, 2 * dt) - ml_cdf(p, dt))
        assert w[1] / w[2] == pytest.approx(ratio, rel=1e-10)
        assert w[1] / w[2] > 2.0

    def test_decreasing_beyond_first_lags(self):
        cfg = SimConfig(n_paths=2, steps_per_day=10, n_days=20)
        w = precompute_kernel_weights(SEC4, cfg)
        assert np.all(np.diff(w[1:]) < 0.0)


class TestDeterministicLimits:
    def test_nu_zero_exact(self):
        p = ModelParams(hurst=0.05, lam=0.3, nu=0.0, rho=-0.7)
        batch = simulate_paths(p, FLAT, SimConfig(n_paths=5, steps_per_day=4, n_days=8, seed=2))
        assert np.all(batch.s2 == 0.025 * D)
        assert batch.neg_fraction == 0.0
        est, se = estimate_zumbach_mc(batch, 2, 3)
        assert est == 0.0
        moments = estimate_moments_mc(batch, 4)
        assert moments.var_sigma2 == 0.0
        # daily returns are Gaussian with variance xi*delta
        assert batch.r.std() == pytest.approx(math.sqrt(0.025 * D), rel=0.05)

    def test_nu_zero_piecewise_curve(self):
        p = ModelParams(hurst=0.05, lam=0.3, nu=0.0, rho=-0.7)
        pl = ForwardVarianceCurve.piecewise_linear([0.0, 8 * D], [0.02, 0.04])
        cfg = SimConfig(n_paths=3, steps_per_day=4, n_days=8, seed=2)
        batch = simulate_paths(p, pl, cfg)
        dt = cfg.dt()
        for day in range(8):
            steps = dt * (np.arange(4) + day * 4)
            expected = float(np.sum(pl(steps)) * dt)
            assert batch.s2[:, day] == pytest.approx(expected, rel=1e-12)


class TestReproducibility:
    def test_bitwise_across_chunking(self):
        # 1 MB holds 218 paths of 240 steps: three chunks
        cfg_a = SimConfig(n_paths=480, steps_per_day=4, n_days=60, seed=7)
        cfg_b = SimConfig(n_paths=480, steps_per_day=4, n_days=60, seed=7,
                          memory_budget_mb=1)
        assert cfg_b.chunk_paths() < cfg_b.n_paths
        a = simulate_paths(SEC4, FLAT, cfg_a)
        b = simulate_paths(SEC4, FLAT, cfg_b)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.s2, b.s2)
        assert a.weight_checksum == b.weight_checksum
        assert a.neg_fraction == b.neg_fraction
        # a path does not depend on how many paths run after it
        head = simulate_paths(SEC4, FLAT, SimConfig(n_paths=240, steps_per_day=4,
                                                    n_days=60, seed=7))
        assert np.array_equal(head.r, b.r[:240]) and np.array_equal(head.s2, b.s2[:240])

    def test_bitwise_across_chunk_sizes_on_multi_block_grid(self):
        # 1200 steps span five convolution blocks.  Budgets of 4, 3, 2 and
        # 1 MiB give chunks of 174, 131, 87 and 43 paths (and a last chunk
        # of 78, 76, 78 or 41); the default run takes three chunks of 200
        base = dict(n_paths=600, steps_per_day=20, n_days=60, seed=5)
        assert SimConfig(**base).chunk_paths() == 200
        ref = simulate_paths(SEC4, FLAT, SimConfig(**base))
        assert ref.neg_fraction > 0.0
        for budget, chunk in ((4, 174), (3, 131), (2, 87), (1, 43)):
            cfg = SimConfig(**base, memory_budget_mb=budget)
            assert cfg.chunk_paths() == chunk
            batch = simulate_paths(SEC4, FLAT, cfg)
            assert np.array_equal(ref.r, batch.r), budget
            assert np.array_equal(ref.s2, batch.s2), budget
            assert ref.neg_fraction == batch.neg_fraction, budget

    def test_capped_chunks_keep_each_path(self):
        # 1100 paths run as five chunks of 220; the first 250 are those of
        # a 250-path run, which takes one chunk
        cfg = SimConfig(n_paths=1100, steps_per_day=20, n_days=60, seed=5)
        assert cfg.chunk_paths() == 220
        head_cfg = SimConfig(n_paths=250, steps_per_day=20, n_days=60, seed=5)
        assert head_cfg.chunk_paths() == 250
        batch = simulate_paths(SEC4, FLAT, cfg)
        head = simulate_paths(SEC4, FLAT, head_cfg)
        assert np.array_equal(head.r, batch.r[:250])
        assert np.array_equal(head.s2, batch.s2[:250])

    def test_tiny_last_chunk_keeps_each_path(self):
        # 528 steps end in a 16-step block; 1 MiB holds 99 paths of them, so
        # 200 paths run as 99, 99 and 2, against one chunk of 200 by default
        base = dict(n_paths=200, steps_per_day=4, n_days=132, seed=9)
        cfg = SimConfig(**base, memory_budget_mb=1)
        assert cfg.chunk_paths() == 99
        ref = simulate_paths(SEC4, FLAT, SimConfig(**base))
        batch = simulate_paths(SEC4, FLAT, cfg)
        assert ref.neg_fraction > 0.0
        assert np.array_equal(ref.r, batch.r)
        assert np.array_equal(ref.s2, batch.s2)
        assert ref.neg_fraction == batch.neg_fraction

    @pytest.mark.parametrize("n_paths", range(1, 8))
    def test_runs_of_few_paths_keep_each_path(self, n_paths):
        # fewer paths than a block product's row floor: the run pads its
        # product, so its paths are the first paths of a 200-path run
        head = simulate_paths(SEC4, FLAT, SimConfig(n_paths=n_paths, steps_per_day=4,
                                                    n_days=132, seed=9))
        ref = simulate_paths(SEC4, FLAT, SimConfig(n_paths=200, steps_per_day=4,
                                                   n_days=132, seed=9))
        assert np.array_equal(head.r, ref.r[:n_paths])
        assert np.array_equal(head.s2, ref.s2[:n_paths])

    def test_every_output_bitwise_across_chunking(self):
        # 560 steps: three blocks with days across their edges; 1 MB holds
        # 93 paths, so 200 paths run as 93, 93 and 14, against one chunk of
        # 200 by default.  The day-start sums too add the paths in index
        # order.
        base = dict(n_paths=200, steps_per_day=7, n_days=80, seed=21)
        cfg = SimConfig(**base, memory_budget_mb=1)
        assert cfg.chunk_paths() == 93
        a = simulate_paths(SEC4, FLAT, SimConfig(**base))
        b = simulate_paths(SEC4, FLAT, cfg)
        assert a.neg_fraction > 0.0
        for name in ("r", "s2", "v_day_mean", "v_day_se"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.neg_fraction == b.neg_fraction
        assert a.weight_checksum == b.weight_checksum

    def test_seed_changes_output(self):
        base = SimConfig(n_paths=8, steps_per_day=4, n_days=6, seed=7)
        other = SimConfig(n_paths=8, steps_per_day=4, n_days=6, seed=8)
        a = simulate_paths(SEC4, FLAT, base)
        b = simulate_paths(SEC4, FLAT, other)
        assert not np.array_equal(a.r, b.r)


def direct_summation(params, curve, cfg):
    """Daily (r, s2) from V_i = xi0(t_i) + sum_{j<i} w_{i-j} sqrt(V_j+) dB_j, step by step."""
    n, dt, spd = cfg.n_steps(), cfg.dt(), cfg.steps_per_day
    w = precompute_kernel_weights(params, cfg)
    xi = curve(dt * np.arange(n))
    rho_perp = math.sqrt(1.0 - params.rho**2)
    r = np.zeros((cfg.n_paths, cfg.n_days))
    s2 = np.zeros((cfg.n_paths, cfg.n_days))
    for path in range(cfg.n_paths):
        z = _path_normals(cfg, path, n)
        d_w = z[0] * math.sqrt(dt)
        d_b = params.rho * d_w + rho_perp * math.sqrt(dt) * z[1]
        source = np.zeros(n)  # sqrt(V_j+) dB_j
        for i in range(n):
            v_pos = max(xi[i] + float(np.dot(source[:i], w[i:0:-1])), 0.0)
            r[path, i // spd] += math.sqrt(v_pos) * d_w[i]
            s2[path, i // spd] += v_pos * dt
            source[i] = math.sqrt(v_pos) * d_b[i]
    return r, s2


class TestConvolution:
    # 600 steps span three convolution blocks, so the inter-block matrix
    # product and a partial last block both run
    @pytest.mark.parametrize("hurst, nu", [(0.05, 0.05), (0.3, 0.1)])
    def test_engine_matches_direct_summation(self, hurst, nu):
        params = ModelParams(hurst=hurst, lam=0.3, nu=nu, rho=-0.7)
        cfg = SimConfig(n_paths=3, steps_per_day=20, n_days=30, seed=11)
        batch = simulate_paths(params, FLAT, cfg)
        assert batch.neg_fraction == 0.0
        r, s2 = direct_summation(params, FLAT, cfg)
        np.testing.assert_allclose(batch.r, r, rtol=1e-12, atol=0)
        np.testing.assert_allclose(batch.s2, s2, rtol=1e-12, atol=0)


class TestStepBuffer:
    """The engine keeps one step-grid array per path and does the day
    bookkeeping once per 256-step block: whole days by offset within the
    day, a day cut by a block edge step by step."""

    @pytest.mark.parametrize("steps_per_day, n_days", [
        (7, 80),   # 560 steps: days cross the block edges at 256 and 512
        (300, 2),  # days longer than a block
        (10, 20),  # 200 steps, less than one block
    ])
    def test_day_layouts_match_direct_summation(self, steps_per_day, n_days):
        params = ModelParams(hurst=0.1, lam=0.3, nu=0.05, rho=-0.7)
        curve = ForwardVarianceCurve.piecewise_linear([0.0, 0.1, 0.2, 0.4],
                                                      [0.02, 0.03, 0.015, 0.025])
        cfg = SimConfig(n_paths=3, steps_per_day=steps_per_day, n_days=n_days, seed=13)
        batch = simulate_paths(params, curve, cfg)
        assert batch.neg_fraction == 0.0
        r, s2 = direct_summation(params, curve, cfg)
        np.testing.assert_allclose(batch.r, r, rtol=1e-12, atol=0)
        np.testing.assert_allclose(batch.s2, s2, rtol=1e-12, atol=0)

    def test_day_start_states_across_block_edges(self):
        # nu = 0: V_i = xi0(t_i), so the day-start mean is the curve at
        # every day start, including those inside the blocks after the first
        params = ModelParams(hurst=0.1, lam=0.3, nu=0.0, rho=-0.7)
        curve = ForwardVarianceCurve.piecewise_linear([0.0, 0.1, 0.2, 0.4],
                                                      [0.02, 0.03, 0.015, 0.025])
        cfg = SimConfig(n_paths=4, steps_per_day=7, n_days=80, seed=13)
        batch = simulate_paths(params, curve, cfg)
        starts = curve(cfg.dt() * cfg.steps_per_day * np.arange(cfg.n_days))
        np.testing.assert_allclose(batch.v_day_mean, starts, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n_paths", [4, 1000])
    def test_day_start_se_exact_at_nu_zero(self, n_paths):
        # nu = 0: every path holds V_i = xi0(t_i), so the day-start spread
        # is exactly zero; summing raw states and their squares cancelled
        # to ~1e-9 of the mean here
        params = ModelParams(hurst=0.1, lam=0.3, nu=0.0, rho=-0.7)
        curve = ForwardVarianceCurve.piecewise_linear([0.0, 0.1, 0.2, 0.4],
                                                      [0.02, 0.03, 0.015, 0.025])
        cfg = SimConfig(n_paths=n_paths, steps_per_day=7, n_days=80, seed=13)
        batch = simulate_paths(params, curve, cfg)
        assert np.all(batch.v_day_se == 0.0)

    def test_peak_memory_is_one_step_array_per_path(self):
        import tracemalloc

        from zlab.simulate import _BLOCK_STEPS

        # one chunk of 128 paths x 16384 steps: the traced peak may hold the
        # kernel-source array, the weight table and the outputs, plus a
        # quarter array for everything else (block scratch, day
        # accumulators, weights, RNGs); storing dW as well would add a whole
        # array.  128 steps a day keep the per-block and per-day parts small.
        cfg = SimConfig(n_paths=128, steps_per_day=128, n_days=128, seed=3,
                        memory_budget_mb=40)
        assert cfg.chunk_paths() == cfg.n_paths
        n = cfg.n_steps()
        step_array = cfg.n_paths * n * 8
        table = n * _BLOCK_STEPS * 8
        outputs = 2 * cfg.n_paths * cfg.n_days * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            simulate_paths(MILD, FLAT, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * step_array + table + outputs

    def test_peak_memory_is_one_capped_chunk(self):
        import tracemalloc

        from zlab.simulate import _BLOCK_STEPS

        # the default budget would hold all 1100 paths, but the cap runs
        # them as five chunks of 220, so the traced peak holds one such
        # chunk's step array; at 12288 steps the per-block scratch (a few
        # (256, chunk) buffers) and the chunk's generators stay within the
        # quarter array
        cfg = SimConfig(n_paths=1100, steps_per_day=128, n_days=96, seed=3)
        assert cfg.chunk_paths() == 220
        n = cfg.n_steps()
        step_array = 220 * n * 8
        table = n * _BLOCK_STEPS * 8
        outputs = 2 * cfg.n_paths * cfg.n_days * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            simulate_paths(MILD, FLAT, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * step_array + table + outputs

    def test_peak_memory_has_no_block_copies(self):
        import tracemalloc

        from zlab.simulate import _BLOCK_STEPS

        # chunks of 220 paths over 12288 steps: besides the step array, the
        # weight table and the outputs, the traced peak may hold eight
        # (256, chunk) float64 buffers' worth of block scratch, generators
        # and weights; a transposed copy of each block and of its inter-block
        # product would take it past that
        cfg = SimConfig(n_paths=1100, steps_per_day=128, n_days=96, seed=3)
        assert cfg.chunk_paths() == 220
        n = cfg.n_steps()
        step_array = 220 * n * 8
        table = n * _BLOCK_STEPS * 8
        outputs = 2 * cfg.n_paths * cfg.n_days * 8
        block = _BLOCK_STEPS * 220 * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            simulate_paths(MILD, FLAT, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= step_array + table + outputs + 8 * block


def sequential_engine(params, curve, cfg):
    """Daily (r, s2) and the negative-state count of the engine's scheme, with
    the engine's inter-block matrix product (all paths, the table's full
    width) and a plain per-step loop for the intra-block sum, each path's
    earlier steps added in order."""
    r, s2, neg, _ = _sequential_run(params, curve, cfg)
    return r, s2, neg


def sequential_day_start_stats(params, curve, cfg):
    """v_day_mean and v_day_se from ``sequential_engine``'s day-start states.

    Each day adds the deviations V - xi0 of the paths and their squares,
    one by one in path index order as Python floats.
    """
    *_, starts = _sequential_run(params, curve, cfg)
    xi = np.asarray(curve(cfg.dt() * np.arange(cfg.n_steps())))[::cfg.steps_per_day]
    dev = starts - xi
    n = cfg.n_paths
    mean = np.empty(cfg.n_days)
    se = np.empty(cfg.n_days)
    for day in range(cfg.n_days):
        total = total_sq = 0.0
        for x in dev[:, day].tolist():
            total += x
            total_sq += x * x
        dev_mean = total / n
        mean[day] = xi[day] + dev_mean
        se[day] = math.sqrt(max(total_sq / n - dev_mean * dev_mean, 0.0) / n)
    return mean, se


def _sequential_run(params, curve, cfg):
    """``sequential_engine``'s outputs and the raw state of each path at each day start."""
    from zlab.simulate import _BLOCK_STEPS

    n, dt, spd = cfg.n_steps(), cfg.dt(), cfg.steps_per_day
    sqrt_dt = math.sqrt(dt)
    rho_perp = math.sqrt(1.0 - params.rho**2)
    w = precompute_kernel_weights(params, cfg)
    w_pad = np.concatenate([w, np.zeros(_BLOCK_STEPS)])
    table = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(w_pad, _BLOCK_STEPS)[n:0:-1])
    xi = curve(dt * np.arange(n))
    r = np.zeros((cfg.n_paths, cfg.n_days))
    s2 = np.zeros((cfg.n_paths, cfg.n_days))
    starts = np.empty((cfg.n_paths, cfg.n_days))
    neg = 0
    z = np.array([_path_normals(cfg, p, n) for p in range(cfg.n_paths)])
    d_w = z[:, 0] * sqrt_dt
    source = d_w * params.rho + z[:, 1] * (rho_perp * sqrt_dt)  # dB, then sqrt(V+) dB
    for i0 in range(0, n, _BLOCK_STEPS):
        width = min(_BLOCK_STEPS, n - i0)
        past = ((source[:, :i0] @ table[n - i0:])[:, :width] if i0
                else np.zeros((cfg.n_paths, width)))
        past += xi[i0:i0 + width]
        for b in range(width):
            i = i0 + b
            acc = np.zeros(cfg.n_paths)
            for k in range(b):
                acc = acc + source[:, i0 + k] * w[b - k]
            v = past[:, b] + acc
            if i % spd == 0:
                starts[:, i // spd] = v
            neg += int(np.count_nonzero(v < 0.0))
            v_pos = np.maximum(v, 0.0)
            r[:, i // spd] += np.sqrt(v_pos) * d_w[:, i]
            s2[:, i // spd] += v_pos * dt
            source[:, i] *= np.sqrt(v_pos)
    return r, s2, neg, starts


class TestSummationOrder:
    """The engine's paths depend on the order in which each step's
    intra-block sum adds the earlier steps; these tests pin that order."""

    @pytest.mark.parametrize("n_paths", [1, 2, 31, 1000])
    def test_einsum_adds_steps_in_order(self, n_paths):
        rng = np.random.default_rng(n_paths)
        w = rng.standard_normal(256)
        x = rng.standard_normal((256, n_paths)) * np.exp(3.0 * rng.standard_normal((256, n_paths)))
        # the engine's form: row b holds the step's inter-block term, which
        # weight 1 adds after the earlier steps, as acc + term.  The rows
        # sit in the engine's layout, at least 8 columns wide: a contiguous
        # one-path column would take numpy's dot loop, which sums in
        # another order
        w_rev = np.append(w[255:0:-1], 1.0)  # (w_255, ..., w_1, 1)
        steps = np.zeros((256, max(n_paths, 8)))
        for b in (0, 1, 2, 17, 255):
            acc = np.zeros(n_paths)
            for k in range(b):
                acc = acc + x[k] * w[b - k]
            if b:
                assert np.array_equal(np.einsum('kp,k->p', x[:b], w[b:0:-1]), acc), b
            xb = steps[:b + 1, :n_paths]
            xb[:b] = x[:b]
            xb[b] = rng.standard_normal(n_paths)
            out = np.empty(n_paths)
            np.einsum('kp,k->p', xb, w_rev[255 - b:], out=out)
            assert np.array_equal(out, acc + xb[b]), b

    @pytest.mark.parametrize("budget_mb, chunk", [(1, 93), (2, 187)], ids=["1", "2"])
    def test_engine_matches_sequential_reference_bitwise(self, budget_mb, chunk):
        # 560 steps in three blocks; 1 MB holds 93 paths, so 187 paths run
        # as chunks of 93, 93 and 1, and 2 MB holds all 187 in one chunk
        cfg = SimConfig(n_paths=187, steps_per_day=7, n_days=80, seed=17,
                        memory_budget_mb=budget_mb)
        assert cfg.chunk_paths() == chunk
        batch = simulate_paths(SEC4, FLAT, cfg)
        r, s2, neg = sequential_engine(SEC4, FLAT, cfg)
        assert batch.neg_fraction > 0.0
        assert np.array_equal(batch.r, r)
        assert np.array_equal(batch.s2, s2)
        assert batch.neg_fraction == neg / (cfg.n_paths * cfg.n_steps())

    def test_day_start_sums_match_sequential_reference(self):
        # 560 steps in three blocks, 7 a day, so days 36 and 73 straddle the
        # block edges; 1 MB splits the 187 paths into chunks of 93, 93 and
        # 1, and the curve makes every day's xi0 different
        curve = ForwardVarianceCurve.piecewise_linear([0.0, 0.1, 0.2, 0.4],
                                                      [0.02, 0.03, 0.015, 0.025])
        cfg = SimConfig(n_paths=187, steps_per_day=7, n_days=80, seed=17,
                        memory_budget_mb=1)
        assert cfg.chunk_paths() == 93
        batch = simulate_paths(SEC4, curve, cfg)
        mean, se = sequential_day_start_stats(SEC4, curve, cfg)
        assert batch.neg_fraction > 0.0
        assert np.array_equal(batch.v_day_mean, mean)
        assert np.array_equal(batch.v_day_se, se)


class TestStatisticalProperties:
    def test_raw_state_mean_matches_curve_sec4(self):
        # martingale property of the recursion: E[V_t] = xi0(t) exactly,
        # even in the heavy-truncation regime
        cfg = SimConfig(n_paths=20000, steps_per_day=8, n_days=126, seed=11)
        batch = simulate_paths(SEC4, FLAT, cfg)
        picks = [20, 63, 126]
        for day in picks:
            z = (batch.v_day_mean[day - 1] - 0.025) / batch.v_day_se[day - 1]
            assert abs(z) < 3.0

    def test_daily_s2_mean_consistency_mild_regime(self):
        cfg = SimConfig(n_paths=15000, steps_per_day=16, n_days=120, seed=23)
        batch = simulate_paths(MILD, FLAT, cfg)
        assert batch.neg_fraction < 0.02
        target = 0.025 * D
        se = batch.s2.std(axis=0, ddof=1) / math.sqrt(cfg.n_paths)
        zscores = np.abs(batch.s2.mean(axis=0) - target) / se
        assert zscores.max() < 3.5
        assert np.mean(zscores > 3.0) <= 0.01

    def test_sec4_truncation_regime_characterisation(self):
        # at the production parameter set most steps truncate and the
        # truncated aggregates acquire a positive level bias even though the
        # raw state stays unbiased; this pins the documented behaviour
        cfg = SimConfig(n_paths=8000, steps_per_day=20, n_days=60, seed=31)
        batch = simulate_paths(SEC4, FLAT, cfg)
        assert 0.4 < batch.neg_fraction < 0.9
        target = 0.025 * D
        s2_mean = batch.s2[:, -1].mean()
        s2_se = batch.s2[:, -1].std(ddof=1) / math.sqrt(cfg.n_paths)
        assert (s2_mean - target) / s2_se > 3.0
        z_raw = (batch.v_day_mean[-1] - 0.025) / batch.v_day_se[-1]
        assert abs(z_raw) < 3.5

    @pytest.mark.xfail(reason="the documented <50% truncation diagnostic is "
                              "not attainable at the production parameter set: "
                              "the one-step conditional noise of V exceeds its "
                              "level for hurst=0.05, nu/lam=1.5, at any "
                              "feasible steps_per_day (measured ~0.73)",
                       strict=True)
    def test_sec4_truncation_below_half(self):
        cfg = SimConfig(n_paths=2000, steps_per_day=20, n_days=40, seed=31)
        batch = simulate_paths(SEC4, FLAT, cfg)
        assert batch.neg_fraction < 0.5

    def test_rho_zero_gives_null_asymmetry(self):
        p = ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=0.0)
        cfg = SimConfig(n_paths=20000, steps_per_day=6, n_days=60, seed=13)
        batch = simulate_paths(p, FLAT, cfg)
        est, se = estimate_zumbach_mc(batch, 40, 1)
        assert abs(est) < 3.0 * se

    def test_rho_sign_flip_within_joint_se(self):
        cfg = SimConfig(n_paths=20000, steps_per_day=6, n_days=60, seed=29)
        p_pos = ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=0.7)
        a = estimate_zumbach_mc(simulate_paths(SEC4, FLAT, cfg), 40, 1)
        b = estimate_zumbach_mc(simulate_paths(p_pos, FLAT, cfg), 40, 1)
        joint = math.hypot(a[1], b[1])
        assert abs(a[0] - b[0]) < 3.0 * joint

    def test_refinement_stability(self):
        # doubling steps_per_day moves the asymmetry estimate by less than
        # two joint standard errors
        base = simulate_paths(SEC4, FLAT, SimConfig(
            n_paths=12000, steps_per_day=8, n_days=60, seed=37))
        fine = simulate_paths(SEC4, FLAT, SimConfig(
            n_paths=12000, steps_per_day=16, n_days=60, seed=38))
        a = estimate_zumbach_mc(base, 40, 1)
        b = estimate_zumbach_mc(fine, 40, 1)
        assert abs(a[0] - b[0]) < 2.0 * math.hypot(a[1], b[1])

    def test_se_scales_with_paths(self):
        # run at mild parameters: the production set's estimator tails are so
        # heavy that the sampled standard error itself fluctuates beyond the
        # band being asserted
        small = simulate_paths(MILD, FLAT, SimConfig(
            n_paths=6000, steps_per_day=4, n_days=40, seed=41))
        large = simulate_paths(MILD, FLAT, SimConfig(
            n_paths=12000, steps_per_day=4, n_days=40, seed=41))
        _, se_small = estimate_zumbach_mc(small, 30, 1)
        _, se_large = estimate_zumbach_mc(large, 30, 1)
        ratio = se_large / se_small
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)

    def test_moments_agree_in_validity_regime(self):
        cfg = SimConfig(n_paths=25000, steps_per_day=12, n_days=140, seed=43)
        batch = simulate_paths(MILD, FLAT, cfg)
        t_day = 126
        m = estimate_moments_mc(batch, t_day)
        model_var = var_sigma2(MILD, FLAT, t_day * D, D)
        assert abs(m.var_sigma2 - model_var) < 3.0 * m.var_sigma2_se
        z1, z1_se = estimate_zumbach_mc(batch, t_day, 1)
        model_z = zumbach_cov(MILD, FLAT, t_day * D, 1, D)
        assert abs(z1 - model_z) < 3.0 * z1_se


class TestBrownianPair:
    def test_increment_correlation(self):
        # dB = rho dW + sqrt(1-rho^2) dW_perp; sample correlation of the
        # generated pair stays within 4/sqrt(N) of rho
        from zlab.simulate import _path_normals

        cfg = SimConfig(n_paths=1, steps_per_day=50, n_days=200, seed=19)
        n = cfg.n_steps()
        rho = SEC4.rho
        z = _path_normals(cfg, 0, n)
        d_w = z[0]
        d_b = rho * z[0] + math.sqrt(1.0 - rho * rho) * z[1]
        sample = float(np.corrcoef(d_w, d_b)[0, 1])
        assert abs(sample - rho) < 4.0 / math.sqrt(n)

    def test_increment_variance_scaling(self):
        cfg = SimConfig(n_paths=200, steps_per_day=10, n_days=50, seed=20)
        batch = simulate_paths(ModelParams(0.05, 0.3, 0.0, -0.7), FLAT, cfg)
        # nu = 0: r_day = sqrt(xi) * sum dW over the day, iid N(0, xi*delta);
        # 10^4 samples put the sample variance within ~1.4% (1 se)
        assert batch.r.var() == pytest.approx(0.025 * D, rel=0.05)


class TestEstimators:
    def test_day_bounds(self):
        batch = simulate_paths(SEC4, FLAT, SimConfig(n_paths=4, steps_per_day=2, n_days=5, seed=3))
        with pytest.raises(ContractError):
            estimate_zumbach_mc(batch, 0, 1)
        with pytest.raises(ContractError):
            estimate_zumbach_mc(batch, 5, 1)
        with pytest.raises(ContractError):
            estimate_zumbach_mc(batch, 1, 0)
        with pytest.raises(ContractError):
            estimate_moments_mc(batch, 6)

    def test_estimator_matches_numpy_covariances(self):
        batch = simulate_paths(SEC4, FLAT, SimConfig(n_paths=500, steps_per_day=2, n_days=10, seed=3))
        est, _ = estimate_zumbach_mc(batch, 4, 2)
        a = batch.r[:, 3] ** 2
        b = batch.s2[:, 5]
        c = batch.r[:, 5] ** 2
        d = batch.s2[:, 3]
        direct = (np.mean(a * b) - a.mean() * b.mean()) - (np.mean(c * d) - c.mean() * d.mean())
        assert est == pytest.approx(direct, rel=1e-12)


def _export_batches():
    """A simulated batch, and a copy holding signed zeros, extremes, inf and NaN."""
    batch = simulate_paths(SEC4, FLAT, SimConfig(n_paths=12, steps_per_day=2, n_days=9, seed=5))
    r, s2 = batch.r.copy(), batch.s2.copy()
    r[0, :6] = [0.0, -0.0, 1e-300, 5e-324, -1.7976931348623157e308, 0.1]
    s2[1, :3] = [np.inf, np.nan, 1e22]
    odd = PathBatch(r=r, s2=s2, config=batch.config,
                    weight_checksum=batch.weight_checksum, neg_fraction=0.0)
    return batch, odd


class TestDiagnostics:
    def test_non_finite_aborts(self):
        p = ModelParams(hurst=0.05, lam=0.3, nu=1e250, rho=-0.7)
        with pytest.raises(SimulationError):
            simulate_paths(p, FLAT, SimConfig(n_paths=8, steps_per_day=8, n_days=4, seed=5))

    def test_export_csv_shape(self):
        batch = simulate_paths(SEC4, FLAT, SimConfig(n_paths=3, steps_per_day=2, n_days=4, seed=5))
        buf = io.StringIO()
        export_daily_csv(batch, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "path_id,day,r,sigma2"
        assert len(lines) == 1 + 3 * 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert float(first[2]) == batch.r[0, 0]
        assert float(first[3]) == batch.s2[0, 0]

    def test_export_csv_matches_per_row_oracle(self):
        # a per-row writer: the byte-level reference
        def per_row(batch, fileobj):
            fileobj.write("path_id,day,r,sigma2\n")
            n_paths, n_days = batch.r.shape
            for pid in range(n_paths):
                rp, sp = batch.r[pid], batch.s2[pid]
                for day in range(n_days):
                    fileobj.write(f"{pid},{day + 1},{rp[day]:.17g},{sp[day]:.17g}\n")

        for b in _export_batches():
            got, want = io.StringIO(), io.StringIO()
            export_daily_csv(b, got)
            per_row(b, want)
            assert got.getvalue() == want.getvalue()

    def test_export_with_series_matches_both_writers(self):
        # one pass writes the dump and the generic_csv series of the same
        # paths, each byte for byte as its own writer does
        for b in _export_batches():
            dump, series = io.StringIO(), io.StringIO()
            export_daily_csv(b, dump, series)
            want_dump, want_series = io.StringIO(), io.StringIO()
            export_daily_csv(b, want_dump)
            write_generic_csv(series_from_batch(b), want_series)
            assert dump.getvalue() == want_dump.getvalue()
            assert series.getvalue() == want_series.getvalue()
