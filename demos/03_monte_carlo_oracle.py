"""Monte Carlo cross-validation of the analytic formulas.

Simulates the Volterra variance dynamics with the integrated-kernel Euler
engine and compares sample statistics against the quadrature formulas: the
asymmetry Z(k), the variance of integrated variance, and the return fourth
moment.  Uses a moderate-roughness parameter point where the truncated
scheme is in its validity regime (at the extreme production set H = 0.05,
nu/lam = 1.5, the max(V, 0) truncation fires on ~70% of steps and biases
level-sensitive aggregates; see the README notes).

Run:  python3 demos/03_monte_carlo_oracle.py       (~13 seconds)
"""

import time

from zlab.model import (TRADING_DAY, ForwardVarianceCurve, ModelParams,
                        fourth_moment_r, var_sigma2, zumbach_cov)
from zlab.simulate import (SimConfig, estimate_moments_mc, estimate_zumbach_mc,
                           precompute_kernel_weights, simulate_paths)

params = ModelParams(hurst=0.3, lam=0.3, nu=0.2, rho=-0.7)
curve = ForwardVarianceCurve.flat(0.025)
config = SimConfig(n_paths=40_000, steps_per_day=12, n_days=160, seed=2718)

w = precompute_kernel_weights(params, config)
print(f"kernel weights: w_1 = {w[1]:.4f}, w_2 = {w[2]:.4f}, "
      f"sum w dt = {w[1:].sum() * config.dt():.6f}")

t0 = time.time()
t_day = 126
# keep the days the estimates read, t_day..t_day + 5; the day-start means
# cover every day
batch = simulate_paths(params, curve, config, days=range(t_day, t_day + 6))
print(f"simulated {config.n_paths} paths x {config.n_steps()} steps "
      f"in {time.time() - t0:.0f}s; truncation fraction {batch.neg_fraction:.4f}\n")

t_y = t_day * TRADING_DAY
print(f"{'quantity':<12} {'Monte Carlo':>14} {'std error':>12} {'analytic':>14} {'z':>7}")
for k in (1, 2, 5):
    est, se = estimate_zumbach_mc(batch, t_day, k)
    model = zumbach_cov(params, curve, t_y, k)
    print(f"Z({k}){'':<8} {est:>14.4e} {se:>12.2e} {model:>14.4e} {(est - model) / se:>+7.2f}")

m = estimate_moments_mc(batch, t_day)
vm = var_sigma2(params, curve, t_y)
fm = fourth_moment_r(params, curve, t_y)
print(f"{'Var[s2]':<12} {m.var_sigma2:>14.4e} {m.var_sigma2_se:>12.2e} "
      f"{vm:>14.4e} {(m.var_sigma2 - vm) / m.var_sigma2_se:>+7.2f}")
print(f"{'E[r^4]':<12} {m.fourth_moment_r:>14.4e} {m.fourth_moment_r_se:>12.2e} "
      f"{fm:>14.4e} {(m.fourth_moment_r - fm) / m.fourth_moment_r_se:>+7.2f}")

print("\nraw-state martingale check (E[V] = xi0 at day starts):")
for day in (40, 80, 160):
    mean, se = batch.v_day_mean[day - 1], batch.v_day_se[day - 1]
    print(f"  day {day:>4}: mean V = {mean:.6f} +- {se:.6f}   (target 0.025)")
