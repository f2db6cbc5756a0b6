"""In-memory layer tracing from outside the program.

The tracer wraps public zlab functions in the module namespaces where the
program looks them up, records one span per call (name, start, end, parent)
and restores every original on ``uninstall``.  Self time is a span's
duration minus the time its child spans cover; the code is single-threaded
here (``--threads 1``), so child spans never overlap and their durations add.

``special.ml_cdf`` runs ~10^5 times per workload iteration, so its spans are
aggregated per (parent, name) instead of kept one by one.

Names that a later version of the program no longer defines are skipped:
their layer then reports zero work, which is what happened.
"""

from __future__ import annotations

import collections
import importlib
import time

# Regime bands of zlab.special, as its module docstring states them: the
# power series for z <= 9.2**a, the tail expansion for z >= 30**a, spectral
# quadrature in between, closed forms for x = 0 and a within 5e-12 of 1.
SERIES_EDGE = 9.2
ASYM_EDGE = 30.0
ALPHA_ONE_PAD = 5e-12


def ml_cdf_regime(p, x) -> str:
    alpha = p.alpha
    if x == 0.0 or alpha >= 1.0 - ALPHA_ONE_PAD:
        return "closed"
    z = p.lam * x**alpha
    if z <= SERIES_EDGE**alpha:
        return "series"
    if z >= ASYM_EDGE**alpha:
        return "asym"
    return "spectral"


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent name, start, end, self seconds)
        self.hot = {}  # (parent name, name) -> [calls, seconds, self seconds]
        self.counts = collections.Counter()
        self._stack = []  # [name, child seconds]
        self._patched = []  # (namespace, key, original)

    # -- recording -------------------------------------------------------
    def _span(self, name, fn, hot=False, count=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                parent_name = parent[0] if parent else None
                if hot:
                    agg = self.hot.setdefault((parent_name, name), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]
                else:
                    self.spans.append((name, parent_name, start, end, dur - frame[1]))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _counted_quad(self, layer, quad):
        counts = self.counts

        def wrapper(func, *args, **kwargs):
            counts[f"{layer}.quad.calls"] += 1

            def integrand(*x):
                counts[f"{layer}.quad.evals"] += 1
                return func(*x)

            return quad(integrand, *args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------
    def _patch(self, namespace, key, make):
        if isinstance(namespace, dict):
            if key not in namespace:
                return
            original = namespace[key]
            namespace[key] = make(original)
        else:
            if not hasattr(namespace, key):
                return
            original = getattr(namespace, key)
            setattr(namespace, key, make(original))
        self._patched.append((namespace, key, original))

    def install(self):
        special, model, simulate, empirical, cli = (
            importlib.import_module(f"zlab.{name}")
            for name in ("special", "model", "simulate", "empirical", "cli"))

        def ml_cdf_count(counts, args, kwargs, result):
            counts["special.ml_cdf.calls"] += 1
            counts[f"special.ml_cdf.calls_{ml_cdf_regime(args[0], args[1])}"] += 1

        def grid_count(counts, args, kwargs, result):
            counts["special.ml_cdf_grid.points"] += len(result)

        def calls(metric):
            def count(counts, args, kwargs, result):
                counts[metric] += 1
            return count

        def path_steps(counts, args, kwargs, result):
            config = args[2] if len(args) > 2 else kwargs["config"]
            counts["simulate.path_steps"] += config.n_paths * config.n_steps()

        def ingest_rows(counts, args, kwargs, result):
            counts["empirical.ingest.rows"] += sum(len(s) for s in result)

        def span(name, hot=False, count=None):
            return lambda fn: self._span(name, fn, hot=hot, count=count)

        for ns in (special, model):
            self._patch(ns, "ml_cdf", span("special.ml_cdf", hot=True, count=ml_cdf_count))
        for ns in (special, model, simulate):
            self._patch(ns, "ml_cdf_grid", span("special.ml_cdf_grid", count=grid_count))
        for layer, ns in (("special", special), ("model", model)):
            self._patch(ns, "quad", lambda fn, layer=layer: self._counted_quad(layer, fn))

        self._patch(model, "zumbach_cov",
                    span("model.zumbach_cov", count=calls("model.zumbach_cov.calls")))
        for name in ("var_sigma2", "fourth_moment_r", "zumbach_correl", "g_alpha",
                     "zumbach_correl_small_delta", "stationary_var_sigma2",
                     "stationary_fourth_moment_r"):
            self._patch(model, name, span(f"model.{name}"))

        self._patch(simulate, "simulate_paths",
                    span("simulate.simulate_paths", count=path_steps))
        self._patch(simulate, "precompute_kernel_weights",
                    span("simulate.precompute_kernel_weights"))
        for name in ("estimate_zumbach_mc", "estimate_moments_mc"):
            self._patch(simulate, name, span("simulate.estimators"))
        self._patch(simulate, "export_daily_csv", span("simulate.export_daily_csv"))

        self._patch(empirical, "ingest", span("empirical.ingest", count=ingest_rows))
        self._patch(empirical, "rho_curve",
                    span("empirical.rho_curve", count=calls("empirical.rho_curve.calls")))
        for name in ("series_from_batch", "write_generic_csv", "cross_index_average"):
            self._patch(empirical, name, span(f"empirical.{name}"))
        for name in ("tra_to_csv", "tra_to_json"):
            self._patch(empirical, name, span("empirical.tra_writers"))

        # main() dispatches through this table, not through module attributes
        for command in ("simulate", "empirical", "model"):
            self._patch(getattr(cli, "_DISPATCH", {}), command,
                        span(f"cli.cmd_{command}"))
        return self

    def uninstall(self):
        for namespace, key, original in reversed(self._patched):
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        self._patched.clear()

    # -- reporting -------------------------------------------------------
    def reset(self):
        self.spans.clear()
        self.hot.clear()
        self.counts.clear()

    def self_seconds(self) -> dict:
        """Self time per span name, summed over parents and calls."""
        out = collections.defaultdict(float)
        for name, _parent, _start, _end, self_s in self.spans:
            out[name] += self_s
        for (_parent, name), (_calls, _total, self_s) in self.hot.items():
            out[name] += self_s
        return dict(out)

    def span_seconds(self, name) -> float:
        """Total duration of the recorded spans of one name."""
        return sum(end - start for n, _parent, start, end, _ in self.spans if n == name)

    def dump(self) -> dict:
        return {
            "spans": [{"name": n, "parent": p, "start": s, "end": e, "self_s": x}
                      for n, p, s, e, x in self.spans],
            "aggregated": [{"parent": p, "name": n, "calls": c, "total_s": t, "self_s": x}
                           for (p, n), (c, t, x) in self.hot.items()],
            "counts": dict(self.counts),
        }
