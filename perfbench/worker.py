"""One workload process of the zlab benchmark.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only]

Sets up (imports zlab, writes the generated inputs, creates the output
directories, loads the reference table), prints ``READY``, then repeats the
workload's steps until ``--seconds`` have passed and prints one
``RESULT <json>`` line.  ``run.py`` starts it in a fresh process and times
set-up from the outside; this file is not meant to be run by hand.

With ``--trace 1`` the timed passes alternate between untraced and traced,
so one run yields the tracing overhead under the same host load and proves
that the timers change no output bit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"

# Span names whose self time the traced run reports.
SPANS = [
    "special.ml_cdf", "special.ml_cdf_grid",
    "model.zumbach_cov", "model.var_sigma2", "model.fourth_moment_r",
    "model.zumbach_correl", "model.zumbach_correl_small_delta",
    "model.stationary_var_sigma2", "model.stationary_fourth_moment_r", "model.g_alpha",
    "simulate.simulate_paths", "simulate.precompute_kernel_weights",
    "simulate.estimators", "simulate.export_daily_csv",
    "empirical.series_from_batch", "empirical.write_generic_csv", "empirical.ingest",
    "empirical.rho_curve", "empirical.cross_index_average", "empirical.tra_writers",
    "cli.cmd_simulate", "cli.cmd_empirical", "cli.cmd_model",
]
# Counters the traced run reports; they must repeat exactly between iterations.
COUNTS = [
    "special.ml_cdf.calls", "special.ml_cdf.calls_series", "special.ml_cdf.calls_spectral",
    "special.ml_cdf.calls_asym", "special.ml_cdf.calls_closed", "special.ml_cdf_grid.points",
    "special.quad.calls", "special.quad.evals",
    "model.zumbach_cov.calls", "model.quad.calls", "model.quad.evals",
    "simulate.path_steps", "empirical.ingest.rows", "empirical.rho_curve.calls",
]


def _tree_digest(directory: Path, values: dict) -> tuple[str, int]:
    """SHA-256 over every output file and library value; total file bytes."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        digest.update(str(path.relative_to(directory)).encode() + b"\0" + data)
    digest.update(json.dumps(values, sort_keys=True).encode())
    return digest.hexdigest(), size


def run_iteration(wl, cli_main) -> dict:
    """Run the workload's steps once; time them; hash what they produced."""
    for child in wl.out.iterdir():
        shutil.rmtree(child) if child.is_dir() else child.unlink()
    values, failures = {}, []
    steps = wl.steps()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        for step in steps:
            try:
                if step.argv is not None:
                    code = cli_main(step.argv)
                    if code != 0:
                        failures.append(f"{step.label}: exit {code}")
                else:
                    values[step.label] = step.call()
            except Exception as exc:  # a crashing step is a failed operation
                failures.append(f"{step.label}: {exc!r}")
        wall = time.perf_counter() - start
    digest, size = _tree_digest(wl.out, values)
    return {"wall_s": wall, "values": values, "ops": len(steps),
            "failures": failures, "digest": digest, "bytes": size}


def environment() -> dict:
    import numpy
    import scipy

    blas = None
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zlab").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "ZLAB_THREADS": os.environ.get("ZLAB_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _layer_metrics(tracer, it) -> dict:
    selfs = tracer.self_seconds()
    out = {f"{name}.self_s": selfs.get(name, 0.0) for name in SPANS}
    out.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    sim_s = tracer.span_seconds("simulate.simulate_paths")
    out["simulate.path_steps_per_s"] = out["simulate.path_steps"] / sim_s if sim_s else 0.0
    out["cli.bytes_written"] = it["bytes"]
    out["bench.wall_traced_s"] = it["wall_s"]
    out["bench.self_coverage"] = sum(selfs.get(name, 0.0) for name in SPANS) / it["wall_s"]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        ready=lambda: None) -> dict:
    """Set up, call ``ready``, measure for ``seconds``, check, and report."""
    sys.path.insert(0, str(ROOT / "src"))
    import zlab.cli
    from workloads import WORKLOADS, Check

    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    wl = WORKLOADS[workload](seed, workdir, reference)
    ready()

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    # Pass 0 warms up (lazy imports, BLAS threads, caches) and is checked in
    # full but not timed; traced runs then alternate untraced (odd) and
    # traced (even) timed passes.
    iterations, passes_s, layer_runs, checks = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        pass_start = time.perf_counter()
        traced = tracer is not None and len(iterations) > 0 and len(iterations) % 2 == 0
        if traced:
            tracer.reset()
            tracer.install()
        try:
            it = run_iteration(wl, zlab.cli.main)
        finally:
            if traced:
                tracer.uninstall()
        checks += [Check(f"step {failure}", False, "") for failure in it["failures"]]
        if not iterations:
            try:
                checks += wl.check(it["values"])
                recorded = wl.recorded(it["values"])
            except Exception as exc:  # unreadable outputs fail the run, not the worker
                checks.append(Check("outputs readable", False, repr(exc)))
                recorded = {}
        else:
            checks.append(Check("output identical to first iteration",
                                it["digest"] == iterations[0]["digest"],
                                "traced vs untraced" if traced else "untraced"))
        iterations.append(it)
        if traced:
            layer_runs.append(_layer_metrics(tracer, it))
            trace_dump = tracer.dump()
        passes_s.append(time.perf_counter() - pass_start)
        # stop before a pass that would end after the deadline
        enough = len(iterations) >= (3 if trace else 2)
        if enough and time.perf_counter() + statistics.median(passes_s) > deadline:
            break

    walls = [it["wall_s"] for it in iterations]
    wall = statistics.median(walls[1::2] if trace else walls[1:])
    per_layer = {}
    if layer_runs:
        last = layer_runs[-1]
        repeat = all(run_[name] == last[name] for run_ in layer_runs
                     for name in COUNTS + ["cli.bytes_written"])
        checks.append(Check("trace counts repeat", repeat,
                            f"{len(layer_runs)} traced iterations"))
        per_layer = {name: (statistics.median(r[name] for r in layer_runs)
                            if isinstance(last[name], float) else last[name])
                     for name in last}
        per_layer["bench.wall_untraced_s"] = wall
        per_layer["bench.trace_overhead_s"] = per_layer["bench.wall_traced_s"] - wall
        WORK_ROOT.mkdir(exist_ok=True)
        (WORK_ROOT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(trace_dump) + "\n")

    attempted = sum(it["ops"] for it in iterations) + sum(
        1 for c in checks if not c.name.startswith("step "))
    failed = sum(not c.ok for c in checks)
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "iterations": len(iterations), "iteration_wall_s": walls,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted, "failed": failed,
        "checks": [c._asdict() for c in checks],
        "recorded": recorded, "per_layer": per_layer, "env": environment(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workdir = WORK_ROOT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def ready():
        print("READY", flush=True)
        if args.setup_only:
            raise SystemExit(0)

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, ready)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
