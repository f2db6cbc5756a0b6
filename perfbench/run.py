"""zlab benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mc_rough|model_curves|panel_pipeline|all
                             --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/zlab``.  Each run starts the workload in
a fresh worker process (``worker.py``); the worker repeats the workload's
steps for ``--seconds`` and checks their outputs.  The load is a closed loop
with one client: one step after another, no concurrency, ``--threads 1``
(``ZLAB_THREADS`` is removed from the worker's environment); BLAS keeps the
machine's default thread count.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``     -- median time from a fresh process to ready, over
                     ``SETUP_SAMPLES`` separate processes started before and
                     after the measured one (import zlab, write the
                     generated inputs, create the output directories, load
                     the reference table);
* ``wall_s``      -- median wall time of one pass over the workload's steps,
                     after an untimed warm-up pass;
* ``peak_rss_mb`` -- peak resident memory of the worker process.

``--trace 1`` reports the per-layer metrics, measured by wrapping zlab's
public functions (``tracing.py``).

Failed operations over attempted ones (``fail_ratio``) is 0 on a correct
run, so it is reported through the ``attempted`` and ``failed`` fields and
the summary lines rather than as a metric.  The last line of standard output
is the JSON result; the line before it is a JSON record with the
environment, every check and the values that are reported but not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("mc_rough", "model_curves", "panel_pipeline")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def _spawn(args: list[str]):
    env = dict(os.environ)
    env.pop("ZLAB_THREADS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def _until_ready(proc, start: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise BenchError(f"worker did not get ready (said {line.strip()!r})")
    return time.perf_counter() - start


def _finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh worker process to its READY line."""
    start = time.perf_counter()
    proc = _spawn(["--workload", workload, "--seed", str(seed), "--setup-only"])
    try:
        return _until_ready(proc, start)
    finally:
        _finish(proc, 30.0)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # probes before and after the measured worker, so that set-up samples
    # span the run like the timed passes do
    probes = 0 if trace else (SETUP_SAMPLES - 1) // 2
    setups = [setup_probe(workload, seed) for _ in range(probes)]
    start = time.perf_counter()
    proc = _spawn(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace))])
    try:
        setups.append(_until_ready(proc, start))
    finally:
        out = _finish(proc, WORKER_TIMEOUT_S)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    if not trace:
        setups += [setup_probe(workload, seed) for _ in range(SETUP_SAMPLES - 1 - probes)]
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def metrics_of(result: dict, spec: list[dict], trace: bool) -> dict:
    source = result["per_layer"] if trace else result
    missing = [m["name"] for m in spec if m["name"] not in source]
    if missing:
        raise BenchError(f"{result['workload']}: no value for {missing}")
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "zlab" / "__init__.py").is_file():
        print(f"run.py: no zlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    names = NAMES if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
        metrics = {n: metrics_of(r, spec, bool(args.trace)) for n, r in zip(names, results)}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    for name, result in zip(names, results):
        for metric, entry in metrics[name].items():
            print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{name} fail_ratio = {ratio:.6g} ({result['failed']} of "
              f"{result['attempted']} operations failed)")
        for check in result["checks"]:
            if not check["ok"]:
                print(f"{name} FAILED {check['name']}: {check['detail']}")
    print(json.dumps({"record": [{k: v for k, v in r.items() if k != "per_layer"}
                                 for r in results]}))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    flat = metrics[names[0]] if len(names) == 1 else {
        f"{n}.{m}": e for n in names for m, e in metrics[n].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": flat}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
