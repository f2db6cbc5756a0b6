"""Record the analytic reference table of the zlab benchmark.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``: every analytic value the
``ModelCurves`` steps output, for each of their input variants
(``model_curves``), and the model values the ``McRough`` checks compare the
Monte Carlo estimates with (``mc_rough``).  The table was recorded once, at
the commit named in it, and gates later versions of the program at
``workloads.REF_RTOL``; it doubles as the fixed-grid before/after table for
changes to the quadrature and the Mittag-Leffler evaluators.  Re-record it
only on purpose, when a change of the program's values is intended.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import zlab.cli  # noqa: E402
from zlab import model as mdl  # noqa: E402

from worker import environment, run_iteration  # noqa: E402
from workloads import DAY, PROD, McRough, ModelCurves  # noqa: E402


def mc_rough_reference() -> dict:
    params = mdl.ModelParams(PROD["hurst"], PROD["lam"], PROD["nu"], PROD["rho"])
    flat = mdl.ForwardVarianceCurve.flat(PROD["xi0"])
    t = McRough.T_DAY * DAY
    return {
        "t": t,
        "zumbach_cov": [mdl.zumbach_cov(params, flat, t, k, DAY)
                        for k in range(1, McRough.K_MAX + 1)],
        "fourth_moment_r": mdl.fourth_moment_r(params, flat, t, DAY),
        "var_sigma2": mdl.var_sigma2(params, flat, t, DAY),
    }


def model_curves_reference() -> dict:
    variants = []
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for variant in range(ModelCurves.N_VARIANTS):
            wl = ModelCurves(variant, Path(tmp) / str(variant), {})
            it = run_iteration(wl, zlab.cli.main)
            if it["failures"]:
                raise SystemExit(f"variant {variant}: {it['failures']}")
            variants.append({"inputs": wl.inputs, "values": wl.collect(it["values"])})
    return {"variants": variants}


def main() -> int:
    env = environment()
    table = {
        "recorded_at": {"git_commit": env["git_commit"], "src_sha256": env["src_sha256"]},
        "mc_rough": mc_rough_reference(),
        "model_curves": model_curves_reference(),
    }
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
