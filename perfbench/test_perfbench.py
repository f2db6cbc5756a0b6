"""Tests of the benchmark itself: its checks reject corrupted outputs, and
tracing changes no output bit.

    python3 -m pytest perfbench/test_perfbench.py      (about a minute and a half)
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from workloads import REF_RTOL, WORKLOADS, McRough, ModelCurves, PanelPipeline  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def failed(checks):
    return [c.name for c in checks if not c.ok]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request, tmp_path_factory):
    """Warm-up, untraced and traced passes of a workload, outputs kept."""
    workdir = tmp_path_factory.mktemp(request.param)
    result = worker.run(request.param, SEED, 0.0, True, workdir)
    return request.param, workdir, result


def test_traced_run_is_correct_and_changes_no_output(traced):
    name, _, result = traced
    assert result["iterations"] == 3
    assert [c for c in result["checks"] if not c["ok"]] == []
    identical = [c["detail"] for c in result["checks"]
                 if c["name"] == "output identical to first iteration"]
    assert identical == ["untraced", "traced vs untraced"]


def test_traced_run_reports_every_per_layer_metric(traced):
    _, _, result = traced
    assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert abs(result["per_layer"]["bench.self_coverage"] - 1.0) < 0.1


def test_tracer_restores_every_wrapper():
    sys.path.insert(0, str(ROOT / "src"))
    import zlab.cli
    from tracing import Tracer
    from zlab import model, special

    before = (model.ml_cdf, special.quad, dict(zlab.cli._DISPATCH))
    tracer = Tracer().install()
    assert model.ml_cdf is not before[0]
    tracer.uninstall()
    assert (model.ml_cdf, special.quad, dict(zlab.cli._DISPATCH)) == before


@pytest.mark.parametrize("traced", ["mc_rough"], indirect=True)
def test_nan_estimate_is_rejected(traced):
    _, workdir, _ = traced
    wl = McRough(SEED, workdir, REFERENCE)
    assert failed(wl.check({})) == []
    path = wl.out / "zumbach_mc.json"
    good = path.read_text()
    payload = json.loads(good)
    payload["estimate"][3] = math.nan
    path.write_text(json.dumps(payload))
    try:
        assert set(failed(wl.check({}))) == {"mc outputs finite", "Z(4) vs model"}
    finally:
        path.write_text(good)


@pytest.mark.parametrize("traced", ["panel_pipeline"], indirect=True)
def test_truncated_panel_is_rejected(traced):
    _, workdir, _ = traced
    wl = PanelPipeline(SEED, workdir, REFERENCE)
    assert failed(wl.check({})) == []
    path = wl.out / "panel.csv"
    saved = path.with_suffix(".bak")
    shutil.copy(path, saved)
    text = path.read_text()
    try:
        path.write_text(text[: len(text) - 1000])  # cut mid-row
        assert failed(wl.check({})) == ["panel equals dumped paths"]
        path.write_text(text[: text.rindex("\n", 0, len(text) - 1) + 1])  # drop a whole row
        assert failed(wl.check({})) == ["panel equals dumped paths"]
    finally:
        shutil.move(saved, path)


def _reference_outputs(tmp_path, variant):
    wl = ModelCurves(variant, tmp_path, REFERENCE)
    values = REFERENCE["model_curves"]["variants"][variant]["values"]
    for sub in ("h005", "h03", "piecewise"):
        (wl.out / sub).mkdir()
        (wl.out / sub / "model_curve.json").write_text(json.dumps(values[sub]))
    return wl, dict(values["library"])


def test_model_value_perturbed_by_1e_6_is_rejected(tmp_path):
    wl, library = _reference_outputs(tmp_path, SEED % ModelCurves.N_VARIANTS)
    assert failed(wl.check(library)) == []

    path = wl.out / "h03" / "model_curve.json"
    curve = json.loads(path.read_text())
    curve["zumbach_cov"][41] *= 1.0 + 1e-6
    path.write_text(json.dumps(curve))
    assert failed(wl.check(library)) == ["h03 vs reference"]

    exact = library["fourth_moment_r piecewise"]
    library["fourth_moment_r piecewise"] = exact * (1.0 + 0.1 * REF_RTOL)
    assert failed(wl.check(library)) == ["h03 vs reference"]
    library["fourth_moment_r piecewise"] = exact * (1.0 + 1e-6)
    assert failed(wl.check(library)) == ["h03 vs reference", "library vs reference"]


def test_missing_library_value_is_rejected(tmp_path):
    wl, library = _reference_outputs(tmp_path, 0)
    del library["stationary_var_sigma2"]
    assert failed(wl.check(library)) == ["library vs reference"]


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "panel_pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
