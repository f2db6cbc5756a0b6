"""The workloads of the zlab benchmark and the checks on their outputs.

Each workload is one closed-loop client: it runs its steps (CLI calls and
library calls) one after another in one process, with ``--threads 1``.  The
benchmark seed picks the inputs; the program only sees the generated inputs.

* ``mc_rough``       -- the Monte Carlo engine in its many-paths regime: wide
  GEMMs over 15 120 steps, step buffers set peak memory; no quadrature (its
  model values come from the reference table).
* ``model_curves``   -- the analytic route: scalar adaptive quadrature over
  the Mittag-Leffler CDF in all of its regimes; no Monte Carlo, little I/O.
* ``panel_pipeline`` -- the paper's route from a simulated 31-index panel to
  the estimators: few paths over a long horizon (narrow GEMMs, per-step
  overhead), the CSV writers, ingestion and ``rho_curve``.

Checks compare statistics, not bytes, wherever the Monte Carlo engine is
involved, so any correct engine passes them.  Analytic values are compared
with ``reference.json`` (recorded by ``make_reference.py``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# Production calibration of the paper's rough Heston example.
PROD = {"hurst": 0.05, "lam": 0.3, "nu": 0.45, "rho": -0.7, "xi0": 0.025}
DAY = 1.0 / 252.0

# Largest |z| an estimate may show against the model; the Gaussian tail
# beyond 4 is 6e-5 per statistic.
Z_MAX = 4.0
# E[r^4] is heavy-tailed at 1000 paths: when no extreme path is drawn, the
# sample mean and its standard error are small together, and the z-score
# fell to -11.8 on 30 seeds.  Its lower side is therefore gated by the
# ratio to the model instead (lowest of those 30 seeds: 0.22); the upper
# side keeps the z-score.
R4_MIN = 0.1
# Analytic values must reproduce the recorded reference this closely.
REF_RTOL = 1e-8
# rho_curve against direct numpy; the floor keeps correlations near zero
# from turning rounding into large relative errors.
RHO_RTOL = 1e-12
RHO_FLOOR = 1e-3


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


class Step(NamedTuple):
    """One operation: a CLI call (``argv``) or a library call (``call``)."""

    label: str
    argv: list | None = None
    call: Callable | None = None


def _prod_flags(xi0=PROD["xi0"], hurst=PROD["hurst"]):
    return ["--hurst", repr(hurst), "--lam", repr(PROD["lam"]), "--nu", repr(PROD["nu"]),
            "--rho", repr(PROD["rho"]), "--xi0", repr(xi0)]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _numbers(tree):
    """Every number in a JSON tree, flattened."""
    if isinstance(tree, dict):
        return [x for v in tree.values() for x in _numbers(v)]
    if isinstance(tree, list):
        return [x for v in tree for x in _numbers(v)]
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        return [float(tree)]
    return []


def _all_finite(tree) -> bool:
    vals = _numbers(tree)
    return bool(vals) and all(math.isfinite(v) for v in vals)


def max_rel_err(got, ref) -> float:
    """Largest relative difference between two JSON trees of one shape."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or got.keys() != ref.keys():
            return math.inf
        return max((max_rel_err(got[k], ref[k]) for k in ref), default=0.0)
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return math.inf
        return max((max_rel_err(g, r) for g, r in zip(got, ref)), default=0.0)
    if isinstance(ref, str) or isinstance(got, str):
        return 0.0 if got == ref else math.inf
    got, ref = float(got), float(ref)
    if not math.isfinite(got):
        return math.inf
    if ref == 0.0:
        return 0.0 if got == 0.0 else math.inf
    return abs(got - ref) / abs(ref)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.seed = seed
        self.reference = reference
        self.out = workdir / "out"
        self.out.mkdir(parents=True, exist_ok=True)

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def check(self, values: dict) -> list[Check]:
        """Correctness checks on one iteration's outputs and library values."""
        raise NotImplementedError

    def recorded(self, values: dict) -> dict:
        """Values reported but not gated."""
        return {}


class McRough(Workload):
    name = "mc_rough"
    T_DAY = 504
    K_MAX = 10

    def steps(self):
        return [Step("simulate", argv=[
            "simulate", *_prod_flags(), "--paths", "1000", "--steps-per-day", "20",
            "--days", "756", "--t-day", str(self.T_DAY), "--k-max", str(self.K_MAX),
            "--seed", str(self.seed), "--format", "json", "-o", str(self.out)])]

    def _z_scores(self):
        mc = read_json(self.out / "zumbach_mc.json")
        ref = self.reference["mc_rough"]
        with np.errstate(all="ignore"):
            zk = [(est - model) / se for est, se, model in
                  zip(mc["estimate"], mc["std_error"], ref["zumbach_cov"])]
            z4 = (mc["fourth_moment_r"] - ref["fourth_moment_r"]) / mc["fourth_moment_r_se"]
            zvar = (mc["var_sigma2"] - ref["var_sigma2"]) / mc["var_sigma2_se"]
        return mc, [float(z) for z in zk], float(z4), float(zvar)

    def check(self, values):
        mc, zk, z4, _ = self._z_scores()
        ratio = mc["fourth_moment_r"] / self.reference["mc_rough"]["fourth_moment_r"]
        moments = read_json(self.out / "moments_mc.json")
        checks = [Check("mc outputs finite",
                        _all_finite(mc) and _all_finite(moments)
                        and all(se > 0.0 for se in mc["std_error"]),
                        "estimates, standard errors and moments"),
                  Check("mc lag grid", mc["k"] == list(range(1, self.K_MAX + 1))
                        and mc["t_day"] == self.T_DAY, f"k={mc['k']}")]
        checks += [Check(f"Z({k}) vs model", abs(z) <= Z_MAX, f"z={z:+.2f}")
                   for k, z in enumerate(zk, start=1)]
        checks.append(Check("E[r^4] vs model", z4 <= Z_MAX and ratio >= R4_MIN,
                            f"z={z4:+.2f}, estimate/model={ratio:.3f}"))
        return checks

    def recorded(self, values):
        mc, zk, z4, zvar = self._z_scores()
        # Var[s2] carries the known truncation bias (strict xfail
        # test_a07_var_sigma2_monte_carlo), so it is reported, never gated.
        return {"var_sigma2_z": zvar, "fourth_moment_r_z": z4, "zumbach_z": zk,
                "neg_fraction": mc["neg_fraction"]}


class ModelCurves(Workload):
    name = "model_curves"
    N_VARIANTS = 8
    KNOT_TIMES = (0.0, 0.5, 1.2, 2.5)
    KNOT_SHAPE = (0.8, 1.2, 1.04, 0.96)  # times the variant's xi0
    T = 2.0

    @classmethod
    def variant_inputs(cls, variant: int) -> dict:
        """Forward variance level and curve knots of one input variant.

        The seed only scales the curve: quadrature adapts to relative
        error, so every variant does the same work.
        """
        xi0 = 0.020 + 0.0015 * variant
        return {"xi0": xi0, "knot_t": list(cls.KNOT_TIMES),
                "knot_xi0": [xi0 * s for s in cls.KNOT_SHAPE]}

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.variant = seed % self.N_VARIANTS
        self.inputs = self.variant_inputs(self.variant)
        self.knots = workdir / "knots.csv"
        self.knots.write_text("t,xi0\n" + "".join(
            f"{t!r},{v!r}\n" for t, v in zip(self.inputs["knot_t"], self.inputs["knot_xi0"])))

    def steps(self):
        from zlab import model as mdl

        xi0 = self.inputs["xi0"]
        params = mdl.ModelParams(PROD["hurst"], PROD["lam"], PROD["nu"], PROD["rho"])
        flat = mdl.ForwardVarianceCurve.flat(xi0)
        curve = mdl.ForwardVarianceCurve.piecewise_linear(
            self.inputs["knot_t"], self.inputs["knot_xi0"])
        t = self.T
        out = self.out
        steps = [
            Step("model H=0.05", argv=["model", *_prod_flags(xi0), "--k-max", "100",
                                      "--compare-h", "--format", "json", "-o", str(out / "h005")]),
            Step("model H=0.3", argv=["model", *_prod_flags(xi0, hurst=0.3), "--k-max", "100",
                                     "--compare-h", "--format", "json", "-o", str(out / "h03")]),
            Step("model piecewise", argv=["model", *_prod_flags(xi0), "--curve-file",
                                         str(self.knots), "--k-max", "10", "--format", "json",
                                         "-o", str(out / "piecewise")]),
            Step("var_sigma2 flat", call=lambda: mdl.var_sigma2(params, flat, t)),
            Step("var_sigma2 piecewise", call=lambda: mdl.var_sigma2(params, curve, t)),
            Step("fourth_moment_r flat", call=lambda: mdl.fourth_moment_r(params, flat, t)),
            Step("fourth_moment_r piecewise",
                 call=lambda: mdl.fourth_moment_r(params, curve, t)),
        ]
        for k in range(1, 11):
            steps.append(Step(f"zumbach_correl k={k}",
                              call=lambda k=k: mdl.zumbach_correl(params, xi0, k)))
        for k in range(1, 11):
            steps.append(Step(f"zumbach_correl_small_delta k={k}",
                              call=lambda k=k: mdl.zumbach_correl_small_delta(params, xi0, k)))
        steps += [
            Step("stationary_var_sigma2", call=lambda: mdl.stationary_var_sigma2(params, xi0)),
            Step("stationary_fourth_moment_r",
                 call=lambda: mdl.stationary_fourth_moment_r(params, xi0)),
        ]
        return steps

    def collect(self, values) -> dict:
        """Every analytic output of one iteration, as a JSON tree."""
        out = {sub: read_json(self.out / sub / "model_curve.json")
               for sub in ("h005", "h03", "piecewise")}
        out["library"] = dict(values)
        return out

    def check(self, values):
        ref = self.reference["model_curves"]["variants"][self.variant]
        if ref["inputs"] != self.inputs:
            return [Check("reference inputs", False, "reference table is for other inputs")]
        got = self.collect(values)
        checks = []
        for group, ref_tree in ref["values"].items():
            err = max_rel_err(got.get(group), ref_tree)
            checks.append(Check(f"{group} vs reference", err <= REF_RTOL,
                                f"max rel err {err:.1e}"))
        return checks


def direct_rho(r: np.ndarray, s2: np.ndarray, tau: int) -> float:
    """Correlation of s2_t with r_{t-tau}^2 over all valid t, in plain numpy."""
    if tau > 0:
        a, b = s2[tau:], r[:-tau] ** 2
    else:
        a, b = s2[:tau], r[-tau:] ** 2
    a = a - a.mean()
    b = b - b.mean()
    return float(np.mean(a * b) / np.sqrt(np.mean(a * a) * np.mean(b * b)))


class PanelPipeline(Workload):
    name = "panel_pipeline"
    N_PATHS = 31
    N_DAYS = 5000
    TAU_MAX = 100
    N_RHO_SAMPLES = 8

    def steps(self):
        out = self.out
        return [
            Step("simulate", argv=[
                "simulate", *_prod_flags(), "--paths", str(self.N_PATHS),
                "--steps-per-day", "6", "--days", str(self.N_DAYS), "--seed", str(self.seed),
                "--export-empirical", str(out / "panel.csv"),
                "--dump-paths", str(out / "paths.csv"),
                "--format", "json", "-o", str(out / "sim")]),
            Step("empirical", argv=[
                "empirical", "-i", str(out / "panel.csv"), "--tau-max", str(self.TAU_MAX),
                "--format", "json", "-o", str(out / "emp")]),
        ]

    def _index_id(self, pid):
        return f"SIM{pid:0{len(str(self.N_PATHS - 1))}d}"

    def _check_panel(self):
        n_rows = self.N_PATHS * self.N_DAYS
        try:
            panel = np.loadtxt(self.out / "panel.csv", delimiter=",", skiprows=1,
                               usecols=(2, 3), ndmin=2)
            ids = np.loadtxt(self.out / "panel.csv", delimiter=",", skiprows=1,
                             usecols=(0,), dtype=str, ndmin=1)
            dump = np.loadtxt(self.out / "paths.csv", delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            return None, Check("panel equals dumped paths", False, f"unreadable: {exc}")
        expect_ids = np.repeat([self._index_id(p) for p in range(self.N_PATHS)], self.N_DAYS)
        grid = np.column_stack([np.repeat(np.arange(self.N_PATHS), self.N_DAYS),
                                np.tile(np.arange(1, self.N_DAYS + 1), self.N_PATHS)])
        ok = (panel.shape == (n_rows, 2) and dump.shape == (n_rows, 4)
              and np.array_equal(ids, expect_ids) and np.array_equal(dump[:, :2], grid)
              and np.array_equal(panel, dump[:, 2:]))
        detail = f"{panel.shape[0]} panel rows, {dump.shape[0]} dumped rows"
        return (panel if ok else None), Check("panel equals dumped paths", ok, detail)

    def _check_rho(self, panel):
        rng = np.random.default_rng(self.seed)
        worst = 0.0
        for _ in range(self.N_RHO_SAMPLES):
            pid = int(rng.integers(self.N_PATHS))
            tau = int(rng.integers(1, self.TAU_MAX + 1)) * int(rng.choice([-1, 1]))
            rows = slice(pid * self.N_DAYS, (pid + 1) * self.N_DAYS)
            curve = read_json(self.out / "emp" / f"tra_{self._index_id(pid)}.json")
            got = curve["rho_fwd" if tau > 0 else "rho_bwd"][abs(tau) - 1]
            want = direct_rho(panel[rows, 0], panel[rows, 1], tau)
            worst = max(worst, abs(got - want) / max(abs(want), RHO_FLOOR)
                        if math.isfinite(got) else math.inf)
        return Check("rho_curve vs direct numpy", worst <= RHO_RTOL,
                     f"{self.N_RHO_SAMPLES} (index, lag) pairs, max rel err {worst:.1e}")

    def _curves(self):
        return {p.stem: read_json(p) for p in sorted((self.out / "emp").glob("tra_*.json"))}

    def check(self, values):
        sim_ok = all(_all_finite(read_json(self.out / "sim" / name))
                     for name in ("zumbach_mc.json", "moments_mc.json"))
        checks = [Check("simulate outputs finite", sim_ok, "zumbach_mc, moments_mc")]
        panel, panel_check = self._check_panel()
        checks.append(panel_check)
        if panel is not None:
            checks.append(self._check_rho(panel))
        curves = self._curves()
        rhos = [x for c in curves.values() for x in c["rho_fwd"] + c["rho_bwd"]]
        bounded = (len(curves) == self.N_PATHS + 1
                   and len(rhos) == 2 * self.TAU_MAX * len(curves)
                   and all(math.isfinite(x) and abs(x) <= 1.0 for x in rhos))
        checks.append(Check("|rho| <= 1", bounded, f"{len(curves)} curves, {len(rhos)} values"))
        return checks

    def recorded(self, values):
        # Both move when the truncation scheme changes (ROADMAP item 4).
        sim = read_json(self.out / "sim" / "zumbach_mc.json")
        avg = read_json(self.out / "emp" / "tra_average.json")
        return {"neg_fraction": sim["neg_fraction"],
                f"delta_{self.TAU_MAX}": avg["delta_cum"][-1]}


WORKLOADS = {w.name: w for w in (McRough, ModelCurves, PanelPipeline)}
