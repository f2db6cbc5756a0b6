"""Command line front end.

Four subcommands orchestrate the library:

* ``zlab empirical`` -- ingest a CSV of daily observations, compute per-index
  asymmetry curves, their cross-index average and the integrated difference,
  and emit curve data files;
* ``zlab model``     -- evaluate the analytic asymmetry covariance and its
  small-delta equivalent over a lag grid (optionally a classical H = 1/2
  companion run for comparison);
* ``zlab simulate``  -- run the Monte Carlo engine and emit asymmetry /
  moment estimates with standard errors, optional path dumps, and optional
  synthetic per-index series in the empirical input format;
* ``zlab compare``   -- join empirical, model and Monte Carlo outputs on a
  shared lag grid with a relative-gap column.

Units on the wire: all times in years, day length delta defaults to 1/252,
variance is annualized; daily-unit realized variance can be annualized at
ingestion with --annualize (x252).  Exit codes: 1 usage, 2 parse/IO,
3 numerical nonconvergence, 4 contract violation.  Every output file streams
into a temp file beside it that is renamed on success, so failures leave no
partial outputs.
A simple ``key = value`` config file can preload any long-option default,
and the ZLAB_THREADS environment variable seeds --threads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import empirical as emp
from . import model as mdl
from . import simulate as sim
from .errors import ContractError, ParseError, QuadratureError, SimulationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3
EXIT_CONTRACT = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the documented taxonomy wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_atomic(path: Path, write) -> None:
    """Stream ``write(fh)`` into a temp file beside ``path``, then rename it.

    The rename waits for ``write`` to return; any exception removes the file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_writer(payload):
    def write(fh):
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return write


def _default_threads() -> int:
    env = os.environ.get("ZLAB_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hurst", type=float, default=0.05,
                   help="Hurst exponent of the variance paths, in (0, 1/2] (dimensionless)")
    p.add_argument("--lam", type=float, default=0.3,
                   help="mean reversion rate (1/year)")
    p.add_argument("--nu", type=float, default=0.45,
                   help="vol-of-vol scale (per sqrt(year))")
    p.add_argument("--rho", type=float, default=-0.7,
                   help="spot/vol correlation in [-1, 1] (dimensionless)")
    p.add_argument("--xi0", type=float, default=0.025,
                   help="flat forward variance level (variance/year)")
    p.add_argument("--curve-file", default=None, metavar="CSV",
                   help="piecewise-linear curve knots, CSV with columns t,xi0 (t in years)")
    p.add_argument("--delta", type=float, default=mdl.TRADING_DAY,
                   help="day length (years); default 1/252")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output-dir", "-o", default=".", help="directory for output files")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output file format")
    p.add_argument("--gnuplot", action="store_true",
                   help="also emit a ready gnuplot script next to the data")


def build_parser() -> _Parser:
    top = _Parser(prog="zlab", description=__doc__.split("\n\n")[0])
    top.add_argument("--config", default=None, metavar="FILE",
                     help="key = value file preloading option defaults (keys use option names without --)")
    top.add_argument("--threads", type=int, default=_default_threads(),
                     help="worker threads for per-index / per-chunk parallelism "
                          "(default from ZLAB_THREADS, else 1)")
    subs = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_emp = subs.add_parser("empirical",
                            help="asymmetry curves from daily return/variance data")
    p_emp.add_argument("--input", "-i", required=True, help="input CSV path")
    p_emp.add_argument("--input-format", choices=("generic_csv", "oxford_csv"),
                       default="generic_csv")
    p_emp.add_argument("--rv-column", default="rk_parzen",
                       help="realized-variance column (oxford format)")
    p_emp.add_argument("--tau-max", type=int, default=100,
                       help="largest lag, in trading days")
    p_emp.add_argument("--annualize", action="store_true",
                       help="multiply ingested s2 by 252 (daily units -> variance/year)")
    p_emp.add_argument("--demean", action="store_true",
                       help="subtract each index's mean return before estimation")
    p_emp.add_argument("--winsorize", type=float, default=None, metavar="Q",
                       help="clip tails at quantile Q per side (off by default)")
    _add_output_flags(p_emp)

    p_mod = subs.add_parser("model",
                            help="analytic asymmetry curve under rough Heston")
    _add_model_flags(p_mod)
    p_mod.add_argument("--t", type=float, default=1.0,
                       help="evaluation time (years), >= delta")
    p_mod.add_argument("--k-max", type=int, default=10, help="largest lag in days")
    p_mod.add_argument("--compare-h", action="store_true",
                       help="add a classical H = 1/2 companion curve")
    _add_output_flags(p_mod)

    p_sim = subs.add_parser("simulate",
                            help="Monte Carlo estimates of the asymmetry and moments")
    _add_model_flags(p_sim)
    p_sim.add_argument("--paths", type=int, default=10000, help="Monte Carlo paths")
    p_sim.add_argument("--steps-per-day", type=int, default=20)
    p_sim.add_argument("--days", type=int, default=504, help="simulated horizon in days")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed (64-bit)")
    p_sim.add_argument("--antithetic", action="store_true")
    p_sim.add_argument("--t-day", type=int, default=None,
                       help="estimation day (1-based); default mid-horizon")
    p_sim.add_argument("--k-max", type=int, default=10, help="largest lag in days")
    p_sim.add_argument("--dump-paths", default=None, metavar="CSV",
                       help="dump per-path daily aggregates (path_id,day,r,sigma2)")
    p_sim.add_argument("--export-empirical", default=None, metavar="CSV",
                       help="write paths as synthetic indices in generic_csv format")
    p_sim.add_argument("--memory-budget-mb", type=int, default=1024)
    _add_output_flags(p_sim)

    p_cmp = subs.add_parser("compare",
                            help="join empirical, model and MC outputs on the lag grid")
    p_cmp.add_argument("--model-file", required=True,
                       help="model curve CSV from `zlab model`")
    p_cmp.add_argument("--empirical-file", default=None,
                       help="curve CSV from `zlab empirical` (tau in days)")
    p_cmp.add_argument("--mc-file", default=None,
                       help="MC estimate CSV from `zlab simulate`")
    p_cmp.add_argument("--delta", type=float, default=mdl.TRADING_DAY,
                       help="day length (years) the inputs must share")
    _add_output_flags(p_cmp)
    return top


def _load_config_defaults(argv: list[str]) -> list[str]:
    """Pull --config FILE out of argv and turn its lines into leading options."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return argv
    extra: list[str] = []
    try:
        with open(known.config) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(f"{known.config}: line {lineno}: expected key = value")
                key, val = (part.strip() for part in line.split("=", 1))
                flag = "--" + key.replace("_", "-")
                if val.lower() in ("true", "yes", "on"):
                    extra.append(flag)
                elif val.lower() in ("false", "no", "off"):
                    pass
                else:
                    extra.extend([flag, val])
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}") from exc
    # config-provided options go after the subcommand name so argparse
    # attributes them to the right subparser; command-line flags still win
    out = list(argv)
    for i, tok in enumerate(out):
        if tok in ("empirical", "model", "simulate", "compare"):
            return out[: i + 1] + extra + out[i + 1:]
    return out + extra


def _model_inputs(args) -> tuple[mdl.ModelParams, mdl.ForwardVarianceCurve]:
    params = mdl.ModelParams(hurst=args.hurst, lam=args.lam, nu=args.nu, rho=args.rho)
    if args.curve_file:
        knots = np.loadtxt(args.curve_file, delimiter=",", skiprows=1, ndmin=2)
        curve = mdl.ForwardVarianceCurve.piecewise_linear(knots[:, 0], knots[:, 1])
    else:
        curve = mdl.ForwardVarianceCurve.flat(args.xi0)
    return params, curve


def _lags(args) -> np.ndarray:
    """Lags 1..k_max in days, checked before any work or output."""
    if args.k_max < 1:
        raise ContractError(f"k_max must be >= 1, got {args.k_max}")
    return np.arange(1, args.k_max + 1)


def _emit(args, stem: str, write_csv, write_json) -> Path:
    """Write ``stem.csv`` or ``stem.json``, running only the selected writer."""
    path = Path(args.output_dir) / f"{stem}.{args.format}"
    _write_atomic(path, write_csv if args.format == "csv" else write_json)
    return path


def _maybe_gnuplot(args, stem: str, title: str, columns: list[tuple[int, str]],
                   logscale: bool = False) -> None:
    if not getattr(args, "gnuplot", False) or args.format != "csv":
        return
    lines = ['set datafile separator ","', f'set title "{title}"',
             "set key autotitle columnhead"]
    if logscale:
        lines.append("set logscale y")
    plots = [f'  "{stem}.csv" using 1:{col} with linespoints title "{name}"'
             for col, name in columns]
    script = "\n".join(lines) + "\nplot \\\n" + ", \\\n".join(plots) + "\n"
    _write_atomic(Path(args.output_dir) / f"{stem}.gp", lambda fh: fh.write(script))


def cmd_empirical(args) -> int:
    series = emp.ingest(args.input, fmt=args.input_format, rv_column=args.rv_column,
                        annualize=args.annualize, demean=args.demean)
    if not series:
        raise ParseError(f"{args.input}: no usable series")
    if args.winsorize is not None:
        series = [emp.winsorize(s, args.winsorize) for s in series]

    def one(s):
        return s.index_id, emp.rho_curve(s, args.tau_max)

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            curves = list(pool.map(one, series))
    else:
        curves = [one(s) for s in series]
    curves.sort(key=lambda pair: pair[0])

    paths = []
    for index_id, curve in curves:
        safe = index_id.strip(".").replace("/", "_") or "index"
        paths.append(_emit(args, f"tra_{safe}", partial(emp.tra_to_csv, curve),
                           partial(emp.tra_to_json, curve)))
    avg = emp.cross_index_average([c for _, c in curves])
    paths.append(_emit(args, "tra_average", partial(emp.tra_to_csv, avg),
                       partial(emp.tra_to_json, avg)))
    _maybe_gnuplot(args, "tra_average", "asymmetry curve (cross-index average)",
                   [(4, "rho_fwd"), (5, "rho_bwd")])
    delta_total = emp.integrated_difference(avg, int(avg.taus[-1]))
    print(f"indices: {len(curves)}")
    print(f"Delta({avg.taus[-1]}) = {delta_total:.6g}")
    for p in paths[-1:]:
        print(f"wrote {p}")
    return EXIT_OK


def cmd_model(args) -> int:
    params, curve = _model_inputs(args)
    ks = _lags(args)
    zc = mdl.zumbach_curve(params, curve, args.t, ks, args.delta)
    header = f"# delta={args.delta!r} t={args.t!r}\n"
    cols = "k,tau_years,zumbach_cov,zumbach_asymptotic"
    lines = [f"{int(k)},{int(k) * args.delta:.12g},{v:.12g},{a:.12g}"
             for k, v, a in zip(zc.lags, zc.values, zc.asymptotic)]
    payload = {"delta": args.delta, "t": args.t, "k": zc.lags.tolist(),
               "zumbach_cov": zc.values.tolist(),
               "zumbach_asymptotic": zc.asymptotic.tolist()}
    if args.compare_h:
        params_h = mdl.ModelParams(hurst=0.5, lam=args.lam, nu=args.nu, rho=args.rho)
        zc_h = mdl.zumbach_curve(params_h, curve, args.t, ks, args.delta)
        cols += ",zumbach_cov_h05,zumbach_asymptotic_h05"
        lines = [f"{base},{v:.12g},{a:.12g}" for base, v, a in
                 zip(lines, zc_h.values, zc_h.asymptotic)]
        payload["zumbach_cov_h05"] = zc_h.values.tolist()
        payload["zumbach_asymptotic_h05"] = zc_h.asymptotic.tolist()
    csv_text = header + cols + "\n" + "\n".join(lines) + "\n"
    path = _emit(args, "model_curve", lambda fh: fh.write(csv_text), _json_writer(payload))
    _maybe_gnuplot(args, "model_curve", "asymmetry covariance vs lag",
                   [(3, "exact"), (4, "small-delta")], logscale=True)
    print(f"Z_t(1) = {zc.values[0]:.6g}  (asymptotic {zc.asymptotic[0]:.6g})")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    params, curve = _model_inputs(args)
    config = sim.SimConfig(
        n_paths=args.paths, steps_per_day=args.steps_per_day, n_days=args.days,
        delta=args.delta, seed=args.seed, antithetic=args.antithetic,
        memory_budget_mb=args.memory_budget_mb)
    ks = _lags(args)
    t_day = args.t_day if args.t_day is not None else max(1, args.days // 2)
    if t_day < 1:
        raise ContractError(f"t_day must be >= 1, got {t_day}")
    if t_day + args.k_max > args.days:
        raise ContractError(
            f"t_day + k_max = {t_day + args.k_max} exceeds horizon {args.days}")
    batch = sim.simulate_paths(params, curve, config, threads=args.threads)

    rows = [sim.estimate_zumbach_mc(batch, t_day, int(k)) for k in ks]
    moments = sim.estimate_moments_mc(batch, t_day)

    header = f"# delta={args.delta!r} t_day={t_day} paths={args.paths} seed={args.seed}\n"
    csv_text = header + "k,estimate,std_error\n" + "\n".join(
        f"{int(k)},{est:.12g},{se:.12g}" for k, (est, se) in zip(ks, rows)) + "\n"
    payload = {"delta": args.delta, "t_day": t_day, "paths": args.paths,
               "seed": args.seed, "k": ks.tolist(),
               "estimate": [est for est, _ in rows],
               "std_error": [se for _, se in rows],
               "var_sigma2": moments.var_sigma2,
               "var_sigma2_se": moments.var_sigma2_se,
               "fourth_moment_r": moments.fourth_moment_r,
               "fourth_moment_r_se": moments.fourth_moment_r_se,
               "neg_fraction": batch.neg_fraction,
               "weight_checksum": batch.weight_checksum}
    path = _emit(args, "zumbach_mc", lambda fh: fh.write(csv_text), _json_writer(payload))
    mom_csv = ("quantity,estimate,std_error\n"
               f"var_sigma2,{moments.var_sigma2:.12g},{moments.var_sigma2_se:.12g}\n"
               f"fourth_moment_r,{moments.fourth_moment_r:.12g},{moments.fourth_moment_r_se:.12g}\n")
    _emit(args, "moments_mc", lambda fh: fh.write(mom_csv), _json_writer({
        "var_sigma2": [moments.var_sigma2, moments.var_sigma2_se],
        "fourth_moment_r": [moments.fourth_moment_r, moments.fourth_moment_r_se]}))

    if args.dump_paths:
        _write_atomic(Path(args.dump_paths), partial(sim.export_daily_csv, batch))
    if args.export_empirical:
        _write_atomic(Path(args.export_empirical),
                      partial(emp.write_generic_csv, emp.series_from_batch(batch)))

    print(f"t_day={t_day}  neg_fraction={batch.neg_fraction:.3f}")
    print(f"{'k':>3} {'estimate':>14} {'std_error':>14}")
    for k, (est, se) in zip(ks, rows):
        print(f"{int(k):>3} {est:>14.6g} {se:>14.6g}")
    print(f"Var[s2] = {moments.var_sigma2:.6g} +- {moments.var_sigma2_se:.6g}")
    print(f"E[r^4]  = {moments.fourth_moment_r:.6g} +- {moments.fourth_moment_r_se:.6g}")
    print(f"wrote {path}")
    return EXIT_OK


def _read_curve_csv(path):
    meta = {}
    with open(path) as fh:
        first = fh.readline()
        if first.startswith("#"):
            for token in first[1:].split():
                if "=" in token:
                    key, val = token.split("=", 1)
                    meta[key] = val
            header = fh.readline()
        else:
            header = first
        names = [h.strip() for h in header.strip().split(",")]
        rows = [line.strip().split(",") for line in fh if line.strip()]
    try:
        data = {name: np.array([float(row[i]) for row in rows])
                for i, name in enumerate(names)}
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed curve file: {exc}") from exc
    return meta, data


def _check_delta(meta: dict, delta: float, what: str) -> None:
    if "delta" in meta and not math.isclose(float(meta["delta"]), delta, rel_tol=1e-9):
        raise ContractError(
            f"day-length mismatch: {what} has delta={meta['delta']}, "
            f"--delta is {delta!r}; rescaling is not implied")


def _require_columns(path, data: dict, *names: str) -> None:
    missing = [name for name in names if name not in data]
    if missing:
        raise ParseError(f"{path}: missing column(s) {', '.join(missing)}")


def _on_lags(k: np.ndarray, lags: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` (indexed by ``lags``) read at each lag of ``k``; NaN where absent."""
    lookup = dict(zip(lags.astype(int).tolist(), values.tolist()))
    return np.array([lookup.get(int(kk), np.nan) for kk in k])


def cmd_compare(args) -> int:
    meta, model_data = _read_curve_csv(args.model_file)
    _require_columns(args.model_file, model_data, "k", "zumbach_cov", "zumbach_asymptotic")
    _check_delta(meta, args.delta, "model file")
    k = model_data["k"].astype(int)
    cols = {"k": k, "tau_years": k * args.delta,
            "model_cov": model_data["zumbach_cov"],
            "model_asymptotic": model_data["zumbach_asymptotic"]}

    emp_z = np.full(k.size, np.nan)
    if args.empirical_file:
        _, emp_data = _read_curve_csv(args.empirical_file)
        _require_columns(args.empirical_file, emp_data, "tau", "z")
        emp_z = _on_lags(k, emp_data["tau"], emp_data["z"])
    cols["empirical_z"] = emp_z

    mc_est = np.full(k.size, np.nan)
    mc_se = np.full(k.size, np.nan)
    if args.mc_file:
        mc_meta, mc_data = _read_curve_csv(args.mc_file)
        _require_columns(args.mc_file, mc_data, "k", "estimate", "std_error")
        _check_delta(mc_meta, args.delta, "MC file")
        mc_est = _on_lags(k, mc_data["k"], mc_data["estimate"])
        mc_se = _on_lags(k, mc_data["k"], mc_data["std_error"])
    cols["mc_estimate"] = mc_est
    cols["mc_std_error"] = mc_se

    with np.errstate(invalid="ignore", divide="ignore"):
        cols["relative_gap_empirical"] = (emp_z - cols["model_cov"]) / cols["model_cov"]
        cols["relative_gap_mc"] = (mc_est - cols["model_cov"]) / cols["model_cov"]

    names = list(cols)
    lines = []
    for i in range(k.size):
        cells = []
        for name in names:
            val = cols[name][i]
            if name == "k":
                cells.append(f"{int(val)}")
            else:
                cells.append("" if math.isnan(val) else f"{val:.12g}")
        lines.append(",".join(cells))
    csv_text = ",".join(names) + "\n" + "\n".join(lines) + "\n"
    payload = {name: [None if isinstance(v, float) and math.isnan(v) else float(v)
                      for v in cols[name]] for name in names}
    path = _emit(args, "comparison", lambda fh: fh.write(csv_text), _json_writer(payload))
    print(f"joined {k.size} lags")
    print(f"wrote {path}")
    return EXIT_OK


_DISPATCH = {
    "empirical": cmd_empirical,
    "model": cmd_model,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _load_config_defaults(argv)
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"zlab: parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"zlab: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (QuadratureError, SimulationError) as exc:
        print(f"zlab: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ContractError, ValueError) as exc:
        print(f"zlab: contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
