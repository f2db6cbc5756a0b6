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
partial outputs; it gets mode 0o666 less the umask, as ``open`` would give it.
The path dump and the synthetic panel of ``zlab simulate`` come from one
formatting pass and appear together or not at all; without them the run
keeps only the days its estimates read, t_day..t_day + k_max.
Every curve and estimate file is one table from ``_emit``: CSV has an optional
``# key=value`` line, the header, then rows of ints, strings and ``%.12g``
floats (NaN empty); JSON the same keys and columns, non-finite numbers null.
A simple ``key = value`` config file can preload any long-option default.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
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


def _write_atomic(paths: list[Path], write) -> None:
    """Stream ``write(*fhs)`` into temp files beside ``paths``, then rename them.

    The renames wait for ``write`` to return; any exception removes every
    temp file and every file already renamed, so the files appear together
    or not at all.  Each gets mode 0o666 less the umask (``mkstemp`` makes
    it 0o600).
    """
    tmps, renamed = [], []
    try:
        with contextlib.ExitStack() as stack:
            fhs = []
            for path in paths:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
                tmps.append(tmp)
                fhs.append(stack.enter_context(os.fdopen(fd, "w")))
            write(*fhs)
        umask = os.umask(0)
        os.umask(umask)
        for tmp, path in zip(tmps, paths):
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for name in [*tmps, *renamed]:
            if os.path.exists(name):
                os.unlink(name)
        raise


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
    p_sim.add_argument("--t-day", type=int, default=None,
                       help="estimation day (1-based); default mid-horizon")
    p_sim.add_argument("--k-max", type=int, default=10, help="largest lag in days")
    p_sim.add_argument("--dump-paths", default=None, metavar="CSV",
                       help="dump per-path daily aggregates (path_id,day,r,sigma2)")
    p_sim.add_argument("--export-empirical", default=None, metavar="CSV",
                       help="write paths as synthetic indices in generic_csv format")
    p_sim.add_argument("--memory-budget-mb", type=int, default=1024,
                       help="memory budget in MiB. It bounds the path chunking: paths "
                            "run in near-equal chunks of at most 256, and the budget counts "
                            "16 bytes a step per path, so at 15120 steps it binds only below "
                            "~74 MiB; no chunking changes a path. A run whose kept day "
                            "arrays (16 bytes per path and day: t_day..t_day + k_max, or "
                            "every day with --dump-paths or --export-empirical) exceed it "
                            "stops before it starts (default %(default)s)")
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


@functools.lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The parser ``main`` reuses for every call in a process.

    Parsing leaves no state in it: config values arrive as argv tokens and
    every call parses into a fresh namespace.
    """
    return build_parser()


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


def _json_value(value):
    """``value`` as strict JSON takes it: arrays as lists, non-finite floats as None."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _cell(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.12g}"
    return str(value)


def _emit(args, stem: str, cols: dict, meta: dict | None = None,
          payload: dict | None = None) -> Path:
    """Write the table ``cols`` (name -> equal-length column) as ``stem.csv`` or ``.json``.

    CSV: a ``# key=value`` line of ``meta`` (if any), the header, then the rows.
    JSON: ``payload``, by default ``meta`` followed by the columns.
    """
    meta = meta or {}
    path = Path(args.output_dir) / f"{stem}.{args.format}"
    if args.format == "csv":
        def write(fh):
            if meta:
                fh.write("# " + " ".join(f"{key}={val}" for key, val in meta.items()) + "\n")
            fh.write(",".join(cols) + "\n")
            for row in zip(*(np.asarray(col).tolist() for col in cols.values())):
                fh.write(",".join(map(_cell, row)) + "\n")
    else:
        def write(fh):
            json.dump(_json_value({**meta, **cols} if payload is None else payload),
                      fh, indent=2, allow_nan=False)
            fh.write("\n")
    _write_atomic([path], write)
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
    _write_atomic([Path(args.output_dir) / f"{stem}.gp"], lambda fh: fh.write(script))


def _curve_stems(source, index_ids) -> dict:
    """Output stem of each index's curve file; colliding names are a ParseError.

    The stem is ``tra_`` plus the id with leading and trailing dots removed
    and ``/`` replaced by ``_`` (``index`` if nothing is left).
    ``tra_average`` is the cross-index average's.
    """
    by_stem: dict[str, list] = {}
    for index_id in index_ids:
        safe = index_id.strip(".").replace("/", "_") or "index"
        by_stem.setdefault(f"tra_{safe}", []).append(index_id)
    clashes = [f"{', '.join(map(repr, ids))} -> {stem}" for stem, ids in by_stem.items()
               if len(ids) > 1 or stem == "tra_average"]
    if clashes:
        raise ParseError(f"{source}: index ids collide in output names "
                         f"(tra_average is the cross-index average): {'; '.join(clashes)}")
    return {ids[0]: stem for stem, ids in by_stem.items()}


_TRA_COLUMNS = ("c2_fwd", "c2_bwd", "rho_fwd", "rho_bwd", "z", "delta_cum", "n_obs")


def cmd_empirical(args) -> int:
    series = emp.ingest(args.input, fmt=args.input_format, rv_column=args.rv_column,
                        annualize=args.annualize, demean=args.demean)
    if not series:
        raise ParseError(f"{args.input}: no usable series")
    stems = _curve_stems(args.input, [s.index_id for s in series])
    if args.winsorize is not None:
        series = [emp.winsorize(s, args.winsorize) for s in series]
    curves = sorted(((s.index_id, emp.rho_curve(s, args.tau_max)) for s in series),
                    key=lambda pair: pair[0])

    avg = emp.cross_index_average([c for _, c in curves])
    for stem, curve in [(stems[index_id], c) for index_id, c in curves] + [("tra_average", avg)]:
        path = _emit(args, stem, {"tau": curve.taus, **{
            name: getattr(curve, name) for name in _TRA_COLUMNS}})
    _maybe_gnuplot(args, "tra_average", "asymmetry curve (cross-index average)",
                   [(4, "rho_fwd"), (5, "rho_bwd")])
    delta_total = emp.integrated_difference(avg, int(avg.taus[-1]))
    print(f"indices: {len(curves)}")
    print(f"Delta({avg.taus[-1]}) = {delta_total:.6g}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_model(args) -> int:
    params, curve = _model_inputs(args)
    ks = _lags(args)
    zc = mdl.zumbach_curve(params, curve, args.t, ks, args.delta)
    meta = {"delta": args.delta, "t": args.t}
    cols = {"k": zc.lags, "tau_years": zc.lags * args.delta, "zumbach_cov": zc.values,
            "zumbach_asymptotic": zc.asymptotic}
    if args.compare_h:
        params_h = mdl.ModelParams(hurst=0.5, lam=args.lam, nu=args.nu, rho=args.rho)
        zc_h = mdl.zumbach_curve(params_h, curve, args.t, ks, args.delta)
        cols["zumbach_cov_h05"] = zc_h.values
        cols["zumbach_asymptotic_h05"] = zc_h.asymptotic
    payload = {**meta, **cols}
    del payload["tau_years"]  # the JSON curve keeps lags in days only
    path = _emit(args, "model_curve", cols, meta, payload)
    _maybe_gnuplot(args, "model_curve", "asymmetry covariance vs lag",
                   [(3, "exact"), (4, "small-delta")], logscale=True)
    print(f"Z_t(1) = {zc.values[0]:.6g}  (asymptotic {zc.asymptotic[0]:.6g})")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    params, curve = _model_inputs(args)
    config = sim.SimConfig(
        n_paths=args.paths, steps_per_day=args.steps_per_day, n_days=args.days,
        delta=args.delta, seed=args.seed, memory_budget_mb=args.memory_budget_mb)
    ks = _lags(args)
    t_day = args.t_day if args.t_day is not None else max(1, args.days // 2)
    if t_day < 1:
        raise ContractError(f"t_day must be >= 1, got {t_day}")
    if t_day + args.k_max > args.days:
        raise ContractError(
            f"t_day + k_max = {t_day + args.k_max} exceeds horizon {args.days}")
    # the estimates read days t_day..t_day + k_max; the path files need every day
    files = args.dump_paths or args.export_empirical
    days = None if files else range(t_day, t_day + args.k_max + 1)
    batch = sim.simulate_paths(params, curve, config, days=days)

    rows = [sim.estimate_zumbach_mc(batch, t_day, int(k)) for k in ks]
    moments = sim.estimate_moments_mc(batch, t_day)

    meta = {"delta": args.delta, "t_day": t_day, "paths": args.paths, "seed": args.seed}
    estimate, std_error = zip(*rows)
    cols = {"k": ks, "estimate": estimate, "std_error": std_error}
    path = _emit(args, "zumbach_mc", cols, meta, {
        **meta, **cols,
        "var_sigma2": moments.var_sigma2, "var_sigma2_se": moments.var_sigma2_se,
        "fourth_moment_r": moments.fourth_moment_r,
        "fourth_moment_r_se": moments.fourth_moment_r_se,
        "neg_fraction": batch.neg_fraction, "weight_checksum": batch.weight_checksum})
    mom = {"quantity": ("var_sigma2", "fourth_moment_r"),
           "estimate": (moments.var_sigma2, moments.fourth_moment_r),
           "std_error": (moments.var_sigma2_se, moments.fourth_moment_r_se)}
    # the JSON keeps one [estimate, std_error] pair per quantity
    _emit(args, "moments_mc", mom, payload={q: [est, se] for q, est, se in zip(*mom.values())})

    # the path files come from one formatting pass, and appear together or not at all
    targets = {key: Path(name) for key, name in (("fileobj", args.dump_paths),
                                                  ("series_fileobj", args.export_empirical))
               if name}
    if targets:
        _write_atomic(list(targets.values()),
                      lambda *fhs: sim.export_daily_csv(batch, **dict(zip(targets, fhs))))

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

    path = _emit(args, "comparison", cols)
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
    try:
        argv = _load_config_defaults(argv)
        args = _parser().parse_args(argv)
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
