"""Estimators of the time-reversal asymmetry on daily market data.

Given per-index series of open-to-close log returns r_t and realized
integrated variances s2_t, the lagged cross-covariance

    c2(tau) = < (s2_t - <s2_t>) * r_{t-tau}^2 >         (sample average,
                                                          divisor n)

measures how squared returns lead variance (tau > 0) or lag it (tau < 0);
the asymmetry z(tau) = c2(tau) - c2(-tau) is the quantity of interest.
Correlation versions divide by the sample standard deviations of both legs
computed over the same valid-pair index set, which keeps |rho| <= 1 exactly
(Cauchy-Schwarz) and avoids ragged-edge bias.  Curves from many indices are
averaged pointwise, and the integrated difference

    Delta(tau) = sum_{i<=tau} (rho_avg(i) - rho_avg(-i))

summarises the asymmetry over a lag window.

Lags count observation positions of the cleaned series (trading days), not
calendar days; rows dropped during ingestion simply shorten a series.
Missing legs inside a hand-built series are skipped pairwise.  Returns are
not demeaned unless requested (they are treated as pure martingale
increments).

Input formats
-------------
* ``oxford_csv``  -- header with at least Symbol, date, open_price,
  close_price and a realized-variance column (``rk_parzen`` by default);
  returns are computed as log(close/open) and rows with missing fields are
  dropped (the drop count is recorded on the series).
* ``generic_csv`` -- header ``index_id,date,r,s2``.

Per-index computations are independent and parallelise trivially; all
series are immutable after ingestion.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ParseError

__all__ = [
    "DailySeries",
    "TraCurve",
    "ingest",
    "c2",
    "rho_curve",
    "cross_index_average",
    "integrated_difference",
    "winsorize",
    "series_from_batch",
    "write_generic_csv",
    "tra_to_csv",
    "tra_to_json",
]

MIN_PAIRS = 30


@dataclass(frozen=True)
class DailySeries:
    """Aligned daily observations for one index.

    dates are strictly increasing datetime64[D]; r and s2 are equal-length
    float arrays with s2 >= 0 and no NaN after cleaning (NaNs are tolerated
    by the estimators via pairwise deletion, but ingestion drops such rows
    and counts them in n_dropped).
    """

    index_id: str
    dates: np.ndarray
    r: np.ndarray
    s2: np.ndarray
    n_dropped: int = 0

    def __post_init__(self) -> None:
        if not (len(self.dates) == len(self.r) == len(self.s2)):
            raise ContractError(f"{self.index_id}: arrays must be equal length")
        if len(self.dates) > 1 and not np.all(np.diff(self.dates) > np.timedelta64(0, "D")):
            raise ContractError(f"{self.index_id}: dates must be strictly increasing")
        with np.errstate(invalid="ignore"):
            if np.any(self.s2 < 0.0):
                raise ContractError(f"{self.index_id}: s2 must be nonnegative")

    def __len__(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class TraCurve:
    """Asymmetry statistics on the lag grid taus = 1..tau_max.

    c2_fwd[i] is the covariance at lag +taus[i] (returns leading variance),
    c2_bwd[i] at -taus[i]; rho_* are the correlation versions; z is exactly
    c2_fwd - c2_bwd; n_obs counts valid pairs per lag (or contributing
    indices, for an averaged curve).
    """

    taus: np.ndarray
    c2_fwd: np.ndarray
    c2_bwd: np.ndarray
    rho_fwd: np.ndarray
    rho_bwd: np.ndarray
    n_obs: np.ndarray
    z: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.z is None:
            object.__setattr__(self, "z", self.c2_fwd - self.c2_bwd)
        finite = np.isfinite(self.rho_fwd) & np.isfinite(self.rho_bwd)
        if np.any(np.abs(self.rho_fwd[finite]) > 1.0 + 1e-12) or \
           np.any(np.abs(self.rho_bwd[finite]) > 1.0 + 1e-12):
            raise ContractError("correlations left [-1, 1]")

    @property
    def delta_cum(self) -> np.ndarray:
        """Integrated difference Delta(tau) = cumsum(rho_fwd - rho_bwd)."""
        return np.cumsum(self.rho_fwd - self.rho_bwd)


def _parse_float(text: str) -> float:
    text = text.strip()
    if not text or text.lower() in ("nan", "na", ""):
        return math.nan
    return float(text)


def _finish_series(index_id, rows, dropped, out):
    if not rows:
        warnings.warn(f"index {index_id!r}: no usable rows after cleaning", stacklevel=3)
        return
    rows.sort(key=lambda row: row[0])
    dates = np.array([row[0] for row in rows], dtype="datetime64[D]")
    if np.any(np.diff(dates) <= np.timedelta64(0, "D")):
        raise ParseError(f"index {index_id!r}: duplicate dates after sorting")
    out.append(DailySeries(
        index_id=index_id,
        dates=dates,
        r=np.array([row[1] for row in rows]),
        s2=np.array([row[2] for row in rows]),
        n_dropped=dropped,
    ))


def ingest(path, fmt: str = "generic_csv", rv_column: str = "rk_parzen",
           annualize: bool = False, demean: bool = False) -> list[DailySeries]:
    """Read a CSV of daily observations into per-index series.

    Parameters
    ----------
    path : str or Path
        Input file.
    fmt : {"generic_csv", "oxford_csv"}
        ``generic_csv`` expects columns index_id,date,r,s2; ``oxford_csv``
        expects Symbol, date, open_price, close_price and ``rv_column``.
    rv_column : str
        Realized-variance column for the oxford format.
    annualize : bool
        Multiply s2 by 252 (daily units -> variance/year).
    demean : bool
        Subtract each index's sample mean return.

    Rows with missing, non-finite (``inf``, or overflowing like ``1e400``)
    or negative-variance values are dropped and counted per index; a row
    that does not parse is a ParseError.  Unknown symbols pass through
    untouched (no universe filter).
    """
    if fmt not in ("generic_csv", "oxford_csv"):
        raise ContractError(f"unknown format {fmt!r}")
    per_index: dict[str, list] = {}
    dropped: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        cols = {name.strip(): i for i, name in enumerate(header)}
        if fmt == "generic_csv":
            needed = ["index_id", "date", "r", "s2"]
        else:
            needed = ["Symbol", "date", "open_price", "close_price", rv_column]
        missing = [c for c in needed if c not in cols]
        if missing:
            raise ParseError(f"{path}: header lacks columns {missing}")
        idx = [cols[c] for c in needed]
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                fields = [row[i] for i in idx]
            except IndexError:
                raise ParseError(f"{path}: line {lineno}: too few columns") from None
            key = fields[0].strip()
            if not key:
                raise ParseError(f"{path}: line {lineno}: empty index id")
            try:
                date = np.datetime64(fields[1].strip()[:10], "D")
                if fmt == "generic_csv":
                    r_val = _parse_float(fields[2])
                    s2_val = _parse_float(fields[3])
                else:
                    open_p = _parse_float(fields[2])
                    close_p = _parse_float(fields[3])
                    s2_val = _parse_float(fields[4])
                    ratio = close_p / open_p \
                        if 0.0 < open_p < math.inf and 0.0 < close_p < math.inf else math.nan
                    # a ratio that underflows to 0 is as unusable as a missing price
                    r_val = math.log(ratio) if ratio > 0.0 else math.nan
            except (ValueError, OverflowError):
                raise ParseError(f"{path}: line {lineno}: unparsable row") from None
            if not (math.isfinite(r_val) and math.isfinite(s2_val)) or s2_val < 0.0:
                dropped[key] = dropped.get(key, 0) + 1
                continue
            per_index.setdefault(key, []).append((date, r_val, s2_val))

    out: list[DailySeries] = []
    for key, rows in per_index.items():
        _finish_series(key, rows, dropped.get(key, 0), out)
    for key in dropped.keys() - per_index.keys():
        warnings.warn(f"index {key!r}: no usable rows after cleaning", stacklevel=2)
    if annualize or demean:
        out = [DailySeries(
            index_id=s.index_id, dates=s.dates,
            r=s.r - (s.r.mean() if demean else 0.0),
            s2=s.s2 * (252.0 if annualize else 1.0),
            n_dropped=s.n_dropped) for s in out]
    return out


def _valid_pairs(series: DailySeries, tau: int):
    """Index arrays (t, t - tau) of pairs with both legs present."""
    n = len(series)
    if abs(tau) >= n:
        raise ContractError(f"|tau|={abs(tau)} is not below series length {n}")
    t = np.arange(max(0, tau), n + min(0, tau))
    lag = t - tau
    mask = np.isfinite(series.s2[t]) & np.isfinite(series.r[lag])
    return t[mask], lag[mask]


def c2(series: DailySeries, tau: int) -> float:
    """Lagged covariance of integrated variance with squared returns.

    Positive tau pairs s2_t with the earlier r_{t-tau}^2 (returns lead);
    negative tau with the later one.  Sample averages use divisor n over the
    valid pairs; fewer than 30 pairs is an error.
    """
    if tau == 0:
        raise ContractError("tau must be nonzero")
    t, lag = _valid_pairs(series, tau)
    if t.size < MIN_PAIRS:
        raise ContractError(f"only {t.size} valid pairs at tau={tau}; need {MIN_PAIRS}")
    s2_leg = series.s2[t]
    r2_leg = series.r[lag] ** 2
    return float(np.mean((s2_leg - s2_leg.mean()) * r2_leg))


def _corr(series: DailySeries, tau: int) -> tuple[float, float, int]:
    """Correlation, covariance and number of valid pairs at lag tau."""
    t, lag = _valid_pairs(series, tau)
    if t.size < MIN_PAIRS:
        raise ContractError(f"only {t.size} valid pairs at tau={tau}; need {MIN_PAIRS}")
    s2_leg = series.s2[t]
    r2_leg = series.r[lag] ** 2
    cov = float(np.mean((s2_leg - s2_leg.mean()) * (r2_leg - r2_leg.mean())))
    var_s = float(np.mean((s2_leg - s2_leg.mean()) ** 2))
    var_r = float(np.mean((r2_leg - r2_leg.mean()) ** 2))
    if var_s <= 0.0 or var_r <= 0.0:
        raise ContractError(f"zero variance denominator at tau={tau}")
    return cov / math.sqrt(var_s * var_r), cov, t.size


def rho_curve(series: DailySeries, tau_max: int = 100) -> TraCurve:
    """Forward/backward covariance and correlation curves for one index."""
    if tau_max < 1:
        raise ContractError(f"tau_max must be >= 1, got {tau_max}")
    taus = np.arange(1, tau_max + 1)
    c_f = np.empty(tau_max)
    c_b = np.empty(tau_max)
    rho_f = np.empty(tau_max)
    rho_b = np.empty(tau_max)
    n_obs = np.empty(tau_max, dtype=int)
    for i, tau in enumerate(taus):
        rho_f[i], c_f[i], n_obs[i] = _corr(series, int(tau))
        rho_b[i], c_b[i], _ = _corr(series, -int(tau))
    return TraCurve(taus=taus, c2_fwd=c_f, c2_bwd=c_b,
                    rho_fwd=rho_f, rho_bwd=rho_b, n_obs=n_obs)


def cross_index_average(curves: list[TraCurve]) -> TraCurve:
    """Pointwise mean curve over indices sharing one lag grid.

    n_obs becomes the count of indices contributing a finite value per lag.
    """
    if not curves:
        raise ContractError("need at least one curve")
    taus = curves[0].taus
    for cur in curves[1:]:
        if not np.array_equal(cur.taus, taus):
            raise ContractError("lag grids of the curves do not match")

    def nanmean(stack):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanmean(stack, axis=0)

    rho_f = np.stack([c.rho_fwd for c in curves])
    counts = np.sum(np.isfinite(rho_f), axis=0)
    return TraCurve(
        taus=taus.copy(),
        c2_fwd=nanmean(np.stack([c.c2_fwd for c in curves])),
        c2_bwd=nanmean(np.stack([c.c2_bwd for c in curves])),
        rho_fwd=nanmean(rho_f),
        rho_bwd=nanmean(np.stack([c.rho_bwd for c in curves])),
        n_obs=counts,
    )


def integrated_difference(curve: TraCurve, tau: int) -> float:
    """Delta(tau) = sum_{i=1..tau} (rho_fwd(i) - rho_bwd(i))."""
    if tau < 1 or tau > curve.taus[-1]:
        raise ContractError(f"tau must lie in [1, {curve.taus[-1]}], got {tau}")
    return float(curve.delta_cum[tau - 1])


def winsorize(series: DailySeries, quantile: float) -> DailySeries:
    """Clip extremes: returns to the [q, 1-q] quantile band, s2 above 1-q.

    Off by default everywhere; quantile is the tail mass clipped on each
    side (e.g. 0.005).
    """
    if not 0.0 < quantile < 0.5:
        raise ContractError(f"quantile must lie in (0, 0.5), got {quantile}")
    r_lo, r_hi = np.quantile(series.r, [quantile, 1.0 - quantile])
    s2_hi = np.quantile(series.s2, 1.0 - quantile)
    return DailySeries(
        index_id=series.index_id, dates=series.dates,
        r=np.clip(series.r, r_lo, r_hi),
        s2=np.minimum(series.s2, s2_hi),
        n_dropped=series.n_dropped)


def series_from_batch(batch, start_date="2000-01-03", prefix="SIM") -> list[DailySeries]:
    """Wrap simulated daily aggregates as synthetic index series.

    Each path becomes one index (consecutive synthetic dates), which gives
    the estimators model-generated input with known dynamics.
    """
    n_paths, n_days = batch.r.shape
    base = np.datetime64(start_date, "D")
    dates = base + np.arange(n_days)
    width = len(str(n_paths - 1))
    return [DailySeries(index_id=f"{prefix}{pid:0{width}d}", dates=dates,
                        r=batch.r[pid].copy(), s2=batch.s2[pid].copy())
            for pid in range(n_paths)]


def write_generic_csv(series_list: list[DailySeries], fileobj) -> None:
    """Write series in the generic_csv ingestion format (lossless float round trip)."""
    fileobj.write("index_id,date,r,s2\n")
    for s in series_list:
        for d, r_val, s2_val in zip(s.dates, s.r, s.s2):
            fileobj.write(f"{s.index_id},{d},{r_val:.17g},{s2_val:.17g}\n")


def tra_to_csv(curve: TraCurve, fileobj) -> None:
    fileobj.write("tau,c2_fwd,c2_bwd,rho_fwd,rho_bwd,z,delta_cum,n_obs\n")
    dc = curve.delta_cum
    for i, tau in enumerate(curve.taus):
        fileobj.write(
            f"{tau},{curve.c2_fwd[i]:.12g},{curve.c2_bwd[i]:.12g},"
            f"{curve.rho_fwd[i]:.12g},{curve.rho_bwd[i]:.12g},"
            f"{curve.z[i]:.12g},{dc[i]:.12g},{curve.n_obs[i]}\n")


def tra_to_json(curve: TraCurve, fileobj) -> None:
    payload = {
        "tau": curve.taus.tolist(),
        "c2_fwd": curve.c2_fwd.tolist(),
        "c2_bwd": curve.c2_bwd.tolist(),
        "rho_fwd": curve.rho_fwd.tolist(),
        "rho_bwd": curve.rho_bwd.tolist(),
        "z": curve.z.tolist(),
        "delta_cum": curve.delta_cum.tolist(),
        "n_obs": curve.n_obs.tolist(),
    }
    json.dump(payload, fileobj, indent=2)
    fileobj.write("\n")
