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
* ``generic_csv`` -- header ``index_id,date,r,s2``; ``write_generic_csv``
  writes it back losslessly.

Curve files are not written here: ``zlab empirical`` writes each TraCurve as
one table (columns tau, c2_fwd, c2_bwd, rho_fwd, rho_bwd, z, delta_cum, n_obs)
through the CLI's table writer.

Per-index computations are independent and parallelise trivially; all
series are immutable after ingestion.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

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
    """float(text); an empty, blank, NA or NaN token (any case) reads as NaN."""
    try:
        return float(text)
    except ValueError:
        if text.strip().lower() in ("", "na"):
            return math.nan
        raise


def _floats(col: list) -> np.ndarray:
    """The number tokens of one column, as ``_parse_float`` reads them.

    Plain ``float`` converts the column unless a token is NA or blank;
    only then does the column go through ``_parse_float``.
    """
    try:
        return np.array(list(map(float, col)), dtype=float)
    except ValueError:
        return np.array(list(map(_parse_float, col)), dtype=float)


_BLOCK_ROWS = 1 << 14  # rows converted per step, which bounds the transient memory


def _columns(rows: list, idx: list, oxford: bool):
    """Index ids, dates, r and s2 of non-blank tokenised rows, one column at a time.

    Any bad row raises a ParseError without file or line; on a single row its
    message names the row's first defect (too few columns, then an empty id,
    then an unparsable field), as a row-by-row reader would.
    """
    try:
        cols = [list(map(itemgetter(i), rows)) for i in idx]
    except IndexError:
        raise ParseError("too few columns") from None
    keys = [key.strip() for key in cols[0]]
    if not all(keys):
        raise ParseError("empty index id")
    try:
        dates = np.array([text.strip()[:10] for text in cols[1]], dtype="datetime64[D]")
        nums = [_floats(col) for col in cols[2:]]
    except (ValueError, OverflowError):
        raise ParseError("unparsable row") from None
    if np.any(np.isnat(dates)):  # numpy reads "" and "NaT" as no date
        raise ParseError("unparsable row")
    if not oxford:
        r, s2 = nums
        return keys, dates, r, s2
    open_p, close_p, s2 = nums
    with np.errstate(all="ignore"):
        priced = (0.0 < open_p) & (open_p < math.inf) & (0.0 < close_p) & (close_p < math.inf)
        ratio = np.where(priced, close_p / open_p, math.nan)
    # math.log, not np.log, whose vector kernels may differ in the last bit;
    # a ratio that underflows to 0 is as unusable as a missing price
    r = np.array([math.log(x) if x > 0.0 else math.nan for x in ratio.tolist()], dtype=float)
    return keys, dates, r, s2


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

    ``csv`` tokenises the file (quoted fields may hold commas); blocks of
    rows are then converted a column at a time.  Index ids and dates are
    stripped of surrounding whitespace, dates keep their first 10
    characters, and an empty, ``NA`` or ``NaN`` number is missing.  Rows
    with missing, non-finite (``inf``, or overflowing like ``1e400``) or
    negative-variance values are dropped and counted per index; blank rows
    are skipped.  The first row in file order that does not parse is a
    ParseError naming its line.  Each index's rows are sorted by date
    (a repeated date is a ParseError), and the series come in the order of
    their first usable row.  An index with no usable row is left out with
    a warning, in order of first appearance.  Unknown symbols pass through
    untouched (no universe filter).
    """
    if fmt not in ("generic_csv", "oxford_csv"):
        raise ContractError(f"unknown format {fmt!r}")
    code_of: dict[str, int] = {}  # index id -> code, in order of first appearance
    blocks = []
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
        oxford = fmt == "oxford_csv"
        lineno = 2
        while block := list(islice(reader, _BLOCK_ROWS)):
            rows = [row for row in block if "".join(row).strip()]
            if rows:
                try:
                    keys, dates, r, s2 = _columns(rows, idx, oxford)
                except ParseError:
                    # find the first bad row in file order, and its line
                    for offset, row in enumerate(block):
                        if "".join(row).strip():
                            try:
                                _columns([row], idx, oxford)
                            except ParseError as exc:
                                raise ParseError(f"{path}: line {lineno + offset}: {exc}") \
                                    from None
                    raise
                codes = np.array([code_of.setdefault(key, len(code_of)) for key in keys],
                                 dtype=np.intp)
                blocks.append((codes, dates, r, s2))
            lineno += len(block)
    if not blocks:
        return []

    codes, dates, r, s2 = (np.concatenate(col) for col in zip(*blocks))
    keep = np.isfinite(r) & np.isfinite(s2) & (s2 >= 0.0)
    n_dropped = np.bincount(codes[~keep], minlength=len(code_of))
    codes, dates, r, s2 = codes[keep], dates[keep], r[keep], s2[keep]
    present, first_row = np.unique(codes, return_index=True)
    order = np.lexsort((dates, codes))  # stable: by index, then date
    codes, dates, r, s2 = codes[order], dates[order], r[order], s2[order]
    bounds = np.searchsorted(codes, np.arange(len(code_of) + 1))

    names = list(code_of)
    out = []
    for code in present[np.argsort(first_row)].tolist():
        span = slice(bounds[code], bounds[code + 1])
        if np.any(np.diff(dates[span]) <= np.timedelta64(0, "D")):
            raise ParseError(f"index {names[code]!r}: duplicate dates after sorting")
        r_span = r[span]
        out.append(DailySeries(
            index_id=names[code], dates=dates[span],
            r=r_span - r_span.mean() if demean else r_span,
            s2=s2[span] * 252.0 if annualize else s2[span],
            n_dropped=int(n_dropped[code])))
    for code in np.flatnonzero(bounds[1:] == bounds[:-1]).tolist():
        warnings.warn(f"index {names[code]!r}: no usable rows after cleaning", stacklevel=2)
    return out


def _mean(x: np.ndarray) -> float:
    """np.mean of a 1-d float array: the same sum and division, without its call overhead."""
    return float(np.add.reduce(x) / x.size)


def _legs(series: DailySeries, taus):
    """Yield the legs (s2_t, r_{t-tau}^2) at each tau in turn.

    Each lag's legs are slices of the series.  If any value is not finite,
    they are compressed to the pairs with both legs finite (pairwise
    deletion); a series from ``ingest`` is all finite, so its legs stay
    plain slices.  r^2 and the finite masks are computed once per call.
    """
    n = len(series)
    r2 = series.r ** 2
    s2_ok = np.isfinite(series.s2)
    r_ok = np.isfinite(series.r)
    all_finite = bool(s2_ok.all() and r_ok.all())
    for tau in taus:
        if abs(tau) >= n:
            raise ContractError(f"|tau|={abs(tau)} is not below series length {n}")
        if tau > 0:
            late, early = slice(tau, n), slice(0, n - tau)
        else:
            late, early = slice(0, n + tau), slice(-tau, n)
        s2_leg, r2_leg = series.s2[late], r2[early]
        if not all_finite:
            pairs = s2_ok[late] & r_ok[early]
            s2_leg, r2_leg = s2_leg[pairs], r2_leg[pairs]
        if s2_leg.size < MIN_PAIRS:
            raise ContractError(f"only {s2_leg.size} valid pairs at tau={tau}; need {MIN_PAIRS}")
        yield s2_leg, r2_leg


def c2(series: DailySeries, tau: int) -> float:
    """Lagged covariance of integrated variance with squared returns.

    Positive tau pairs s2_t with the earlier r_{t-tau}^2 (returns lead);
    negative tau with the later one.  Sample averages use divisor n over the
    valid pairs; fewer than 30 pairs is an error.
    """
    if tau == 0:
        raise ContractError("tau must be nonzero")
    ((s2_leg, r2_leg),) = _legs(series, [tau])
    return _mean((s2_leg - _mean(s2_leg)) * r2_leg)


def _corr(s2_leg: np.ndarray, r2_leg: np.ndarray, tau: int) -> tuple[float, float]:
    """Correlation and covariance of one lag's legs, each centred on its own mean."""
    ds = s2_leg - _mean(s2_leg)
    dr = r2_leg - _mean(r2_leg)
    cov = _mean(ds * dr)
    var_s = _mean(ds ** 2)
    var_r = _mean(dr ** 2)
    if var_s <= 0.0 or var_r <= 0.0:
        raise ContractError(f"zero variance denominator at tau={tau}")
    return cov / math.sqrt(var_s * var_r), cov


def rho_curve(series: DailySeries, tau_max: int = 100) -> TraCurve:
    """Forward/backward covariance and correlation curves for one index.

    Every lag is centred on the means of its own valid pairs (two passes),
    so the values are those of a lag-by-lag evaluation, bit for bit.
    """
    if tau_max < 1:
        raise ContractError(f"tau_max must be >= 1, got {tau_max}")
    taus = np.arange(1, tau_max + 1)
    c_f = np.empty(tau_max)
    c_b = np.empty(tau_max)
    rho_f = np.empty(tau_max)
    rho_b = np.empty(tau_max)
    n_obs = np.empty(tau_max, dtype=int)
    legs = _legs(series, [sign * tau for tau in taus.tolist() for sign in (1, -1)])
    for i, tau in enumerate(taus.tolist()):
        s2_leg, r2_leg = next(legs)
        rho_f[i], c_f[i] = _corr(s2_leg, r2_leg, tau)
        n_obs[i] = s2_leg.size
        rho_b[i], c_b[i] = _corr(*next(legs), -tau)
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


def _check_every_day(batch) -> None:
    """Raise ``ContractError`` unless the batch keeps every day of its horizon."""
    days, horizon = batch.days, batch.config.n_days
    if days != range(1, horizon + 1):
        raise ContractError(
            f"the series need every day; the batch keeps days "
            f"{days.start}..{days.stop - 1} of {horizon}")


def series_from_batch(batch, start_date="2000-01-03", prefix="SIM") -> list[DailySeries]:
    """Wrap simulated daily aggregates as synthetic index series.

    Each path becomes one index (consecutive synthetic dates), which gives
    the estimators model-generated input with known dynamics.  The series'
    r and s2 are views of the batch's rows, not copies.  The batch must
    hold every day of its horizon (``PathBatch.days``).
    """
    _check_every_day(batch)
    n_paths, n_days = batch.r.shape
    base = np.datetime64(start_date, "D")
    dates = base + np.arange(n_days)
    width = len(str(n_paths - 1))
    return [DailySeries(index_id=f"{prefix}{pid:0{width}d}", dates=dates,
                        r=batch.r[pid], s2=batch.s2[pid])
            for pid in range(n_paths)]


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it: quoted if it holds a comma, quote or line break."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text])
    return buf.getvalue()


def _format_rows(r, s2, *heads) -> list[str]:
    """The CSV rows of one path's days, one text per ``(lead, keys)`` head.

    Day d's row of a head reads ``lead``, ``keys[d]``, then ``r[d],s2[d]``
    with both numbers as ``%.17g`` (a lossless round trip).  The numbers are
    formatted once, however many heads share them.
    """
    n = len(r)
    cells = [None] * (2 * n)
    cells[0::2] = r.tolist()
    cells[1::2] = s2.tolist()
    tails = (("%.17g,%.17g\n" * n) % tuple(cells)).splitlines(keepends=True)
    texts = []
    for lead, keys in heads:
        parts = [lead] * (3 * n)
        parts[1::3] = keys
        parts[2::3] = tails
        texts.append("".join(parts))
    return texts


_GENERIC_HEADER = "index_id,date,r,s2\n"


def _series_heads(series_list):
    """Yield each series with its generic_csv ``(lead, keys)`` head for ``_format_rows``.

    The date keys are made once for a run of series that share one dates array.
    """
    dates = keys = None
    for s in series_list:
        if s.dates is not dates:
            dates = s.dates
            keys = [f"{day}," for day in dates.astype(str).tolist()]
        yield s, (f"{_csv_field(s.index_id)},", keys)


def write_generic_csv(series_list: list[DailySeries], fileobj) -> None:
    """Write series in the generic_csv ingestion format (lossless float round trip).

    Numbers are written as ``%.17g``; each series is formatted as one block
    by ``_format_rows``, the row formatter that ``simulate.export_daily_csv``
    shares, and passed to one ``write`` call.
    """
    fileobj.write(_GENERIC_HEADER)
    for s, head in _series_heads(series_list):
        fileobj.write(_format_rows(s.r, s.s2, head)[0])
