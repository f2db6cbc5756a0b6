"""Estimator tests for the empirical module.

The reference oracle throughout is a literal double loop over (t, t - tau)
pairs with explicit centering, kept deliberately naive so it shares nothing
with the vectorised implementation.  TestReferenceOracle adds a per-lag
estimator and a per-row writer that the array code must match bit for bit.
"""

import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zlab.empirical import (DailySeries, TraCurve, c2, cross_index_average,
                            ingest, integrated_difference, rho_curve,
                            series_from_batch, winsorize, write_generic_csv)
from zlab.errors import ContractError, ParseError


def make_series(index_id, r, s2, start="2004-01-02"):
    n = len(r)
    dates = np.datetime64(start, "D") + np.arange(n)
    return DailySeries(index_id=index_id, dates=dates,
                       r=np.asarray(r, dtype=float), s2=np.asarray(s2, dtype=float))


def random_series(rng, n, index_id="X"):
    return make_series(index_id, rng.standard_normal(n) * 0.01, rng.random(n) * 2e-4)


def c2_brute(series, tau):
    """Naive pair enumeration with explicit centering (n divisor)."""
    pairs = [(series.s2[t], series.r[t - tau] ** 2)
             for t in range(len(series)) if 0 <= t - tau < len(series)]
    s2_leg = np.array([p[0] for p in pairs])
    r2_leg = np.array([p[1] for p in pairs])
    return float(np.mean((s2_leg - s2_leg.mean()) * r2_leg))


def rho_brute(series, tau):
    pairs = [(series.s2[t], series.r[t - tau] ** 2)
             for t in range(len(series)) if 0 <= t - tau < len(series)]
    s2_leg = np.array([p[0] for p in pairs])
    r2_leg = np.array([p[1] for p in pairs])
    cov = np.mean((s2_leg - s2_leg.mean()) * (r2_leg - r2_leg.mean()))
    return float(cov / math.sqrt(np.var(s2_leg) * np.var(r2_leg)))


class TestIngest:
    def test_two_row_toy_file(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("Symbol,date,open_price,close_price,rk_parzen\n"
                     ".SPX,2001-01-01,100,101,0.0001\n"
                     ".SPX,2001-01-02,101,102,0.0001\n")
        (series,) = ingest(f, fmt="oxford_csv")
        assert series.r[0] == pytest.approx(math.log(1.01), rel=1e-12)
        assert len(series) == 2 and series.n_dropped == 0

    def test_nan_row_dropped_and_recorded(self, tmp_path):
        f = tmp_path / "gap.csv"
        f.write_text("Symbol,date,open_price,close_price,rk_parzen\n"
                     ".SPX,2001-01-01,100,101,0.0001\n"
                     ".SPX,2001-01-02,100,101,nan\n"
                     ".SPX,2001-01-03,100,101,0.0002\n")
        (series,) = ingest(f, fmt="oxford_csv")
        assert len(series) == 2
        assert series.n_dropped == 1

    def test_non_finite_rows_dropped_and_recorded(self, tmp_path):
        # inf and the overflowing 1e400 count as missing, so demeaning stays finite
        f = tmp_path / "inf.csv"
        f.write_text("index_id,date,r,s2\nA,2001-01-01,0.02,1e-4\nA,2001-01-02,inf,1e-4\n"
                     "A,2001-01-03,0.04,1e400\nA,2001-01-04,-0.01,2e-4\n")
        (series,) = ingest(f, demean=True)
        assert series.n_dropped == 2
        np.testing.assert_allclose(series.r, [0.015, -0.015])
        g = tmp_path / "inf_oxford.csv"
        g.write_text("Symbol,date,open_price,close_price,rk_parzen\n"
                     ".SPX,2001-01-01,100,101,0.0001\n.SPX,2001-01-02,100,inf,0.0001\n"
                     ".SPX,2001-01-03,1e400,101,0.0001\n.SPX,2001-01-04,100,101,-inf\n")
        (series,) = ingest(g, fmt="oxford_csv")
        assert len(series) == 1 and series.n_dropped == 3

    def test_underflowing_price_ratio_dropped_and_recorded(self, tmp_path):
        # close/open underflows to 0: log(0) must not turn the row into a ParseError
        f = tmp_path / "underflow.csv"
        f.write_text("Symbol,date,open_price,close_price,rk_parzen\n"
                     ".SPX,2001-01-01,100,101,0.0001\n"
                     ".SPX,2001-01-02,1e300,1e-300,0.0001\n")
        (series,) = ingest(f, fmt="oxford_csv")
        assert len(series) == 1 and series.n_dropped == 1

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        originals = [random_series(rng, 25, "A"), random_series(rng, 31, "B")]
        f = tmp_path / "rt.csv"
        with open(f, "w") as fh:
            write_generic_csv(originals, fh)
        back = {s.index_id: s for s in ingest(f)}
        for orig in originals:
            got = back[orig.index_id]
            assert np.array_equal(got.r, orig.r)
            assert np.array_equal(got.s2, orig.s2)
            assert np.array_equal(got.dates, orig.dates)

    def test_parse_error_carries_line_number(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("index_id,date,r,s2\nA,2001-01-01,0.01,1e-4\nA,not-a-date,x,y\n")
        with pytest.raises(ParseError, match="line 3"):
            ingest(f)

    def test_missing_columns(self, tmp_path):
        f = tmp_path / "cols.csv"
        f.write_text("foo,bar\n1,2\n")
        with pytest.raises(ParseError, match="header lacks"):
            ingest(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(ParseError):
            ingest(f)

    def test_empty_series_warns(self, tmp_path):
        f = tmp_path / "allnan.csv"
        f.write_text("index_id,date,r,s2\nA,2001-01-01,nan,1e-4\n")
        with pytest.warns(UserWarning, match="no usable rows"):
            series = ingest(f)
        assert series == []

    def test_unknown_symbols_pass_through(self, tmp_path):
        f = tmp_path / "odd.csv"
        f.write_text("index_id,date,r,s2\n.WEIRD,2001-01-01,0.01,1e-4\n"
                     ".WEIRD,2001-01-02,0.0,1e-4\n")
        (series,) = ingest(f)
        assert series.index_id == ".WEIRD"

    def test_annualize_and_demean(self, tmp_path):
        f = tmp_path / "ad.csv"
        f.write_text("index_id,date,r,s2\nA,2001-01-01,0.02,1e-4\nA,2001-01-02,0.04,2e-4\n")
        (plain,) = ingest(f)
        (adjusted,) = ingest(f, annualize=True, demean=True)
        np.testing.assert_allclose(adjusted.s2, plain.s2 * 252.0)
        np.testing.assert_allclose(adjusted.r, plain.r - plain.r.mean())

    def test_quoted_index_id_with_comma(self, tmp_path):
        f = tmp_path / "quoted.csv"
        f.write_text('index_id,date,r,s2\n"Dow, Jones",2001-01-01,0.01,1e-4\n'
                     '"Dow, Jones",2001-01-02,0.02,2e-4\n')
        (series,) = ingest(f)
        assert series.index_id == "Dow, Jones"
        assert series.r.tolist() == [0.01, 0.02]

    def test_whitespace_padded_fields(self, tmp_path):
        f = tmp_path / "padded.csv"
        f.write_text("index_id,date,r,s2\n A , 2001-01-01 ,  0.01 ,\t1e-4 \n")
        (series,) = ingest(f)
        assert series.index_id == "A"
        assert series.dates.tolist() == [np.datetime64("2001-01-01", "D").item()]
        assert series.r.tolist() == [0.01] and series.s2.tolist() == [1e-4]

    def test_missing_tokens_dropped_and_counted(self, tmp_path):
        f = tmp_path / "na.csv"
        f.write_text("index_id,date,r,s2\nA,2001-01-01,NA,1e-4\nA,2001-01-02,0.01,na\n"
                     "A,2001-01-03,,1e-4\nA,2001-01-04,0.01,  \nA,2001-01-05, NaN ,1e-4\n"
                     "A,2001-01-06,0.02,2e-4\n")
        (series,) = ingest(f)
        assert series.n_dropped == 5
        assert series.r.tolist() == [0.02] and series.s2.tolist() == [2e-4]

    def test_interleaved_indices_keep_first_usable_row_order(self, tmp_path):
        # C's first row is dropped, so C follows A, whose first usable row is earlier
        f = tmp_path / "mixed.csv"
        f.write_text("index_id,date,r,s2\nB,2001-01-01,0.01,1e-4\nC,2001-01-01,nan,1e-4\n"
                     "A,2001-01-01,0.02,2e-4\nB,2001-01-02,0.03,3e-4\n"
                     "C,2001-01-02,0.04,4e-4\nA,2001-01-02,0.05,5e-4\n")
        out = ingest(f)
        assert [s.index_id for s in out] == ["B", "A", "C"]
        assert [s.r.tolist() for s in out] == [[0.01, 0.03], [0.02, 0.05], [0.04]]
        assert [s.n_dropped for s in out] == [0, 0, 1]

    def test_unsorted_dates_are_sorted_with_their_values(self, tmp_path):
        f = tmp_path / "unsorted.csv"
        f.write_text("index_id,date,r,s2\nA,2001-01-03,0.03,3e-4\nA,2001-01-01,0.01,1e-4\n"
                     "A,2001-01-02,0.02,2e-4\n")
        (series,) = ingest(f)
        assert series.dates.astype(str).tolist() == ["2001-01-01", "2001-01-02", "2001-01-03"]
        assert series.r.tolist() == [0.01, 0.02, 0.03]
        assert series.s2.tolist() == [1e-4, 2e-4, 3e-4]

    def test_duplicate_date_is_parse_error(self, tmp_path):
        f = tmp_path / "dup.csv"
        f.write_text("index_id,date,r,s2\nA,2001-01-02,0.01,1e-4\nB,2001-01-02,0.01,1e-4\n"
                     "A,2001-01-01,0.02,2e-4\nA,2001-01-02,0.03,3e-4\n")
        with pytest.raises(ParseError, match="'A': duplicate dates"):
            ingest(f)

    def test_first_bad_row_in_file_order_is_reported(self, tmp_path):
        # line 3 is blank and still counts; line 4 has a bad date, line 5 too few columns
        f = tmp_path / "bad_rows.csv"
        f.write_text('index_id,date,r,s2\n"A, x",2001-01-01,0.01,1e-4\n\n'
                     "A,2001-13-01,0.02,2e-4\nA,2001-01-03,0.03\n")
        with pytest.raises(ParseError, match="line 4: unparsable row"):
            ingest(f)
        f.write_text("index_id,date,r,s2\nA,2001-01-01,0.01,1e-4\n\nA,2001-01-03,0.03\n"
                     "A,2001-13-01,0.02,2e-4\n")
        with pytest.raises(ParseError, match="line 4: too few columns"):
            ingest(f)
        f.write_text("index_id,date,r,s2\nA,2001-01-01,0.01,1e-4\n ,2001-01-02,x,y\n")
        with pytest.raises(ParseError, match="line 3: empty index id"):
            ingest(f)

    def test_long_file_groups_and_reports_lines(self, tmp_path):
        rng = np.random.default_rng(2)
        originals = [random_series(rng, 21000, "A"), random_series(rng, 19000, "B")]
        f = tmp_path / "long.csv"
        with open(f, "w") as fh:
            write_generic_csv(originals, fh)
        back = ingest(f)
        assert [s.index_id for s in back] == ["A", "B"]
        for orig, got in zip(originals, back):
            assert np.array_equal(got.dates, orig.dates)
            assert np.array_equal(got.r, orig.r) and np.array_equal(got.s2, orig.s2)
        lines = f.read_text().splitlines(keepends=True)
        lines[33000] = "B,2060-01-01,0.01,oops\n"
        f.write_text("".join(lines))
        with pytest.raises(ParseError, match="line 33001: unparsable row"):
            ingest(f)

    def test_empty_series_warn_in_first_appearance_order(self, tmp_path):
        names = ["Q", "B", "Z", "A", "M"]
        f = tmp_path / "allnan.csv"
        f.write_text("index_id,date,r,s2\nG,2001-01-01,0.01,1e-4\n"
                     + "".join(f"{k},2001-01-01,nan,1e-4\n" for k in names))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (series,) = ingest(f)
        assert series.index_id == "G"
        assert [str(w.message) for w in caught] == [
            f"index {k!r}: no usable rows after cleaning" for k in names]

    def test_empty_or_nat_date_is_parse_error_with_line(self, tmp_path):
        # numpy reads both as NaT; without a check the run ended in a
        # ContractError that named no line
        f = tmp_path / "nodate.csv"
        for date in ("", " ", "NaT"):
            f.write_text("index_id,date,r,s2\nA,2001-01-01,0.01,1e-4\n"
                         f"A,{date},0.02,2e-4\nA,2001-01-03,0.03,3e-4\n")
            with pytest.raises(ParseError, match="line 3: unparsable row"):
                ingest(f)

    def test_ids_with_comma_and_quote_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        names = ["Dow, Jones", 'S&P "500"', '"', "A,B,\"C\"", "plain"]
        originals = [random_series(rng, 12, name) for name in names]
        f = tmp_path / "quoted_rt.csv"
        with open(f, "w") as fh:
            write_generic_csv(originals, fh)
        back = ingest(f)
        assert [s.index_id for s in back] == names
        for orig, got in zip(originals, back):
            assert np.array_equal(got.dates, orig.dates)
            assert np.array_equal(got.r, orig.r) and np.array_equal(got.s2, orig.s2)
        # ids that need no quotes are written bare, as before
        assert f.read_text().splitlines()[-1].startswith("plain,")


class TestC2:
    def test_constant_s2_gives_zero(self):
        # centered factor vanishes; only the rounding of the sample mean
        # (~1e-20 of the s2 scale) survives in floating point
        rng = np.random.default_rng(0)
        series = make_series("C", rng.standard_normal(60) * 0.01, np.full(60, 1e-4))
        for tau in (1, 2, -3, 7):
            assert abs(c2(series, tau)) < 1e-18

    def test_hand_series_vs_brute_force(self):
        # 40 points, hand-checkable sizes
        rng = np.random.default_rng(5)
        series = random_series(rng, 40)
        for tau in (1, 2, 5, -1, -4):
            assert c2(series, tau) == pytest.approx(c2_brute(series, tau), abs=1e-18)

    def test_reversal_identity(self):
        rng = np.random.default_rng(6)
        series = random_series(rng, 45)
        rev = make_series("R", series.r[::-1], series.s2[::-1])
        for tau in (1, 3, 8):
            assert c2(rev, tau) == pytest.approx(c2(series, -tau), rel=1e-12)
            assert c2(rev, -tau) == pytest.approx(c2(series, tau), rel=1e-12)

    def test_reversal_antisymmetry_of_z(self):
        rng = np.random.default_rng(7)
        series = random_series(rng, 50)
        rev = make_series("R", series.r[::-1], series.s2[::-1])
        fwd = rho_curve(series, 5)
        bwd = rho_curve(rev, 5)
        np.testing.assert_allclose(bwd.z, -fwd.z, rtol=1e-10)

    def test_tau_zero_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ContractError):
            c2(random_series(rng, 40), 0)

    def test_tau_beyond_length_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ContractError):
            c2(random_series(rng, 40), 40)

    def test_too_few_pairs(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ContractError, match="valid pairs"):
            c2(random_series(rng, 31), 5)

    def test_pairwise_deletion_with_nan_legs(self):
        rng = np.random.default_rng(10)
        r = rng.standard_normal(60) * 0.01
        s2 = rng.random(60) * 1e-4
        r[7] = np.nan
        dates = np.datetime64("2004-01-02", "D") + np.arange(60)
        series = DailySeries("N", dates, r, s2)
        val = c2(series, 2)
        clean_pairs = [(s2[t], r[t - 2] ** 2) for t in range(2, 60) if t - 2 != 7]
        s2_leg = np.array([p[0] for p in clean_pairs])
        r2_leg = np.array([p[1] for p in clean_pairs])
        assert val == pytest.approx(
            float(np.mean((s2_leg - s2_leg.mean()) * r2_leg)), rel=1e-12)


class TestRhoCurve:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        series = random_series(rng, 48)
        curve = rho_curve(series, 6)
        for i, tau in enumerate(curve.taus):
            assert curve.rho_fwd[i] == pytest.approx(rho_brute(series, int(tau)), abs=1e-12)
            assert curve.rho_bwd[i] == pytest.approx(rho_brute(series, -int(tau)), abs=1e-12)

    def test_s2_equals_r_squared_gives_autocorrelation(self):
        rng = np.random.default_rng(12)
        r = rng.standard_normal(300) * 0.01
        series = make_series("AC", r, r**2)
        curve = rho_curve(series, 3)
        r2 = r**2
        a, b = r2[1:], r2[:-1]
        expect = float(np.mean((a - a.mean()) * (b - b.mean()))
                       / math.sqrt(np.var(a) * np.var(b)))
        assert curve.rho_fwd[0] == pytest.approx(expect, abs=1e-12)

    def test_iid_gaussian_has_no_structure(self):
        rng = np.random.default_rng(13)
        n = 4000
        series = make_series("G", rng.standard_normal(n) * 0.01, np.full(n, 0.0))
        # constant s2 has zero variance; use an independent noisy s2 instead
        series = make_series("G", rng.standard_normal(n) * 0.01, rng.random(n) * 1e-4)
        curve = rho_curve(series, 10)
        bound = 3.0 / math.sqrt(n)
        assert np.all(np.abs(curve.rho_fwd) < bound)
        assert np.all(np.abs(curve.rho_bwd) < bound)

    def test_shuffle_destroys_dependence(self):
        # build a strongly dependent series, then permute time
        rng = np.random.default_rng(14)
        n = 3000
        vol = np.exp(rng.standard_normal(n).cumsum() * 0.05) * 0.01
        r = vol * rng.standard_normal(n)
        series = make_series("D", r, vol**2)
        structured = rho_curve(series, 5)
        assert np.max(np.abs(structured.rho_fwd)) > 3.0 / math.sqrt(n)
        perm = rng.permutation(n)
        shuffled = make_series("S", r[perm], (vol**2)[perm])
        null = rho_curve(shuffled, 5)
        bound = 3.0 / math.sqrt(n)
        assert np.all(np.abs(null.rho_fwd) < bound)
        assert np.all(np.abs(null.rho_bwd) < bound)

    @given(scale=st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_equivariance(self, scale):
        rng = np.random.default_rng(15)
        series = random_series(rng, 64)
        scaled = make_series("S", scale * series.r, series.s2)
        base = rho_curve(series, 4)
        after = rho_curve(scaled, 4)
        np.testing.assert_allclose(after.c2_fwd, scale**2 * base.c2_fwd, rtol=1e-12)
        np.testing.assert_allclose(after.rho_fwd, base.rho_fwd, rtol=0, atol=1e-12)
        np.testing.assert_allclose(after.rho_bwd, base.rho_bwd, rtol=0, atol=1e-12)

    def test_zero_variance_denominator(self):
        series = make_series("Z", np.zeros(50), np.linspace(1e-5, 2e-5, 50))
        with pytest.raises(ContractError, match="zero variance"):
            rho_curve(series, 2)

    def test_correlations_bounded(self):
        rng = np.random.default_rng(16)
        for trial in range(20):
            curve = rho_curve(random_series(rng, 40), 5)
            assert np.all(np.abs(curve.rho_fwd) <= 1.0)
            assert np.all(np.abs(curve.rho_bwd) <= 1.0)


def valid_pairs_oracle(series, tau):
    """Per-lag index arrays (t, t - tau) of pairs with both legs present."""
    n = len(series)
    if abs(tau) >= n:
        raise ContractError(f"|tau|={abs(tau)} is not below series length {n}")
    t = np.arange(max(0, tau), n + min(0, tau))
    lag = t - tau
    mask = np.isfinite(series.s2[t]) & np.isfinite(series.r[lag])
    return t[mask], lag[mask]


def corr_oracle(series, tau):
    """Per-lag reference estimator: fancy-indexed legs, each centred on its own mean."""
    t, lag = valid_pairs_oracle(series, tau)
    s2_leg = series.s2[t]
    r2_leg = series.r[lag] ** 2
    cov = float(np.mean((s2_leg - s2_leg.mean()) * (r2_leg - r2_leg.mean())))
    var_s = float(np.mean((s2_leg - s2_leg.mean()) ** 2))
    var_r = float(np.mean((r2_leg - r2_leg.mean()) ** 2))
    c2_val = float(np.mean((s2_leg - s2_leg.mean()) * r2_leg))
    return cov / math.sqrt(var_s * var_r), cov, t.size, c2_val


class TestReferenceOracle:
    """The array estimators reproduce the per-lag oracle bit for bit."""

    def check(self, series, tau_max):
        curve = rho_curve(series, tau_max)
        fwd = [corr_oracle(series, tau) for tau in range(1, tau_max + 1)]
        bwd = [corr_oracle(series, -tau) for tau in range(1, tau_max + 1)]
        assert np.array_equal(curve.rho_fwd, [row[0] for row in fwd])
        assert np.array_equal(curve.c2_fwd, [row[1] for row in fwd])
        assert np.array_equal(curve.n_obs, [row[2] for row in fwd])
        assert np.array_equal(curve.rho_bwd, [row[0] for row in bwd])
        assert np.array_equal(curve.c2_bwd, [row[1] for row in bwd])
        for tau, row in zip(range(1, tau_max + 1), fwd):
            assert c2(series, tau) == row[3]
        for tau, row in zip(range(1, tau_max + 1), bwd):
            assert c2(series, -tau) == row[3]

    def test_clean_series(self):
        rng = np.random.default_rng(31)
        self.check(random_series(rng, 5000), 100)

    def test_nan_legs(self):
        rng = np.random.default_rng(32)
        base = random_series(rng, 3000)
        r, s2 = base.r.copy(), base.s2.copy()
        r[rng.choice(3000, 40, replace=False)] = np.nan
        s2[rng.choice(3000, 40, replace=False)] = np.nan
        s2[:5] = np.nan
        r[-7:] = np.nan
        self.check(DailySeries("N", base.dates, r, s2), 60)

    def test_longest_lag(self):
        rng = np.random.default_rng(33)
        n = 400
        self.check(random_series(rng, n), n - 30)
        with pytest.raises(ContractError, match="valid pairs"):
            rho_curve(random_series(rng, n), n - 29)

    def test_generic_csv_matches_per_row_writer(self):
        def per_row(series_list, fileobj):
            fileobj.write("index_id,date,r,s2\n")
            rows = csv.writer(fileobj, lineterminator="\n")
            for s in series_list:
                for d, r_val, s2_val in zip(s.dates, s.r, s.s2):
                    rows.writerow([s.index_id, d, f"{r_val:.17g}", f"{s2_val:.17g}"])

        rng = np.random.default_rng(34)
        odd = make_series("%d,{x}", [0.0, -0.0, 5e-324, -1e308, np.nan, np.inf],
                          [1e-300, 0.0, 1e22, 2.5, 3e-5, np.nan], start="1969-12-30")
        series_list = [random_series(rng, 700, "A"), odd, random_series(rng, 3, ".B/C")]
        got, want = io.StringIO(), io.StringIO()
        write_generic_csv(series_list, got)
        per_row(series_list, want)
        assert got.getvalue() == want.getvalue()


class TestAverageAndDifference:
    def test_single_curve_identity(self):
        rng = np.random.default_rng(17)
        curve = rho_curve(random_series(rng, 60), 5)
        avg = cross_index_average([curve])
        np.testing.assert_allclose(avg.rho_fwd, curve.rho_fwd)
        assert np.all(avg.n_obs == 1)

    def test_two_curve_mean(self):
        rng = np.random.default_rng(18)
        c_a = rho_curve(random_series(rng, 60, "A"), 5)
        c_b = rho_curve(random_series(rng, 80, "B"), 5)
        avg = cross_index_average([c_a, c_b])
        np.testing.assert_allclose(avg.rho_fwd, (c_a.rho_fwd + c_b.rho_fwd) / 2.0)
        np.testing.assert_allclose(avg.z, (c_a.z + c_b.z) / 2.0)
        assert np.all(avg.n_obs == 2)

    def test_grid_mismatch(self):
        rng = np.random.default_rng(19)
        c_a = rho_curve(random_series(rng, 60, "A"), 5)
        c_b = rho_curve(random_series(rng, 60, "B"), 6)
        with pytest.raises(ContractError, match="grids"):
            cross_index_average([c_a, c_b])

    def test_integrated_difference_symmetric_curve(self):
        taus = np.arange(1, 6)
        ones = np.full(5, 0.2)
        curve = TraCurve(taus=taus, c2_fwd=ones, c2_bwd=ones, rho_fwd=ones,
                         rho_bwd=ones, n_obs=np.full(5, 100))
        for tau in range(1, 6):
            assert integrated_difference(curve, tau) == 0.0

    def test_integrated_difference_hand_curve(self):
        taus = np.arange(1, 3)
        curve = TraCurve(taus=taus,
                         c2_fwd=np.array([0.3, 0.2]), c2_bwd=np.array([0.1, 0.1]),
                         rho_fwd=np.array([0.3, 0.2]), rho_bwd=np.array([0.1, 0.1]),
                         n_obs=np.array([50, 50]))
        assert integrated_difference(curve, 1) == pytest.approx(0.2)
        assert integrated_difference(curve, 2) == pytest.approx(0.3)
        with pytest.raises(ContractError):
            integrated_difference(curve, 3)


class TestWinsorize:
    def test_clips_tails_only(self):
        rng = np.random.default_rng(20)
        series = random_series(rng, 500)
        clipped = winsorize(series, 0.01)
        assert clipped.r.max() <= np.quantile(series.r, 0.99) + 1e-15
        assert clipped.r.min() >= np.quantile(series.r, 0.01) - 1e-15
        assert clipped.s2.max() <= np.quantile(series.s2, 0.99) + 1e-18
        inner = (series.r > np.quantile(series.r, 0.01)) & \
                (series.r < np.quantile(series.r, 0.99))
        np.testing.assert_array_equal(clipped.r[inner], series.r[inner])

    def test_quantile_domain(self):
        rng = np.random.default_rng(21)
        with pytest.raises(ContractError):
            winsorize(random_series(rng, 50), 0.7)


class TestOutputs:
    def test_json_mirror(self, tmp_path):
        import json

        from zlab.cli import main

        rng = np.random.default_rng(23)
        series = random_series(rng, 60)
        curve = rho_curve(series, 3)
        f = tmp_path / "x.csv"
        with open(f, "w") as fh:
            write_generic_csv([series], fh)
        out = tmp_path / "out"
        assert main(["empirical", "-i", str(f), "--tau-max", "3", "--format", "json",
                     "--output-dir", str(out)]) == 0
        payload = json.loads((out / "tra_X.json").read_text())
        assert payload["tau"] == [1, 2, 3]
        assert payload["rho_fwd"] == pytest.approx(list(curve.rho_fwd))
        assert payload["delta_cum"] == pytest.approx(list(curve.delta_cum))

    def test_series_from_batch_roundtrip(self, tmp_path):
        from zlab.model import ForwardVarianceCurve, ModelParams
        from zlab.simulate import SimConfig, simulate_paths

        p = ModelParams(0.05, 0.3, 0.45, -0.7)
        batch = simulate_paths(p, ForwardVarianceCurve.flat(0.025),
                               SimConfig(n_paths=3, steps_per_day=2, n_days=40, seed=6))
        series = series_from_batch(batch)
        assert [s.index_id for s in series] == ["SIM0", "SIM1", "SIM2"]
        f = tmp_path / "sim.csv"
        with open(f, "w") as fh:
            write_generic_csv(series, fh)
        back = ingest(f)
        assert len(back) == 3
        for orig, got in zip(series, sorted(back, key=lambda s: s.index_id)):
            assert np.array_equal(orig.r, got.r)
            assert np.array_equal(orig.s2, got.s2)


class TestDailySeriesValidation:
    def test_rejects_negative_s2(self):
        with pytest.raises(ContractError):
            make_series("B", [0.1, 0.2], [1e-4, -1e-4])

    def test_rejects_unsorted_dates(self):
        dates = np.array(["2004-01-05", "2004-01-02"], dtype="datetime64[D]")
        with pytest.raises(ContractError):
            DailySeries("B", dates, np.zeros(2), np.zeros(2))

    def test_rejects_length_mismatch(self):
        dates = np.datetime64("2004-01-02", "D") + np.arange(3)
        with pytest.raises(ContractError):
            DailySeries("B", dates, np.zeros(2), np.zeros(3))
