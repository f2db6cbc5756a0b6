"""Command line front end tests (exit codes, files, determinism, flags)."""

import io
import json
import math
import os

import numpy as np
import pytest

from zlab import empirical as emp
from zlab import model as mdl
from zlab import simulate as sim
from zlab.cli import build_parser, main

TRA_COLUMNS = ["c2_fwd", "c2_bwd", "rho_fwd", "rho_bwd", "z", "delta_cum", "n_obs"]
SIM_SMALL = ["simulate", "--paths", "300", "--steps-per-day", "3", "--days", "30",
             "--seed", "11", "--k-max", "3"]


def run(tmp_path, args, **kw):
    return main([*args, "--output-dir", str(tmp_path)], **kw)


def read_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestExitCodes:
    def test_usage_error_is_one(self):
        # argparse exits through SystemExit for unknown subcommands
        with pytest.raises(SystemExit) as exc:
            main(["bogus-subcommand"])
        assert exc.value.code == 1

    def test_missing_required_flag_is_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["empirical"])
        assert exc.value.code == 1

    def test_io_error_is_two(self, tmp_path):
        assert run(tmp_path, ["empirical", "-i", str(tmp_path / "absent.csv")]) == 2

    def test_contract_violation_is_four(self, tmp_path):
        assert run(tmp_path, ["model", "--hurst", "0.7"]) == 4

    def test_empty_input_no_partial_files(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        out = tmp_path / "out"
        code = main(["empirical", "-i", str(bad), "--output-dir", str(out)])
        assert code == 2
        assert not out.exists() or not list(out.iterdir())


class TestModelCommand:
    def test_writes_curve_with_requested_lags(self, tmp_path):
        assert run(tmp_path, ["model", "--k-max", "5", "--t", "0.5"]) == 0
        header, rows = read_rows(tmp_path / "model_curve.csv")
        assert header[:4] == ["k", "tau_years", "zumbach_cov", "zumbach_asymptotic"]
        assert len(rows) == 5
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]

    def test_rho_zero_gives_zero_curve(self, tmp_path):
        assert run(tmp_path, ["model", "--rho", "0", "--k-max", "4"]) == 0
        _, rows = read_rows(tmp_path / "model_curve.csv")
        assert all(float(r[2]) == 0.0 and float(r[3]) == 0.0 for r in rows)

    def test_compare_h_ratio_exceeds_ten(self, tmp_path):
        assert run(tmp_path, ["model", "--k-max", "5", "--compare-h"]) == 0
        header, rows = read_rows(tmp_path / "model_curve.csv")
        i_rough = header.index("zumbach_cov")
        i_classic = header.index("zumbach_cov_h05")
        for row in rows:
            assert float(row[i_rough]) / float(row[i_classic]) > 10.0

    def test_json_format(self, tmp_path):
        assert run(tmp_path, ["model", "--k-max", "3", "--format", "json"]) == 0
        payload = json.loads((tmp_path / "model_curve.json").read_text())
        assert payload["k"] == [1, 2, 3]
        assert len(payload["zumbach_cov"]) == 3

    def test_piecewise_curve_file(self, tmp_path):
        knots = tmp_path / "curve.csv"
        knots.write_text("t,xi0\n0.0,0.02\n2.0,0.03\n")
        assert run(tmp_path, ["model", "--k-max", "2", "--curve-file", str(knots),
                              "--t", "1.0"]) == 0

    def test_gnuplot_script_emitted(self, tmp_path):
        assert run(tmp_path, ["model", "--k-max", "2", "--gnuplot"]) == 0
        assert (tmp_path / "model_curve.gp").exists()

    def test_k_max_zero_is_contract_error_without_output(self, tmp_path):
        assert run(tmp_path, ["model", "--k-max", "0"]) == 4
        assert list(tmp_path.glob("model_curve.*")) == []

    @pytest.mark.parametrize("flag,value", [("--nu", "nan"), ("--nu", "inf"), ("--t", "nan"),
                                            ("--t", "inf"), ("--lam", "inf")])
    def test_non_finite_input_is_contract_error_without_output(self, tmp_path, flag, value):
        assert run(tmp_path, ["model", "--k-max", "3", flag, value]) == 4
        assert list(tmp_path.glob("model_curve.*")) == []

    def test_fast_mean_reversion_beyond_the_series_edge(self, tmp_path):
        # lam^(1/alpha) * delta > 7 here: the kernel rule reaches the contour regime
        assert run(tmp_path, ["model", "--lam", "200", "--k-max", "10"]) == 0
        _, rows = read_rows(tmp_path / "model_curve.csv")
        assert len(rows) == 10
        assert all(float(r[2]) > 0.0 for r in rows)

    def test_help_documents_units(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["model", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "years" in text and "1/year" in text


class TestSimulateCommand:
    def test_deterministic_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*SIM_SMALL, "--output-dir", str(out_a)]) == 0
        assert main([*SIM_SMALL, "--output-dir", str(out_b)]) == 0
        assert (out_a / "zumbach_mc.csv").read_bytes() == (out_b / "zumbach_mc.csv").read_bytes()
        assert (out_a / "moments_mc.csv").read_bytes() == (out_b / "moments_mc.csv").read_bytes()

    def test_nu_zero_zero_table(self, tmp_path):
        assert run(tmp_path, ["simulate", "--paths", "50", "--steps-per-day", "2",
                              "--days", "20", "--nu", "0", "--k-max", "3"]) == 0
        _, rows = read_rows(tmp_path / "zumbach_mc.csv")
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_dump_and_export(self, tmp_path):
        dump = tmp_path / "paths.csv"
        synth = tmp_path / "synth.csv"
        assert run(tmp_path, [*SIM_SMALL, "--dump-paths", str(dump),
                              "--export-empirical", str(synth)]) == 0
        header, rows = read_rows(dump)
        assert header == ["path_id", "day", "r", "sigma2"]
        assert len(rows) == 300 * 30
        header, rows = read_rows(synth)
        assert header == ["index_id", "date", "r", "s2"]

    def test_dump_matches_library_writer(self, tmp_path):
        dump = tmp_path / "paths.csv"
        assert run(tmp_path, [*SIM_SMALL, "--dump-paths", str(dump)]) == 0
        params = mdl.ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=-0.7)
        config = sim.SimConfig(n_paths=300, steps_per_day=3, n_days=30, seed=11)
        batch = sim.simulate_paths(params, mdl.ForwardVarianceCurve.flat(0.025), config)
        buf = io.StringIO()
        sim.export_daily_csv(batch, buf)
        assert dump.read_text() == buf.getvalue()

    def test_writer_failure_leaves_no_file(self, tmp_path, monkeypatch):
        def broken(batch, fileobj):
            fileobj.write("path_id,day,r,sigma2\n")
            fileobj.write("0,1,0.0,0.0\n" * 1000)
            raise OSError("disk full")

        monkeypatch.setattr(sim, "export_daily_csv", broken)
        dump = tmp_path / "dump" / "paths.csv"
        assert run(tmp_path, [*SIM_SMALL, "--dump-paths", str(dump)]) == 2
        assert not dump.exists()
        assert not list(dump.parent.glob("*.tmp"))

    def _small_batch(self):
        params = mdl.ModelParams(hurst=0.05, lam=0.3, nu=0.45, rho=-0.7)
        config = sim.SimConfig(n_paths=300, steps_per_day=3, n_days=30, seed=11)
        return sim.simulate_paths(params, mdl.ForwardVarianceCurve.flat(0.025), config)

    def test_joint_dump_and_export_match_library_writers(self, tmp_path):
        dump, synth = tmp_path / "paths.csv", tmp_path / "synth.csv"
        assert run(tmp_path, [*SIM_SMALL, "--dump-paths", str(dump),
                              "--export-empirical", str(synth)]) == 0
        batch = self._small_batch()
        want_dump, want_synth = io.StringIO(), io.StringIO()
        sim.export_daily_csv(batch, want_dump)
        emp.write_generic_csv(emp.series_from_batch(batch), want_synth)
        assert dump.read_bytes() == want_dump.getvalue().encode()
        assert synth.read_bytes() == want_synth.getvalue().encode()

    @pytest.mark.parametrize("full", ["dump", "synth"])
    def test_joint_failure_leaves_neither_file(self, tmp_path, monkeypatch, full):
        # the joint pass runs until one file reports a full disk on its
        # fourth write, after both have taken data
        class FullDisk:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, text):
                self.writes += 1
                if self.writes > 3:
                    raise OSError("disk full")
                return self.fh.write(text)

        joint = sim.export_daily_csv

        def failing(batch, fileobj, series_fileobj):
            if full == "dump":
                fileobj = FullDisk(fileobj)
            else:
                series_fileobj = FullDisk(series_fileobj)
            joint(batch, fileobj, series_fileobj)

        monkeypatch.setattr(sim, "export_daily_csv", failing)
        dump, synth = tmp_path / "dump" / "paths.csv", tmp_path / "synth" / "synth.csv"
        assert run(tmp_path, [*SIM_SMALL, "--dump-paths", str(dump),
                              "--export-empirical", str(synth)]) == 2
        for path in (dump, synth):
            assert not path.exists()
            assert not list(path.parent.glob("*.tmp"))

    def test_joint_rename_failure_leaves_neither_file(self, tmp_path):
        # the dump is renamed into place first; the series cannot replace a
        # directory, so the dump is removed again
        dump, synth = tmp_path / "paths.csv", tmp_path / "synth.csv"
        synth.mkdir()
        assert run(tmp_path, [*SIM_SMALL, "--dump-paths", str(dump),
                              "--export-empirical", str(synth)]) == 2
        assert not dump.exists()
        assert list(synth.iterdir()) == []
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_antithetic_is_a_usage_error(self, tmp_path, capsys, via):
        # paths are the one sampling unit: the option is unknown, and the
        # run stops before it writes anything
        out = tmp_path / "out"
        argv = [*SIM_SMALL, "--output-dir", str(out), "--dump-paths", str(out / "paths.csv")]
        if via == "flag":
            argv.append("--antithetic")
        else:
            cfg = tmp_path / "run.conf"
            cfg.write_text("antithetic = true\n")
            argv = ["--config", str(cfg), *argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "--antithetic" in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_guard(self, tmp_path, monkeypatch):
        # checked before the run: a simulation that starts fails the test
        def no_run(*args, **kw):
            raise AssertionError("simulate_paths ran before the lag checks")

        monkeypatch.setattr(sim, "simulate_paths", no_run)
        for t_day in ("9", "0"):
            code = run(tmp_path, ["simulate", "--paths", "10", "--steps-per-day", "2",
                                  "--days", "10", "--t-day", t_day, "--k-max", "5"])
            assert code == 4

    def test_k_max_zero_is_contract_error(self, tmp_path, monkeypatch):
        def no_run(*args, **kw):
            raise AssertionError("simulate_paths ran before the lag checks")

        monkeypatch.setattr(sim, "simulate_paths", no_run)
        code = run(tmp_path, ["simulate", "--paths", "4", "--steps-per-day", "1",
                              "--days", "10", "--k-max", "0"])
        assert code == 4
        assert list(tmp_path.glob("zumbach_mc.*")) == []


class TestEmpiricalCommand:
    @pytest.fixture()
    def synth_csv(self, tmp_path):
        path = tmp_path / "synth.csv"
        code = run(tmp_path, ["simulate", "--paths", "4", "--steps-per-day", "2",
                              "--days", "220", "--seed", "3", "--k-max", "1",
                              "--export-empirical", str(path)])
        assert code == 0
        return path

    def test_tau_max_row_count(self, tmp_path, synth_csv):
        out = tmp_path / "emp"
        assert main(["empirical", "-i", str(synth_csv), "--tau-max", "50",
                     "--output-dir", str(out)]) == 0
        _, rows = read_rows(out / "tra_average.csv")
        assert len(rows) == 50
        per_index = sorted(p.name for p in out.glob("tra_SIM*.csv"))
        assert len(per_index) == 4

    def test_summary_printed(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "emp2"
        assert main(["empirical", "-i", str(synth_csv), "--tau-max", "10",
                     "--output-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "indices: 4" in text
        assert "Delta(10)" in text

    def test_csv_columns_and_values(self, tmp_path, synth_csv):
        out = tmp_path / "c"
        assert main(["empirical", "-i", str(synth_csv), "--tau-max", "3",
                     "--output-dir", str(out)]) == 0
        series = sorted(emp.ingest(synth_csv), key=lambda s: s.index_id)
        curve = emp.cross_index_average([emp.rho_curve(s, 3) for s in series])
        header, rows = read_rows(out / "tra_average.csv")
        assert header == ["tau", *TRA_COLUMNS]
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        assert [int(r[-1]) for r in rows] == curve.n_obs.tolist()
        for i, name in enumerate(TRA_COLUMNS[:-1], start=1):
            assert [float(r[i]) for r in rows] == pytest.approx(
                getattr(curve, name).tolist(), rel=1e-11, abs=0.0), name

    def test_json_matches_library_writer(self, tmp_path, synth_csv):
        out = tmp_path / "j"
        assert main(["empirical", "-i", str(synth_csv), "--tau-max", "6",
                     "--format", "json", "--output-dir", str(out)]) == 0
        curves = {s.index_id: emp.rho_curve(s, 6) for s in emp.ingest(synth_csv)}
        curves["average"] = emp.cross_index_average(
            [curves[name] for name in sorted(curves)])
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"tra_{name}.json" for name in curves)
        for name, curve in curves.items():
            payload = json.loads((out / f"tra_{name}.json").read_text())
            assert list(payload) == ["tau", *TRA_COLUMNS]
            assert payload["tau"] == curve.taus.tolist()
            for col in TRA_COLUMNS:
                assert payload[col] == getattr(curve, col).tolist(), (name, col)

    def test_colliding_output_names_are_parse_error(self, tmp_path, capsys):
        # ".AEX" and "AEX" both map to tra_AEX; "average" would replace tra_average
        rng = np.random.default_rng(4)
        panel = tmp_path / "collide.csv"
        with open(panel, "w") as fh:
            emp.write_generic_csv([emp.DailySeries(
                name, np.datetime64("2001-01-01", "D") + np.arange(60),
                rng.standard_normal(60) * 0.01, rng.random(60) * 1e-4)
                for name in (".AEX", "AEX", "average", "DAX")], fh)
        out = tmp_path / "emp"
        code = main(["empirical", "-i", str(panel), "--tau-max", "3",
                     "--output-dir", str(out)])
        assert code == 2
        assert not out.exists() or not list(out.iterdir())
        err = capsys.readouterr().err
        assert "'.AEX', 'AEX'" in err and "'average'" in err and "DAX" not in err

    def test_winsorize_flag(self, tmp_path, synth_csv):
        out = tmp_path / "w"
        assert main(["empirical", "-i", str(synth_csv), "--tau-max", "5",
                     "--winsorize", "0.01", "--output-dir", str(out)]) == 0

    def test_empty_date_is_parse_error_naming_line(self, tmp_path, capsys):
        bad = tmp_path / "nodate.csv"
        bad.write_text("index_id,date,r,s2\nA,2001-01-01,0.01,1e-4\nA,,0.02,2e-4\n")
        out = tmp_path / "emp"
        assert main(["empirical", "-i", str(bad), "--output-dir", str(out)]) == 2
        assert "line 3" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_memory_budget_help_names_unit_and_effect(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "budget in MiB" in text and "chunking" in text


class TestCompareCommand:
    @pytest.fixture()
    def model_file(self, tmp_path):
        assert run(tmp_path, ["model", "--k-max", "3", "--t", "0.5"]) == 0
        return tmp_path / "model_curve.csv"

    def test_model_only_join_marks_empty(self, tmp_path, model_file):
        out = tmp_path / "cmp"
        assert main(["compare", "--model-file", str(model_file),
                     "--output-dir", str(out)]) == 0
        header, rows = read_rows(out / "comparison.csv")
        i_emp = header.index("empirical_z")
        assert all(r[i_emp] == "" for r in rows)

    def test_mc_join_and_gap(self, tmp_path, model_file):
        assert run(tmp_path, [*SIM_SMALL, "--t-day", "15"]) == 0
        out = tmp_path / "cmp2"
        assert main(["compare", "--model-file", str(model_file),
                     "--mc-file", str(tmp_path / "zumbach_mc.csv"),
                     "--output-dir", str(out)]) == 0
        header, rows = read_rows(out / "comparison.csv")
        i_gap = header.index("relative_gap_mc")
        i_mc = header.index("mc_estimate")
        i_model = header.index("model_cov")
        for row in rows:
            expect = (float(row[i_mc]) - float(row[i_model])) / float(row[i_model])
            assert float(row[i_gap]) == pytest.approx(expect, rel=1e-9)

    def test_delta_mismatch_hard_error(self, tmp_path, model_file):
        out = tmp_path / "cmp3"
        code = main(["compare", "--model-file", str(model_file),
                     "--delta", "0.001", "--output-dir", str(out)])
        assert code == 4
        assert not out.exists() or not list(out.iterdir())

    def test_model_file_missing_columns_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad_model.csv"
        bad.write_text("k,foo\n1,2\n")
        out = tmp_path / "cmp4"
        code = main(["compare", "--model-file", str(bad), "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "zumbach_cov, zumbach_asymptotic" in err
        assert not out.exists() or not list(out.iterdir())

    def test_mc_file_missing_column_is_parse_error(self, tmp_path, model_file, capsys):
        bad = tmp_path / "bad_mc.csv"
        bad.write_text("k,estimate\n1,2\n")
        out = tmp_path / "cmp5"
        code = main(["compare", "--model-file", str(model_file), "--mc-file", str(bad),
                     "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "std_error" in err
        assert not out.exists() or not list(out.iterdir())


def read_table(path):
    """The ``#`` line's key=value pairs and the columns of a CSV table, as text."""
    lines = path.read_text().splitlines()
    meta = dict(tok.split("=", 1) for tok in lines.pop(0)[1:].split()) \
        if lines[0].startswith("#") else {}
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return meta, {name: [row[i] for row in rows] for i, name in enumerate(header)}


def as_cell(value):
    """A JSON value as the CSV writes it: floats to 12 significant digits."""
    return f"{value:.12g}" if isinstance(value, float) else str(value)


class TestOutputFiles:
    def test_csv_columns_equal_json_lists(self, tmp_path):
        # every table of model, simulate, empirical and compare in both
        # formats: each CSV cell is its JSON value to 12 significant digits
        # (an empty cell is null), and the # line holds the JSON's leading keys
        csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            assert run(out, ["model", "--k-max", "4", "--compare-h", "--format", fmt]) == 0
            assert run(out, ["simulate", "--paths", "4", "--steps-per-day", "2", "--days", "220",
                             "--seed", "3", "--k-max", "5", "--format", fmt,
                             "--export-empirical", str(out / "panel.csv")]) == 0
            assert run(out, ["empirical", "-i", str(out / "panel.csv"), "--tau-max", "3",
                             "--format", fmt]) == 0
            assert run(out / "cmp", ["compare", "--model-file", str(csv_dir / "model_curve.csv"),
                                     "--mc-file", str(csv_dir / "zumbach_mc.csv"),
                                     "--format", fmt]) == 0
        stems = sorted(p.relative_to(json_dir).with_suffix("") for p in json_dir.rglob("*.json"))
        assert stems == sorted(p.relative_to(csv_dir).with_suffix("")
                               for p in csv_dir.rglob("*.csv") if p.name != "panel.csv")
        assert len(stems) == 9
        for stem in stems:
            meta, cols = read_table(csv_dir / f"{stem}.csv")
            payload = json.loads((json_dir / f"{stem}.json").read_text())
            if stem.name == "moments_mc":  # one [estimate, std_error] pair per quantity
                pairs = [payload[q] for q in cols.pop("quantity")]
                payload = {"estimate": [e for e, _ in pairs], "std_error": [s for _, s in pairs]}
            if stem.name == "model_curve":  # the JSON curve has no tau_years
                del cols["tau_years"]
            assert list(payload)[:len(meta)] == list(meta), stem
            assert [str(payload[key]) for key in meta] == list(meta.values()), stem
            for name, cells in cols.items():
                want = ["" if v is None else as_cell(v) for v in payload[name]]
                assert cells == want, (stem, name)

    def test_one_path_json_is_strict(self, tmp_path):
        # one path has no spread, so its standard errors are inf: CSV writes
        # inf, and JSON null, which strict parsers accept where Infinity fails
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        one_path = ["simulate", "--paths", "1", "--steps-per-day", "2", "--days", "30",
                    "--k-max", "3"]
        assert run(tmp_path, [*one_path, "--format", "json"]) == 0
        assert run(tmp_path, one_path) == 0
        mc = json.loads((tmp_path / "zumbach_mc.json").read_text(), parse_constant=reject)
        moments = json.loads((tmp_path / "moments_mc.json").read_text(), parse_constant=reject)
        assert mc["std_error"] == [None] * 3
        assert mc["var_sigma2_se"] is None and mc["fourth_moment_r_se"] is None
        assert moments["var_sigma2"][1] is None and moments["fourth_moment_r"][1] is None
        _, rows = read_rows(tmp_path / "zumbach_mc.csv")
        assert [r[2] for r in rows] == ["inf"] * 3

    def test_mode_follows_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            assert run(tmp_path, [*SIM_SMALL, "--dump-paths", str(tmp_path / "paths.csv")]) == 0
            assert run(tmp_path, ["model", "--k-max", "2", "--gnuplot"]) == 0
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(["zumbach_mc.csv", "moments_mc.csv", "paths.csv",
                                       "model_curve.csv", "model_curve.gp"], 0o644)


class TestConfigFile:
    def test_config_preloads_defaults(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("k-max = 4\nrho = -0.5\n")
        assert main(["--config", str(cfg), "model",
                     "--output-dir", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "model_curve.csv")
        assert len(rows) == 4

    def test_command_line_wins_over_config(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("k-max = 4\n")
        assert main(["--config", str(cfg), "model", "--k-max", "2",
                     "--output-dir", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "model_curve.csv")
        assert len(rows) == 2

    def test_malformed_config_is_io_error(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("this line has no equals sign\n")
        assert main(["--config", str(cfg), "model",
                     "--output-dir", str(tmp_path)]) == 2


class TestSharedParser:
    """``main`` reuses one parser; no call's options leak into the next."""

    def test_options_do_not_leak_into_the_next_call(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("k-max = 4\nformat = json\ngnuplot = true\n")
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["--config", str(cfg), "model", "--format", "json", "--gnuplot",
                     "--output-dir", str(first)]) == 0
        assert main(["model", "--output-dir", str(second)]) == 0
        assert sorted(f.name for f in first.iterdir()) == ["model_curve.json"]
        assert sorted(f.name for f in second.iterdir()) == ["model_curve.csv"]
        _, rows = read_rows(second / "model_curve.csv")
        assert len(rows) == 10

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_help_is_unchanged(self, capsys):
        expected = build_parser().format_help()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == expected
