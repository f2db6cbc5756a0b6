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
from zlab.cli import main

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

    def test_threads_match_serial(self, tmp_path, synth_csv):
        out_a, out_b = tmp_path / "s", tmp_path / "p"
        assert main(["empirical", "-i", str(synth_csv), "--tau-max", "8",
                     "--output-dir", str(out_a)]) == 0
        assert main(["--threads", "2", "empirical", "-i", str(synth_csv),
                     "--tau-max", "8", "--output-dir", str(out_b)]) == 0
        assert (out_a / "tra_average.csv").read_text() == (out_b / "tra_average.csv").read_text()

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
            buf = io.StringIO()
            emp.tra_to_json(curve, buf)
            assert (out / f"tra_{name}.json").read_text() == buf.getvalue()

    def test_winsorize_flag(self, tmp_path, synth_csv):
        out = tmp_path / "w"
        assert main(["empirical", "-i", str(synth_csv), "--tau-max", "5",
                     "--winsorize", "0.01", "--output-dir", str(out)]) == 0


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


class TestEnvThreads:
    def test_zlab_threads_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZLAB_THREADS", "2")
        from zlab.cli import build_parser

        args = build_parser().parse_args(["model"])
        assert args.threads == 2
        monkeypatch.setenv("ZLAB_THREADS", "not-a-number")
        args = build_parser().parse_args(["model"])
        assert args.threads == 1
