"""Tests for the command-line interface: schemas, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest

from xyzbattery import cli
from xyzbattery.analytics import max_work, work_coefficients
from xyzbattery.charging import ChargingSpec
from xyzbattery.model import SpinParams

FIG1_FLAGS = ["--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--B", "1"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [dict(zip(rows[0], row)) for row in rows[1:]]


class TestSpectrumCommand:
    def test_values_and_residuals(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", *FIG1_FLAGS)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(cli.SPECTRUM_COLUMNS)
        energies = [float(r["E_closed"]) for r in rows]
        assert abs(energies[0] - 0.1) < 1e-12
        assert abs(energies[1] - (-0.3)) < 1e-12
        assert abs(energies[2] - 1.1049876) < 1e-6
        assert abs(energies[3] - (-0.9049876)) < 1e-6
        for r in rows:
            assert float(r["vector_residual"]) < 1e-10
            assert abs(float(r["E_closed"]) - float(r["E_numeric"])) < 1e-10

    def test_isotropic_bell_point(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--J", "1", "--Jz", "1",
                               "--gamma", "0", "--B", "0")
        assert code == 0
        _, rows = parse_csv(out)
        for r in rows:
            assert float(r["vector_residual"]) < 1e-10

    def test_missing_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--J", "0.2")
        assert code == 2
        assert "--Jz" in err and "--gamma" in err and "--B" in err

    def test_non_numeric_value_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--J", "abc")
        assert code == 2


class TestGibbsCommand:
    def test_closed_matches_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "gibbs", *FIG1_FLAGS)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 16
        for r in rows:
            assert abs(float(r["re_closed"]) - float(r["re_oracle"])) < 1e-12
            assert abs(float(r["im_closed"]) - float(r["im_oracle"])) < 1e-12

    def test_general_beta_uses_oracle_only(self, capsys):
        code, out, _ = run_cli(capsys, "gibbs", *FIG1_FLAGS, "--beta", "2")
        assert code == 0
        _, rows = parse_csv(out)
        trace = sum(float(r["re_oracle"]) for r in rows if r["row"] == r["col"])
        assert abs(trace - 1.0) < 1e-12
        assert all(math.isnan(float(r["re_closed"])) for r in rows)


class TestWorkCommand:
    def test_spot_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "work", *FIG1_FLAGS, "--omega", "1",
            "--t-max", format(2.0 * math.pi, ".17g"), "--samples", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(cli.WORK_COLUMNS)
        assert rows[0]["W_closed"] == "0" and rows[0]["W_oracle"] == "0"
        assert abs(float(rows[1]["t"]) - math.pi) < 1e-12
        assert abs(float(rows[1]["W_closed"]) - 3.369) < 0.001
        assert abs(float(rows[1]["W_oracle"]) - 0.8423) < 0.001
        assert rows[0]["mode"] == "charging-only"

    def test_rejects_single_sample(self, capsys):
        code, _, _ = run_cli(capsys, "work", *FIG1_FLAGS, "--samples", "1")
        assert code == 2

    def test_rejects_general_beta(self, capsys):
        code, _, _ = run_cli(capsys, "work", *FIG1_FLAGS, "--beta", "2")
        assert code == 2


class TestCoeffsCommand:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", *FIG1_FLAGS)
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert abs(float(row["a"]) - 1.6845720536056897) < 1e-12
        assert abs(float(row["b"]) - 0.28290120936370197) < 1e-12
        assert abs(float(row["x"]) - 1.4886575223508315) < 1e-12
        assert row["branch"] == "max1"


class TestMaxworkCommand:
    def test_single_peak_branch(self, capsys):
        code, out, _ = run_cli(capsys, "maxwork", *FIG1_FLAGS, "--omega", "1")
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["branch"] == "max1"
        assert abs(float(row["w_max"]) - 3.369) < 0.001
        assert abs(float(row["t_peak_1"]) - math.pi) < 1e-12
        assert abs(float(row["asymptote_8B"]) - 8.0) < 1e-15

    def test_double_peak_branch(self, capsys):
        code, out, _ = run_cli(capsys, "maxwork", "--J", "0.2", "--Jz", "0.2",
                               "--gamma", "0.5", "--B", "0", "--omega", "1")
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["branch"] == "max2"
        assert abs(float(row["t_peak_1"]) - math.pi / 2.0) < 1e-12
        assert abs(float(row["t_peak_2"]) - 3.0 * math.pi / 2.0) < 1e-12
        assert abs(float(row["delta_phi"]) - math.pi) < 1e-12
        assert abs(float(row["delta_t"]) - math.pi) < 1e-12

    def test_flat_marker(self, capsys):
        code, out, _ = run_cli(capsys, "maxwork", "--J", "0", "--Jz", "0",
                               "--gamma", "0", "--B", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["branch"] == "flat"
        assert math.isnan(float(rows[0]["w_max"]))


class TestSweepCommand:
    def test_field_sweep_reaches_linear_regime(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "B", "--start", "10", "--stop", "50",
            "--steps", "41", "--quantity", "w_max_printed",
            "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--jobs", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(cli.SWEEP_COLUMNS)
        assert len(rows) == 41
        w = [float(r["w_max"]) for r in rows]
        assert all(lo < hi for lo, hi in zip(w, w[1:]))
        assert abs(w[-1] / 400.0 - 1.0) < 0.01

    def test_anisotropy_is_insignificant_at_high_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "gamma", "--start", "-1", "--stop", "1",
            "--steps", "21", "--quantity", "w_max_printed",
            "--J", "0.2", "--Jz", "0.2", "--B", "10", "--jobs", "1")
        assert code == 0
        _, rows = parse_csv(out)
        w = [float(r["w_max"]) for r in rows]
        assert (max(w) - min(w)) / max(w) < 0.02

    def test_oracle_peak_quantity(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "B", "--start", "0.5", "--stop", "1",
            "--steps", "2", "--quantity", "w_series_peak_oracle",
            "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--jobs", "1")
        assert code == 0
        _, rows = parse_csv(out)
        # frozen: 50-digit 2*B^2*sinh(eta)/d at the B=1 grid point
        assert abs(float(rows[1]["w_max"]) - 0.84228602680284486539) < 1e-9

    def test_rows_reproduce_through_the_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "B", "--start", "1", "--stop", "3",
            "--steps", "3", "--quantity", "w_max_printed",
            "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--jobs", "1")
        assert code == 0
        _, rows = parse_csv(out)
        for r in rows:
            p = SpinParams(J=float(r["J"]), Jz=float(r["Jz"]),
                           gamma=float(r["gamma"]), B=float(r["B"]))
            c = work_coefficients(p)
            assert abs(c.a - float(r["a"])) < 1e-12
            assert abs(c.b - float(r["b"])) < 1e-12
            ext = max_work(c, float(r["omega"]))
            assert abs(ext.w_max - float(r["w_max"])) < 1e-12

    def test_single_step_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--axis", "B", "--start", "10", "--stop", "50",
            "--steps", "1", "--quantity", "w_max_printed",
            "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5")
        assert code == 2

    def test_unknown_axis_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--axis", "theta", "--start", "0", "--stop", "1",
            "--steps", "3", "--quantity", "w_max_printed", *FIG1_FLAGS)
        assert code == 2

    def test_unknown_quantity_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--axis", "B", "--start", "0", "--stop", "1",
            "--steps", "3", "--quantity", "power", *FIG1_FLAGS)
        assert code == 2

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_nonpositive_jobs_rejected(self, capsys, jobs):
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "B", "--start", "1", "--stop", "5",
            "--steps", "3", "--quantity", "w_max_printed",
            "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--jobs" in err

    def test_parallel_matches_serial(self, capsys):
        args = ("sweep", "--axis", "B", "--start", "1", "--stop", "5",
                "--steps", "9", "--quantity", "w_max_printed",
                "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5")
        code1, out1, _ = run_cli(capsys, *args, "--jobs", "1")
        code2, out2, _ = run_cli(capsys, *args, "--jobs", "4")
        assert code1 == code2 == 0
        assert out1 == out2


class TestFigureCommand:
    def test_figure1_bundle_is_deterministic(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "figure", "1", "--out", str(out_a))[0] == 0
        assert run_cli(capsys, "figure", "1", "--out", str(out_b))[0] == 0
        names = sorted(f.name for f in out_a.glob("*.csv"))
        assert names == ["figure1_omega0.3.csv", "figure1_omega0.7.csv",
                         "figure1_omega1.csv"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        manifest = json.loads((out_a / "figure1_manifest.json").read_text())
        assert manifest["parameters"]["B"] == 1.0
        assert manifest["tool_version"]

    def test_figure1_peaks_and_periodicity(self, capsys, tmp_path):
        run_cli(capsys, "figure", "1", "--out", str(tmp_path))
        for omega in ("1", "0.7", "0.3"):
            _, rows = parse_csv((tmp_path / f"figure1_omega{omega}.csv").read_text())
            w_closed = [float(r["W_closed"]) for r in rows]
            assert abs(max(w_closed) - 3.369) < 0.001
        # the omega = 0.3 series repeats after 2*pi/0.3 within grid resolution
        _, rows = parse_csv((tmp_path / "figure1_omega0.3.csv").read_text())
        t = np.array([float(r["t"]) for r in rows])
        w = np.array([float(r["W_oracle"]) for r in rows])
        half = (len(rows) - 1) // 2  # t_max is exactly two periods
        assert abs(t[half] - 2.0 * math.pi / 0.3) < 1e-9
        assert np.max(np.abs(w[: half + 1] - w[half:])) < 1e-9

    def test_figure3_requires_explicit_parameters(self, capsys):
        code, _, err = run_cli(capsys, "figure", "3")
        assert code == 2
        for flag in ("--J", "--Jz", "--gamma", "--omega", "--B-values"):
            assert flag in err

    def test_figure3_emits_one_curve_per_field(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "figure", "3", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5",
            "--omega", "1", "--B-values", "0.5,1", "--samples", "65",
            "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "figure3_B0.5.csv").exists()
        assert (tmp_path / "figure3_B1.csv").exists()

    def test_figure4_sweeps_anisotropy_per_field(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "figure", "4", "--J", "0.2", "--Jz", "0.2",
            "--B-values", "0.05,10", "--steps", "11", "--out", str(tmp_path))
        assert code == 0
        _, rows_low = parse_csv((tmp_path / "figure4_B0.05.csv").read_text())
        _, rows_high = parse_csv((tmp_path / "figure4_B10.csv").read_text())
        assert {r["branch"] for r in rows_high} == {"max1"}
        spread_high = np.ptp([float(r["w_max"]) for r in rows_high])
        assert spread_high / 80.0 < 0.02

    def test_figure5_slope_approaches_eight(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "figure", "5", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5",
            "--B-start", "10", "--B-stop", "60", "--steps", "6",
            "--out", str(tmp_path))
        assert code == 0
        _, rows = parse_csv((tmp_path / "figure5.csv").read_text())
        b = [float(r["value"]) for r in rows]
        w = [float(r["w_max"]) for r in rows]
        slope = (w[-1] - w[-2]) / (b[-1] - b[-2])
        assert abs(slope - 8.0) < 0.16

    def test_figure5_requires_range(self, capsys):
        code, _, err = run_cli(capsys, "figure", "5", "--J", "0.2", "--Jz", "0.2",
                               "--gamma", "0.5")
        assert code == 2
        assert "--B-start" in err and "--B-stop" in err

    def test_unknown_figure_id_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "figure", "2")
        assert code == 2


class TestReportCommand:
    def test_round_trips_its_own_csv(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "report", *FIG1_FLAGS, "--omega", "1",
                               "--out", str(out_file))
        assert code == 0
        assert out_file.read_text() == out
        header, rows = parse_csv(out_file.read_text())
        assert header == list(cli.REPORT_COLUMNS)
        assert [r["mode"] for r in rows] == ["charging-only", "full"]
        drive = rows[0]
        assert abs(float(drive["ratio_a"]) - 4.0) < 1e-6
        assert float(drive["residual"]) < 1e-9
        assert abs(float(drive["w_half_period_oracle"]) - 0.8423) < 0.0005
        assert abs(float(drive["w_half_period_closed"]) - 3.369) < 0.001
        manifest = json.loads(
            (tmp_path / "report.csv.manifest.json").read_text())
        assert manifest["command"] == "report"
        assert manifest["parameters"]["J"] == 0.2


class TestConfigAndFormats:
    def test_config_file_supplies_parameters(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"J": 0.2, "Jz": 0.2, "gamma": 0.5, "B": 1.0}))
        code, out, _ = run_cli(capsys, "coeffs", "--config", str(config))
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["a"]) - 1.6845720536056897) < 1e-12

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"J": 0.2, "Jz": 0.2, "gamma": 0.5, "B": 1.0}))
        code, out, _ = run_cli(capsys, "coeffs", "--config", str(config),
                               "--B", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["a"]) == 0.0

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"J": 0.2, "voltage": 12}))
        code, _, err = run_cli(capsys, "coeffs", "--config", str(config))
        assert code == 2
        assert "voltage" in err

    @pytest.mark.parametrize("argv, config", [
        (("coeffs", *FIG1_FLAGS[2:]), {"J": [1]}),
        (("coeffs", *FIG1_FLAGS[2:]), {"J": True}),
        (("coeffs", *FIG1_FLAGS), {"format": "xml"}),
        (("work", *FIG1_FLAGS), {"samples": 2.7}),
    ], ids=["list-for-number", "bool-for-number", "format-choice", "float-for-int"])
    def test_config_values_parse_like_their_flags(self, capsys, tmp_path, argv, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 2
        assert out == ""
        assert "--" + next(iter(config)) in err

    def test_config_list_as_text_matches_flag(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"omegas": "1,0.5"}))
        code_config, _, _ = run_cli(capsys, "figure", "1", "--samples", "17",
                                    "--config", str(path), "--out", str(tmp_path / "a"))
        code_flag, _, _ = run_cli(capsys, "figure", "1", "--samples", "17",
                                  "--omegas", "1,0.5", "--out", str(tmp_path / "b"))
        assert code_config == code_flag == 0
        names = sorted(f.name for f in (tmp_path / "b").glob("*.csv"))
        assert names == ["figure1_omega0.5.csv", "figure1_omega1.csv"]
        for name in names:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_config_shared_by_commands_skips_unread_keys(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(
            {"J": 0.2, "Jz": 0.2, "gamma": 0.5, "B": 1.0, "samples": 33, "omega": 2}))
        code, out, _ = run_cli(capsys, "coeffs", "--config", str(path))
        assert code == 0
        assert out == run_cli(capsys, "coeffs", *FIG1_FLAGS)[1]

    def test_flags_override_config_list(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"B_values": [0.5, 1]}))
        code, _, _ = run_cli(
            capsys, "figure", "3", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5",
            "--omega", "1", "--samples", "9", "--config", str(path),
            "--B-values", "2", "--out", str(tmp_path / "fig"))
        assert code == 0
        assert sorted(f.name for f in (tmp_path / "fig").glob("*.csv")) == ["figure3_B2.csv"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", *FIG1_FLAGS,
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == list(cli.COEFFS_COLUMNS)
        assert abs(payload["rows"][0][0] - 1.6845720536056897) < 1e-12


class TestUnreadFlags:
    @pytest.mark.parametrize("argv, flag", [
        (("report", *FIG1_FLAGS, "--samples", "5"), "--samples"),
        (("coeffs", *FIG1_FLAGS, "--mode", "full"), "--mode"),
        (("spectrum", *FIG1_FLAGS, "--omega", "2"), "--omega"),
        (("maxwork", *FIG1_FLAGS, "--samples", "3"), "--samples"),
        (("work", *FIG1_FLAGS, "--samples", "5", "--jobs", "2"), "--jobs"),
        (("figure", "3", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--omega", "1",
          "--B-values", "1", "--samples", "9", "--B", "2"), "--B"),
        (("figure", "5", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--B-start", "1",
          "--B-stop", "2", "--steps", "2", "--omegas", "1"), "--omegas"),
    ], ids=["report-samples", "coeffs-mode", "spectrum-omega", "maxwork-samples",
            "work-jobs", "figure3-B", "figure5-omegas"])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, tmp_path,
                                                     argv, flag):
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 2
        assert out == ""
        assert flag in err.replace(",", " ").replace(";", " ").split()
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_internal_error_exits_1(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "max_work", boom)
        code, _, err = run_cli(capsys, "maxwork", *FIG1_FLAGS)
        assert code == 1
        assert "internal error" in err

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
