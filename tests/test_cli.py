"""Tests for the command-line interface: schemas, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import two_harmonic_extremes
from xyzbattery import cli
from xyzbattery.analytics import dynamics_coefficients, max_work, oracle_peak, work_coefficients
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

    def test_huge_beta_weights_underflow_quietly(self, capsys):
        code, out, err = run_cli(capsys, "gibbs", *FIG1_FLAGS, "--beta", "1e308")
        assert code == 0
        assert err == ""
        _, rows = parse_csv(out)
        trace = sum(float(r["re_oracle"]) for r in rows if r["row"] == r["col"])
        assert abs(trace - 1.0) < 1e-12


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


class TestSweepUnreadFlags:
    """A sweep reads neither its axis's own flag nor --mode for a closed form."""

    SWEEP = ("sweep", "--start", "1", "--stop", "3", "--steps", "3",
             "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--jobs", "1")

    @pytest.mark.parametrize("argv, flag", [
        (("--axis", "B", "--quantity", "w_max_printed", "--B", "7"), "--B"),
        (("--axis", "omega", "--quantity", "w_series_peak_oracle", "--B", "1",
          "--omega", "2"), "--omega"),
        (("--axis", "B", "--quantity", "w_max_printed", "--mode", "full"), "--mode"),
        (("--axis", "gamma", "--quantity", "coefficients", "--B", "1",
          "--mode", "charging-only"), "--mode"),
    ], ids=["axis-B", "axis-omega", "w_max_printed-mode", "coefficients-mode"])
    def test_flag_the_sweep_does_not_read_exits_2(self, capsys, tmp_path, argv, flag):
        code, out, err = run_cli(capsys, *self.SWEEP, *argv,
                                 "--out", str(tmp_path / "out"))
        assert code == 2
        assert out == ""
        assert flag in err.replace(",", " ").replace(";", " ").split()
        assert not (tmp_path / "out").exists()

    def test_oracle_quantity_reads_mode(self, capsys):
        code, out, _ = run_cli(capsys, *self.SWEEP, "--axis", "B", "--quantity",
                               "w_series_peak_oracle", "--mode", "full")
        assert code == 0
        assert len(parse_csv(out)[1]) == 3

    def test_config_keys_the_sweep_does_not_read_are_skipped(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"axis": "B", "quantity": "w_max_printed",
                                    "B": 7, "mode": "full"}))
        code, out, _ = run_cli(capsys, *self.SWEEP, "--config", str(path))
        assert code == 0
        assert out == run_cli(capsys, *self.SWEEP, "--axis", "B",
                              "--quantity", "w_max_printed")[1]

    def test_axis_from_config_rejects_its_explicit_flag(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"axis": "B", "quantity": "w_max_printed"}))
        code, out, err = run_cli(capsys, *self.SWEEP, "--config", str(path),
                                 "--B", "7")
        assert code == 2
        assert out == ""
        assert "--B" in err.replace(",", " ").replace(";", " ").split()


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


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestOverflowExits2:
    """Fields or couplings too large for the closed forms are bad input."""

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--B", "800"),
        ("work", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--B", "800"),
        ("report", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--B", "800"),
        ("maxwork", "--J", "0.2", "--Jz", "800", "--gamma", "0.5", "--B", "1"),
        ("gibbs", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--B", "1500"),
        ("gibbs", "--J", "0.2", "--Jz", "-10", "--gamma", "0.5", "--B", "709"),
        ("sweep", "--axis", "B", "--start", "0", "--stop", "1000", "--steps", "11",
         "--quantity", "w_max_printed", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5"),
        ("spectrum", "--J", "1e300", "--Jz", "1e300", "--gamma", "1", "--B", "1e300"),
        ("coeffs", "--J", "0", "--Jz", "700", "--gamma", "0", "--B", "700"),
        ("spectrum", "--J", "1e308", "--Jz", "1e308", "--gamma", "1", "--B", "1e308"),
        ("spectrum", "--J", "1e-11", "--Jz", "0", "--gamma", "1", "--B", "1e300"),
        ("spectrum", "--J", "1e-11", "--Jz", "0", "--gamma", "1", "--B", "1e150"),
        ("work", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--B", "1",
         "--t-max", "1e308", "--samples", "3"),
        ("figure", "1", "--t-max", "1e308", "--samples", "3"),
        ("work", "--J", "0.2", "--Jz", "500", "--gamma", "0.5", "--B", "1",
         "--mode", "full", "--t-max", "1e306", "--samples", "3"),
    ], ids=["coeffs-B", "work-B", "report-B", "maxwork-Jz", "gibbs-B", "gibbs-product",
            "sweep-B", "spectrum-residual", "coeffs-b1", "spectrum-energies",
            "spectrum-ratio", "spectrum-zero-vector", "work-t_max", "figure1-t_max",
            "work-full-t_max"])
    def test_overflow_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflowed" in err


class TestStrictJson:
    @pytest.mark.parametrize("argv, column", [
        (("maxwork", "--J", "0", "--Jz", "0", "--gamma", "0", "--B", "0"), "w_max"),
        (("coeffs", "--J", "0", "--Jz", "0", "--gamma", "0", "--B", "1"), "x"),
    ], ids=["maxwork-flat", "coeffs-b-zero"])
    def test_non_finite_values_are_null(self, capsys, argv, column):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out, parse_constant=_reject_constant)
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row[column] is None
        csv_row = parse_csv(run_cli(capsys, *argv)[1])[1][0]
        assert csv_row[column] == "nan"


_EDGE_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-310, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0])


def _reference_csv(columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


class TestRenderer:
    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.floats(), _EDGE_FLOATS), min_size=n, max_size=n),
        min_size=1, max_size=5)))
    def test_float_arrays_match_csv_writer(self, columns):
        names = [f"c{i}" for i in range(len(columns))]
        expected = _reference_csv(names, [[format(float(v), ".17g") for v in row]
                                          for row in zip(*columns)])
        assert cli._render_csv(names, [np.array(c) for c in columns]) == expected

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n),
        st.lists(st.one_of(st.none(), st.floats()), min_size=n, max_size=n),
        st.lists(st.text(st.characters(min_codepoint=9, max_codepoint=0x2FF)),
                 min_size=n, max_size=n),
        st.floats(),
        st.text(st.characters(min_codepoint=9, max_codepoint=0x2FF)))))
    def test_mixed_columns_read_back(self, drawn):
        ints, optional, texts, value, label = drawn
        body = cli._render_csv(["i", "f", "s", "v", "l"],
                               [ints, optional, texts, value, label])
        rows = list(csv.reader(io.StringIO(body, newline="")))
        assert rows[0] == ["i", "f", "s", "v", "l"]
        assert rows[1:] == [
            [str(i), "nan" if f is None else format(f, ".17g"), s,
             format(value, ".17g"), label]
            for i, f, s in zip(ints, optional, texts)]

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.floats(), _EDGE_FLOATS), min_size=n, max_size=n),
        min_size=1, max_size=5)))
    def test_float_lists_print_the_float_array_bytes(self, columns):
        names = [f"c{i}" for i in range(len(columns))]
        arrays = [np.array(c, dtype=float) for c in columns]
        assert cli._render_csv(names, columns) == cli._render_csv(names, arrays)

    def test_single_values_make_one_row(self):
        assert cli._render_csv(["a", "b"], [1.5, "x"]) == "a,b\n1.5,x\n"

    def test_unequal_columns_are_a_bug(self):
        with pytest.raises(RuntimeError):
            cli._render_csv(["a", "b"], [[1, 2], np.zeros(3)])

    def test_flat_row_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "maxwork", "--J", "0", "--Jz", "0",
                               "--gamma", "0", "--B", "0")
        assert code == 0
        assert out == (
            "branch,w_max,w_m,t_peak_1,t_peak_2,delta_phi,delta_t,delta_t_mixed,"
            "asymptote_8B,a,b,x,J,Jz,gamma,B,beta,omega\n"
            "flat,nan,nan,nan,nan,nan,nan,nan,nan,0,0,nan,0,0,0,0,1,1\n")


def _readme_examples():
    """(comment above, argv) for every `xyzbattery ...` line in README's sh blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        comment = ""
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line.startswith("#"):
                comment = line
            elif line.startswith("xyzbattery "):
                examples.append((comment, shlex.split(line)[1:]))
    return examples


def _example_name(argv):
    return " ".join(argv[:2]) if argv[0] == "figure" else argv[0]


_HEADERS = {"spectrum": cli.SPECTRUM_COLUMNS, "gibbs": cli.GIBBS_COLUMNS,
            "work": cli.WORK_COLUMNS, "coeffs": cli.COEFFS_COLUMNS,
            "maxwork": cli.MAXWORK_COLUMNS, "sweep": cli.SWEEP_COLUMNS,
            "report": cli.REPORT_COLUMNS, "figure 1": cli.WORK_COLUMNS,
            "figure 3": cli.WORK_COLUMNS, "figure 4": cli.SWEEP_COLUMNS,
            "figure 5": cli.SWEEP_COLUMNS}


class TestReadmeExamples:
    def test_every_example_is_collected(self):
        commands = {argv[0] for _, argv in _readme_examples()}
        assert commands == set(cli.COMMANDS)

    @pytest.mark.parametrize("comment, argv", [
        pytest.param(comment, argv, id=_example_name(argv))
        for comment, argv in _readme_examples()])
    def test_example_runs_with_its_header(self, capsys, tmp_path, comment, argv):
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv = argv[:at] + [str(tmp_path / argv[at])] + argv[at + 1:]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        header = ",".join(_HEADERS[_example_name(argv)])
        documented = re.search(r"\(columns: ([^)]*)\)", comment)
        if documented:
            assert documented.group(1) == header
        if argv[0] == "figure":
            data_files = [Path(line) for line in out.splitlines()
                          if not line.endswith("manifest.json")]
            assert data_files
            bodies = [f.read_text(encoding="utf-8") for f in data_files]
        else:
            bodies = [out]
        for body in bodies:
            assert body.splitlines()[0] == header


_PARAMS = {"J", "Jz", "gamma", "B", "beta"}
_SWEEP_READS = {"axis", "start", "stop", "steps", "quantity", "jobs"}
_SWEEP_RANGE = ("--start", "1", "--stop", "3", "--steps", "3")


class TestManifests:
    """A manifest echoes every flag the invocation reads but --out, --format
    and --config, defaults and the computed t_max included."""

    @pytest.mark.parametrize("argv, keys, values", [
        (("spectrum", *FIG1_FLAGS), _PARAMS, {"beta": 1.0}),
        (("gibbs", *FIG1_FLAGS, "--beta", "2"), _PARAMS, {"beta": 2.0}),
        (("coeffs", *FIG1_FLAGS), _PARAMS, {"J": 0.2, "B": 1.0}),
        (("work", *FIG1_FLAGS, "--omega", "2"),
         _PARAMS | {"omega", "t_max", "samples", "mode"},
         {"samples": 201, "t_max": 2.0 * math.pi / 2.0, "mode": "charging-only"}),
        (("maxwork", *FIG1_FLAGS), _PARAMS | {"omega"}, {"omega": 1.0}),
        (("report", *FIG1_FLAGS), _PARAMS | {"omega"}, {"omega": 1.0}),
        (("sweep", "--axis", "B", "--quantity", "w_max_printed", *_SWEEP_RANGE,
          *FIG1_FLAGS[:6]),
         _PARAMS - {"B"} | {"omega"} | _SWEEP_READS, {"jobs": 1, "axis": "B"}),
        (("sweep", "--axis", "omega", "--quantity", "w_series_peak_oracle",
          *_SWEEP_RANGE, *FIG1_FLAGS),
         _PARAMS | {"mode"} | _SWEEP_READS, {"mode": "charging-only", "start": 1.0}),
        (("sweep", "--axis", "gamma", "--quantity", "coefficients", *_SWEEP_RANGE,
          "--J", "0.2", "--Jz", "0.2", "--B", "1", "--jobs", "2"),
         _PARAMS - {"gamma"} | {"omega"} | _SWEEP_READS, {"jobs": 2, "steps": 3}),
        (("figure", "1", "--samples", "17"),
         _PARAMS | {"omegas", "t_max", "samples", "mode"},
         {"J": 0.2, "Jz": 0.2, "gamma": 0.5, "B": 1.0, "beta": 1.0,
          "omegas": [1.0, 0.7, 0.3], "t_max": 4.0 * math.pi / 0.3, "samples": 17}),
        (("figure", "3", *FIG1_FLAGS[:6], "--omega", "2", "--B-values", "1",
          "--samples", "9"),
         _PARAMS - {"B"} | {"omega", "B_values", "t_max", "samples", "mode"},
         {"t_max": 4.0 * math.pi / 2.0, "B_values": [1.0], "mode": "charging-only"}),
        (("figure", "4", "--J", "0.2", "--Jz", "0.2", "--B-values", "1", "--steps", "3"),
         {"J", "Jz", "beta", "omega", "B_values", "gamma_start", "gamma_stop", "steps"},
         {"beta": 1.0, "omega": 1.0, "gamma_start": -1.0, "gamma_stop": 1.0}),
        (("figure", "5", *FIG1_FLAGS[:6], "--B-start", "1", "--B-stop", "2"),
         {"J", "Jz", "gamma", "beta", "omega", "B_start", "B_stop", "steps"},
         {"beta": 1.0, "steps": 101}),
    ], ids=["spectrum", "gibbs", "coeffs", "work", "maxwork", "report", "sweep-B",
            "sweep-omega", "sweep-coefficients", "figure1", "figure3", "figure4",
            "figure5"])
    def test_parameters_are_the_flags_read(self, capsys, tmp_path, argv, keys, values):
        out = tmp_path / "out"
        if argv[0] == "figure":
            manifest_path = out / f"figure{argv[1]}_manifest.json"
        else:
            out, manifest_path = out / "body.csv", out / "body.csv.manifest.json"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0, err
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == " ".join(argv[:2] if argv[0] == "figure" else argv[:1])
        assert set(manifest["parameters"]) == keys
        for key, value in values.items():
            assert manifest["parameters"][key] == value


# each invocation's required flags, as flag/value pairs of a valid argv
_REQUIRED = [
    *[((command,), FIG1_FLAGS) for command in ("spectrum", "gibbs", "coeffs", "work",
                                               "maxwork", "report")],
    (("sweep", "--jobs", "1"),
     ["--axis", "B", "--quantity", "w_max_printed", "--start", "1", "--stop", "3",
      "--steps", "3", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5"]),
    (("figure", "3", "--samples", "9"),
     ["--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--omega", "1", "--B-values", "1"]),
    (("figure", "4", "--steps", "3"), ["--J", "0.2", "--Jz", "0.2", "--B-values", "1"]),
    (("figure", "5", "--steps", "3"),
     ["--J", "0.2", "--Jz", "0.2", "--gamma", "0.5", "--B-start", "1", "--B-stop", "2"]),
]


def _without(pairs, flag):
    at = pairs.index(flag)
    return pairs[:at] + pairs[at + 2:]


class TestRequiredFlags:
    @pytest.mark.parametrize("base, pairs, flag", [
        pytest.param(base, pairs, flag, id=f"{_example_name(base)} {flag}")
        for base, pairs in _REQUIRED for flag in pairs[::2]])
    def test_each_missing_flag_exits_2(self, capsys, tmp_path, base, pairs, flag):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *base, *_without(pairs, flag), "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert "requires explicit values for:" in err
        assert flag in err.replace(",", " ").split()
        assert not out.exists()

    @pytest.mark.parametrize("base, pairs", _REQUIRED,
                             ids=[_example_name(base) for base, _ in _REQUIRED])
    def test_no_other_flag_is_required(self, capsys, tmp_path, base, pairs):
        code, stdout, err = run_cli(capsys, *base, *pairs, "--out", str(tmp_path / "o"))
        assert code == 0, err
        code, stdout, err = run_cli(capsys, *base)
        assert code == 2 and stdout == ""
        named = err.split("requires explicit values for: ", 1)[1].rstrip("\n").split(", ")
        # with no --axis, a sweep reads the flag of every axis
        assert set(named) == set(pairs[::2]) | ({"--B"} if base[0] == "sweep" else set())

    def test_figure1_needs_no_flag(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "figure", "1", "--samples", "9",
                               "--out", str(tmp_path))
        assert code == 0, err


def _readme_defaults():
    """invocation -> {flag: text} from the README's table of defaults."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Defaults, required flags and manifests", 1)[1]
    table = {}
    for line in section.split("\n\n")[2].splitlines()[2:]:
        name, defaults = (cell.strip() for cell in line.strip("|").split("|"))
        table[name.strip("`")] = dict(cell.strip("`").split(" ", 1)
                                      for cell in defaults.split(", "))
    return table


class TestReadmeDefaults:
    def test_table_matches_the_command_table(self):
        entries = {name: entry for name, entry in cli.COMMANDS.items() if name != "figure"}
        entries.update({f"figure {i}": entry for i, entry in cli.FIGURES.items()})
        documented = _readme_defaults()
        assert set(documented) == set(entries)
        for name, entry in entries.items():
            flags = documented[name]
            assert set(flags) == {cli._flag(k) for k in entry.defaults}, name
            for dest, default in entry.defaults.items():
                parse = cli.FLAGS[dest].get("type", str)
                assert parse(flags[cli._flag(dest)]) == default, (name, dest)


_RANGES = {
    "sweep": (("sweep", "--axis", "B", "--quantity", "w_max_printed", "--J", "0.2",
               "--Jz", "0.2", "--gamma", "0.5"), "start", "stop"),
    "figure4": (("figure", "4", "--J", "0.2", "--Jz", "0.2", "--B-values", "1"),
                "gamma_start", "gamma_stop"),
    "figure5": (("figure", "5", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5"),
                "B_start", "B_stop"),
}


class TestRangeRule:
    """sweep and figures 4 and 5 take finite ends, start < stop and --steps >= 2."""

    @pytest.mark.parametrize("name", list(_RANGES))
    @pytest.mark.parametrize("start, stop", [
        ("2", "1"), ("1", "1"), ("nan", "1"), ("1", "inf"), ("-inf", "1"),
        ("-1.7e308", "1.7e308"),
    ], ids=["reversed", "equal", "nan", "inf", "minus-inf", "overflowing-span"])
    def test_bad_range_exits_2(self, capsys, tmp_path, name, start, stop):
        base, lo, hi = _RANGES[name]
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *base, "--steps", "3", f"{cli._flag(lo)}={start}",
                                    f"{cli._flag(hi)}={stop}", "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert err.startswith(f"error: need finite {cli._flag(lo)} < {cli._flag(hi)}")

    @pytest.mark.parametrize("name", list(_RANGES))
    def test_single_step_exits_2(self, capsys, tmp_path, name):
        base, lo, hi = _RANGES[name]
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *base, "--steps", "1", f"{cli._flag(lo)}=1",
                                    f"{cli._flag(hi)}=2", "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert err.startswith("error: --steps must be >= 2")


_LARGEST = 1.7976931348623157e308
# ends a few hundred subnormal steps apart: delta / (steps - 1) often rounds to 0
_SUBNORMAL_SPANS = st.tuples(st.integers(-2**30, 2**30), st.integers(1, 400)).map(
    lambda ak: (ak[0] * 5e-324, (ak[0] + ak[1]) * 5e-324))
# ends near the largest float, of either sign, with a span that may just fit
_HUGE_SPANS = st.tuples(st.floats(-_LARGEST, _LARGEST), st.floats(1e307, _LARGEST)).map(
    lambda pair: (pair[0], pair[0] + pair[1] if pair[0] < 0 else pair[0] - pair[1])).map(
    sorted)
_ANY_SPANS = st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(allow_nan=False, allow_infinity=False)).map(sorted)


class TestGridIsLinspace:
    """_grid, which builds sweep and figure ranges, is numpy.linspace to the bit."""

    @settings(derandomize=True, deadline=None, max_examples=600, database=None)
    @given(st.one_of(_ANY_SPANS, _SUBNORMAL_SPANS, _HUGE_SPANS), st.integers(2, 200))
    @example((0.0, 5e-324), 3)
    @example((-8e307, 9e307), 200)
    @example((-1.0, 1.0), 101)
    def test_grid_matches_linspace(self, ends, steps):
        lo, hi = ends
        assume(lo < hi and math.isfinite(hi - lo))
        grid = cli._grid(argparse.Namespace(lo=lo, hi=hi, steps=steps), "lo", "hi")
        # linspace computes the last point as well before it sets it to stop,
        # and near the largest float that product overflows
        with np.errstate(over="ignore"):
            expected = np.linspace(lo, hi, steps)
        assert list(map(float.hex, grid)) == [float.hex(float(v)) for v in expected]


class TestLibraryChecksExit2:
    """Inputs that only the library rejects still exit 2 and write nothing."""

    @pytest.mark.parametrize("argv", [
        ("work", *FIG1_FLAGS, "--samples", "1"),
        ("work", *FIG1_FLAGS, "--t-max", "0"),
        ("work", *FIG1_FLAGS, "--t-max=-1"),
        (*_RANGES["sweep"][0], "--start", "1", "--stop", "2", "--steps", "3",
         "--beta", "2"),
        ("maxwork", *FIG1_FLAGS, "--omega", "1e-320"),
        (*_RANGES["sweep"][0], "--start", "1", "--stop", "2", "--steps", "3",
         "--omega", "1e-320"),
    ], ids=["work-samples", "work-t-max-zero", "work-t-max-negative", "sweep-beta",
            "maxwork-subnormal-drive", "sweep-subnormal-drive"])
    def test_exits_2_without_output(self, capsys, tmp_path, argv):
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert err.startswith("error:")
        if "1e-320" in argv:
            assert "finite period" in err


class TestOracleSweepWithoutClosedForm:
    """The oracle sweep needs no closed form: where the coefficients are
    undefined (beta != 1) or overflow, its closed-form cells read nan and
    every row still prints the oracle's peak."""

    @pytest.mark.parametrize("flags, beta", [
        (("--axis", "B", *FIG1_FLAGS[:6], "--start", "1", "--stop", "2", "--steps", "3",
          "--beta", "2"), 2.0),
        (("--axis", "omega", "--start", "1", "--stop", "2", "--steps", "3",
          "--J", "449.67", "--Jz", "-1", "--gamma", "-5.92", "--B", "-1"), 1.0),
    ], ids=["sweep-oracle-beta", "sweep-oracle-coefficient-overflow"])
    def test_nan_closed_form_cells(self, capsys, flags, beta):
        code, out, err = run_cli(capsys, "sweep", "--quantity", "w_series_peak_oracle",
                                 *flags)
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert len(rows) == 3
        for r in rows:
            assert [r[k] for k in ("branch", "w_m", "a", "b", "x")] == ["nan"] * 5
            p = SpinParams(J=float(r["J"]), Jz=float(r["Jz"]), gamma=float(r["gamma"]),
                           B=float(r["B"]), beta=beta)
            assert float(r["w_max"]) == oracle_peak(p, ChargingSpec(omega=float(r["omega"])))

    @pytest.mark.parametrize("axis, stop, fixed", [
        ("B", "1000", ("--J", "0.2")),
        ("J", "900", ("--B", "1")),
    ], ids=["B-to-1000", "J-to-900"])
    def test_large_fields_and_couplings_exit_0(self, capsys, axis, stop, fixed):
        code, out, err = run_cli(capsys, "sweep", "--quantity", "w_series_peak_oracle",
                                 "--mode", "charging-only", "--axis", axis, "--start", "0",
                                 "--stop", stop, "--steps", "9", "--Jz", "0.2",
                                 "--gamma", "0.5", *fixed)
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert len(rows) == 9
        for r in rows:
            w_max = float(r["w_max"])
            p = SpinParams(J=float(r["J"]), Jz=float(r["Jz"]), gamma=float(r["gamma"]),
                           B=float(r["B"]))
            exact = two_harmonic_extremes(*dynamics_coefficients(p))[1]
            assert math.isfinite(w_max) and w_max >= -1e-12
            assert abs(w_max - exact) <= 1e-9 * max(1.0, exact)


class TestHugeDrive:
    """At a drive near the largest float the oracle's half-gaps stay finite,
    where the gap 2*omega would overflow."""

    @pytest.mark.parametrize("mode", ["charging-only", "full"])
    def test_work_exits_0(self, capsys, mode):
        code, out, err = run_cli(capsys, "work", *FIG1_FLAGS, "--omega", "1e308",
                                 "--samples", "3", "--mode", mode)
        assert code == 0 and err == ""
        assert len(parse_csv(out)[1]) == 3

    def test_charging_only_depends_on_omega_t_alone(self, capsys):
        columns = []
        for omega in ("1", "1e308"):
            code, out, _ = run_cli(capsys, "work", *FIG1_FLAGS, "--omega", omega,
                                   "--samples", "3")
            assert code == 0
            columns.append([float(r["W_oracle"]) for r in parse_csv(out)[1]])
        assert np.max(np.abs(np.subtract(*columns))) <= 1e-12


class TestUnwritableOut:
    """An --out that cannot be written exits 2 before anything is printed."""

    @pytest.mark.parametrize("argv, out", [
        (("coeffs", *FIG1_FLAGS), "."),
        (("figure", "1", "--samples", "5"), "blocker"),
        (("coeffs", *FIG1_FLAGS), "blocker/x.csv"),
    ], ids=["coeffs-into-directory", "figure-into-file", "coeffs-under-file"])
    def test_exits_2_without_output(self, capsys, tmp_path, argv, out):
        (tmp_path / "blocker").write_text("kept\n")
        code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / out))
        assert code == 2 and stdout == ""
        assert err.startswith("error: cannot write ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
        assert (tmp_path / "blocker").read_text() == "kept\n"


class TestFigureFileClash:
    """Two tables of one figure whose file names coincide exit 2 and write nothing."""

    @pytest.mark.parametrize("argv, name", [
        (("figure", "1", "--omegas", "0.1,0.1000001", "--samples", "5"),
         "figure1_omega0.1.csv"),
        (("figure", "3", *FIG1_FLAGS[:6], "--omega", "1", "--B-values", "1,1",
          "--samples", "5"), "figure3_B1.csv"),
        (("figure", "4", "--J", "0.2", "--Jz", "0.2", "--B-values", "1,1.0000001",
          "--steps", "3"), "figure4_B1.csv"),
    ], ids=["figure1", "figure3", "figure4"])
    def test_exits_2_without_output(self, capsys, tmp_path, argv, name):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert err.startswith("error:") and name in err


def _help_entries(capsys, monkeypatch, *argv) -> dict:
    """First word of each help entry (a flag, or a positional's choices) ->
    the rest of the entry, from one unwrapped `--help`."""
    monkeypatch.setenv("COLUMNS", "1000")
    code, out, _ = run_cli(capsys, *argv, "--help")
    assert code == 0
    entries, current = {}, None
    for line in out.splitlines():
        if line.startswith("  ") and not line.startswith("   "):
            current, _, rest = line.strip().partition(" ")
            entries[current] = rest.strip()
        elif line.startswith("   ") and current is not None:
            entries[current] += " " + line.strip()
        else:
            current = None
    return entries


def _as_typed(dest, text):
    """The value a help text gives a flag, checked to be written as typed."""
    assert re.fullmatch(r"[-\w.,]+", text) and not re.search(r"\.0(,|$)", text), text
    return cli.FLAGS[dest].get("type", str)(text)


class TestHelpDefaults:
    """--help shows each default the command table holds, as a user types it,
    and names no other default."""

    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "figure"])
    def test_flag_lines_show_the_table_defaults(self, capsys, monkeypatch, command):
        entries = _help_entries(capsys, monkeypatch, command)
        entry = cli.COMMANDS[command]
        assert set(entries) == {"-h,", *map(cli._flag, entry.flags)}
        for dest in entry.flags:
            text = entries[cli._flag(dest)]
            shown = re.findall(r"\(default ([^)]*)\)", text)
            if dest in entry.defaults:
                assert len(shown) == 1, (command, text)
                assert _as_typed(dest, shown[0]) == entry.defaults[dest], (command, text)
            else:
                assert "default" not in text, (command, text)

    def test_figure_ids_show_the_table_defaults(self, capsys, monkeypatch):
        entries = _help_entries(capsys, monkeypatch, "figure")
        ids = entries.pop("{" + ",".join(map(str, cli.FIGURES)) + "}")
        assert not any("default" in text for text in entries.values())
        listing = dict(part.split(" takes ", 1) for part in ids.split("; "))
        assert set(listing) == set(map(str, cli.FIGURES))
        for i, fig in cli.FIGURES.items():
            shown = dict(token.partition("=")[::2] for token in listing[str(i)].split())
            assert list(shown) == [cli._flag(k) for k in fig.flags]
            for dest in fig.flags:
                text = shown[cli._flag(dest)]
                if dest in fig.defaults:
                    assert _as_typed(dest, text) == fig.defaults[dest], (i, dest)
                else:
                    assert text == "", (i, dest)


_LOG_SCALE = st.floats(-6.0, 3.0).map(lambda e: 10.0 ** e)
_COUPLING = st.one_of(st.just(0.0), _LOG_SCALE, _LOG_SCALE.map(lambda v: -v))
_RATE = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
_FUZZED = [("spectrum",), ("gibbs",), ("coeffs",), ("maxwork",), ("report",),
           ("work", "--mode", "charging-only", "--samples", "9"),
           ("work", "--mode", "full", "--samples", "9"),
           *[("sweep", "--quantity", q, "--steps", "3") for q in cli.SWEEP_QUANTITIES]]


@st.composite
def _fuzzed_argv(draw) -> list:
    """A valid-looking argv: |J|, |Jz|, |B| log-spaced up to 1e3 or 0, |gamma| up
    to 10, omega and beta in [1e-3, 1e3] (beta often 1); a sweep runs from its
    axis's drawn value to that plus 1."""
    argv = list(draw(st.sampled_from(_FUZZED)))
    values = {"J": draw(_COUPLING), "Jz": draw(_COUPLING),
              "gamma": draw(st.one_of(st.just(0.0), st.floats(-10.0, 10.0))),
              "B": draw(_COUPLING), "beta": draw(st.one_of(st.just(1.0), _RATE)),
              "omega": draw(_RATE)}
    axis = draw(st.sampled_from(cli.SWEEP_AXES)) if argv[0] == "sweep" else None
    if axis:
        argv += ["--axis", axis, f"--start={values[axis]!r}", f"--stop={values[axis] + 1!r}"]
    reads = cli.COMMANDS[argv[0]].flags
    argv += [f"{cli._flag(k)}={v!r}" for k, v in values.items() if k in reads and k != axis]
    return argv


# the columns whose cells may read nan on exit 0, per command
_NAN_COLUMNS = {
    "spectrum": set(), "work": set(),
    "gibbs": {"re_closed", "im_closed"},
    "coeffs": {"x"},
    "report": {"ratio_a", "ratio_b"},
    "maxwork": {"w_max", "w_m", "t_peak_1", "t_peak_2", "delta_phi", "delta_t",
                "delta_t_mixed", "asymptote_8B", "x"},
    "sweep": {"branch", "w_max", "w_m", "a", "b", "x"},
}


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestExitCodeContract:
    """Every finite argv exits 0 or 2, never 1; exit 2 prints nothing, and
    exit 0 prints no infinite cell, nan only in the command's documented nan
    columns, and the same bytes on a rerun."""

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(_fuzzed_argv())
    def test_finite_inputs_honour_the_contract(self, argv):
        code, out, err = _run_captured(argv)
        assert code in (0, 2), (argv, err)
        if code == 2:
            assert out == "", argv
            return
        cells = set(re.split(r"[,\n]", out))
        assert not cells & {"inf", "-inf"}, argv
        header, *rows = csv.reader(io.StringIO(out))
        nan_columns = {column for row in rows
                       for column, cell in zip(header, row) if cell == "nan"}
        assert nan_columns <= _NAN_COLUMNS[argv[0]], argv
        assert _run_captured(argv)[1] == out, argv
