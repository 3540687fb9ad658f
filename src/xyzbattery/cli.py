"""Command-line front end: point evaluations, sweeps, and figure data export.

Every command prints a deterministic CSV (or JSON) body to stdout; --out
additionally writes the body to disk next to a JSON manifest echoing the
full inputs, tool version, and timestamp. CSV bodies never contain
timestamps, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    BRANCH_MAX2,
    FlatSignalError,
    classify_branch,
    closed_form_work,
    consistency_report,
    max_work,
    oracle_peak,
    work_coefficients,
)
from .charging import ChargingSpec, work_series
from .linalg import hermitian_eig
from .model import (
    SpinParams,
    UnsupportedClosedFormError,
    build_total_hamiltonian,
    closed_form_spectrum,
    gibbs_state,
)

WORK_COLUMNS = ("t", "W_closed", "W_oracle", "mode", "omega")
SWEEP_COLUMNS = (
    "axis", "value", "J", "Jz", "gamma", "B", "omega",
    "branch", "w_max", "w_m", "a", "b", "x",
)
SPECTRUM_COLUMNS = (
    "k", "E_closed", "E_numeric", "vector_residual",
    "eta", "N_plus", "N_minus", "J", "Jz", "gamma", "B", "beta",
)
GIBBS_COLUMNS = (
    "row", "col", "re_closed", "im_closed", "re_oracle", "im_oracle",
    "J", "Jz", "gamma", "B", "beta",
)
COEFFS_COLUMNS = ("a", "b", "b1", "b2", "b3", "d", "x", "branch",
                  "J", "Jz", "gamma", "B", "beta")
MAXWORK_COLUMNS = (
    "branch", "w_max", "w_m", "t_peak_1", "t_peak_2", "delta_phi", "delta_t",
    "delta_t_mixed", "asymptote_8B", "a", "b", "x",
    "J", "Jz", "gamma", "B", "beta", "omega",
)
REPORT_COLUMNS = (
    "mode", "omega", "J", "Jz", "gamma", "B", "beta",
    "a_printed", "b_printed", "a_fitted", "b_fitted", "alpha0", "residual",
    "ratio_a", "ratio_b", "w_half_period_closed", "w_half_period_oracle",
)

SWEEP_AXES = ("J", "Jz", "gamma", "B", "omega")
SWEEP_QUANTITIES = ("w_max_printed", "coefficients", "w_series_peak_oracle")

_MODE_FROM_CLI = {"charging-only": "charging_only", "full": "full"}
_MODE_TO_CLI = {"charging_only": "charging-only", "full": "full"}

FIGURE1_PARAMS = {"J": 0.2, "Jz": 0.2, "gamma": 0.5, "B": 1.0, "beta": 1.0}
FIGURE1_OMEGAS = (1.0, 0.7, 0.3)

_CONFIG_KEYS = {
    "J", "Jz", "gamma", "B", "beta", "omega", "t_max", "samples", "mode",
    "out", "format", "jobs", "axis", "start", "stop", "steps", "quantity",
    "omegas", "B_values", "B_start", "B_stop", "gamma_start", "gamma_stop",
}


class CliUsageError(Exception):
    """Bad or missing user input; maps to exit code 2."""


# ---------------------------------------------------------------------------
# rendering


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _render_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _render_json(columns, rows) -> str:
    payload = {
        "columns": list(columns),
        "rows": [
            [None if v is None else (float(v) if isinstance(v, (float, np.floating)) else v)
             for v in row]
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _render(fmt: str, columns, rows) -> str:
    if fmt == "json":
        return _render_json(columns, rows)
    return _render_csv(columns, rows)


def _write_manifest(path: Path, command: str, parameters: dict, files=None) -> None:
    record = {
        "command": command,
        "parameters": parameters,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if files is not None:
        record["files"] = list(files)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _emit(ns, command: str, columns, rows, parameters: dict) -> int:
    body = _render(_resolve(ns, "format", "csv"), columns, rows)
    sys.stdout.write(body)
    out = _resolve(ns, "out")
    if out:
        path = Path(out)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
        _write_manifest(path.with_name(path.name + ".manifest.json"),
                        command, parameters)
    return 0


# ---------------------------------------------------------------------------
# settings resolution: explicit flags > config file > built-in defaults


def _load_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliUsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliUsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise CliUsageError(f"unknown config keys: {', '.join(unknown)}")
    return raw


def _resolve(ns, key, default=None):
    value = getattr(ns, key, None)
    if value is not None:
        return value
    config = getattr(ns, "_config", None) or {}
    if config.get(key) is not None:
        return config[key]
    return default


def _resolve_float(ns, key, default=None):
    value = _resolve(ns, key, default)
    return None if value is None else float(value)


def _resolve_int(ns, key, default=None):
    value = _resolve(ns, key, default)
    return None if value is None else int(value)


def _require(ns, keys, context: str) -> None:
    missing = [k for k in keys if _resolve(ns, k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise CliUsageError(f"{context} requires explicit values for: {flags}")


def _build_params(ns, skip=(), defaults=None) -> SpinParams:
    defaults = defaults or {}
    _require(ns, [k for k in ("J", "Jz", "gamma", "B")
                  if k not in skip and k not in defaults], "this command")
    kwargs = {}
    for key in ("J", "Jz", "gamma", "B"):
        value = _resolve_float(ns, key)
        if value is None:
            value = defaults.get(key, 0.0)  # 0.0 only for the swept axis
        kwargs[key] = value
    kwargs["beta"] = _resolve_float(ns, "beta", defaults.get("beta", 1.0))
    return SpinParams(**kwargs)


def _build_charging(ns) -> ChargingSpec:
    omega = _resolve_float(ns, "omega", 1.0)
    mode_token = _resolve(ns, "mode", "charging-only")
    mode = _MODE_FROM_CLI.get(mode_token, mode_token)
    try:
        return ChargingSpec(omega=omega, mode=mode)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc


def _params_echo(p: SpinParams, charging: ChargingSpec | None = None) -> dict:
    echo = {"J": p.J, "Jz": p.Jz, "gamma": p.gamma, "B": p.B, "beta": p.beta}
    if charging is not None:
        echo["omega"] = charging.omega
        echo["mode"] = _MODE_TO_CLI[charging.mode]
    return echo


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


# ---------------------------------------------------------------------------
# commands


def _cmd_spectrum(ns) -> int:
    p = _build_params(ns)
    dec = closed_form_spectrum(p)
    h = build_total_hamiltonian(p)
    numeric = hermitian_eig(h).eigenvalues
    labelled = np.array(dec.labelled_energies)
    ascending = np.argsort(labelled, kind="stable")
    e_numeric = np.empty(4)
    e_numeric[ascending] = numeric
    rows = []
    for k, (energy, psi) in enumerate(zip(dec.labelled_energies,
                                          dec.labelled_vectors), start=1):
        residual = float(np.linalg.norm(h @ psi - energy * psi))
        rows.append([k, energy, float(e_numeric[k - 1]), residual,
                     dec.eta, dec.n_plus, dec.n_minus,
                     p.J, p.Jz, p.gamma, p.B, p.beta])
    return _emit(ns, "spectrum", SPECTRUM_COLUMNS, rows, _params_echo(p))


def _cmd_gibbs(ns) -> int:
    p = _build_params(ns)
    rho_oracle = gibbs_state(p, method="oracle")
    try:
        rho_closed = gibbs_state(p, method="closed_form")
    except UnsupportedClosedFormError:
        rho_closed = None
    rows = []
    for i in range(4):
        for j in range(4):
            closed_re = rho_closed[i, j].real if rho_closed is not None else math.nan
            closed_im = rho_closed[i, j].imag if rho_closed is not None else math.nan
            rows.append([i, j, closed_re, closed_im,
                         rho_oracle[i, j].real, rho_oracle[i, j].imag,
                         p.J, p.Jz, p.gamma, p.B, p.beta])
    return _emit(ns, "gibbs", GIBBS_COLUMNS, rows, _params_echo(p))


def _cmd_coeffs(ns) -> int:
    p = _build_params(ns)
    try:
        c = work_coefficients(p)
    except UnsupportedClosedFormError as exc:
        raise CliUsageError(str(exc)) from exc
    rows = [[c.a, c.b, c.b1, c.b2, c.b3, c.d, c.x, classify_branch(c),
             p.J, p.Jz, p.gamma, p.B, p.beta]]
    return _emit(ns, "coeffs", COEFFS_COLUMNS, rows, _params_echo(p))


def _cmd_work(ns) -> int:
    p = _build_params(ns)
    charging = _build_charging(ns)
    samples = _resolve_int(ns, "samples", 201)
    if samples < 2:
        raise CliUsageError(f"--samples must be >= 2, got {samples}")
    t_max = _resolve_float(ns, "t_max", 2.0 * math.pi / charging.omega)
    if t_max <= 0:
        raise CliUsageError(f"--t-max must be positive, got {t_max}")
    try:
        coeffs = work_coefficients(p)
    except UnsupportedClosedFormError as exc:
        raise CliUsageError(str(exc)) from exc
    series = work_series(p, charging, t_max=t_max, n=samples)
    closed = closed_form_work(coeffs, charging.omega, series.times)
    mode_token = _MODE_TO_CLI[charging.mode]
    rows = [[t, w_closed, w_oracle, mode_token, charging.omega]
            for t, w_closed, w_oracle in zip(series.times, closed, series.values)]
    echo = _params_echo(p, charging)
    echo.update({"t_max": t_max, "samples": samples})
    return _emit(ns, "work", WORK_COLUMNS, rows, echo)


def _cmd_maxwork(ns) -> int:
    p = _build_params(ns)
    charging = _build_charging(ns)
    omega = charging.omega
    try:
        c = work_coefficients(p)
    except UnsupportedClosedFormError as exc:
        raise CliUsageError(str(exc)) from exc
    asymptote = 8.0 * p.B if p.B > 0 else math.nan
    try:
        ext = max_work(c, omega)
    except FlatSignalError:
        rows = [["flat", math.nan, math.nan, math.nan, math.nan, math.nan,
                 math.nan, math.nan, asymptote, c.a, c.b, c.x,
                 p.J, p.Jz, p.gamma, p.B, p.beta, omega]]
        return _emit(ns, "maxwork", MAXWORK_COLUMNS, rows, _params_echo(p, charging))
    peaks = ext.t1_times + ext.t2_times
    t1 = peaks[0]
    t2 = peaks[1] if len(peaks) > 1 else math.nan
    # unit-mixed variant of the peak separation, kept for comparison
    delta_t_mixed = math.nan
    if ext.branch == BRANCH_MAX2 and ext.delta_phi is not None:
        delta_t_mixed = 2.0 * math.pi - (2.0 / omega) * math.acos(-c.x)
    rows = [[ext.branch, ext.w_max, ext.w_m, t1, t2, ext.delta_phi,
             ext.delta_t, delta_t_mixed, asymptote, c.a, c.b, c.x,
             p.J, p.Jz, p.gamma, p.B, p.beta, omega]]
    return _emit(ns, "maxwork", MAXWORK_COLUMNS, rows, _params_echo(p, charging))


def _sweep_row(axis: str, value: float, p: SpinParams, charging: ChargingSpec,
               quantity: str) -> list:
    if axis == "omega":
        charging = ChargingSpec(omega=value, mode=charging.mode)
    else:
        p = replace(p, **{axis: value})
    c = work_coefficients(p)
    branch = classify_branch(c)
    w_max = math.nan
    w_m = math.nan
    if quantity == "w_max_printed":
        try:
            ext = max_work(c, charging.omega)
            w_max = ext.w_max
            w_m = ext.w_m if ext.w_m is not None else math.nan
        except FlatSignalError:
            pass
    elif quantity == "w_series_peak_oracle":
        w_max = oracle_peak(p, charging)
    return [axis, value, p.J, p.Jz, p.gamma, p.B, charging.omega,
            branch, w_max, w_m, c.a, c.b, c.x]


def _cmd_sweep(ns) -> int:
    axis = _resolve(ns, "axis")
    quantity = _resolve(ns, "quantity")
    if axis is None or quantity is None:
        raise CliUsageError("sweep requires --axis and --quantity")
    if axis not in SWEEP_AXES:
        raise CliUsageError(f"unknown axis {axis!r}; expected one of {SWEEP_AXES}")
    if quantity not in SWEEP_QUANTITIES:
        raise CliUsageError(
            f"unknown quantity {quantity!r}; expected one of {SWEEP_QUANTITIES}")
    start = _resolve_float(ns, "start")
    stop = _resolve_float(ns, "stop")
    steps = _resolve_int(ns, "steps")
    if start is None or stop is None or steps is None:
        raise CliUsageError("sweep requires --start, --stop, and --steps")
    if steps < 2:
        raise CliUsageError(f"--steps must be >= 2, got {steps}")
    if not (math.isfinite(start) and math.isfinite(stop) and start < stop):
        raise CliUsageError(f"need finite --start < --stop, got {start} and {stop}")
    p = _build_params(ns, skip=(axis,))
    charging = _build_charging(ns)
    if p.beta != 1.0:
        raise CliUsageError("sweep quantities use the closed form; beta must be 1")
    values = np.linspace(start, stop, steps)
    jobs = _resolve_int(ns, "jobs", os.cpu_count() or 1)
    if jobs < 1:
        raise CliUsageError(f"--jobs must be >= 1, got {jobs}")
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(
                lambda v: _sweep_row(axis, float(v), p, charging, quantity),
                values))
    else:
        rows = [_sweep_row(axis, float(v), p, charging, quantity) for v in values]
    echo = _params_echo(p, charging)
    echo.update({"axis": axis, "start": start, "stop": stop, "steps": steps,
                 "quantity": quantity})
    return _emit(ns, "sweep", SWEEP_COLUMNS, rows, echo)


def _work_curve_rows(p: SpinParams, charging: ChargingSpec,
                     t_max: float, samples: int) -> list:
    coeffs = work_coefficients(p)
    series = work_series(p, charging, t_max=t_max, n=samples)
    closed = closed_form_work(coeffs, charging.omega, series.times)
    mode_token = _MODE_TO_CLI[charging.mode]
    return [[t, wc, wo, mode_token, charging.omega]
            for t, wc, wo in zip(series.times, closed, series.values)]


def _figure_bundle(ns, figure_id: int, parameters: dict,
                   files: list[tuple[str, tuple, list]]) -> int:
    out_dir = Path(_resolve(ns, "out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = _resolve(ns, "format", "csv")
    written = []
    for stem, columns, rows in files:
        name = f"{stem}.{fmt}"
        (out_dir / name).write_text(_render(fmt, columns, rows), encoding="utf-8")
        written.append(name)
    _write_manifest(out_dir / f"figure{figure_id}_manifest.json",
                    f"figure {figure_id}", parameters, files=written)
    for name in written:
        print(out_dir / name)
    print(out_dir / f"figure{figure_id}_manifest.json")
    return 0


def _cmd_figure(ns) -> int:
    figure_id = ns.id
    mode_token = _resolve(ns, "mode", "charging-only")
    mode = _MODE_FROM_CLI.get(mode_token, mode_token)

    if figure_id == 1:
        p = _build_params(ns, defaults=FIGURE1_PARAMS)
        omegas = _resolve(ns, "omegas") or FIGURE1_OMEGAS
        samples = _resolve_int(ns, "samples", 1001)
        t_max = _resolve_float(ns, "t_max", 2.0 * 2.0 * math.pi / min(omegas))
        files = []
        for omega in omegas:
            charging = ChargingSpec(omega=omega, mode=mode)
            rows = _work_curve_rows(p, charging, t_max, samples)
            files.append((f"figure1_omega{omega:g}", WORK_COLUMNS, rows))
        echo = _params_echo(p)
        echo.update({"omegas": list(omegas), "t_max": t_max,
                     "samples": samples, "mode": mode_token})
        return _figure_bundle(ns, 1, echo, files)

    if figure_id == 3:
        _require(ns, ("J", "Jz", "gamma", "omega", "B_values"), "figure 3")
        b_values = _resolve(ns, "B_values")
        omega = _resolve_float(ns, "omega")
        charging = ChargingSpec(omega=omega, mode=mode)
        samples = _resolve_int(ns, "samples", 1001)
        t_max = _resolve_float(ns, "t_max", 2.0 * 2.0 * math.pi / omega)
        files = []
        for b in b_values:
            p = replace(_build_params(ns, skip=("B",)), B=float(b))
            rows = _work_curve_rows(p, charging, t_max, samples)
            files.append((f"figure3_B{b:g}", WORK_COLUMNS, rows))
        echo = {"J": _resolve_float(ns, "J"), "Jz": _resolve_float(ns, "Jz"),
                "gamma": _resolve_float(ns, "gamma"), "beta": _resolve_float(ns, "beta", 1.0),
                "B_values": list(b_values), "omega": omega, "t_max": t_max,
                "samples": samples, "mode": mode_token}
        return _figure_bundle(ns, 3, echo, files)

    if figure_id == 4:
        _require(ns, ("J", "Jz", "B_values"), "figure 4")
        b_values = _resolve(ns, "B_values")
        gamma_start = _resolve_float(ns, "gamma_start", -1.0)
        gamma_stop = _resolve_float(ns, "gamma_stop", 1.0)
        steps = _resolve_int(ns, "steps", 101)
        if steps < 2:
            raise CliUsageError(f"--steps must be >= 2, got {steps}")
        charging = _build_charging(ns)
        files = []
        for b in b_values:
            p = replace(_build_params(ns, skip=("B", "gamma")), B=float(b))
            rows = [_sweep_row("gamma", float(g), p, charging, "w_max_printed")
                    for g in np.linspace(gamma_start, gamma_stop, steps)]
            files.append((f"figure4_B{b:g}", SWEEP_COLUMNS, rows))
        echo = {"J": _resolve_float(ns, "J"), "Jz": _resolve_float(ns, "Jz"),
                "B_values": list(b_values), "gamma_start": gamma_start,
                "gamma_stop": gamma_stop, "steps": steps,
                "omega": charging.omega}
        return _figure_bundle(ns, 4, echo, files)

    if figure_id == 5:
        _require(ns, ("J", "Jz", "gamma", "B_start", "B_stop"), "figure 5")
        b_start = _resolve_float(ns, "B_start")
        b_stop = _resolve_float(ns, "B_stop")
        steps = _resolve_int(ns, "steps", 101)
        if steps < 2:
            raise CliUsageError(f"--steps must be >= 2, got {steps}")
        if not b_start < b_stop:
            raise CliUsageError(f"need --B-start < --B-stop, got {b_start} and {b_stop}")
        charging = _build_charging(ns)
        p = _build_params(ns, skip=("B",))
        rows = [_sweep_row("B", float(b), p, charging, "w_max_printed")
                for b in np.linspace(b_start, b_stop, steps)]
        echo = {"J": p.J, "Jz": p.Jz, "gamma": p.gamma, "B_start": b_start,
                "B_stop": b_stop, "steps": steps, "omega": charging.omega}
        return _figure_bundle(ns, 5, echo, [("figure5", SWEEP_COLUMNS, rows)])

    raise CliUsageError(f"unknown figure id {figure_id}")


def _cmd_report(ns) -> int:
    p = _build_params(ns)
    charging = _build_charging(ns)
    try:
        report = consistency_report(p, charging)
    except UnsupportedClosedFormError as exc:
        raise CliUsageError(str(exc)) from exc
    rows = []
    for fit in report.fits:
        rows.append([
            _MODE_TO_CLI[fit.mode], report.omega, p.J, p.Jz, p.gamma, p.B,
            p.beta, report.a_printed, report.b_printed, fit.a_fitted,
            fit.b_fitted, fit.alpha0, fit.residual, fit.ratio_a, fit.ratio_b,
            report.w_half_period_closed, fit.w_half_period_oracle,
        ])
    return _emit(ns, "report", REPORT_COLUMNS, rows, _params_echo(p, charging))


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--J", type=float, help="in-plane coupling strength")
    parser.add_argument("--Jz", type=float, help="z-axis coupling strength")
    parser.add_argument("--gamma", type=float, help="in-plane anisotropy")
    parser.add_argument("--B", type=float, help="magnetic field strength")
    parser.add_argument("--beta", type=float, help="inverse temperature (default 1)")
    parser.add_argument("--omega", type=float, help="drive strength (default 1)")
    parser.add_argument("--t-max", dest="t_max", type=float,
                        help="time-series end (default: one drive period)")
    parser.add_argument("--samples", type=int, help="time-series sample count")
    parser.add_argument("--mode", choices=sorted(_MODE_FROM_CLI),
                        help="propagation mode (default charging-only)")
    parser.add_argument("--out", help="write output here (figure: directory)")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="output format (default csv)")
    parser.add_argument("--config", help="JSON file mirroring the flag names")
    parser.add_argument("--jobs", type=int,
                        help="parallel sweep workers (default: cpu count)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xyzbattery",
        description="Two-spin XYZ quantum battery: spectra, thermal states, "
                    "charging dynamics, and stored-work analysis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("spectrum", "labelled eigenpairs with numerical residuals"),
        ("gibbs", "thermal state, closed form next to the oracle"),
        ("work", "stored-work time series from both paths"),
        ("coeffs", "closed-form work coefficients and branch"),
        ("maxwork", "maximum stored work, peak times, plateau widths"),
        ("report", "closed-form vs dynamics reconciliation record"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd)

    sweep = sub.add_parser("sweep", help="scan one parameter, CSV per grid point")
    _add_common(sweep)
    sweep.add_argument("--axis", choices=SWEEP_AXES)
    sweep.add_argument("--start", type=float)
    sweep.add_argument("--stop", type=float)
    sweep.add_argument("--steps", type=int)
    sweep.add_argument("--quantity", choices=SWEEP_QUANTITIES)

    figure = sub.add_parser("figure", help="regenerate figure data bundles")
    _add_common(figure)
    figure.add_argument("id", type=int, choices=(1, 3, 4, 5))
    figure.add_argument("--omegas", type=_float_list,
                        help="comma-separated drive strengths (figure 1)")
    figure.add_argument("--B-values", dest="B_values", type=_float_list,
                        help="comma-separated field strengths (figures 3, 4)")
    figure.add_argument("--B-start", dest="B_start", type=float)
    figure.add_argument("--B-stop", dest="B_stop", type=float)
    figure.add_argument("--gamma-start", dest="gamma_start", type=float)
    figure.add_argument("--gamma-stop", dest="gamma_stop", type=float)
    figure.add_argument("--steps", type=int)

    return parser


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "gibbs": _cmd_gibbs,
    "work": _cmd_work,
    "coeffs": _cmd_coeffs,
    "maxwork": _cmd_maxwork,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        ns._config = _load_config(ns.config) if getattr(ns, "config", None) else {}
        return _HANDLERS[ns.command](ns)
    except (CliUsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
