"""Command-line front end: point evaluations, sweeps, and figure data export.

Every command prints a deterministic CSV (or JSON) body to stdout; --out
additionally writes the body to disk next to a JSON manifest echoing the
full inputs, tool version, and timestamp. CSV bodies never contain
timestamps, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

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
CLOSED_FORM_QUANTITIES = ("w_max_printed", "coefficients")
SWEEP_QUANTITIES = CLOSED_FORM_QUANTITIES + ("w_series_peak_oracle",)

_MODE_FROM_CLI = {"charging-only": "charging_only", "full": "full"}
_MODE_TO_CLI = {"charging_only": "charging-only", "full": "full"}

FIGURE1_PARAMS = {"J": 0.2, "Jz": 0.2, "gamma": 0.5, "B": 1.0, "beta": 1.0}
FIGURE1_OMEGAS = (1.0, 0.7, 0.3)


class CliUsageError(Exception):
    """Bad or missing user input; maps to exit code 2."""


# ---------------------------------------------------------------------------
# rendering


# a CSV cell holding one of these is quoted, as csv.writer would; "\r" too,
# so that every cell reads back through csv.reader as written
_CSV_SPECIAL = frozenset(',"\r\n')


def _fmt(value) -> str:
    """One CSV cell: a float to 17 significant digits, None as nan, else text
    (quoted if it must be)."""
    if value is None:
        return "nan"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    text = str(value)
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _row_count(data) -> int:
    """Rows of a table given one entry per column: an array, a list, or one
    value that repeats on every row (a table of single values has one row)."""
    lengths = {len(v) for v in data if isinstance(v, (list, np.ndarray))}
    if len(lengths) > 1:
        raise RuntimeError(f"columns of unequal length: {sorted(lengths)}")
    return lengths.pop() if lengths else 1


def _cells(value, rows: int, cell: Callable) -> list:
    """One column's cells; a single value is converted once and repeated."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, list):
        return list(map(cell, value))
    return [cell(value)] * rows


def _render_csv(columns, data) -> str:
    rows = _row_count(data)
    cells = []
    for value in data:
        float_array = isinstance(value, np.ndarray) and value.dtype.kind == "f"
        # "%.17g" % v is format(v, ".17g"), nan, inf and -0.0 included
        cells.append(_cells(value, rows, "%.17g".__mod__ if float_array else _fmt))
    lines = [",".join(map(_fmt, columns)), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def _json_value(value):
    # strict JSON has no NaN or Infinity: every non-finite float is null
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    return value


def _render_json(columns, data) -> str:
    rows = _row_count(data)
    cells = [_cells(value, rows, _json_value) for value in data]
    payload = {"columns": list(columns), "rows": [list(row) for row in zip(*cells)]}
    return json.dumps(payload, indent=2) + "\n"


def _render(fmt: str, columns, data) -> str:
    if fmt == "json":
        return _render_json(columns, data)
    return _render_csv(columns, data)


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


def _emit(ns, command: str, columns, data, parameters: dict) -> int:
    """Print (and with --out, write) a table given one entry per column."""
    body = _render(_resolve(ns, "format", "csv"), columns, data)
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
# settings: argparse holds every value, config-file values included


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _resolve(ns, key, default=None):
    value = getattr(ns, key, None)
    return default if value is None else value


def _require(ns, keys, context: str) -> None:
    missing = [k for k in keys if _resolve(ns, k) is None]
    if missing:
        flags = ", ".join(_flag(k) for k in missing)
        raise CliUsageError(f"{context} requires explicit values for: {flags}")


def _build_params(ns, skip=(), defaults=None) -> SpinParams:
    defaults = defaults or {}
    _require(ns, [k for k in ("J", "Jz", "gamma", "B")
                  if k not in skip and k not in defaults], "this command")
    # 0.0 only for the swept axis
    kwargs = {key: _resolve(ns, key, defaults.get(key, 0.0))
              for key in ("J", "Jz", "gamma", "B")}
    kwargs["beta"] = _resolve(ns, "beta", defaults.get("beta", 1.0))
    return SpinParams(**kwargs)


def _build_charging(ns) -> ChargingSpec:
    return ChargingSpec(omega=_resolve(ns, "omega", 1.0),
                        mode=_MODE_FROM_CLI[_resolve(ns, "mode", "charging-only")])


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
    residuals = np.array([np.linalg.norm(h @ psi - energy * psi)
                          for energy, psi in zip(dec.labelled_energies, dec.labelled_vectors)])
    data = [np.arange(1, 5), labelled, e_numeric, residuals,
            dec.eta, dec.n_plus, dec.n_minus, p.J, p.Jz, p.gamma, p.B, p.beta]
    return _emit(ns, "spectrum", SPECTRUM_COLUMNS, data, _params_echo(p))


def _cmd_gibbs(ns) -> int:
    p = _build_params(ns)
    rho_oracle = gibbs_state(p, method="oracle")
    try:
        rho_closed = gibbs_state(p, method="closed_form")
    except UnsupportedClosedFormError:  # general beta: the closed columns read nan
        rho_closed = np.full((4, 4), complex(math.nan, math.nan))
    index = np.arange(4)
    closed, oracle = rho_closed.ravel(), rho_oracle.ravel()
    data = [np.repeat(index, 4), np.tile(index, 4), closed.real, closed.imag,
            oracle.real, oracle.imag, p.J, p.Jz, p.gamma, p.B, p.beta]
    return _emit(ns, "gibbs", GIBBS_COLUMNS, data, _params_echo(p))


def _cmd_coeffs(ns) -> int:
    p = _build_params(ns)
    c = work_coefficients(p)
    data = [c.a, c.b, c.b1, c.b2, c.b3, c.d, c.x, classify_branch(c),
            p.J, p.Jz, p.gamma, p.B, p.beta]
    return _emit(ns, "coeffs", COEFFS_COLUMNS, data, _params_echo(p))


def _cmd_work(ns) -> int:
    p = _build_params(ns)
    charging = _build_charging(ns)
    samples = _resolve(ns, "samples", 201)
    if samples < 2:
        raise CliUsageError(f"--samples must be >= 2, got {samples}")
    t_max = _resolve(ns, "t_max", 2.0 * math.pi / charging.omega)
    if t_max <= 0:
        raise CliUsageError(f"--t-max must be positive, got {t_max}")
    echo = _params_echo(p, charging)
    echo.update({"t_max": t_max, "samples": samples})
    return _emit(ns, "work", WORK_COLUMNS,
                 _work_curve_columns(p, charging, t_max, samples), echo)


def _cmd_maxwork(ns) -> int:
    p = _build_params(ns)
    charging = _build_charging(ns)
    omega = charging.omega
    c = work_coefficients(p)
    asymptote = 8.0 * p.B if p.B > 0 else math.nan
    try:
        ext = max_work(c, omega)
    except FlatSignalError:
        data = ["flat", math.nan, math.nan, math.nan, math.nan, math.nan,
                math.nan, math.nan, asymptote, c.a, c.b, c.x,
                p.J, p.Jz, p.gamma, p.B, p.beta, omega]
        return _emit(ns, "maxwork", MAXWORK_COLUMNS, data, _params_echo(p, charging))
    peaks = ext.t1_times + ext.t2_times
    t1 = peaks[0]
    t2 = peaks[1] if len(peaks) > 1 else math.nan
    # unit-mixed variant of the peak separation, kept for comparison
    delta_t_mixed = math.nan
    if ext.branch == BRANCH_MAX2 and ext.delta_phi is not None:
        delta_t_mixed = 2.0 * math.pi - (2.0 / omega) * math.acos(-c.x)
    data = [ext.branch, ext.w_max, ext.w_m, t1, t2, ext.delta_phi,
            ext.delta_t, delta_t_mixed, asymptote, c.a, c.b, c.x,
            p.J, p.Jz, p.gamma, p.B, p.beta, omega]
    return _emit(ns, "maxwork", MAXWORK_COLUMNS, data, _params_echo(p, charging))


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


def _sweep_columns(axis: str, values, p: SpinParams, charging: ChargingSpec,
                   quantity: str, jobs: int = 1) -> list:
    """One `_sweep_row` per value, transposed to one list per SWEEP_COLUMNS name."""
    def row(value):
        return _sweep_row(axis, float(value), p, charging, quantity)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(row, values))
    else:
        rows = [row(v) for v in values]
    return [list(column) for column in zip(*rows)]


def _cmd_sweep(ns) -> int:
    axis, quantity = ns.axis, ns.quantity
    if axis is None or quantity is None:
        raise CliUsageError("sweep requires --axis and --quantity")
    start, stop, steps = ns.start, ns.stop, ns.steps
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
    jobs = _resolve(ns, "jobs", 1)
    if jobs < 1:
        raise CliUsageError(f"--jobs must be >= 1, got {jobs}")
    data = _sweep_columns(axis, values, p, charging, quantity, jobs)
    echo = _params_echo(p, charging)
    echo.update({"axis": axis, "start": start, "stop": stop, "steps": steps,
                 "quantity": quantity})
    return _emit(ns, "sweep", SWEEP_COLUMNS, data, echo)


def _work_curve_columns(p: SpinParams, charging: ChargingSpec,
                        t_max: float, samples: int) -> list:
    """WORK_COLUMNS as arrays of both paths' samples, then the mode and drive."""
    coeffs = work_coefficients(p)
    series = work_series(p, charging, t_max=t_max, n=samples)
    closed = closed_form_work(coeffs, charging.omega, series.times)
    return [series.times, closed, series.values, _MODE_TO_CLI[charging.mode],
            charging.omega]


def _figure_bundle(ns, figure_id: int, parameters: dict,
                   files: list[tuple[str, tuple, list]]) -> int:
    """Write each (stem, columns, one entry per column) table and a manifest."""
    out_dir = Path(_resolve(ns, "out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = _resolve(ns, "format", "csv")
    written = []
    for stem, columns, data in files:
        name = f"{stem}.{fmt}"
        (out_dir / name).write_text(_render(fmt, columns, data), encoding="utf-8")
        written.append(name)
    _write_manifest(out_dir / f"figure{figure_id}_manifest.json",
                    f"figure {figure_id}", parameters, files=written)
    for name in written:
        print(out_dir / name)
    print(out_dir / f"figure{figure_id}_manifest.json")
    return 0


def _figure1(ns) -> int:
    p = _build_params(ns, defaults=FIGURE1_PARAMS)
    charging = _build_charging(ns)
    omegas = _resolve(ns, "omegas", FIGURE1_OMEGAS)
    samples = _resolve(ns, "samples", 1001)
    t_max = _resolve(ns, "t_max", 2.0 * 2.0 * math.pi / min(omegas))
    files = [(f"figure1_omega{omega:g}", WORK_COLUMNS,
              _work_curve_columns(p, replace(charging, omega=omega), t_max, samples))
             for omega in omegas]
    echo = _params_echo(p)
    echo.update({"omegas": list(omegas), "t_max": t_max,
                 "samples": samples, "mode": _MODE_TO_CLI[charging.mode]})
    return _figure_bundle(ns, 1, echo, files)


def _figure3(ns) -> int:
    _require(ns, ("J", "Jz", "gamma", "omega", "B_values"), "figure 3")
    charging = _build_charging(ns)
    samples = _resolve(ns, "samples", 1001)
    t_max = _resolve(ns, "t_max", 2.0 * 2.0 * math.pi / charging.omega)
    p = _build_params(ns, skip=("B",))
    files = [(f"figure3_B{b:g}", WORK_COLUMNS,
              _work_curve_columns(replace(p, B=b), charging, t_max, samples))
             for b in ns.B_values]
    echo = {"J": p.J, "Jz": p.Jz, "gamma": p.gamma, "beta": p.beta,
            "B_values": list(ns.B_values), "omega": charging.omega, "t_max": t_max,
            "samples": samples, "mode": _MODE_TO_CLI[charging.mode]}
    return _figure_bundle(ns, 3, echo, files)


def _figure4(ns) -> int:
    _require(ns, ("J", "Jz", "B_values"), "figure 4")
    gamma_start = _resolve(ns, "gamma_start", -1.0)
    gamma_stop = _resolve(ns, "gamma_stop", 1.0)
    steps = _resolve(ns, "steps", 101)
    charging = _build_charging(ns)
    p = _build_params(ns, skip=("B", "gamma"))
    gammas = np.linspace(gamma_start, gamma_stop, steps)
    files = [(f"figure4_B{b:g}", SWEEP_COLUMNS,
              _sweep_columns("gamma", gammas, replace(p, B=b), charging, "w_max_printed"))
             for b in ns.B_values]
    echo = {"J": p.J, "Jz": p.Jz, "B_values": list(ns.B_values),
            "gamma_start": gamma_start, "gamma_stop": gamma_stop, "steps": steps,
            "omega": charging.omega}
    return _figure_bundle(ns, 4, echo, files)


def _figure5(ns) -> int:
    _require(ns, ("J", "Jz", "gamma", "B_start", "B_stop"), "figure 5")
    b_start, b_stop = ns.B_start, ns.B_stop
    steps = _resolve(ns, "steps", 101)
    if not b_start < b_stop:
        raise CliUsageError(f"need --B-start < --B-stop, got {b_start} and {b_stop}")
    charging = _build_charging(ns)
    p = _build_params(ns, skip=("B",))
    data = _sweep_columns("B", np.linspace(b_start, b_stop, steps), p, charging,
                          "w_max_printed")
    echo = {"J": p.J, "Jz": p.Jz, "gamma": p.gamma, "B_start": b_start,
            "B_stop": b_stop, "steps": steps, "omega": charging.omega}
    return _figure_bundle(ns, 5, echo, [("figure5", SWEEP_COLUMNS, data)])


def _cmd_figure(ns) -> int:
    if ns.steps is not None and ns.steps < 2:
        raise CliUsageError(f"--steps must be >= 2, got {ns.steps}")
    return FIGURES[ns.id].handler(ns)


def _cmd_report(ns) -> int:
    p = _build_params(ns)
    charging = _build_charging(ns)
    report = consistency_report(p, charging)

    def per_fit(field: str) -> list:
        return [getattr(fit, field) for fit in report.fits]

    data = [[_MODE_TO_CLI[mode] for mode in per_fit("mode")], report.omega,
            p.J, p.Jz, p.gamma, p.B, p.beta, report.a_printed, report.b_printed,
            per_fit("a_fitted"), per_fit("b_fitted"), per_fit("alpha0"),
            per_fit("residual"), per_fit("ratio_a"), per_fit("ratio_b"),
            report.w_half_period_closed, per_fit("w_half_period_oracle")]
    return _emit(ns, "report", REPORT_COLUMNS, data, _params_echo(p, charging))


# ---------------------------------------------------------------------------
# the command table: each command and figure id lists the flags it reads;
# the parser, the dispatch and the config keys are all derived from it

# flag destination -> add_argument keywords; the flag is _flag(destination)
FLAGS = {
    "J": {"type": float, "help": "in-plane coupling strength"},
    "Jz": {"type": float, "help": "z-axis coupling strength"},
    "gamma": {"type": float, "help": "in-plane anisotropy"},
    "B": {"type": float, "help": "magnetic field strength"},
    "beta": {"type": float, "help": "inverse temperature (default 1)"},
    "omega": {"type": float, "help": "drive strength (default 1)"},
    "t_max": {"type": float, "help": "time-series end (default: one drive period)"},
    "samples": {"type": int, "help": "time-series sample count"},
    "mode": {"choices": sorted(_MODE_FROM_CLI),
             "help": "propagation mode (default charging-only)"},
    "out": {"help": "write output here (figure: directory)"},
    "format": {"choices": ("csv", "json"), "help": "output format (default csv)"},
    "config": {"help": "JSON file of flag values; explicit flags override it"},
    "jobs": {"type": int, "help": "parallel sweep worker threads (default 1)"},
    "axis": {"choices": SWEEP_AXES},
    "start": {"type": float},
    "stop": {"type": float},
    "steps": {"type": int},
    "quantity": {"choices": SWEEP_QUANTITIES},
    "omegas": {"type": _float_list, "help": "comma-separated drive strengths"},
    "B_values": {"type": _float_list, "help": "comma-separated field strengths"},
    "B_start": {"type": float},
    "B_stop": {"type": float},
    "gamma_start": {"type": float},
    "gamma_stop": {"type": float},
}

_PARAMS = ("J", "Jz", "gamma", "B", "beta")
_OUTPUT = ("out", "format", "config")


class Command(NamedTuple):
    """One command or figure id: its handler and the flag destinations it reads."""

    handler: Callable[[argparse.Namespace], int]
    flags: tuple[str, ...]
    help: str = ""


FIGURES = {
    1: Command(_figure1, _PARAMS + ("omegas", "t_max", "samples", "mode") + _OUTPUT),
    3: Command(_figure3, ("J", "Jz", "gamma", "beta", "omega", "B_values", "t_max",
                          "samples", "mode") + _OUTPUT),
    4: Command(_figure4, ("J", "Jz", "beta", "omega", "B_values", "gamma_start",
                          "gamma_stop", "steps") + _OUTPUT),
    5: Command(_figure5, ("J", "Jz", "gamma", "beta", "omega", "B_start", "B_stop",
                          "steps") + _OUTPUT),
}

COMMANDS = {
    "spectrum": Command(_cmd_spectrum, _PARAMS + _OUTPUT,
                        "labelled eigenpairs with numerical residuals"),
    "gibbs": Command(_cmd_gibbs, _PARAMS + _OUTPUT,
                     "thermal state, closed form next to the oracle"),
    "work": Command(_cmd_work, _PARAMS + ("omega", "t_max", "samples", "mode") + _OUTPUT,
                    "stored-work time series from both paths"),
    "coeffs": Command(_cmd_coeffs, _PARAMS + _OUTPUT,
                      "closed-form work coefficients and branch"),
    "maxwork": Command(_cmd_maxwork, _PARAMS + ("omega",) + _OUTPUT,
                       "maximum stored work, peak times, plateau widths"),
    "report": Command(_cmd_report, _PARAMS + ("omega",) + _OUTPUT,
                      "closed-form vs dynamics reconciliation record"),
    "sweep": Command(_cmd_sweep, _PARAMS + ("omega", "mode", "axis", "start", "stop",
                                            "steps", "quantity", "jobs") + _OUTPUT,
                     "scan one parameter, CSV per grid point"),
    # one subparser takes the union of the figure ids' flags; _parse rejects
    # a flag the chosen id does not read
    "figure": Command(_cmd_figure,
                      tuple(k for k in FLAGS
                            if any(k in fig.flags for fig in FIGURES.values())),
                      "regenerate figure data bundles"),
}

_CONFIG_KEYS = set(FLAGS) - {"config"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xyzbattery",
        description="Two-spin XYZ quantum battery: spectra, thermal states, "
                    "charging dynamics, and stored-work analysis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        if name == "figure":
            cmd.add_argument("id", type=int, choices=tuple(FIGURES), help="; ".join(
                f"{i} takes {' '.join(map(_flag, fig.flags))}"
                for i, fig in FIGURES.items()))
        for dest in command.flags:
            cmd.add_argument(_flag(dest), **FLAGS[dest])
    return parser


# ---------------------------------------------------------------------------
# parsing: explicit flags > config file > built-in defaults


def _config_tokens(path: str) -> dict[str, str]:
    """The `--flag=value` token a config file gives for each key it sets."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliUsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliUsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise CliUsageError(f"unknown config keys: {', '.join(unknown)}")
    tokens = {}
    for key, value in raw.items():
        if value is None:
            continue
        if isinstance(value, str):
            text = value
        elif isinstance(value, list) and FLAGS[key].get("type") is _float_list:
            text = ",".join(json.dumps(v) for v in value)
        else:  # json spelling, so true and [1] fail the flag's type as text would
            text = json.dumps(value)
        tokens[key] = f"{_flag(key)}={text}"
    return tokens


def _reads(ns: argparse.Namespace) -> tuple[str, tuple[str, ...]]:
    """How the parsed invocation is named in messages, and the flags it reads.

    A figure reads its id's flags. A sweep reads neither the flag of the axis
    it sweeps nor, with a closed-form quantity, --mode.
    """
    if ns.command == "figure":
        return f"figure {ns.id}", FIGURES[ns.id].flags
    reads = COMMANDS[ns.command].flags
    if ns.command != "sweep":
        return ns.command, reads
    skip = {ns.axis}
    if ns.quantity in CLOSED_FORM_QUANTITIES:
        skip.add("mode")
    chosen = [f"{_flag(k)} {getattr(ns, k)}" for k in ("axis", "quantity")
              if getattr(ns, k) is not None]
    return " ".join(["sweep", *chosen]), tuple(k for k in reads if k not in skip)


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    ns = parser.parse_args(argv)
    command = COMMANDS[ns.command]
    tokens = _config_tokens(ns.config) if ns.config else {}
    at = argv.index(ns.command) + 1

    def with_config(keys) -> argparse.Namespace:
        # file values go ahead of the explicit flags, so the explicit flags win
        given = [tokens[k] for k in keys if k in tokens]
        return parser.parse_args(argv[:at] + given + argv[at:]) if given else ns

    # a sweep's axis and quantity, which the file may give, decide what it reads
    name, reads = _reads(with_config(k for k in ("axis", "quantity") if k in command.flags))
    unread = [_flag(k) for k in command.flags
              if k not in reads and getattr(ns, k) is not None]
    if unread:
        raise CliUsageError(f"{name} does not take {', '.join(unread)}; "
                            f"it takes {', '.join(map(_flag, reads))}")
    return with_config(reads)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = _parse(parser, sys.argv[1:] if argv is None else list(argv))
        return COMMANDS[ns.command].handler(ns)
    except SystemExit as exc:  # argparse: --help, --version, bad flag or value
        return int(exc.code) if exc.code is not None else 0
    except (CliUsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
