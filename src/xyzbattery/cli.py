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
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

# numpy, model, linalg and charging load only in the handlers that propagate
# or diagonalise, so the closed-form commands, charging-only work curves and
# peaks, --help and --version start without them
from . import __version__
from .analytics import (
    FlatSignalError,
    classify_branch,
    closed_form_work,
    consistency_report,
    cosine_work,
    dynamics_coefficients,
    large_B_asymptote,
    linspace,
    max_work,
    oracle_peak,
    sample_times,
    work_coefficients,
)
from .params import (MODES, ChargingSpec, SpinParams, UnsupportedClosedFormError,
                     check_omega)

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


def __getattr__(name: str):
    """charging.work_series and concurrent.futures.ThreadPoolExecutor, bound
    here on first read: tools that patch what the CLI calls look them up as
    cli.work_series and cli.ThreadPoolExecutor. Neither loads at import."""
    if name == "work_series":
        from .charging import work_series as value
    elif name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


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
    if isinstance(value, float):  # numpy.float64 included
        return format(float(value), ".17g")
    text = str(value)
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _is_array(value) -> bool:
    """A numpy array; without numpy loaded, nothing is one."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def _row_count(data) -> int:
    """Rows of a table given one entry per column: an array, a list, or one
    value that repeats on every row (a table of single values has one row)."""
    lengths = {len(v) for v in data if isinstance(v, list) or _is_array(v)}
    if len(lengths) > 1:
        raise RuntimeError(f"columns of unequal length: {sorted(lengths)}")
    return lengths.pop() if lengths else 1


def _cells(value, rows: int, cell: Callable) -> list:
    """One column's cells; a single value is converted once and repeated."""
    if _is_array(value):
        value = value.tolist()
    if isinstance(value, list):
        return list(map(cell, value))
    return [cell(value)] * rows


def _render_csv(columns, data) -> str:
    rows = _row_count(data)
    cells = []
    for value in data:
        if _is_array(value):
            value = value.tolist()
        floats = isinstance(value, list) and all(isinstance(v, float) for v in value)
        # "%.17g" % v is format(v, ".17g"), nan, inf and -0.0 included
        cells.append(_cells(value, rows, "%.17g".__mod__ if floats else _fmt))
    lines = [",".join(map(_fmt, columns)), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def _json_value(value):
    # strict JSON has no NaN or Infinity: every non-finite float is null
    if isinstance(value, float):  # numpy.float64 included
        return float(value) if math.isfinite(value) else None
    return value


def _render_json(columns, data) -> str:
    rows = _row_count(data)
    cells = [_cells(value, rows, _json_value) for value in data]
    payload = {"columns": list(columns), "rows": [list(row) for row in zip(*cells)]}
    return json.dumps(payload, indent=2) + "\n"


def _render(fmt: str, columns, data) -> str:
    return (_render_json if fmt == "json" else _render_csv)(columns, data)


def _write(path: Path, text: str) -> None:
    """Write text to path, creating its directory; a path that cannot be
    written is bad input."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _write_manifest(path: Path, command: str, ns, reads, files=None) -> None:
    record = {
        "command": command,
        # every input the invocation read, defaults and the computed t_max included
        "parameters": {k: getattr(ns, k) for k in reads if k not in _OUTPUT},
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if files is not None:
        record["files"] = list(files)
    _write(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def _emit(ns, reads, columns, data) -> None:
    """With --out, write a table given one entry per column; then print it."""
    body = _render(ns.format, columns, data)
    if ns.out:
        path = Path(ns.out)
        _write(path, body)
        _write_manifest(path.with_name(path.name + ".manifest.json"),
                        ns.command, ns, reads)
    sys.stdout.write(body)


def _figure_bundle(ns, reads, columns, files) -> None:
    """Write each (stem, one entry per column) table and a manifest, then
    print their paths."""
    out_dir = Path(ns.out)
    written = [f"{stem}.{ns.format}" for stem, _ in files]
    for name in written:
        if written.count(name) > 1:  # stems print their values to 6 digits
            raise ValueError(f"figure {ns.id} would write {out_dir / name} twice")
    for name, (_, data) in zip(written, files):
        _write(out_dir / name, _render(ns.format, columns, data))
    _write_manifest(out_dir / f"figure{ns.id}_manifest.json",
                    f"figure {ns.id}", ns, reads, files=written)
    for name in written:
        print(out_dir / name)
    print(out_dir / f"figure{ns.id}_manifest.json")


# ---------------------------------------------------------------------------
# settings: argparse holds every value, config-file values included


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _typed(value) -> str:
    """A default as a user types it: 1, 0.2, 1,0.7,0.3, charging-only, ."""
    return (",".join(map(_typed, value)) if isinstance(value, tuple)
            else str(value).removesuffix(".0"))


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _spin(q) -> SpinParams:
    """The battery parameters of a mapping of flag values."""
    return SpinParams(q["J"], q["Jz"], q["gamma"], q["B"], q["beta"])


def _grid(ns, start: str, stop: str) -> list[float]:
    """--steps points from flag start to flag stop (numpy.linspace's values):
    start < stop, and a finite span between them (so finite ends)."""
    lo, hi = getattr(ns, start), getattr(ns, stop)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"need finite {_flag(start)} < {_flag(stop)}, got {lo} and {hi}")
    if ns.steps < 2:
        raise ValueError(f"--steps must be >= 2, got {ns.steps}")
    return linspace(lo, hi, ns.steps)


# ---------------------------------------------------------------------------
# commands: each reads its flags from the namespace, defaults filled in, and
# returns one entry per column (a figure: one (file stem, entries) per file)


def _cmd_spectrum(ns) -> list:
    import numpy as np

    from .linalg import hermitian_eig
    from .model import build_total_hamiltonian, closed_form_spectrum

    p = _spin(vars(ns))
    dec = closed_form_spectrum(p)
    h = build_total_hamiltonian(p)
    numeric = hermitian_eig(h)[0]
    labelled = np.array(dec.labelled_energies)
    ascending = np.argsort(labelled, kind="stable")
    e_numeric = np.empty(4)
    e_numeric[ascending] = numeric
    residuals = np.empty(4)
    for i, (energy, psi) in enumerate(zip(dec.labelled_energies, dec.labelled_vectors)):
        with np.errstate(over="ignore", invalid="ignore"):
            r = (h @ psi - energy * psi).view(float)
        # a power-of-two rescale is exact, so the norm's squares cannot overflow
        k = np.frexp(np.max(np.abs(r)))[1]
        residuals[i] = np.ldexp(np.linalg.norm(np.ldexp(r, -k).view(complex)), k)
    if not np.isfinite(residuals).all():
        raise ValueError(f"vector residual overflowed for {p!r}")
    return [np.arange(1, 5), labelled, e_numeric, residuals,
            dec.eta, dec.n_plus, dec.n_minus, p.J, p.Jz, p.gamma, p.B, p.beta]


def _cmd_gibbs(ns) -> list:
    import numpy as np

    from .model import gibbs_state

    p = _spin(vars(ns))
    rho_oracle = gibbs_state(p, method="oracle")
    try:
        rho_closed = gibbs_state(p, method="closed_form")
    except UnsupportedClosedFormError:  # general beta: the closed columns read nan
        rho_closed = np.full((4, 4), complex(math.nan, math.nan))
    index = np.arange(4)
    closed, oracle = rho_closed.ravel(), rho_oracle.ravel()
    return [np.repeat(index, 4), np.tile(index, 4), closed.real, closed.imag,
            oracle.real, oracle.imag, p.J, p.Jz, p.gamma, p.B, p.beta]


def _cmd_coeffs(ns) -> list:
    p = _spin(vars(ns))
    c = work_coefficients(p)
    for name in ("b1", "b2"):  # printed here alone; a, b and d are checked already
        if not math.isfinite(getattr(c, name)):
            raise ValueError(f"coefficient {name} overflowed for {p!r}")
    return [c.a, c.b, c.b1, c.b2, c.b3, c.d, c.x, classify_branch(c),
            p.J, p.Jz, p.gamma, p.B, p.beta]


def _cmd_work(ns) -> list:
    p = _spin(vars(ns))
    check_omega(ns.omega)
    if ns.t_max is None:
        ns.t_max = 2.0 * math.pi / ns.omega
    return _work_curve_columns(p, ns.omega, ns.mode, ns.t_max, ns.samples)


def _cmd_maxwork(ns) -> list:
    p = _spin(vars(ns))
    c = work_coefficients(p)
    asymptote = large_B_asymptote(p) if p.B > 0 else math.nan
    try:
        ext = max_work(c, ns.omega)
    except FlatSignalError:  # no extremum: w_max through delta_t_mixed read nan
        extrema = ["flat"] + [math.nan] * 7
    else:
        t1, t2 = (*ext.peak_times, math.nan)[:2]
        # unit-mixed variant of the peak separation, kept for comparison
        delta_t_mixed = math.nan
        if ext.delta_phi is not None:
            delta_t_mixed = 2.0 * math.pi - (2.0 / ns.omega) * math.acos(-c.x)
        extrema = [ext.branch, ext.w_max, ext.w_m, t1, t2, ext.delta_phi,
                   ext.delta_t, delta_t_mixed]
    return [*extrema, asymptote, c.a, c.b, c.x,
            p.J, p.Jz, p.gamma, p.B, p.beta, ns.omega]


def _sweep_row(inputs, axis: str, value: float, quantity: str) -> list:
    """One SWEEP_COLUMNS row: the inputs' values, with the axis set to value."""
    q = {**inputs, axis: value}
    p = _spin(q)
    omega = q["omega"]
    w_max = w_m = math.nan
    if quantity == "w_series_peak_oracle":
        # only the oracle reads --mode; it needs no closed form, so its
        # closed-form cells read nan where beta != 1 or the coefficients
        # overflow
        w_max = oracle_peak(p, ChargingSpec(omega, q["mode"]))
        try:
            c = work_coefficients(p)
        except ValueError:
            return [axis, value, p.J, p.Jz, p.gamma, p.B, omega,
                    math.nan, w_max, w_m, math.nan, math.nan, math.nan]
    else:
        check_omega(omega)
        c = work_coefficients(p)
    if quantity == "w_max_printed":
        try:
            ext = max_work(c, omega)
            w_max = ext.w_max
            w_m = ext.w_m if ext.w_m is not None else math.nan
        except FlatSignalError:
            pass
    return [axis, value, p.J, p.Jz, p.gamma, p.B, omega,
            classify_branch(c), w_max, w_m, c.a, c.b, c.x]


def _sweep_columns(inputs, axis: str, values, quantity: str) -> list:
    """One `_sweep_row` per value, transposed to one list per SWEEP_COLUMNS name."""
    rows = [_sweep_row(inputs, axis, float(value), quantity) for value in values]
    return [list(column) for column in zip(*rows)]


def _cmd_sweep(ns) -> list:
    values = _grid(ns, "start", "stop")
    if ns.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {ns.jobs}")
    return _sweep_columns(vars(ns), ns.axis, values, ns.quantity)


def _work_curve_columns(p: SpinParams, omega: float, mode: str,
                        t_max: float, samples: int) -> list:
    """WORK_COLUMNS for a checked drive: both paths' samples, then the mode
    and drive.

    In charging-only mode the oracle is the dynamics' own two harmonics,
    evaluated on a list of times without numpy; full mode propagates. The
    oracle needs no closed form, so W_closed reads nan where beta != 1 or
    the coefficients overflow.
    """
    if mode == "charging-only":
        times = sample_times(t_max, samples)
        oracle = cosine_work((omega / 2.0, omega), dynamics_coefficients(p), times)
    else:
        from .charging import work_series

        times, oracle = work_series(p, ChargingSpec(omega, mode), t_max=t_max, n=samples)
    try:
        coeffs = work_coefficients(p)
    except ValueError:
        closed = [math.nan] * len(times)
    else:
        closed = closed_form_work(coeffs, omega, times)
    return [times, closed, oracle, mode, omega]


def _figure1(ns) -> list:
    p = _spin(vars(ns))
    for omega in ns.omegas:
        check_omega(omega)
    if ns.t_max is None:
        ns.t_max = 2.0 * 2.0 * math.pi / min(ns.omegas)
    return [(f"figure1_omega{omega:g}",
             _work_curve_columns(p, omega, ns.mode, ns.t_max, ns.samples))
            for omega in ns.omegas]


def _figure3(ns) -> list:
    check_omega(ns.omega)
    if ns.t_max is None:
        ns.t_max = 2.0 * 2.0 * math.pi / ns.omega
    return [(f"figure3_B{b:g}",
             _work_curve_columns(_spin({**vars(ns), "B": b}), ns.omega, ns.mode,
                                 ns.t_max, ns.samples))
            for b in ns.B_values]


def _figure4(ns) -> list:
    gammas = _grid(ns, "gamma_start", "gamma_stop")
    return [(f"figure4_B{b:g}",
             _sweep_columns({**vars(ns), "B": b}, "gamma", gammas, "w_max_printed"))
            for b in ns.B_values]


def _figure5(ns) -> list:
    fields = _grid(ns, "B_start", "B_stop")
    return [("figure5", _sweep_columns(vars(ns), "B", fields, "w_max_printed"))]


def _cmd_report(ns) -> list:
    p = _spin(vars(ns))
    report = consistency_report(p, ns.omega)

    def per_fit(field: str) -> list:
        return [getattr(fit, field) for fit in report.fits]

    return [per_fit("mode"), ns.omega,
            p.J, p.Jz, p.gamma, p.B, p.beta, report.a_printed, report.b_printed,
            per_fit("a_fitted"), per_fit("b_fitted"), per_fit("alpha0"),
            per_fit("residual"), per_fit("ratio_a"), per_fit("ratio_b"),
            report.w_half_period_closed, per_fit("w_half_period_oracle")]


# ---------------------------------------------------------------------------
# the command table: each command and figure id lists the flags it reads;
# the parser, the dispatch and the config keys are all derived from it

# flag destination -> add_argument keywords; the flag is _flag(destination)
FLAGS = {
    "J": {"type": float, "help": "in-plane coupling strength"},
    "Jz": {"type": float, "help": "z-axis coupling strength"},
    "gamma": {"type": float, "help": "in-plane anisotropy"},
    "B": {"type": float, "help": "magnetic field strength"},
    "beta": {"type": float, "help": "inverse temperature"},
    "omega": {"type": float, "help": "drive strength"},
    "t_max": {"type": float, "help": "time-series end; whole drive periods if left out"},
    "samples": {"type": int, "help": "time-series sample count"},
    "mode": {"choices": MODES, "help": "propagation mode"},
    "out": {"help": "write output here (figure: directory)"},
    "format": {"choices": ("csv", "json"), "help": "output format"},
    "config": {"help": "JSON file of flag values; explicit flags override it"},
    "jobs": {"type": int, "help": "accepted for compatibility; no effect, sweeps run serially"},
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
# read but never required: without --out a command only prints, and t_max
# is computed from the drive
_OPTIONAL = ("out", "config", "t_max")


class Command(NamedTuple):
    """One command or figure id: its handler, the flag destinations it reads,
    its output columns and the defaults of the flags it may leave out.

    A command's handler returns one entry per column, a figure id's one
    (file stem, entries) pair per data file. Every other flag it reads,
    apart from _OPTIONAL, is required.
    """

    handler: Callable[[argparse.Namespace], list] | None
    flags: tuple[str, ...]
    columns: tuple[str, ...]
    defaults: dict
    help: str


# the default of each of these flags in every entry that reads it
_SHARED_DEFAULTS = {"beta": 1.0, "omega": 1.0, "mode": "charging-only", "format": "csv"}


def _entry(handler, flags, columns, help="", **defaults) -> Command:
    """A table entry: the shared defaults of its flags, then its own; an own
    default of None leaves the flag required."""
    merged = {k: v for k, v in _SHARED_DEFAULTS.items() if k in flags} | defaults
    return Command(handler, flags, columns,
                   {k: v for k, v in merged.items() if v is not None}, help)


FIGURES = {
    1: _entry(_figure1, _PARAMS + ("omegas", "t_max", "samples", "mode") + _OUTPUT,
              WORK_COLUMNS, J=0.2, Jz=0.2, gamma=0.5, B=1.0, omegas=(1.0, 0.7, 0.3),
              samples=1001, out="."),
    3: _entry(_figure3, ("J", "Jz", "gamma", "beta", "omega", "B_values", "t_max",
                         "samples", "mode") + _OUTPUT,
              WORK_COLUMNS, omega=None, samples=1001, out="."),
    4: _entry(_figure4, ("J", "Jz", "beta", "omega", "B_values", "gamma_start",
                         "gamma_stop", "steps") + _OUTPUT,
              SWEEP_COLUMNS, gamma_start=-1.0, gamma_stop=1.0, steps=101, out="."),
    5: _entry(_figure5, ("J", "Jz", "gamma", "beta", "omega", "B_start", "B_stop",
                         "steps") + _OUTPUT,
              SWEEP_COLUMNS, steps=101, out="."),
}

COMMANDS = {
    "spectrum": _entry(_cmd_spectrum, _PARAMS + _OUTPUT, SPECTRUM_COLUMNS,
                       "labelled eigenpairs with numerical residuals"),
    "gibbs": _entry(_cmd_gibbs, _PARAMS + _OUTPUT, GIBBS_COLUMNS,
                    "thermal state, closed form next to the oracle"),
    "work": _entry(_cmd_work, _PARAMS + ("omega", "t_max", "samples", "mode") + _OUTPUT,
                   WORK_COLUMNS, "stored-work time series from both paths", samples=201),
    "coeffs": _entry(_cmd_coeffs, _PARAMS + _OUTPUT, COEFFS_COLUMNS,
                     "closed-form work coefficients and branch"),
    "maxwork": _entry(_cmd_maxwork, _PARAMS + ("omega",) + _OUTPUT, MAXWORK_COLUMNS,
                      "maximum stored work, peak times, plateau widths"),
    "report": _entry(_cmd_report, _PARAMS + ("omega",) + _OUTPUT, REPORT_COLUMNS,
                     "closed-form vs dynamics reconciliation record"),
    "sweep": _entry(_cmd_sweep, _PARAMS + ("omega", "mode", "axis", "start", "stop",
                                           "steps", "quantity", "jobs") + _OUTPUT,
                    SWEEP_COLUMNS, "scan one parameter, CSV per grid point", jobs=1),
    # one subparser takes the union of the figure ids' flags; _parse reads the
    # chosen id's entry and rejects a flag it does not read
    "figure": Command(None, tuple(k for k in FLAGS
                                  if any(k in fig.flags for fig in FIGURES.values())),
                      (), {}, "regenerate figure data bundles"),
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
                f"{i} takes " + " ".join(
                    _flag(k) + (f"={_typed(fig.defaults[k])}" if k in fig.defaults else "")
                    for k in fig.flags)
                for i, fig in FIGURES.items()))
        for dest in command.flags:
            spec = FLAGS[dest]
            if dest in command.defaults:
                spec = spec | {"help": f"{spec.get('help', '')} "
                                       f"(default {_typed(command.defaults[dest])})"}
            cmd.add_argument(_flag(dest), **spec)
    return parser


# ---------------------------------------------------------------------------
# parsing: explicit flags > config file > built-in defaults


def _config_tokens(path: str) -> dict[str, str]:
    """The `--flag=value` token a config file gives for each key it sets."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
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


def _reads(ns: argparse.Namespace) -> tuple[str, Command, tuple[str, ...]]:
    """How the parsed invocation is named in messages, its table entry and
    the flags it reads.

    A figure reads its id's flags. A sweep reads neither the flag of the axis
    it sweeps nor, with a closed-form quantity, --mode.
    """
    if ns.command == "figure":
        return f"figure {ns.id}", FIGURES[ns.id], FIGURES[ns.id].flags
    entry = COMMANDS[ns.command]
    if ns.command != "sweep":
        return ns.command, entry, entry.flags
    skip = {ns.axis}
    if ns.quantity in CLOSED_FORM_QUANTITIES:
        skip.add("mode")
    chosen = [f"{_flag(k)} {getattr(ns, k)}" for k in ("axis", "quantity")
              if getattr(ns, k) is not None]
    return (" ".join(["sweep", *chosen]), entry,
            tuple(k for k in entry.flags if k not in skip))


def _parse(parser: argparse.ArgumentParser, argv: list[str]):
    """The invocation's namespace, with config values merged and defaults
    filled in, its table entry and the flags it reads."""
    ns = parser.parse_args(argv)
    command = COMMANDS[ns.command]
    tokens = _config_tokens(ns.config) if ns.config else {}
    at = argv.index(ns.command) + 1

    def with_config(keys) -> argparse.Namespace:
        # file values go ahead of the explicit flags, so the explicit flags win
        given = [tokens[k] for k in keys if k in tokens]
        return parser.parse_args(argv[:at] + given + argv[at:]) if given else ns

    # a sweep's axis and quantity, which the file may give, decide what it reads
    name, entry, reads = _reads(
        with_config(k for k in ("axis", "quantity") if k in command.flags))
    unread = [_flag(k) for k in command.flags
              if k not in reads and getattr(ns, k) is not None]
    if unread:
        raise ValueError(f"{name} does not take {', '.join(unread)}; "
                         f"it takes {', '.join(map(_flag, reads))}")
    ns = with_config(reads)
    for key in reads:
        if getattr(ns, key) is None and key in entry.defaults:
            setattr(ns, key, entry.defaults[key])
    missing = [_flag(k) for k in reads if getattr(ns, k) is None and k not in _OPTIONAL]
    if missing:
        raise ValueError(f"{name} requires explicit values for: {', '.join(missing)}")
    return ns, entry, reads


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns, entry, reads = _parse(parser, sys.argv[1:] if argv is None else list(argv))
        result = entry.handler(ns)
        if ns.command == "figure":
            _figure_bundle(ns, reads, entry.columns, result)
        else:
            _emit(ns, reads, entry.columns, result)
        return 0
    except SystemExit as exc:  # argparse: --help, --version, bad flag or value
        return int(exc.code) if exc.code is not None else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
