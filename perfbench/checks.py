"""Output checks made by the benchmark itself, outside the program.

`check(task, stdout)` parses one command's CSV body and returns a list of
problems; an empty list means the output is correct. The checks use only
the task's inputs, the printed values and the paper's closed-form
coefficients recomputed here.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from workloads import Task, closed_form_coefficients

B_ZERO_TOL = 1e-14          # |b| below this is the degenerate branch
PASSIVITY_TOL = 1e-12       # a Gibbs state is passive: W >= -1e-12
MATCH_TOL = 1e-12           # closed form against oracle, absolute
ENERGY_TOL = 1e-10          # relative to the energy scale
FIT_TOL = 1e-9              # harmonic fit residual and quarter factor
COEFF_TOL = 1e-12           # printed a, b against the recomputed ones
COARSE_GRID = 4096

_ECHO_KEYS = ("J", "Jz", "gamma", "B")


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(row: dict, key: str) -> float:
    return float(row[key])


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol


def _echo_problems(row: dict, inputs: dict, keys=_ECHO_KEYS) -> list[str]:
    return [f"echo {k}={row[k]} for input {inputs[k]!r}"
            for k in keys if k in inputs and _num(row, k) != inputs[k]]


def _branch(a: float, b: float) -> str:
    if abs(a) > 4.0 * abs(b):
        return "max1"
    if abs(b) >= B_ZERO_TOL:
        return "max2"
    return "degenerate_b_zero"


def _coefficient_problems(row: dict, params: dict) -> list[str]:
    a, b = closed_form_coefficients(params["J"], params["Jz"], params["gamma"],
                                    params["B"])
    scale = max(1.0, abs(a), abs(b))
    out = []
    if not _close(_num(row, "a"), a, COEFF_TOL * scale):
        out.append(f"a={row['a']} but the closed form gives {a!r}")
    if not _close(_num(row, "b"), b, COEFF_TOL * scale):
        out.append(f"b={row['b']} but the closed form gives {b!r}")
    return out


_PHASES = np.arange(COARSE_GRID) * (2.0 * math.pi / COARSE_GRID)
_ONE_MINUS_COS = 1.0 - np.cos(_PHASES)
_ONE_MINUS_COS2 = 1.0 - np.cos(2.0 * _PHASES)


def _coarse_max(a: float, b: float) -> float:
    return float(np.max(a * _ONE_MINUS_COS + b * _ONE_MINUS_COS2))


def _w_max_problems(w_max: float, a: float, b: float) -> list[str]:
    # w_max is at least the coarse-grid maximum and above it by no more
    # than the curvature bound (|a| + 4|b|) * step^2 / 8
    coarse = _coarse_max(a, b)
    step = 2.0 * math.pi / COARSE_GRID
    slack = MATCH_TOL * max(1.0, abs(a) + abs(b))
    if not coarse - slack <= w_max <= coarse + (abs(a) + 4.0 * abs(b)) * step * step / 8.0 + slack:
        return [f"w_max={w_max!r} against coarse-grid maximum {coarse!r}"]
    return []


def _check_spectrum(task: Task, rows: list[dict]) -> list[str]:
    if len(rows) != 4:
        return [f"expected 4 eigenpairs, got {len(rows)}"]
    out = []
    scale = max(1.0, max(abs(_num(r, "E_numeric")) for r in rows))
    for r in rows:
        if not _close(_num(r, "E_closed"), _num(r, "E_numeric"), ENERGY_TOL * scale):
            out.append(f"k={r['k']}: E_closed={r['E_closed']} E_numeric={r['E_numeric']}")
        if not _num(r, "vector_residual") <= ENERGY_TOL * scale:
            out.append(f"k={r['k']}: vector residual {r['vector_residual']}")
        out += _echo_problems(r, task.inputs, _ECHO_KEYS + ("beta",))
    return out


def _check_gibbs(task: Task, rows: list[dict]) -> list[str]:
    if len(rows) != 16:
        return [f"expected 16 matrix elements, got {len(rows)}"]
    out = []
    rho = {(int(r["row"]), int(r["col"])): r for r in rows}
    trace = sum(_num(rho[i, i], "re_oracle") for i in range(4))
    if not _close(trace, 1.0, MATCH_TOL):
        out.append(f"oracle trace {trace!r}")
    for (i, j), r in rho.items():
        mirror = rho[j, i]
        if not (_close(_num(r, "re_oracle"), _num(mirror, "re_oracle"), MATCH_TOL)
                and _close(_num(r, "im_oracle"), -_num(mirror, "im_oracle"), MATCH_TOL)):
            out.append(f"oracle not Hermitian at ({i}, {j})")
        if task.inputs.get("beta", 1.0) == 1.0:
            for part in ("re", "im"):
                if not _close(_num(r, f"{part}_closed"), _num(r, f"{part}_oracle"), MATCH_TOL):
                    out.append(f"({i}, {j}) {part}: closed {r[part + '_closed']}"
                               f" oracle {r[part + '_oracle']}")
        elif not (math.isnan(_num(r, "re_closed")) and math.isnan(_num(r, "im_closed"))):
            out.append(f"({i}, {j}): closed form printed at beta != 1")
        out += _echo_problems(r, task.inputs, _ECHO_KEYS + ("beta",))
    return out


def _check_coeffs(task: Task, rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    r = rows[0]
    out = _coefficient_problems(r, task.inputs) + _echo_problems(r, task.inputs)
    if r["branch"] != _branch(_num(r, "a"), _num(r, "b")):
        out.append(f"branch {r['branch']} breaks the |a| > 4|b| rule")
    return out


def _check_maxwork(task: Task, rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    r = rows[0]
    a, b = _num(r, "a"), _num(r, "b")
    out = _coefficient_problems(r, task.inputs) + _echo_problems(r, task.inputs)
    expected = _branch(a, b)
    if expected == "degenerate_b_zero":
        expected = "flat"
    if r["branch"] != expected:
        out.append(f"branch {r['branch']}, expected {expected}")
    elif expected != "flat":
        out += _w_max_problems(_num(r, "w_max"), a, b)
    return out


def _check_work(task: Task, rows: list[dict]) -> list[str]:
    inputs = task.inputs
    if len(rows) != inputs["samples"]:
        return [f"expected {inputs['samples']} samples, got {len(rows)}"]
    a, b = closed_form_coefficients(inputs["J"], inputs["Jz"], inputs["gamma"],
                                    inputs["B"])
    omega = inputs["omega"]
    tol = MATCH_TOL * max(1.0, abs(a) + abs(b))
    out = []
    if _num(rows[0], "t") != 0.0 or _num(rows[0], "W_oracle") != 0.0:
        out.append(f"W_oracle(0) = {rows[0]['W_oracle']} at t = {rows[0]['t']}")
    for r in rows:
        t, w_oracle = _num(r, "t"), _num(r, "W_oracle")
        if not w_oracle >= -PASSIVITY_TOL:
            out.append(f"t={r['t']}: W_oracle={r['W_oracle']} is below zero")
        closed = a * (1.0 - math.cos(omega * t)) + b * (1.0 - math.cos(2.0 * omega * t))
        if not _close(_num(r, "W_closed"), closed, tol):
            out.append(f"t={r['t']}: W_closed={r['W_closed']}, closed form {closed!r}")
        if r["mode"] != inputs["mode"] or _num(r, "omega") != omega:
            out.append(f"t={r['t']}: echoed mode {r['mode']} omega {r['omega']}")
        if len(out) > 8:
            break
    return out


def _check_report(task: Task, rows: list[dict]) -> list[str]:
    if [r["mode"] for r in rows] != ["charging-only", "full"]:
        return [f"expected a charging-only and a full row, got {len(rows)} rows"]
    out = []
    for r in rows:
        a = _num(r, "a_printed")
        out += _coefficient_problems({"a": r["a_printed"], "b": r["b_printed"]},
                                     task.inputs)
        out += _echo_problems(r, task.inputs)
        if not _close(_num(r, "w_half_period_closed"), 2.0 * a,
                      MATCH_TOL * max(1.0, abs(a))):
            out.append(f"{r['mode']}: W_closed(pi/omega)={r['w_half_period_closed']}, 2a={2 * a!r}")
        if not _num(r, "w_half_period_oracle") >= -PASSIVITY_TOL:
            out.append(f"{r['mode']}: W_oracle(pi/omega)={r['w_half_period_oracle']}")
        if not math.isfinite(_num(r, "residual")):
            out.append(f"{r['mode']}: residual {r['residual']}")
    drive = rows[0]
    a, a_fitted = _num(drive, "a_printed"), _num(drive, "a_fitted")
    tol = FIT_TOL * max(1.0, abs(a))
    # the printed a is four times the fitted one: the documented quarter factor
    if not _close(a, 4.0 * a_fitted, tol):
        out.append(f"charging-only: a_printed={a!r} is not 4 * a_fitted={a_fitted!r}")
    if not _close(_num(drive, "ratio_a") * a_fitted, a, tol):
        out.append(f"charging-only: ratio_a={drive['ratio_a']} is not a_printed / a_fitted")
    if not _num(drive, "residual") <= FIT_TOL:
        out.append(f"charging-only: fit residual {drive['residual']}")
    return out


def _check_sweep(task: Task, rows: list[dict]) -> list[str]:
    inputs = task.inputs
    if len(rows) != inputs["steps"]:
        return [f"expected {inputs['steps']} rows, got {len(rows)}"]
    axis, quantity = inputs["axis"], inputs["quantity"]
    start, stop, steps = inputs["start"], inputs["stop"], inputs["steps"]
    out = []
    for k, r in enumerate(rows):
        value = _num(r, "value")
        expected_value = start + (stop - start) * k / (steps - 1)
        if r["axis"] != axis or not _close(value, expected_value, 1e-12 * max(1.0, abs(stop))):
            out.append(f"row {k}: axis {r['axis']} value {r['value']}")
            continue
        params = dict(inputs)
        params[axis] = value
        out += _echo_problems(r, params, _ECHO_KEYS + ("omega",))
        a, b = _num(r, "a"), _num(r, "b")
        out += _coefficient_problems(r, params)
        if r["branch"] != _branch(a, b):
            out.append(f"row {k}: branch {r['branch']} breaks the |a| > 4|b| rule")
        w_max = _num(r, "w_max")
        if quantity == "w_max_printed" and _branch(a, b) != "degenerate_b_zero":
            out += [f"row {k}: {p}" for p in _w_max_problems(w_max, a, b)]
        elif quantity == "coefficients" and not math.isnan(w_max):
            out.append(f"row {k}: w_max={r['w_max']} for the coefficients quantity")
        elif quantity == "w_series_peak_oracle" and not (
                math.isfinite(w_max) and w_max >= -PASSIVITY_TOL):
            out.append(f"row {k}: oracle peak {r['w_max']}")
    return out


_CHECKS = {
    "spectrum": _check_spectrum,
    "gibbs": _check_gibbs,
    "coeffs": _check_coeffs,
    "maxwork": _check_maxwork,
    "work": _check_work,
    "report": _check_report,
    "sweep": _check_sweep,
}


def check(task: Task, stdout: str) -> list[str]:
    """Problems found in one task's output; empty when it is correct."""
    try:
        return _CHECKS[task.command](task, _rows(stdout))
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]
