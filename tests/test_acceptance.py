"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Oracles used here (grid searches, series exponentials, finite
enumeration) are written locally so they stay independent of the library
paths they check.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import FIG1_PARAMS, draw_params, expm_taylor
from xyzbattery import cli
from xyzbattery.analytics import (
    BRANCH_MAX1,
    BRANCH_MAX2,
    classify_branch,
    closed_form_work,
    consistency_report,
    harmonic_fit,
    work_coefficients,
)
from xyzbattery.charging import (
    build_charging_hamiltonian,
    ergotropy,
    evolve,
    propagator,
    work_curve,
    work_series,
)
from xyzbattery.linalg import expectation, hermitian_eig, unitary_exp
from xyzbattery.model import (
    SpinParams,
    build_total_hamiltonian,
    closed_form_spectrum,
    eta_value,
    gibbs_state,
)
from xyzbattery.params import ChargingSpec

DRIVE = ChargingSpec(omega=1.0)


def _passed(number: int, label: str) -> None:
    print(f"[acceptance] criterion {number:02d} PASS - {label}")


def _golden(f, lo: float, hi: float, sign: float, tol: float = 1e-9):
    """Golden-section extremum of sign*f on [lo, hi]; returns (x, f(x))."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = sign * f(x1), sign * f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = sign * f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = sign * f(x1)
    mid = (lo + hi) / 2.0
    return mid, f(mid)


def _grid_extremum(f, lo: float, hi: float, n: int, sign: float):
    phases = np.linspace(lo, hi, n, endpoint=False)
    values = sign * f(phases)
    k = int(np.argmax(values))
    step = (hi - lo) / n
    return _golden(lambda x: float(f(np.asarray(x))), phases[k] - step,
                   phases[k] + step, sign)


def test_criterion_01_printed_peak_value_and_location():
    c = work_coefficients(FIG1_PARAMS)
    w = lambda phi: c.a * (1.0 - np.cos(phi)) + c.b * (1.0 - np.cos(2.0 * phi))
    phase, value = _grid_extremum(w, 0.0, 2.0 * math.pi, 200_000, sign=+1.0)
    assert abs(value - 3.369) <= 0.001
    assert abs(phase - math.pi) <= 1e-6  # omega = 1, so phase equals t
    _passed(1, f"peak {value:.4f} at phase {phase:.9f}")


def test_criterion_02_branch_condition():
    c = work_coefficients(FIG1_PARAMS)
    assert abs(abs(c.x) - 1.489) <= 0.001
    assert abs(c.x) > 1.0
    assert classify_branch(c) == BRANCH_MAX1
    _passed(2, f"|a/4b| = {abs(c.x):.4f} > 1, branch max1")


def test_criterion_03_spectrum_equivalence():
    rng = np.random.default_rng(2003)
    worst_value, worst_residual = 0.0, 0.0
    for _ in range(1000):
        p = draw_params(rng)
        h = build_total_hamiltonian(p)
        dec = closed_form_spectrum(p)
        numeric, _ = hermitian_eig(h)
        gap = np.max(np.abs(np.sort(dec.labelled_energies) - numeric))
        worst_value = max(worst_value, float(gap))
        for energy, psi in zip(dec.labelled_energies, dec.labelled_vectors):
            residual = float(np.linalg.norm(h @ psi - energy * psi))
            worst_residual = max(worst_residual, residual)
    assert worst_value < 1e-10
    assert worst_residual < 1e-10
    _passed(3, f"1000 draws, eigenvalue gap {worst_value:.2e}, "
               f"vector residual {worst_residual:.2e}")


def test_criterion_04_thermal_state_equivalence():
    rng = np.random.default_rng(2004)
    worst_state, worst_comm = 0.0, 0.0
    for _ in range(1000):
        p = draw_params(rng)
        h = build_total_hamiltonian(p)
        closed = gibbs_state(p, method="closed_form")
        oracle = gibbs_state(p, method="oracle")
        worst_state = max(worst_state, float(np.max(np.abs(closed - oracle))))
        worst_comm = max(worst_comm,
                         float(np.max(np.abs(h @ closed - closed @ h))))
    assert worst_state < 1e-12
    assert worst_comm < 1e-12
    _passed(4, f"1000 draws, state gap {worst_state:.2e}, "
               f"commutator {worst_comm:.2e}")


def test_criterion_05_passivity_and_ergotropy():
    rng = np.random.default_rng(2005)
    worst_gibbs, worst_match = 0.0, 0.0
    for _ in range(20):
        p = draw_params(rng)
        h = build_total_hamiltonian(p)
        rho0 = gibbs_state(p)
        worst_gibbs = max(worst_gibbs, abs(ergotropy(rho0, h)))
        spec = ChargingSpec(omega=rng.uniform(0.3, 2.0))
        for t in rng.uniform(0.0, 12.0, 5):
            rho_t = evolve(rho0, propagator(p, spec, t))
            gap = abs(ergotropy(rho_t, h) - work_curve(p, spec)(t))
            worst_match = max(worst_match, gap)
    assert worst_gibbs < 1e-12
    assert worst_match < 1e-10
    _passed(5, f"gibbs ergotropy {worst_gibbs:.2e}, "
               f"ergotropy-vs-work gap {worst_match:.2e} over 100 samples")


def test_criterion_06_harmonic_structure():
    rng = np.random.default_rng(2006)
    worst = 0.0
    for _ in range(100):
        p = draw_params(rng)
        spec = ChargingSpec(omega=rng.uniform(0.3, 2.5))
        times, values = work_series(p, spec, t_max=2.0 * math.pi / spec.omega, n=64)
        worst = max(worst, harmonic_fit(times, values, spec.omega).residual)
    assert worst < 1e-9
    p0 = SpinParams(J=rng.uniform(-2, 2), Jz=rng.uniform(-2, 2),
                    gamma=rng.uniform(-1, 1), B=0.0)
    alpha1 = harmonic_fit(*work_series(p0, DRIVE, t_max=2.0 * math.pi, n=64),
                          DRIVE.omega).alpha1
    assert abs(alpha1) < 1e-10
    _passed(6, f"100 draws, max fit residual {worst:.2e}; "
               f"B=0 single-harmonic amplitude {abs(alpha1):.2e}")


def test_criterion_07_oracle_spot_value():
    p = FIG1_PARAMS
    h = build_total_hamiltonian(p)
    rho0 = gibbs_state(p)
    e0 = expectation(h, rho0)
    h_c = build_charging_hamiltonian(DRIVE.omega)
    t_half = math.pi

    u_spectral = unitary_exp(h_c, t_half)
    u_series = expm_taylor(-1j * t_half * h_c)
    w_spectral = expectation(h, evolve(rho0, u_spectral)) - e0
    w_series = expectation(h, evolve(rho0, u_series)) - e0
    w_product = work_curve(p, DRIVE)(t_half)

    eta = eta_value(p)
    d = eta * (math.exp(p.Jz) * math.cosh(p.J) + math.cosh(eta))
    target = 2.0 * p.B**2 * math.sinh(eta) / d
    for w in (w_spectral, w_series, w_product):
        assert abs(w - 0.8423) <= 0.0005
        assert abs(w - target) < 1e-10
    assert abs(w_spectral - w_series) < 1e-10
    _passed(7, f"W(pi/omega) = {w_product:.6f} from spectral, series, "
               "and product propagators")


def test_criterion_08_reconciliation_report(capsys, tmp_path):
    report = consistency_report(FIG1_PARAMS, 1.0)
    out_file = tmp_path / "report.csv"
    code = cli.main(["report", "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5",
                     "--B", "1", "--omega", "1", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    header, rows = _parse_csv(out_file.read_text())
    assert header == list(cli.REPORT_COLUMNS)
    by_mode = {r["mode"]: r for r in rows}
    drive_row = by_mode["charging-only"]
    drive_fit = {f.mode: f for f in report.fits}["charging-only"]
    # 17-significant-digit formatting round-trips doubles exactly
    assert float(drive_row["a_printed"]) == report.a_printed
    assert float(drive_row["a_fitted"]) == drive_fit.a_fitted
    assert float(drive_row["ratio_a"]) == drive_fit.ratio_a
    assert float(drive_row["w_half_period_oracle"]) == drive_fit.w_half_period_oracle
    _passed(8, f"report round-trips; printed/fitted single-harmonic ratio = "
               f"{drive_fit.ratio_a:.6f} (reported, not judged)")


def test_criterion_09_extrema_algebra():
    rng = np.random.default_rng(2009)
    checked = 0
    worst_max, worst_min, worst_identity = 0.0, 0.0, 0.0
    while checked < 100:
        p = draw_params(rng)
        c = work_coefficients(p)
        # the two-peak value formula presumes a positive 2w amplitude
        if classify_branch(c) != BRANCH_MAX2 or c.b <= 0:
            continue
        checked += 1
        w = lambda phi: c.a * (1.0 - np.cos(phi)) + c.b * (1.0 - np.cos(2.0 * phi))
        w_max_formula = 2.0 * c.b + c.a + c.a * c.a / (8.0 * c.b)
        _, w_max_grid = _grid_extremum(w, 0.0, 2.0 * math.pi, 100_000, sign=+1.0)
        worst_max = max(worst_max, abs(w_max_grid - w_max_formula))

        phi_lo = math.acos(-c.x)
        phi_hi = 2.0 * math.pi - phi_lo
        if phi_hi - phi_lo > 1e-6:
            _, w_min_grid = _grid_extremum(w, phi_lo, phi_hi, 50_000, sign=-1.0)
        else:
            w_min_grid = float(w(np.asarray(math.pi)))
        worst_min = max(worst_min, abs(w_min_grid - 2.0 * c.a))

        gap = w_max_formula - 2.0 * c.a
        worst_identity = max(worst_identity,
                             abs(gap - 2.0 * c.b * (1.0 - c.x) ** 2))
    assert worst_max < 1e-8
    assert worst_min < 1e-8
    assert worst_identity < 1e-10
    _passed(9, f"100 double-peak draws: max gap {worst_max:.2e}, "
               f"min gap {worst_min:.2e}, plateau identity {worst_identity:.2e}")


def test_criterion_10_large_field_linearity():
    values = []
    for b in (10.0, 20.0, 30.0, 40.0, 50.0):
        p = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=b)
        values.append(2.0 * work_coefficients(p).a)
    assert all(lo < hi for lo, hi in zip(values, values[1:]))
    ratio = values[-1] / (8.0 * 50.0)
    assert 0.99 <= ratio <= 1.01
    _passed(10, f"peak strictly increasing on B=10..50; 2a/(8B) = {ratio:.6f} at B=50")


def test_criterion_11_periodicity_and_zero():
    c = work_coefficients(FIG1_PARAMS)
    assert closed_form_work(c, 1.0, 0.0) == 0.0
    assert work_curve(FIG1_PARAMS, DRIVE)(0.0) == 0.0
    period = 2.0 * math.pi
    rng = np.random.default_rng(2011)
    worst = 0.0
    for t in rng.uniform(0.0, period, 25):
        gap_closed = abs(closed_form_work(c, 1.0, t)
                         - closed_form_work(c, 1.0, t + period))
        gap_oracle = abs(work_curve(FIG1_PARAMS, DRIVE)(t)
                         - work_curve(FIG1_PARAMS, DRIVE)(t + period))
        worst = max(worst, gap_closed, gap_oracle)
    assert worst < 1e-10
    _passed(11, f"both paths exactly zero at t=0; periodicity gap {worst:.2e}")


def test_criterion_12_cli_determinism_and_exit_codes(capsys, tmp_path, monkeypatch):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["figure", "1", "--out", str(out_a)]) == 0
    assert cli.main(["figure", "1", "--out", str(out_b)]) == 0
    capsys.readouterr()
    csv_names = sorted(f.name for f in out_a.glob("*.csv"))
    assert len(csv_names) == 3
    for name in csv_names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    code_usage = cli.main(["sweep", "--axis", "B", "--start", "10", "--stop",
                           "50", "--steps", "1", "--quantity", "w_max_printed",
                           "--J", "0.2", "--Jz", "0.2", "--gamma", "0.5"])
    capsys.readouterr()
    assert code_usage == 2

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "max_work", boom)
    code_internal = cli.main(["maxwork", "--J", "0.2", "--Jz", "0.2",
                              "--gamma", "0.5", "--B", "1"])
    capsys.readouterr()
    assert code_internal == 1
    _passed(12, "figure 1 byte-identical twice; exit codes 0, 2, 1 exercised")


def _parse_csv(text: str):
    import csv as _csv
    import io as _io

    rows = list(_csv.reader(_io.StringIO(text)))
    return rows[0], [dict(zip(rows[0], row)) for row in rows[1:]]
