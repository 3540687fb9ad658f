"""Two-harmonic stored-work expression and its maximum-work analysis.

The closed form W(t) = (a+b) - b*cos(2*omega*t) - a*cos(omega*t) is kept
exactly as printed, coefficients included, and is reconciled against the
dynamics pipeline (which is treated as ground truth) through harmonic
fits and a consistency report. Neither path silently overrides the other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charging import MODES, ChargingSpec, WorkSeries, work_curve
from .model import SpinParams, UnsupportedClosedFormError, eta_value, sinhc

B_COEFF_ZERO_TOL = 1e-14
GRID_POINTS_PER_PERIOD = 100_000
MAX_VALUE_TOL = 1e-8
_REFINE_PHASE_TOL = 1e-8
ORACLE_PEAK_SAMPLES = 2048

BRANCH_MAX1 = "max1"
BRANCH_MAX2 = "max2"
BRANCH_DEGENERATE = "degenerate_b_zero"


class FlatSignalError(ValueError):
    """The work signal is identically flat; there is no extremum to report."""


@dataclass(frozen=True)
class WorkCoefficients:
    """Coefficients of the closed-form work expression.

    a scales the omega harmonic, b the 2*omega harmonic; b1, b2, b3 and the
    denominator d are the printed sub-expressions of b. x = a/(4b) is the
    branch ratio, NaN when |b| < 1e-14.
    """

    a: float
    b: float
    b1: float
    b2: float
    b3: float
    d: float
    x: float


@dataclass(frozen=True)
class WorkExtrema:
    """Extrema of the closed-form work signal over one drive period.

    branch max1 (|a| > |4b|): single maximum w_max = 2a at t1 = n*pi/omega,
    n odd. branch max2 (|a| <= |4b|, b > 0): two maxima per period at phases
    arccos(-x) and 2*pi - arccos(-x) with w_max = 2b + a + a^2/(8b), and the
    in-between minimum w_m = 2a at phase pi. If b < 0 while |a| <= |4b| the
    two-maximum formulas describe minima instead; the actual maximum is then
    2a at phase pi and the max2-only fields are left unset. max_work has
    verified w_max against the signal's stationary points. w_max_grid is an
    independent dense-grid maximum of the same signal, computed on first read.
    """

    branch: str
    w_max: float
    w_m: float | None
    t1_times: tuple[float, ...]
    t2_times: tuple[float, ...]
    delta_phi: float | None
    delta_t: float | None
    n1: int | None
    n2: int | None
    coefficients: WorkCoefficients

    @functools.cached_property
    def w_max_grid(self) -> float:
        """grid_search_max's value for the coefficients, computed on first read."""
        return grid_search_max(self.coefficients)[1]


@dataclass(frozen=True)
class HarmonicFit:
    """Least-squares fit of alpha0 + alpha1*cos(w t) + alpha2*cos(2 w t)."""

    alpha0: float
    alpha1: float
    alpha2: float
    residual: float


@dataclass(frozen=True)
class ModeFit:
    """Fitted harmonic amplitudes of the dynamics in one propagation mode."""

    mode: str
    a_fitted: float
    b_fitted: float
    alpha0: float
    residual: float
    ratio_a: float
    ratio_b: float
    w_half_period_oracle: float


@dataclass(frozen=True)
class ConsistencyReport:
    """Closed-form vs dynamics reconciliation record; no verdict attached."""

    params: SpinParams
    omega: float
    a_printed: float
    b_printed: float
    w_half_period_closed: float
    fits: tuple[ModeFit, ...]


def work_coefficients(p: SpinParams) -> WorkCoefficients:
    """Evaluate the closed-form coefficients; requires beta = 1.

    a and b divide the printed denominator d = eta*(e^Jz cosh J + cosh eta);
    the eta factors are cancelled analytically so the eta -> 0 limit is
    evaluated through sinh(eta)/eta.
    """
    if p.beta != 1.0:
        raise UnsupportedClosedFormError(
            f"closed-form work coefficients require beta = 1, got beta = {p.beta!r}"
        )
    eta = eta_value(p)
    try:
        ez = math.exp(p.Jz)
        cosh_j = math.cosh(p.J)
        cosh_eta = math.cosh(eta)
    except OverflowError:  # the terms of d, which a and b divide by
        raise ValueError(f"coefficient d overflowed for {p!r}") from None
    denom = ez * cosh_j + cosh_eta  # d / eta
    d = eta * denom

    a = 4.0 * p.B * p.B * sinhc(eta) / denom

    b1 = ez * (p.Jz + p.J * (1.0 + p.gamma)) * eta
    b2 = (-p.Jz + p.J * (1.0 + p.gamma)) * eta
    b3 = p.J * (-1.0 + p.gamma)
    b = (
        ez * (p.Jz + p.J * (1.0 + p.gamma)) * cosh_j
        + (-p.Jz + p.J * (1.0 + p.gamma)) * cosh_eta
        + b3 * (-ez * math.sinh(p.J) + p.J * p.gamma * sinhc(eta))
    ) / denom

    for name, value in (("a", a), ("b", b), ("d", d)):
        if not math.isfinite(value):
            raise ValueError(f"coefficient {name} overflowed for {p!r}")

    x = a / (4.0 * b) if abs(b) >= B_COEFF_ZERO_TOL else math.nan
    return WorkCoefficients(a=a, b=b, b1=b1, b2=b2, b3=b3, d=d, x=x)


def closed_form_work(c: WorkCoefficients, omega: float, t):
    """Closed-form stored work a*(1-cos(w t)) + b*(1-cos(2 w t)).

    The grouping makes W(0) exactly zero. Accepts scalar or array times.
    """
    # a scalar time stays a scalar: 0-d array arithmetic costs microseconds
    scalar = np.isscalar(t)
    phase = omega * (t if scalar else np.asarray(t, dtype=float))
    value = c.a * (1.0 - np.cos(phase)) + c.b * (1.0 - np.cos(2.0 * phase))
    return float(value) if scalar else value


def classify_branch(c: WorkCoefficients) -> str:
    """Branch selection by |a| vs |4b|, avoiding any division by b."""
    if abs(c.a) > 4.0 * abs(c.b):
        return BRANCH_MAX1
    if abs(c.b) >= B_COEFF_ZERO_TOL:
        return BRANCH_MAX2
    return BRANCH_DEGENERATE


def _golden_max(f: Callable[[float], float], lo: float, hi: float,
                tol: float = _REFINE_PHASE_TOL) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
    mid = (lo + hi) / 2.0
    return mid, f(mid)


def grid_search_max(c: WorkCoefficients,
                    n: int = GRID_POINTS_PER_PERIOD) -> tuple[float, float]:
    """Dense-grid maximum of the closed form over one period, in phase units.

    Scans n points on [0, 2*pi) and refines around the best one by golden
    section down to 1e-8 in phase. Returns (phase, value).
    """
    phases = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    values = closed_form_work(c, 1.0, phases)
    k = int(np.argmax(values))
    step = 2.0 * math.pi / n
    lo, hi = phases[k] - step, phases[k] + step
    return _golden_max(lambda phi: closed_form_work(c, 1.0, phi), lo, hi)


def _stationary_max(c: WorkCoefficients) -> float:
    """Largest value of the signal at its stationary phases.

    W'(phi) = sin(phi) * (a + 4b cos(phi)) vanishes only at 0, pi and, when
    |a| <= 4|b|, at +-arccos(-a/(4b)); the signal is even, so one sign of the
    last is enough. The signal must not be flat (a = b = 0).
    """
    phases = [0.0, math.pi]
    if abs(c.a) <= 4.0 * abs(c.b):
        phases.append(math.acos(-c.a / (4.0 * c.b)))
    return max(closed_form_work(c, 1.0, phi) for phi in phases)


def max_work(c: WorkCoefficients, omega: float) -> WorkExtrema:
    """Maximum stored work of the closed form, verified at stationary points.

    The branch value is checked against the largest value of the signal
    itself at its stationary phases, which is the exact maximum. The
    dense-grid value w_max_grid is computed only on first read. Raises
    FlatSignalError when both harmonics vanish. Raises RuntimeError if the
    branch value and the stationary-point maximum disagree beyond 1e-8
    (cannot happen for coefficients produced by work_coefficients).
    """
    if not (math.isfinite(omega) and omega > 0 and math.isfinite(2.0 * math.pi / omega)):
        raise ValueError("omega must be positive and finite, with a finite period "
                         f"2*pi/omega, got {omega!r}")
    branch = classify_branch(c)
    if branch == BRANCH_DEGENERATE:
        raise FlatSignalError(
            "both harmonic amplitudes are below 1e-14; the work signal is flat"
        )

    w_m: float | None = None
    delta_phi: float | None = None
    delta_t: float | None = None
    n1: int | None = None
    n2: int | None = None
    t1_times: tuple[float, ...] = ()
    t2_times: tuple[float, ...] = ()

    if branch == BRANCH_MAX1:
        w_max = 2.0 * c.a
        t1_times = (math.pi / omega,)
        n1 = 1
    elif c.b > 0:
        w_max = 2.0 * c.b + c.a + c.a * c.a / (8.0 * c.b)
        w_m = 2.0 * c.a
        phi = math.acos(-c.x)
        t2_times = (phi / omega, (2.0 * math.pi - phi) / omega)
        n2 = 0
        delta_phi = 2.0 * math.pi - 2.0 * phi
        delta_t = delta_phi / omega
    else:
        # b < 0: the two-maximum formulas describe the minima; the true
        # maximum sits at phase pi with value 2a
        w_max = 2.0 * c.a
        t2_times = (math.pi / omega,)
        n2 = 0

    w_stationary = _stationary_max(c)
    if abs(w_stationary - w_max) > MAX_VALUE_TOL:
        raise RuntimeError(
            f"stationary-point maximum {w_stationary!r} disagrees with analytic "
            f"maximum {w_max!r} beyond {MAX_VALUE_TOL:g} (branch {branch}, "
            f"coefficients {c!r})"
        )

    return WorkExtrema(
        branch=branch, w_max=w_max, w_m=w_m, t1_times=t1_times, t2_times=t2_times,
        delta_phi=delta_phi, delta_t=delta_t, n1=n1, n2=n2, coefficients=c,
    )


def large_B_asymptote(p: SpinParams) -> float:
    """Large-field approximation of the branch-1 maximum: 8*B."""
    if p.B <= 0:
        raise ValueError(f"the large-B asymptote requires B > 0, got {p.B!r}")
    return 8.0 * p.B


def harmonic_fit(series: WorkSeries) -> HarmonicFit:
    """Least-squares two-cosine fit of a sampled work series.

    Requires at least 16 samples spanning at least one full drive period.
    The reported residual is the maximum absolute fit error.
    """
    times = np.asarray(series.times, dtype=float)
    values = np.asarray(series.values, dtype=float)
    if times.size < 16:
        raise ValueError(f"need at least 16 samples to fit, got {times.size}")
    period = 2.0 * math.pi / series.omega
    span = times[-1] - times[0]
    if span < period * (1.0 - 1e-9):
        raise ValueError(
            f"series spans {span:g} but one full period is {period:g}; "
            "cover at least one period"
        )
    basis = np.column_stack(
        [
            np.ones_like(times),
            np.cos(series.omega * times),
            np.cos(2.0 * series.omega * times),
        ]
    )
    coef, *_ = np.linalg.lstsq(basis, values, rcond=None)
    residual = float(np.max(np.abs(basis @ coef - values)))
    return HarmonicFit(
        alpha0=float(coef[0]), alpha1=float(coef[1]), alpha2=float(coef[2]),
        residual=residual,
    )


def _ratio(printed: float, fitted: float) -> float:
    if abs(fitted) < 1e-15:
        return math.nan
    return printed / fitted


def consistency_report(
    p: SpinParams, spec: ChargingSpec, samples: int = 256
) -> ConsistencyReport:
    """Reconcile the printed coefficients with harmonic fits of the dynamics.

    For each propagation mode the one-period work series is fitted and the
    printed/fitted amplitude ratios are recorded, together with the stored
    work at half period from both paths. Nothing is judged pass/fail here;
    the record is evidence.
    """
    coeffs = work_coefficients(p)
    period = 2.0 * math.pi / spec.omega
    half_period = math.pi / spec.omega
    fits = []
    for mode in MODES:
        curve = work_curve(p, ChargingSpec(omega=spec.omega, mode=mode))
        fit = harmonic_fit(curve.series(t_max=period, n=samples))
        a_fitted = -fit.alpha1
        b_fitted = -fit.alpha2
        fits.append(
            ModeFit(
                mode=mode,
                a_fitted=a_fitted,
                b_fitted=b_fitted,
                alpha0=fit.alpha0,
                residual=fit.residual,
                ratio_a=_ratio(coeffs.a, a_fitted),
                ratio_b=_ratio(coeffs.b, b_fitted),
                w_half_period_oracle=curve(half_period),
            )
        )
    return ConsistencyReport(
        params=p,
        omega=spec.omega,
        a_printed=coeffs.a,
        b_printed=coeffs.b,
        w_half_period_closed=closed_form_work(coeffs, spec.omega, half_period),
        fits=tuple(fits),
    )


def oracle_peak(p: SpinParams, spec: ChargingSpec) -> float:
    """Largest stored work of the dynamics over one drive period.

    Samples the oracle curve at ORACLE_PEAK_SAMPLES evenly spaced times in
    one call and refines the best one by golden section down to 1e-9 of a
    period.
    """
    period = 2.0 * math.pi / spec.omega
    work = work_curve(p, spec)
    times = np.linspace(0.0, period, ORACLE_PEAK_SAMPLES, endpoint=False)
    values = work(times)
    k = int(np.argmax(values))
    step = period / ORACLE_PEAK_SAMPLES
    _, peak = _golden_max(work, times[k] - step, times[k] + step,
                          tol=1e-9 * period)
    return max(peak, float(values[k]))
