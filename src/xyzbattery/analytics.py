"""Two-harmonic stored-work expression and its maximum-work analysis.

The closed form W(t) = (a+b) - b*cos(2*omega*t) - a*cos(omega*t) is kept
exactly as printed, coefficients included, and is reconciled against the
dynamics pipeline (which is treated as ground truth) through harmonic
fits and a consistency report. Neither path silently overrides the other.
The charging-only dynamics has the same two harmonics with amplitudes
derived from the Gibbs state (`dynamics_coefficients`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# numpy and the propagation layer load only in the functions that use them,
# so the closed forms, max_work and the charging-only peak run without either
from .params import (MODES, ChargingSpec, SpinParams, UnsupportedClosedFormError,
                     check_omega, eta_value, sinhc)

B_COEFF_ZERO_TOL = 1e-14
GRID_POINTS_PER_PERIOD = 100_000
MAX_VALUE_TOL = 1e-8
_REFINE_PHASE_TOL = 1e-8
ORACLE_PEAK_SAMPLES = 2048
REPORT_SAMPLES = 256

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

    branch max1 (|a| > |4b|): single maximum w_max = 2a at t = pi/omega.
    branch max2 (|a| <= |4b|, b > 0): two maxima per period at phases
    arccos(-x) and 2*pi - arccos(-x) with w_max = 2b + a + a^2/(8b), and the
    in-between minimum w_m = 2a at phase pi. If b < 0 while |a| <= |4b| the
    two-maximum formulas describe minima instead; the actual maximum is then
    2a at phase pi and the max2-only fields are left unset. peak_times holds
    the times of the maxima within the period, ascending. max_work has
    verified w_max against the signal's stationary points.
    """

    branch: str
    w_max: float
    w_m: float | None
    peak_times: tuple[float, ...]
    delta_phi: float | None
    delta_t: float | None


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


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 points from lo to hi, ends included.

    The values are numpy.linspace's to the bit: the same operations in the
    same order, a subnormal step's included.
    """
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0:  # the span is subnormal: scale before multiplying
        return [(i / div) * delta + lo for i in range(div)] + [hi]
    return [i * step + lo for i in range(div)] + [hi]


def sample_times(t_max: float, n: int) -> list[float]:
    """n evenly spaced times on [0, t_max], ends included (linspace)."""
    if not hasattr(type(n), "__index__") or n < 2:  # int, numpy's integers
        raise ValueError(f"sample count must be an integer >= 2, got {n!r}")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    return linspace(0.0, t_max, int(n))


def _phase_overflow(half_gap: float, t_max: float) -> ValueError:
    return ValueError(f"work phase 2*h*t overflowed for h = {float(half_gap)!r}, "
                      f"t up to {float(t_max)!r}")


def cosine_work(half_gaps, amplitudes, t):
    """Stored work as a cosine sum: sum_i A_i*(1 - cos(2*(h_i*t))).

    h_i are half-frequencies and A_i amplitudes. The terms are added in
    order, starting from +0.0, so W(0) is exactly +0.0 and a time's value
    does not depend on where it sits in a sequence. A scalar time gives a
    float and a list of times a list, both in plain Python with math.cos; a
    numpy array of times gives an array of the same shape. Both paths take
    the same steps in the same order, so they agree to the bit wherever
    numpy's cos agrees with math.cos. Raises ValueError for a non-finite
    time and when a phase 2*h_i*t overflows.
    """
    if isinstance(t, (int, float, list)):
        times = list(map(float, t)) if isinstance(t, list) else [float(t)]
        if not all(map(math.isfinite, times)):
            bad = next(x for x in times if not math.isfinite(x))
            raise ValueError(f"time must be finite, got {bad!r}")
        t_abs = max(map(abs, times), default=0.0)
        total = [0.0] * len(times)
        cos = math.cos
        for half_gap, amplitude in zip(half_gaps, amplitudes):
            h, amp = float(half_gap), float(amplitude)
            # rounding is monotone, so the largest |t| has the largest phase
            if not math.isfinite(2.0 * (h * t_abs)):
                raise _phase_overflow(h, t_abs)
            total = [w + amp * (1.0 - cos(2.0 * (h * x))) for w, x in zip(total, times)]
        return total if isinstance(t, list) else total[0]

    import numpy as np

    times = np.asarray(t, dtype=float)
    finite = np.isfinite(times)
    if not finite.all():
        raise ValueError(f"time must be finite, got {float(times[~finite][0])!r}")
    total = np.zeros(times.shape)
    with np.errstate(over="ignore"):  # checked below
        for half_gap, amplitude in zip(half_gaps, amplitudes):
            phase = 2.0 * (half_gap * times)
            if not np.isfinite(phase).all():
                raise _phase_overflow(half_gap, np.max(np.abs(times)))
            total += amplitude * (1.0 - np.cos(phase))
    return total


def closed_form_work(c: WorkCoefficients, omega: float, t):
    """Closed-form stored work a*(1-cos(w t)) + b*(1-cos(2 w t)).

    One cosine_work call: W(0) is exactly zero, scalar or array times.
    Raises ValueError when the phase 2*omega*t overflows.
    """
    return cosine_work((omega / 2.0, omega), (c.a, c.b), t)


def dynamics_coefficients(p: SpinParams) -> tuple[float, float]:
    """Amplitudes (a_dyn, b_dyn) of the charging-only dynamics, at any beta.

    The drive alone propagates each spin by u = exp(-i*omega*t*X/2), and the
    Gibbs state holds no <Y1 + Y2> or <YZ + ZY>, so exactly
    W(t) = a_dyn*(1 - cos(omega*t)) + b_dyn*(1 - cos(2*omega*t)) with
    a_dyn = -(B/2)*<Z1 + Z2> and b_dyn = (J*(1-gamma) - Jz)*(<ZZ> - <YY>)/4.
    At beta = 1, 4*a_dyn is the printed a.

    The expectations come from the closed-form spectrum, the doublet
    E1, E2 = -Jz/2 +/- J and the corner pair E3, E4 = Jz/2 +/- eta, weighted
    by w_k = exp(-beta*(E_k - E_min)) <= 1, which stay finite wherever the
    oracle Gibbs state does. A block's upper weight is its lower one times
    exp(-2*beta*|J|) or exp(-2*beta*eta), so the ratio within a block does
    not round through the energies. With Z = w1 + w2 + w3 + w4 and
    g = gamma*J/eta,
    <Z1 + Z2> = -2*(B/eta)*(w4 - w3)/Z and
    <ZZ> - <YY> = (w3*(1 + g) + w4*(1 - g) - 2*w1)/Z, whose corner terms are
    nonnegative; 1 + g and 1 - g are written without cancellation. Raises
    ValueError when an energy or a coefficient overflows.
    """
    eta = eta_value(p)
    doublet_low, corner_low = -p.Jz / 2.0 - abs(p.J), p.Jz / 2.0 - eta
    if not (math.isfinite(doublet_low) and math.isfinite(corner_low)):
        raise ValueError(f"dynamics coefficients overflowed for {p!r}")
    e_min = min(doublet_low, corner_low)
    low = math.exp(-p.beta * (doublet_low - e_min))
    high = low * math.exp(-2.0 * p.beta * abs(p.J))
    w1 = high if p.J >= 0 else low  # E1 = -Jz/2 + J
    w4 = math.exp(-p.beta * (corner_low - e_min))
    w3 = w4 * math.exp(-2.0 * p.beta * eta)
    z = low + high + w3 + w4
    corner = p.gamma * p.J
    if eta == 0.0:  # B = gamma*J = 0: the corner block is diagonal and degenerate
        a_dyn, plus, minus = 0.0, 1.0, 1.0
    else:
        # w4 - w3 = w4*(1 - exp(-2*beta*eta)), without the 0/0 at eta -> 0
        a_dyn = p.B * (p.B / eta) * w4 * -math.expm1(-2.0 * p.beta * eta) / z
        # 1 - |g| = B^2/(eta*(eta + |gamma*J|))
        if corner >= 0:
            plus, minus = 1.0 + corner / eta, (p.B / eta) * (p.B / (eta + corner))
        else:
            plus, minus = (p.B / eta) * (p.B / (eta - corner)), 1.0 - corner / eta
    b_dyn = (p.J * (1.0 - p.gamma) - p.Jz) / 4.0 * ((w3 * plus + w4 * minus - 2.0 * w1) / z)
    if not (math.isfinite(a_dyn) and math.isfinite(b_dyn)):
        raise ValueError(f"dynamics coefficients overflowed for {p!r}")
    return a_dyn, b_dyn


def classify_branch(c: WorkCoefficients) -> str:
    """Branch selection by |a| vs |4b|, avoiding any division by b."""
    if abs(c.a) > 4.0 * abs(c.b):
        return BRANCH_MAX1
    if abs(c.b) >= B_COEFF_ZERO_TOL:
        return BRANCH_MAX2
    return BRANCH_DEGENERATE


def _refined_max(f: Callable, period: float, n: int,
                 tol: float) -> tuple[float, float, float]:
    """Maximum of f over one period: the best of n evenly spaced samples on
    [0, period), refined by golden section within one step of it down to tol.

    f takes an array of points and a single point. Returns (x, f(x), the best
    sample's value).
    """
    import numpy as np

    xs = np.linspace(0.0, period, n, endpoint=False)
    values = f(xs)
    k = int(np.argmax(values))
    step = period / n
    lo, hi = xs[k] - step, xs[k] + step
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
    return mid, f(mid), float(values[k])


def grid_search_max(c: WorkCoefficients,
                    n: int = GRID_POINTS_PER_PERIOD) -> tuple[float, float]:
    """Dense-grid maximum of the closed form over one period, in phase units.

    Scans n points on [0, 2*pi) and refines around the best one by golden
    section down to 1e-8 in phase. Returns (phase, value).
    """
    phase, value, _ = _refined_max(lambda phi: closed_form_work(c, 1.0, phi),
                                   2.0 * math.pi, n, _REFINE_PHASE_TOL)
    return phase, value


def two_harmonic_max(a: float, b: float) -> float:
    """Exact maximum over a period of a*(1 - cos phi) + b*(1 - cos 2 phi).

    W'(phi) = sin(phi) * (a + 4b cos(phi)) vanishes only at 0, pi and, when
    b != 0 and |a| <= 4|b|, at +-arccos(-a/(4b)); the signal is even, so one
    sign of the last is enough. A flat signal (a = b = 0) gives 0.0.
    """
    phases = [0.0, math.pi]
    if b != 0.0 and abs(a) <= 4.0 * abs(b):
        phases.append(math.acos(-a / (4.0 * b)))
    return max(a * (1.0 - math.cos(phi)) + b * (1.0 - math.cos(2.0 * phi))
               for phi in phases)


def max_work(c: WorkCoefficients, omega: float) -> WorkExtrema:
    """Maximum stored work of the closed form, verified at stationary points.

    The branch value is checked against the largest value of the signal
    itself at its stationary phases, which is the exact maximum. Raises
    FlatSignalError when both harmonics vanish. Raises RuntimeError if the
    branch value and the stationary-point maximum disagree beyond 1e-8
    (cannot happen for coefficients produced by work_coefficients).
    """
    check_omega(omega)
    branch = classify_branch(c)
    if branch == BRANCH_DEGENERATE:
        raise FlatSignalError(
            "both harmonic amplitudes are below 1e-14; the work signal is flat"
        )

    w_m: float | None = None
    delta_phi: float | None = None
    delta_t: float | None = None

    if branch == BRANCH_MAX2 and c.b > 0:
        w_max = 2.0 * c.b + c.a + c.a * c.a / (8.0 * c.b)
        w_m = 2.0 * c.a
        phi = math.acos(-c.x)
        peak_times = (phi / omega, (2.0 * math.pi - phi) / omega)
        delta_phi = 2.0 * math.pi - 2.0 * phi
        delta_t = delta_phi / omega
    else:
        # max1, or b < 0, where the two-maximum formulas describe the
        # minima: the maximum sits at phase pi with value 2a
        w_max = 2.0 * c.a
        peak_times = (math.pi / omega,)

    w_stationary = two_harmonic_max(c.a, c.b)
    if abs(w_stationary - w_max) > MAX_VALUE_TOL:
        raise RuntimeError(
            f"stationary-point maximum {w_stationary!r} disagrees with analytic "
            f"maximum {w_max!r} beyond {MAX_VALUE_TOL:g} (branch {branch}, "
            f"coefficients {c!r})"
        )

    return WorkExtrema(branch=branch, w_max=w_max, w_m=w_m, peak_times=peak_times,
                       delta_phi=delta_phi, delta_t=delta_t)


def large_B_asymptote(p: SpinParams) -> float:
    """Large-field approximation of the branch-1 maximum: 8*B."""
    if p.B <= 0:
        raise ValueError(f"the large-B asymptote requires B > 0, got {p.B!r}")
    return 8.0 * p.B


def harmonic_fit(times, values, omega: float) -> HarmonicFit:
    """Least-squares two-cosine fit of work values sampled at ascending times.

    Requires at least 16 samples spanning at least one full period of the
    drive omega. The reported residual is the maximum absolute fit error.
    Raises ValueError when the coefficients or the residual overflow.
    """
    import numpy as np

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 16:
        raise ValueError(f"need at least 16 samples to fit, got {times.size}")
    period = 2.0 * math.pi / omega
    span = times[-1] - times[0]
    if span < period * (1.0 - 1e-9):
        raise ValueError(
            f"series spans {span:g} but one full period is {period:g}; "
            "cover at least one period"
        )
    basis = np.column_stack(
        [
            np.ones_like(times),
            np.cos(omega * times),
            np.cos(2.0 * (omega * times)),
        ]
    )
    with np.errstate(all="ignore"):  # checked below
        coef, *_ = np.linalg.lstsq(basis, values, rcond=None)
        residual = float(np.max(np.abs(basis @ coef - values)))
    if not math.isfinite(residual):  # so is any non-finite coefficient
        raise ValueError(f"harmonic fit overflowed for values up to "
                         f"{float(np.max(np.abs(values)))!r}")
    return HarmonicFit(
        alpha0=float(coef[0]), alpha1=float(coef[1]), alpha2=float(coef[2]),
        residual=residual,
    )


def _ratio(printed: float, fitted: float) -> float:
    if abs(fitted) < 1e-15:
        return math.nan
    return printed / fitted


def consistency_report(p: SpinParams, omega: float) -> ConsistencyReport:
    """Reconcile the printed coefficients with harmonic fits of the dynamics.

    For each propagation mode (params.MODES) the work at drive strength omega
    is sampled at REPORT_SAMPLES times over one period and fitted, and the
    printed/fitted amplitude ratios are recorded, together with the stored
    work at half period from both paths. Where the printed coefficients are
    undefined (beta != 1 or an overflow), the printed values, the ratios and
    the closed-form half-period work read nan and the fits stand alone.
    Nothing is judged pass/fail here; the record is evidence.
    """
    import numpy as np

    from .charging import work_curve

    check_omega(omega)
    half_period = math.pi / omega
    try:
        coeffs = work_coefficients(p)
    except ValueError:
        a_printed = b_printed = w_half_period_closed = math.nan
    else:
        a_printed, b_printed = coeffs.a, coeffs.b
        w_half_period_closed = closed_form_work(coeffs, omega, half_period)
    times = np.array(sample_times(2.0 * math.pi / omega, REPORT_SAMPLES))
    fits = []
    for mode in MODES:
        curve = work_curve(p, ChargingSpec(omega, mode))
        fit = harmonic_fit(times, curve(times), omega)
        a_fitted = -fit.alpha1
        b_fitted = -fit.alpha2
        fits.append(
            ModeFit(
                mode=mode,
                a_fitted=a_fitted,
                b_fitted=b_fitted,
                alpha0=fit.alpha0,
                residual=fit.residual,
                ratio_a=_ratio(a_printed, a_fitted),
                ratio_b=_ratio(b_printed, b_fitted),
                w_half_period_oracle=curve(half_period),
            )
        )
    return ConsistencyReport(a_printed=a_printed, b_printed=b_printed,
                             w_half_period_closed=w_half_period_closed, fits=tuple(fits))


def oracle_peak(p: SpinParams, spec: ChargingSpec) -> float:
    """Largest stored work of the dynamics over one drive period.

    In charging-only mode the dynamics is two harmonics, so the peak is
    exact, from their stationary phases. In full mode the oracle curve is
    sampled at ORACLE_PEAK_SAMPLES evenly spaced times in one call and the
    best one refined by golden section down to 1e-9 of a period.
    """
    if spec.mode == "charging-only":
        return two_harmonic_max(*dynamics_coefficients(p))
    from .charging import work_curve

    period = 2.0 * math.pi / spec.omega
    _, peak, sampled = _refined_max(work_curve(p, spec), period,
                                    ORACLE_PEAK_SAMPLES, 1e-9 * period)
    return max(peak, sampled)
