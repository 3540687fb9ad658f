"""Battery and drive parameters and the scalar helpers the closed forms share.

Only `math` and `dataclasses` are imported here, so the closed-form
commands can validate and evaluate their inputs without loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# eta below this evaluates sinh(eta)/eta by its series limit
SINHC_SERIES_TOL = 1e-8

# the propagation modes, as the CLI's --mode takes them and every output
# prints them: the drive alone, or the battery plus the drive
MODES = ("charging-only", "full")


class UnsupportedClosedFormError(ValueError):
    """The closed-form thermal expressions are specific to beta = 1."""


@dataclass(frozen=True)
class SpinParams:
    """Battery parameters: couplings, field, and inverse temperature."""

    J: float
    Jz: float
    gamma: float
    B: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("J", "Jz", "gamma", "B", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta!r}")


def sinhc(x: float) -> float:
    """sinh(x)/x with the removable singularity at 0 handled by series."""
    if abs(x) < SINHC_SERIES_TOL:
        return 1.0 + x * x / 6.0
    return math.sinh(x) / x


def eta_value(p: SpinParams) -> float:
    """Field-anisotropy energy scale sqrt(B^2 + (gamma*J)^2)."""
    return math.hypot(p.B, p.gamma * p.J)


def check_omega(omega: float) -> None:
    """Reject a drive strength that is not positive and finite, or whose
    period 2*pi/omega is not finite."""
    if not (math.isfinite(omega) and omega > 0 and math.isfinite(2.0 * math.pi / omega)):
        raise ValueError("omega must be positive and finite, with a finite period "
                         f"2*pi/omega, got {omega!r}")


@dataclass(frozen=True)
class ChargingSpec:
    """Drive strength and choice of propagation generator."""

    omega: float
    mode: str = "charging-only"

    def __post_init__(self) -> None:
        check_omega(self.omega)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
