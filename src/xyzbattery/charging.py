"""Unitary charging of the thermal battery and stored-work bookkeeping.

The drive is a transverse field omega*Sx with Sx = (X1 + X2)/2. Two
propagation modes exist: "charging_only" rotates under the drive alone
(the operative choice; its work signal carries only the omega and 2*omega
harmonics), while "full" evolves under battery plus drive together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    IDENTITY_2,
    SIGMA_X,
    TRACE_IMAG_TOL,
    expectation,
    hermitian_eig,
    tensor,
    unitary_exp,
)
from .model import SpinParams, build_total_hamiltonian, gibbs_state

MODES = ("charging_only", "full")

# the drive's spin operator (X1 + X2)/2, built once
_SX_TOTAL = (tensor(SIGMA_X, IDENTITY_2) + tensor(IDENTITY_2, SIGMA_X)) / 2.0

# times per vectorised block: the complex temporaries stay a fixed size
# however many samples a curve is asked for
TIME_CHUNK = 512


@dataclass(frozen=True)
class ChargingSpec:
    """Drive strength and choice of propagation generator."""

    omega: float
    mode: str = "charging_only"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega > 0
                and math.isfinite(2.0 * math.pi / self.omega)):
            raise ValueError("omega must be positive and finite, with a finite period "
                             f"2*pi/omega, got {self.omega!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class WorkSeries:
    """Stored work sampled on an ascending time grid."""

    times: np.ndarray
    values: np.ndarray
    omega: float
    mode: str


def build_charging_hamiltonian(spec: ChargingSpec) -> np.ndarray:
    """Drive Hamiltonian omega*(X1 + X2)/2; spectrum {-omega, 0, 0, omega}."""
    return spec.omega * _SX_TOTAL


def propagator(p: SpinParams, spec: ChargingSpec, t: float) -> np.ndarray:
    """Charging unitary at time t for the requested mode.

    Independent of the spectral route in `work_curve`; tests compare the two.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if spec.mode == "charging_only":
        half = spec.omega * t / 2.0
        u_single = math.cos(half) * IDENTITY_2 - 1j * math.sin(half) * SIGMA_X
        return np.kron(u_single, u_single)
    generator = build_total_hamiltonian(p) + build_charging_hamiltonian(spec)
    return unitary_exp(generator, t)


def evolve(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Conjugate a state by a unitary: U rho U^dagger."""
    u = np.asarray(u, dtype=complex)
    return u @ np.asarray(rho, dtype=complex) @ u.conj().T


def _energies(frequencies: np.ndarray, weights: np.ndarray,
              times: np.ndarray) -> np.ndarray:
    """Tr[H rho(t)] = sum_jk P_j M_jk conj(P_k), P_j = exp(-i lam_j t), 1-D times.

    The sums run in a fixed order of elementwise operations, so a time's
    value does not depend on which block or position it was evaluated in.
    """
    phases = np.exp(-1j * np.multiply.outer(times, frequencies))
    back = phases.conj()
    inner = sum(back[:, k, None] * weights[:, k] for k in range(weights.shape[1]))
    terms = phases * inner
    trace = sum(terms[:, j] for j in range(weights.shape[0]))
    residue = float(np.max(np.abs(trace.imag)))
    if residue > TRACE_IMAG_TOL:
        raise ValueError(f"trace has imaginary residue {residue:g} above 1e-12")
    return trace.real


@dataclass(frozen=True, eq=False)
class WorkCurve:
    """Stored work W(t) for one (params, mode, omega), in the generator eigenbasis.

    With the generator G = V diag(lam) V^dagger, H' = V^dagger H V and
    rho' = V^dagger rho0 V, the stored work is
    W(t) = sum_jk H'_kj rho'_jk exp(-i (lam_j - lam_k) t) - E0,
    where weights holds M_jk = H'_kj rho'_jk and E0 is the same contraction
    at t = 0, so W(0) is exactly zero.
    """

    spec: ChargingSpec
    frequencies: np.ndarray
    weights: np.ndarray
    e0: float

    def __call__(self, t):
        """W at a scalar time (returns float) or an array of times (same shape)."""
        times = np.asarray(t, dtype=float)
        flat = times.ravel()
        finite = np.isfinite(flat)
        if not finite.all():
            raise ValueError(f"time must be finite, got {flat[~finite][0]!r}")
        values = np.empty(flat.size)
        for start in range(0, flat.size, TIME_CHUNK):
            block = slice(start, start + TIME_CHUNK)
            values[block] = _energies(self.frequencies, self.weights, flat[block])
        values -= self.e0
        return float(values[0]) if times.ndim == 0 else values.reshape(times.shape)

    def series(self, t_max: float, n: int) -> WorkSeries:
        """W sampled uniformly on [0, t_max] with inclusive endpoints."""
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError(f"sample count must be an integer >= 2, got {n!r}")
        if not (math.isfinite(t_max) and t_max > 0):
            raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
        times = np.linspace(0.0, t_max, int(n))
        return WorkSeries(times=times, values=self(times),
                          omega=self.spec.omega, mode=self.spec.mode)


def work_curve(p: SpinParams, spec: ChargingSpec) -> WorkCurve:
    """Diagonalise the charging generator once and return W(t) for all times.

    The generator is the drive alone in charging_only mode and battery plus
    drive in full mode; the battery starts in its Gibbs state.
    """
    h = build_total_hamiltonian(p)
    generator = build_charging_hamiltonian(spec)
    if spec.mode == "full":
        generator = h + generator
    eig = hermitian_eig(generator)
    v = eig.eigenvectors
    v_dag = v.conj().T
    rho0 = gibbs_state(p, method="oracle")
    weights = (v_dag @ h @ v).T * (v_dag @ rho0 @ v)
    e0 = float(_energies(eig.eigenvalues, weights, np.zeros(1))[0])
    return WorkCurve(spec=spec, frequencies=eig.eigenvalues, weights=weights, e0=e0)


def stored_work(p: SpinParams, spec: ChargingSpec, t: float) -> float:
    """Energy gained by the thermal battery after driving for time t.

    Exactly zero at t = 0.
    """
    return work_curve(p, spec)(t)


def work_series(p: SpinParams, spec: ChargingSpec, t_max: float, n: int) -> WorkSeries:
    """Stored work sampled uniformly on [0, t_max] with inclusive endpoints."""
    return work_curve(p, spec).series(t_max, n)


def passive_state(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Lowest-energy state reachable from rho by unitaries.

    Pairs rho's eigenvalues, sorted descending, with h's eigenvectors sorted
    by ascending eigenvalue.
    """
    populations = hermitian_eig(rho).eigenvalues[::-1]
    vectors = hermitian_eig(h).eigenvectors
    return (vectors * populations) @ vectors.conj().T


def ergotropy(rho: np.ndarray, h: np.ndarray) -> float:
    """Maximum work extractable from rho by unitaries; zero for passive states."""
    return expectation(h, rho) - expectation(h, passive_state(rho, h))
