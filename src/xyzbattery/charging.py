"""Unitary charging of the thermal battery and stored-work bookkeeping.

The drive is a transverse field omega*Sx with Sx = (X1 + X2)/2. Two
propagation modes exist (params.MODES): "charging-only" rotates under the
drive alone (the operative choice; its work signal carries only the omega
and 2*omega harmonics, with amplitudes in closed form), while "full" evolves
under battery plus drive together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import cosine_work, dynamics_coefficients, sample_times
from .linalg import IDENTITY_2, SIGMA_X, expectation, hermitian_eig, unitary_exp
from .model import build_total_hamiltonian, gibbs_state
from .params import ChargingSpec, SpinParams

# the drive's spin operator (X1 + X2)/2, built once
_SX_TOTAL = (np.kron(SIGMA_X, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_X)) / 2.0


def build_charging_hamiltonian(omega: float) -> np.ndarray:
    """Drive Hamiltonian omega*(X1 + X2)/2; spectrum {-omega, 0, 0, omega}."""
    return omega * _SX_TOTAL


def propagator(p: SpinParams, spec: ChargingSpec, t: float) -> np.ndarray:
    """Charging unitary at time t for the requested mode.

    Independent of the spectral route in `work_curve`; tests compare the two.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if spec.mode == "charging-only":
        half = spec.omega * t / 2.0
        u_single = math.cos(half) * IDENTITY_2 - 1j * math.sin(half) * SIGMA_X
        return np.kron(u_single, u_single)
    generator = build_total_hamiltonian(p) + build_charging_hamiltonian(spec.omega)
    return unitary_exp(generator, t)


def evolve(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Conjugate a state by a unitary: U rho U^dagger."""
    u = np.asarray(u, dtype=complex)
    return u @ np.asarray(rho, dtype=complex) @ u.conj().T


@dataclass(frozen=True, eq=False)
class WorkCurve:
    """Stored work W(t) for one (params, mode, omega) as a cosine sum.

    W(t) = sum_i A_i (1 - cos(2 h_i t)), with half-frequencies h_i
    (half_gaps) and amplitudes A_i. In charging-only mode these are
    (omega/2, omega) and analytics.dynamics_coefficients. In full mode, with
    the generator G = V diag(lam) V^dagger, H' = V^dagger H V and
    rho' = V^dagger rho0 V, the stored work is
    W(t) = sum_jk M_jk (exp(-i (lam_j - lam_k) t) - 1), M_jk = H'_kj rho'_jk.
    H, the drive and rho0 are real symmetric, so M is real and W is even in
    t: W(t) = sum_{j<k} -2 M_jk (1 - cos((lam_k - lam_j) t)). half_gaps holds
    lam_k/2 - lam_j/2 and amplitudes -2 Re M_jk, one entry per pair j < k.
    Half-gaps stay finite where a gap, such as 2*omega, would overflow.
    """

    half_gaps: np.ndarray
    amplitudes: np.ndarray

    def __call__(self, t):
        """W at a scalar time (returns float), a list of times (list) or an
        array of times (same shape)."""
        return cosine_work(self.half_gaps, self.amplitudes, t)


def work_curve(p: SpinParams, spec: ChargingSpec) -> WorkCurve:
    """W(t) for all times from the battery's Gibbs state.

    In charging-only mode the two harmonics come in closed form, at any beta,
    with no diagonalisation. In full mode the generator, battery plus drive,
    is diagonalised once.
    """
    if spec.mode == "charging-only":
        return WorkCurve(half_gaps=np.array([spec.omega / 2.0, spec.omega]),
                         amplitudes=np.array(dynamics_coefficients(p)))
    h = build_total_hamiltonian(p)
    values, v = hermitian_eig(h + build_charging_hamiltonian(spec.omega))
    v_dag = v.conj().T
    rho0 = gibbs_state(p, method="oracle")
    weights = (v_dag @ h @ v).T * (v_dag @ rho0 @ v)
    half = values / 2.0
    j, k = np.triu_indices(half.size, 1)
    return WorkCurve(half_gaps=half[k] - half[j], amplitudes=-2.0 * weights.real[j, k])


def work_series(p: SpinParams, spec: ChargingSpec, t_max: float,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """(times, W at those times): n samples on [0, t_max], ends included."""
    times = np.array(sample_times(t_max, n))
    return times, work_curve(p, spec)(times)


def passive_state(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Lowest-energy state reachable from rho by unitaries.

    Pairs rho's eigenvalues, sorted descending, with h's eigenvectors sorted
    by ascending eigenvalue.
    """
    populations = hermitian_eig(rho)[0][::-1]
    vectors = hermitian_eig(h)[1]
    return (vectors * populations) @ vectors.conj().T


def ergotropy(rho: np.ndarray, h: np.ndarray) -> float:
    """Maximum work extractable from rho by unitaries; zero for passive states."""
    return expectation(h, rho) - expectation(h, passive_state(rho, h))
