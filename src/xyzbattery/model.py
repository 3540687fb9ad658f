"""Two-spin XYZ battery model: Hamiltonians, exact spectrum, thermal state.

The exchange part couples the spins through J (in-plane strength), gamma
(in-plane anisotropy) and Jz; a uniform field of strength B acts along z.
Closed-form spectral and thermal expressions are provided next to a
numerical oracle path so each can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eig
from .params import SpinParams, UnsupportedClosedFormError, eta_value, sinhc


@dataclass(frozen=True)
class SpectralDecomposition:
    """Labelled eigenpairs of the total Hamiltonian.

    E1/E2 belong to the |01>/|10> exchange doublet, E3/E4 to the field-split
    |00>/|11> pair with splitting eta = sqrt(B^2 + (gamma*J)^2). n_plus and
    n_minus are the |11> amplitudes of psi3 and psi4.
    """

    E1: float
    E2: float
    E3: float
    E4: float
    eta: float
    n_plus: float
    n_minus: float
    psi1: np.ndarray
    psi2: np.ndarray
    psi3: np.ndarray
    psi4: np.ndarray

    @property
    def labelled_energies(self) -> tuple[float, float, float, float]:
        return (self.E1, self.E2, self.E3, self.E4)

    @property
    def labelled_vectors(self) -> tuple[np.ndarray, ...]:
        return (self.psi1, self.psi2, self.psi3, self.psi4)


@dataclass(frozen=True)
class ThermalElements:
    """Matrix elements of the unnormalized beta = 1 thermal state.

    mu_plus/mu_minus are the |11>/|00> diagonal weights, kappa their
    coherence, nu the central diagonal, epsilon the central coherence, and
    Z the partition function normalizing all of them.
    """

    mu_plus: float
    mu_minus: float
    kappa: float
    nu: float
    epsilon: float
    Z: float


def build_spin_hamiltonian(p: SpinParams) -> np.ndarray:
    """Exchange part (J/2)[(1+gamma) XX + (1-gamma) YY] + (Jz/2) ZZ, by its
    elements in the |00>,|01>,|10>,|11> basis; ValueError where gamma*J overflows."""
    d, g = p.Jz / 2.0, p.gamma * p.J
    if not math.isfinite(g):
        raise ValueError(f"spin Hamiltonian element gamma*J overflowed for {p!r}")
    return np.array([[d, 0, 0, g], [0, -d, p.J, 0], [0, p.J, -d, 0], [g, 0, 0, d]],
                    dtype=complex)


def build_field_hamiltonian(p: SpinParams) -> np.ndarray:
    """Uniform z field: (B/2)(Z1 + Z2) = diag(B, 0, 0, -B)."""
    return np.diag(np.array([p.B, 0.0, 0.0, -p.B], dtype=complex))


def build_total_hamiltonian(p: SpinParams) -> np.ndarray:
    """Exchange plus field; exact elementwise sum of the two builders."""
    return build_spin_hamiltonian(p) + build_field_hamiltonian(p)


def closed_form_spectrum(p: SpinParams) -> SpectralDecomposition:
    """Exact eigenpairs of the total Hamiltonian, labelled by sector.

    The exchange doublet is E_{1,2} = (-Jz +/- 2J)/2 with (+-|01> + |10>)/sqrt(2).
    The corner pair is E_{3,4} = Jz/2 +/- eta on (|00>, |11>), rotated by one
    half angle: with c = sqrt((1 + |B|/eta)/2) and s = (|gamma*J|/eta)/(2c)
    (c = 1, s = 0 at eta = 0), psi3 = (+-c, s) and psi4 = (-+s, c) for
    B >= 0, psi3 = (+-s, c) and psi4 = (-+c, s) for B < 0. The upper sign
    holds where gamma*J > 0, or gamma*J = 0 and B >= 0, so each |11>
    amplitude is >= 0 and a decoupled block keeps its basis states. Raises
    ValueError when an energy is not finite.
    """
    eta = eta_value(p)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    psi1 = np.array([0, inv_sqrt2, inv_sqrt2, 0], dtype=complex)
    psi2 = np.array([0, -inv_sqrt2, inv_sqrt2, 0], dtype=complex)
    e1 = (-p.Jz + 2.0 * p.J) / 2.0
    e2 = (-p.Jz - 2.0 * p.J) / 2.0
    e3 = p.Jz / 2.0 + eta
    e4 = p.Jz / 2.0 - eta
    if not all(map(math.isfinite, (e1, e2, e3, e4))):
        raise ValueError(f"closed-form spectrum overflowed for {p!r}")

    corner = p.gamma * p.J
    c = math.sqrt((1.0 + abs(p.B) / eta) / 2.0) if eta else 1.0
    s = (abs(corner) / eta) / (2.0 * c) if eta else 0.0
    sign = 1.0 if corner > 0 or (corner == 0 and p.B >= 0) else -1.0
    u, v = (c, s) if p.B >= 0 else (s, c)
    psi3 = np.array([sign * u, 0, 0, v], dtype=complex)
    psi4 = np.array([-sign * v, 0, 0, u], dtype=complex)

    return SpectralDecomposition(
        E1=e1, E2=e2, E3=e3, E4=e4, eta=eta, n_plus=v, n_minus=u,
        psi1=psi1, psi2=psi2, psi3=psi3, psi4=psi4,
    )


def thermal_elements(p: SpinParams) -> ThermalElements:
    """Closed-form thermal matrix elements; valid only at beta = 1."""
    if p.beta != 1.0:
        raise UnsupportedClosedFormError(
            f"closed-form thermal elements require beta = 1, got beta = {p.beta!r};"
            " use the oracle path for general beta"
        )
    eta = eta_value(p)
    try:
        ez = math.exp(-p.Jz / 2.0)
        ezp = math.exp(p.Jz / 2.0)
        cosh_eta = math.cosh(eta)
        field_part = p.B * sinhc(eta)  # (B/eta) sinh(eta) without the 0/0
        cosh_j = math.cosh(p.J)
        sinh_j = math.sinh(p.J)
    except OverflowError:  # the first to overflow is always a factor of Z
        raise ValueError(f"thermal element Z overflowed for {p!r}") from None
    elements = ThermalElements(
        mu_plus=ez * (cosh_eta + field_part),
        mu_minus=ez * (cosh_eta - field_part),
        kappa=-p.gamma * p.J * sinhc(eta) * ez,
        nu=ezp * cosh_j,
        epsilon=-ezp * sinh_j,
        Z=2.0 * (ez * cosh_eta + ezp * cosh_j),
    )
    for name, value in vars(elements).items():
        if not math.isfinite(value):
            raise ValueError(f"thermal element {name} overflowed for {p!r}")
    return elements


def gibbs_state(p: SpinParams, method: str = "oracle") -> np.ndarray:
    """Thermal state exp(-beta*H)/Z as a 4x4 density matrix.

    method="closed_form" assembles the beta = 1 matrix elements directly;
    method="oracle" exponentiates the spectrum and works for any beta > 0.
    """
    if method == "closed_form":
        t = thermal_elements(p)
        rho = np.array(
            [
                [t.mu_minus, 0.0, 0.0, t.kappa],
                [0.0, t.nu, t.epsilon, 0.0],
                [0.0, t.epsilon, t.nu, 0.0],
                [t.kappa, 0.0, 0.0, t.mu_plus],
            ],
            dtype=complex,
        )
        return rho / t.Z
    if method == "oracle":
        values, vectors = hermitian_eig(build_total_hamiltonian(p))
        # the shift keeps every weight <= 1; a product that overflows to -inf
        # gives the weight e^-inf = 0, its limit
        with np.errstate(over="ignore"):
            weights = np.exp(-p.beta * (values - values.min()))
        rho = (vectors * weights) @ vectors.conj().T
        return rho / weights.sum()
    raise ValueError(f"unknown method {method!r}; expected 'closed_form' or 'oracle'")
