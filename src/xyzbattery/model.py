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

from .linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .params import SpinParams, UnsupportedClosedFormError, eta_value, sinhc

# |gamma*J| below this treats the |00>/|11> corner block as already diagonal
DEGENERATE_CORNER_TOL = 1e-12

# two-spin operators of the battery Hamiltonian, built once in the
# |00>,|01>,|10>,|11> basis ordering (spin 1 is the left Kronecker factor)
_XX = np.kron(SIGMA_X, SIGMA_X)
_YY = np.kron(SIGMA_Y, SIGMA_Y)
_ZZ = np.kron(SIGMA_Z, SIGMA_Z)
_Z_TOTAL = np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Labelled eigenpairs of the total Hamiltonian.

    E1/E2 belong to the |01>/|10> exchange doublet, E3/E4 to the field-split
    |00>/|11> pair with splitting eta = sqrt(B^2 + (gamma*J)^2). n_plus and
    n_minus are the corner-pair normalization constants; in the decoupled
    gamma*J = 0 limit they reduce to the stored eigenvector's |11> amplitude.
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
    """Exchange part: (J/2)[(1+gamma) XX + (1-gamma) YY] + (Jz/2) ZZ."""
    return (
        (p.J / 2.0)
        * ((1.0 + p.gamma) * _XX + (1.0 - p.gamma) * _YY)
        + (p.Jz / 2.0) * _ZZ
    )


def build_field_hamiltonian(p: SpinParams) -> np.ndarray:
    """Uniform z field: (B/2)(Z1 + Z2) = diag(B, 0, 0, -B)."""
    return (p.B / 2.0) * _Z_TOTAL


def build_total_hamiltonian(p: SpinParams) -> np.ndarray:
    """Exchange plus field; exact elementwise sum of the two builders."""
    return build_spin_hamiltonian(p) + build_field_hamiltonian(p)


def closed_form_spectrum(p: SpinParams) -> SpectralDecomposition:
    """Exact eigenpairs of the total Hamiltonian, labelled by sector.

    The exchange doublet is E_{1,2} = (-Jz +/- 2J)/2 with (+-|01> + |10>)/sqrt(2).
    The corner pair is E_{3,4} = Jz/2 +/- eta with amplitudes proportional to
    ((B +/- eta)/(gamma*J), 1) on (|00>, |11>). When |gamma*J| < 1e-12 the
    corner block is diagonal and the basis states themselves are returned,
    with the B sign deciding which state carries Jz/2 + eta. Raises
    ValueError when an energy is not finite or a corner vector is not a
    finite unit vector, as happens when an energy or ratio overflows.
    """
    eta = eta_value(p)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    psi1 = np.array([0, inv_sqrt2, inv_sqrt2, 0], dtype=complex)
    psi2 = np.array([0, -inv_sqrt2, inv_sqrt2, 0], dtype=complex)
    e1 = (-p.Jz + 2.0 * p.J) / 2.0
    e2 = (-p.Jz - 2.0 * p.J) / 2.0
    e3 = p.Jz / 2.0 + eta
    e4 = p.Jz / 2.0 - eta

    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    ket11 = np.array([0, 0, 0, 1], dtype=complex)
    corner = p.gamma * p.J
    if abs(corner) < DEGENERATE_CORNER_TOL:
        if p.B >= 0:
            psi3, psi4 = ket00, ket11
            n_plus, n_minus = 0.0, 1.0
        else:
            psi3, psi4 = ket11, ket00
            n_plus, n_minus = 1.0, 0.0
    else:
        # amplitude ratios rewritten to avoid the B -/+ eta cancellation
        if p.B >= 0:
            r_plus = (p.B + eta) / corner
            r_minus = -corner / (p.B + eta)
        else:
            r_plus = corner / (eta - p.B)
            r_minus = (p.B - eta) / corner
        n_plus = 1.0 / math.sqrt(r_plus * r_plus + 1.0)
        n_minus = 1.0 / math.sqrt(r_minus * r_minus + 1.0)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            psi3 = n_plus * (r_plus * ket00 + ket11)
            psi4 = n_minus * (r_minus * ket00 + ket11)
    # an overflowed energy or amplitude ratio leaves inf, nan or a zero vector
    unit = all(abs(np.linalg.norm(psi) - 1.0) <= 1e-12 for psi in (psi3, psi4))
    if not (unit and all(map(math.isfinite, (e1, e2, e3, e4)))):
        raise ValueError(f"closed-form spectrum overflowed for {p!r}")

    return SpectralDecomposition(
        E1=e1, E2=e2, E3=e3, E4=e4, eta=eta, n_plus=n_plus, n_minus=n_minus,
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
        h = build_total_hamiltonian(p)
        values, vectors = np.linalg.eigh(h)
        # the shift keeps every weight <= 1; a product that overflows to -inf
        # gives the weight e^-inf = 0, its limit
        with np.errstate(over="ignore"):
            weights = np.exp(-p.beta * (values - values.min()))
        rho = (vectors * weights) @ vectors.conj().T
        return rho / weights.sum()
    raise ValueError(f"unknown method {method!r}; expected 'closed_form' or 'oracle'")
