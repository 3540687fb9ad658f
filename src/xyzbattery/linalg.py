"""Exact complex linear algebra for the two-spin (4x4) workspace.

Pauli matrices, checked Hermitian eigendecomposition, unitary exponentials,
and trace pairings. All operators are plain complex numpy arrays; model
units set hbar = k_B = 1.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
TRACE_IMAG_TOL = 1e-12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def _as_square(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL)


def is_unitary(u: np.ndarray) -> bool:
    u = np.asarray(u, dtype=complex)
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= UNITARY_TOL)


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ascending eigenvalues, orthonormal column eigenvectors) of a finite
    Hermitian matrix, exactly as numpy returns them; the one eigensolver
    call in the package."""
    m = _as_square(m, "matrix")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within 1e-12")
    values, vectors = np.linalg.eigh(m)
    return values, vectors


def unitary_exp(m: np.ndarray, s: float) -> np.ndarray:
    """exp(-i*s*M) for Hermitian M, via spectral decomposition."""
    values, vectors = hermitian_eig(m)
    if not np.isfinite(s):
        raise ValueError("scale must be finite")
    if s == 0.0:
        return np.eye(values.size, dtype=complex)
    phases = np.exp(-1j * s * values)
    return (vectors * phases) @ vectors.conj().T


def expectation(h: np.ndarray, rho: np.ndarray) -> float:
    """Tr[H rho], asserted real to within 1e-12 before the residue is dropped."""
    h = _as_square(h, "observable")
    rho = _as_square(rho, "state")
    if h.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {h.shape} vs {rho.shape}")
    tr = complex(np.trace(h @ rho))
    if abs(tr.imag) > TRACE_IMAG_TOL:
        raise ValueError(f"trace has imaginary residue {tr.imag:g} above 1e-12")
    return tr.real
