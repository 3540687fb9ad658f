"""Exact complex linear algebra for the two-spin (4x4) workspace.

Pauli matrices, Hermitian eigendecomposition with a deterministic
sign/phase convention, unitary exponentials, and trace pairings. All
operators are plain complex numpy arrays; model units set hbar = k_B = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
TRACE_IMAG_TOL = 1e-12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues paired with orthonormal column eigenvectors.

    Each eigenvector's first component of magnitude above 1e-12 is rotated
    to be real and positive, so repeated runs give identical output.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    # first component with |v_i| > 1e-12 made real positive
    out = np.array(vectors, dtype=complex)
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size:
            pivot = col[idx[0]]
            out[:, k] = col * (pivot.conjugate() / abs(pivot))
    return out


def hermitian_eig(m: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with deterministic ordering."""
    m = _as_square(m, "matrix")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within 1e-12")
    values, vectors = np.linalg.eigh(m)
    return EigenSystem(eigenvalues=values, eigenvectors=_fix_phases(vectors))


def unitary_exp(m: np.ndarray, s: float) -> np.ndarray:
    """exp(-i*s*M) for Hermitian M, via spectral decomposition."""
    m = _as_square(m, "generator")
    if not is_hermitian(m):
        raise ValueError("generator is not Hermitian within 1e-12")
    if not np.isfinite(s):
        raise ValueError("scale must be finite")
    if s == 0.0:
        return np.eye(m.shape[0], dtype=complex)
    values, vectors = np.linalg.eigh(m)
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
