"""Tests for the 4x4 linear algebra layer."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import FIG1_PARAMS, expm_taylor, random_density, random_hermitian
from xyzbattery.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expectation,
    hermitian_eig,
    is_hermitian,
    is_unitary,
    unitary_exp,
)
from xyzbattery.model import (
    build_total_hamiltonian,
    closed_form_spectrum,
    gibbs_state,
)


class TestHermitianEig:
    def test_diagonal_matrix(self):
        m = np.diag([1.1, -0.1, -0.1, -0.9]).astype(complex)
        values, _ = hermitian_eig(m)
        assert np.allclose(values, [-0.9, -0.1, -0.1, 1.1], atol=1e-14)

    def test_pauli_x_spectrum(self):
        values, _ = hermitian_eig(SIGMA_X)
        assert np.allclose(values, [-1.0, 1.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_matches_closed_form_spectrum(self):
        h = build_total_hamiltonian(FIG1_PARAMS)
        numeric, _ = hermitian_eig(h)
        closed = np.sort(closed_form_spectrum(FIG1_PARAMS).labelled_energies)
        assert np.max(np.abs(numeric - closed)) < 1e-10

    def test_reconstruction_orthonormality_and_order(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = random_hermitian(rng, dim=4, scale=10.0)
            w, v = hermitian_eig(m)
            assert np.all(np.diff(w) >= 0)
            assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-10
            assert np.max(np.abs(m @ v - v * w)) < 1e-10

    def test_returns_numpy_eigenpairs_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = random_hermitian(rng, dim=4, scale=rng.choice([1e-3, 2.0, 1e6]))
            values, vectors = hermitian_eig(m)
            expected_values, expected_vectors = np.linalg.eigh(m)
            assert np.array_equal(values, expected_values)
            assert np.array_equal(vectors, expected_vectors)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_rejects_non_finite(self, bad):
        m = np.eye(4, dtype=complex)
        m[0, 3] = m[3, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eig(m)


class TestUnitaryExp:
    def test_zero_scale_is_exact_identity(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, dim=4)
        assert np.array_equal(unitary_exp(m, 0.0), np.eye(4, dtype=complex))

    def test_pauli_x_quarter_turn(self):
        u = unitary_exp(SIGMA_X, np.pi / 2)
        assert np.max(np.abs(u - (-1j) * SIGMA_X)) < 1e-15

    def test_group_property(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = random_hermitian(rng, dim=4, scale=2.0)
            s, t = rng.uniform(-3, 3, 2)
            lhs = unitary_exp(m, s) @ unitary_exp(m, t)
            assert np.max(np.abs(lhs - unitary_exp(m, s + t))) < 1e-10

    def test_result_is_unitary(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            m = random_hermitian(rng, dim=4, scale=5.0)
            assert is_unitary(unitary_exp(m, rng.uniform(-4, 4)))

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = random_hermitian(rng, dim=4, scale=2.0)
            t = rng.uniform(-2, 2)
            series = expm_taylor(-1j * t * m)
            assert np.max(np.abs(unitary_exp(m, t) - series)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            unitary_exp(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestExpectation:
    def test_unit_trace(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            rho = random_density(rng)
            assert abs(expectation(np.eye(4, dtype=complex), rho) - 1.0) < 1e-12

    def test_basis_projector(self):
        rho00 = np.zeros((4, 4), dtype=complex)
        rho00[0, 0] = 1.0
        assert expectation(np.kron(SIGMA_Z, IDENTITY_2), rho00) == 1.0

    def test_matches_partition_function_derivative(self):
        # oracle: -dlnZ/dbeta at beta=1 by central finite difference over the
        # numerically diagonalized spectrum
        h = build_total_hamiltonian(FIG1_PARAMS)
        energies, _ = hermitian_eig(h)
        step = 1e-5

        def log_z(beta):
            return np.log(np.sum(np.exp(-beta * energies)))

        oracle = -(log_z(1.0 + step) - log_z(1.0 - step)) / (2.0 * step)
        value = expectation(h, gibbs_state(FIG1_PARAMS, method="oracle"))
        assert abs(value - oracle) < 1e-7
        # frozen: 50-digit -dlnZ/dbeta at J=0.2, Jz=0.2, gamma=0.5, B=1
        assert abs(value - (-0.43210880288812862075)) < 1e-12

    def test_real_for_hermitian_pair(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            h = random_hermitian(rng, dim=4, scale=3.0)
            rho = random_density(rng)
            expectation(h, rho)  # raises if the imaginary residue exceeds 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(np.eye(2, dtype=complex), np.eye(4, dtype=complex) / 4.0)


def test_pauli_matrices_are_hermitian():
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert is_hermitian(sigma)
