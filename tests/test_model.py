"""Tests for the battery Hamiltonians, exact spectrum, and thermal state."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG1_PARAMS, draw_params
from xyzbattery.linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, hermitian_eig, is_hermitian
from xyzbattery.model import (
    SpinParams,
    UnsupportedClosedFormError,
    build_field_hamiltonian,
    build_spin_hamiltonian,
    build_total_hamiltonian,
    closed_form_spectrum,
    eta_value,
    gibbs_state,
    thermal_elements,
)

# frozen: 50-digit evaluations at J=0.2, Jz=0.2, gamma=0.5, B=1, beta=1
ETA_FIG1 = 1.004987562112089027
Z_FIG1 = 5.0578124050798848624
MU_PLUS_FIG1 = 2.4665892684811803809
MU_MINUS_FIG1 = 0.33652691098674180443
KAPPA_FIG1 = -0.10650311787472192882
NU_FIG1 = 1.1273481128059813386
EPSILON_FIG1 = -0.22251069477002176541
N_PLUS_FIG1 = 0.049813701880159761595
N_MINUS_FIG1 = 0.99875852692479905948

KET_00 = np.array([1, 0, 0, 0], dtype=complex)
KET_11 = np.array([0, 0, 0, 1], dtype=complex)


class TestSpinParams:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            SpinParams(J=0.1, Jz=0.1, gamma=0.0, B=1.0, beta=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SpinParams(J=math.inf, Jz=0.1, gamma=0.0, B=1.0)

    def test_beta_defaults_to_one(self):
        assert SpinParams(J=0.1, Jz=0.1, gamma=0.0, B=1.0).beta == 1.0


# the test box (|J|, |Jz| <= 2, |gamma| <= 1, |B| <= 5) without magnitudes
# below 1e-3, so that the scaled products below stay normal floats
_MAGNITUDE = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
_BOX = st.builds(lambda j, jz, g, b: SpinParams(J=2.0 * j, Jz=2.0 * jz, gamma=g, B=5.0 * b),
                 _MAGNITUDE, _MAGNITUDE, _MAGNITUDE, _MAGNITUDE)
# gamma and B scaled down together by 10^-k
_SCALED = st.builds(lambda p, k: SpinParams(J=p.J, Jz=p.Jz, gamma=p.gamma * 10.0 ** -k,
                                            B=p.B * 10.0 ** -k), _BOX, st.integers(0, 15))
# gamma alone scaled down to 1e-16, and |gamma| near the largest double at J = 0
_TINY_GAMMA = st.builds(lambda p, k: SpinParams(J=p.J, Jz=p.Jz, gamma=p.gamma * 10.0 ** -k,
                                                B=p.B), _BOX, st.integers(0, 16))
_HUGE_GAMMA = st.builds(lambda jz, g, b: SpinParams(J=0.0, Jz=jz, gamma=g, B=b),
                        st.floats(-2.0, 2.0), st.sampled_from((-1.7e308, 1.7e308)),
                        st.floats(-5.0, 5.0))

# |gamma*J| = 7.8e-13 beside B = 9.8e-10: the corner vectors are rotated by
# about 4e-4 from the basis states
ETA_ZERO_DRAW = SpinParams(J=1.6163012019522336, Jz=1.7620740963956187,
                           gamma=-4.850149164504325e-13, B=9.79947212041931e-10,
                           beta=3.2110913533689533)


def _pauli_expansion(p: SpinParams) -> np.ndarray:
    """(J/2)[(1+gamma) XX + (1-gamma) YY] + (Jz/2) ZZ + (B/2)(Z1 + Z2)."""
    xx, yy, zz = (np.kron(s, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    z_total = np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z)
    return ((p.J / 2.0) * ((1.0 + p.gamma) * xx + (1.0 - p.gamma) * yy)
            + (p.Jz / 2.0) * zz + (p.B / 2.0) * z_total)


class TestHamiltonians:
    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(st.one_of(_BOX, _TINY_GAMMA, _HUGE_GAMMA))
    def test_builders_hold_the_exact_elements(self, p):
        d, g = p.Jz / 2.0, p.gamma * p.J
        expected = np.array([[d, 0, 0, g], [0, -d, p.J, 0], [0, p.J, -d, 0], [g, 0, 0, d]])
        h = build_spin_hamiltonian(p)
        assert h.dtype == complex and not h.imag.any()
        assert np.array_equal(h.real, expected)
        field = build_field_hamiltonian(p)
        assert field.dtype == complex
        assert np.array_equal(field, np.diag([p.B, 0.0, 0.0, -p.B]))

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(_BOX)
    def test_matches_the_pauli_expansion(self, p):
        h = build_total_hamiltonian(p)
        scale = np.max(np.abs(h))
        assert np.max(np.abs(h - _pauli_expansion(p))) <= 4 * np.finfo(float).eps * scale

    def test_zero_couplings_give_zero_exchange(self):
        p = SpinParams(J=0.0, Jz=0.0, gamma=0.7, B=3.0)
        assert np.array_equal(build_spin_hamiltonian(p), np.zeros((4, 4)))

    def test_exchange_matrix_elements(self):
        # direct Pauli tensor expansion at J=0.2, Jz=0.2, gamma=0.5:
        # diagonal (0.1, -0.1, -0.1, 0.1), antidiagonal (0.1, 0.2, 0.2, 0.1)
        h = build_spin_hamiltonian(FIG1_PARAMS)
        assert np.allclose(np.diagonal(h), [0.1, -0.1, -0.1, 0.1], atol=1e-15)
        anti = [h[0, 3], h[1, 2], h[2, 1], h[3, 0]]
        assert np.allclose(anti, [0.1, 0.2, 0.2, 0.1], atol=1e-15)
        assert abs(np.trace(h)) < 1e-15
        assert is_hermitian(h)

    def test_field_matrix(self):
        base = SpinParams(J=0.1, Jz=0.1, gamma=0.0, B=0.0)
        assert np.array_equal(build_field_hamiltonian(base), np.zeros((4, 4)))
        for b, diag in ((1.0, [1, 0, 0, -1]), (-2.0, [-2, 0, 0, 2])):
            p = SpinParams(J=0.1, Jz=0.1, gamma=0.0, B=b)
            assert np.array_equal(
                build_field_hamiltonian(p), np.diag(diag).astype(complex))

    def test_total_matches_printed_matrix(self):
        h = build_total_hamiltonian(FIG1_PARAMS)
        expected = np.array(
            [
                [1.1, 0.0, 0.0, 0.1],
                [0.0, -0.1, 0.2, 0.0],
                [0.0, 0.2, -0.1, 0.0],
                [0.1, 0.0, 0.0, -0.9],
            ],
            dtype=complex,
        )
        assert np.max(np.abs(h - expected)) < 1e-15

    def test_total_of_zero_params_is_zero(self):
        p = SpinParams(J=0.0, Jz=0.0, gamma=0.0, B=0.0)
        assert np.array_equal(build_total_hamiltonian(p), np.zeros((4, 4)))

    def test_total_is_exact_sum_of_parts(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            p = draw_params(rng)
            total = build_spin_hamiltonian(p) + build_field_hamiltonian(p)
            assert np.array_equal(total, build_total_hamiltonian(p))

    def test_isotropic_point_has_bell_eigenvectors(self):
        p = SpinParams(J=1.0, Jz=1.0, gamma=0.0, B=0.0)
        h = build_total_hamiltonian(p)
        inv = 1.0 / math.sqrt(2.0)
        bells = [
            np.array([inv, 0, 0, inv], dtype=complex),
            np.array([inv, 0, 0, -inv], dtype=complex),
            np.array([0, inv, inv, 0], dtype=complex),
            np.array([0, inv, -inv, 0], dtype=complex),
        ]
        for psi in bells:
            energy = np.real(psi.conj() @ h @ psi)
            assert np.max(np.abs(h @ psi - energy * psi)) < 1e-12


class TestClosedFormSpectrum:
    def test_exchange_doublet_energies(self):
        dec = closed_form_spectrum(FIG1_PARAMS)
        assert abs(dec.E1 - 0.1) < 1e-15
        assert abs(dec.E2 - (-0.3)) < 1e-15

    def test_eta_and_corner_energies(self):
        dec = closed_form_spectrum(FIG1_PARAMS)
        assert abs(dec.eta - ETA_FIG1) < 1e-15
        assert abs(dec.eta - math.sqrt(1.01)) < 1e-15
        assert abs(dec.E3 - (0.1 + ETA_FIG1)) < 1e-15
        assert abs(dec.E4 - (0.1 - ETA_FIG1)) < 1e-15
        assert abs(dec.n_plus - N_PLUS_FIG1) < 1e-15
        assert abs(dec.n_minus - N_MINUS_FIG1) < 1e-15

    def test_vectors_are_unit_norm_eigenvectors(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            p = draw_params(rng)
            h = build_total_hamiltonian(p)
            dec = closed_form_spectrum(p)
            for energy, psi in zip(dec.labelled_energies, dec.labelled_vectors):
                assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
                assert np.linalg.norm(h @ psi - energy * psi) < 1e-10

    def test_decoupled_corner_block(self):
        p = SpinParams(J=0.5, Jz=0.2, gamma=0.0, B=1.0)
        dec = closed_form_spectrum(p)
        assert abs(dec.E3 - 1.1) < 1e-15
        assert abs(dec.E4 - (-0.9)) < 1e-15
        assert np.array_equal(dec.psi3, KET_00)
        assert np.array_equal(dec.psi4, KET_11)

    def test_decoupled_corner_block_negative_field(self):
        p = SpinParams(J=0.5, Jz=0.2, gamma=0.0, B=-1.0)
        dec = closed_form_spectrum(p)
        assert abs(dec.E3 - 1.1) < 1e-15
        assert np.array_equal(dec.psi3, KET_11)
        assert np.array_equal(dec.psi4, KET_00)

    @settings(derandomize=True, deadline=None, max_examples=400, database=None)
    @given(_SCALED)
    def test_corner_vectors_at_scaled_fields(self, p):
        self._check_corner_vectors(p)

    def test_corner_vectors_at_eta_zero_draw(self):
        dec = self._check_corner_vectors(ETA_ZERO_DRAW)
        assert abs(dec.n_plus - 3.9998583e-4) < 1e-11
        assert abs(dec.n_minus - 0.99999992) < 1e-8

    @staticmethod
    def _check_corner_vectors(p):
        dec = closed_form_spectrum(p)
        g, eta = p.gamma * p.J, dec.eta
        block = np.array([[p.B, g], [g, -p.B]])
        for sign, psi in ((1.0, dec.psi3), (-1.0, dec.psi4)):
            v = np.array([psi[0].real, psi[3].real])
            assert not psi.imag.any() and psi[1] == psi[2] == 0
            assert np.max(np.abs(block @ v - sign * eta * v)) <= 1e-14 * eta
        assert abs(dec.n_plus ** 2 + dec.n_minus ** 2 - 1.0) <= 1e-15
        assert (dec.n_plus, dec.n_minus) == (dec.psi3[3].real, dec.psi4[3].real)
        if eta > 0:  # a degenerate block has no preferred eigenvectors
            vectors = np.linalg.eigh(block)[1]  # columns for -eta, +eta
            assert abs(dec.n_plus - abs(vectors[1, 1])) <= 1e-14
            assert abs(dec.n_minus - abs(vectors[1, 0])) <= 1e-14
        return dec

    def test_matches_numerical_diagonalization(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            p = draw_params(rng)
            numeric, _ = hermitian_eig(build_total_hamiltonian(p))
            closed = np.sort(closed_form_spectrum(p).labelled_energies)
            assert np.max(np.abs(numeric - closed)) < 1e-10


class TestThermalElements:
    def test_fig1_values(self):
        t = thermal_elements(FIG1_PARAMS)
        assert abs(t.Z - Z_FIG1) < 1e-12
        assert abs(t.mu_plus - MU_PLUS_FIG1) < 1e-12
        assert abs(t.mu_minus - MU_MINUS_FIG1) < 1e-12
        assert abs(t.kappa - KAPPA_FIG1) < 1e-12
        assert abs(t.nu - NU_FIG1) < 1e-12
        assert abs(t.epsilon - EPSILON_FIG1) < 1e-12

    def test_zero_field_zero_anisotropy_limit(self):
        p = SpinParams(J=0.3, Jz=0.4, gamma=0.0, B=0.0)
        t = thermal_elements(p)
        assert t.kappa == 0.0
        assert abs(t.mu_plus - math.exp(-0.2)) < 1e-15
        assert abs(t.mu_minus - math.exp(-0.2)) < 1e-15

    def test_zero_exchange_limit(self):
        p = SpinParams(J=0.0, Jz=0.4, gamma=0.5, B=1.0)
        t = thermal_elements(p)
        assert t.epsilon == 0.0
        assert abs(t.nu - math.exp(0.2)) < 1e-15

    def test_rejects_other_beta(self):
        p = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=1.0, beta=2.0)
        with pytest.raises(UnsupportedClosedFormError):
            thermal_elements(p)

    def test_partition_function_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            p = draw_params(rng)
            t = thermal_elements(p)
            dec = closed_form_spectrum(p)
            boltzmann = sum(math.exp(-e) for e in dec.labelled_energies)
            assert abs(boltzmann - t.Z) < 1e-12
            assert abs((t.mu_plus + t.mu_minus + 2.0 * t.nu) / t.Z - 1.0) < 1e-12
            assert t.mu_plus > 0 and t.mu_minus > 0 and t.nu > 0 and t.Z > 0

    def test_kappa_sign(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            p = draw_params(rng)
            if p.gamma * p.J * math.sinh(eta_value(p)) > 0:
                assert thermal_elements(p).kappa <= 0


class TestGibbsState:
    def test_density_matrix_axioms(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            p = draw_params(rng)
            for method in ("closed_form", "oracle"):
                rho = gibbs_state(p, method=method)
                assert is_hermitian(rho)
                assert abs(np.trace(rho).real - 1.0) < 1e-12
                assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_closed_form_matches_oracle(self):
        rho_closed = gibbs_state(FIG1_PARAMS, method="closed_form")
        rho_oracle = gibbs_state(FIG1_PARAMS, method="oracle")
        assert np.max(np.abs(rho_closed - rho_oracle)) < 1e-12

    def test_strong_field_polarizes_to_down_down(self):
        # the ground state keeps a ~gamma*J/(2B) amplitude on |00>, so the
        # |11> weight saturates at N_minus^2 = 1 - 1e-6, not at 1 exactly
        p = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=50.0)
        rho = gibbs_state(p, method="closed_form")
        assert abs(rho[3, 3].real - 1.0) < 1e-5
        # frozen: 50-digit mu_plus/Z at these parameters
        assert abs(rho[3, 3].real - 0.9999990000029999899995544) < 1e-12

    def test_infinite_temperature_limit(self):
        p = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=1.0, beta=1e-8)
        rho = gibbs_state(p, method="oracle")
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-6

    def test_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            p = draw_params(rng)
            h = build_total_hamiltonian(p)
            rho = gibbs_state(p, method="oracle")
            assert np.max(np.abs(h @ rho - rho @ h)) < 1e-12

    def test_closed_form_rejects_other_beta(self):
        p = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=1.0, beta=0.5)
        with pytest.raises(UnsupportedClosedFormError):
            gibbs_state(p, method="closed_form")
        gibbs_state(p, method="oracle")  # general beta stays available

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            gibbs_state(FIG1_PARAMS, method="magic")

    def test_oracle_is_numpy_spectral_sum_to_the_bit(self):
        # the checked eigensolver hands back numpy's eigenpairs unchanged
        rng = np.random.default_rng(59)
        for _ in range(200):
            p = draw_params(rng, beta=float(rng.choice([1.0, 0.3, 4.0])))
            values, vectors = np.linalg.eigh(build_total_hamiltonian(p))
            weights = np.exp(-p.beta * (values - values.min()))
            expected = (vectors * weights) @ vectors.conj().T / weights.sum()
            assert np.array_equal(gibbs_state(p, method="oracle"), expected)
