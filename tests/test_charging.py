"""Tests for the charging dynamics: propagators, stored work, ergotropy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import FIG1_PARAMS, draw_params, expm_taylor, random_density
from xyzbattery.analytics import harmonic_fit, sample_times, work_coefficients
from xyzbattery.charging import (
    build_charging_hamiltonian,
    ergotropy,
    evolve,
    passive_state,
    propagator,
    work_curve,
    work_series,
)
from xyzbattery.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    expectation,
    hermitian_eig,
    is_unitary,
    unitary_exp,
)
from xyzbattery.model import SpinParams, build_total_hamiltonian, gibbs_state
from xyzbattery.params import MODES, ChargingSpec

# frozen: 50-digit 2*B^2*sinh(eta)/d at J=0.2, Jz=0.2, gamma=0.5, B=1
W_HALF_PERIOD_FIG1 = 0.84228602680284486539

SPEC_1 = ChargingSpec(omega=1.0)


class TestChargingSpec:
    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            ChargingSpec(omega=0.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ChargingSpec(omega=1.0, mode="adiabatic")


class TestChargingHamiltonian:
    def test_spectrum(self):
        h = build_charging_hamiltonian(1.0)
        values, _ = hermitian_eig(h)
        assert np.allclose(values, [-1, 0, 0, 1], atol=1e-14)

    def test_linear_in_omega(self):
        h1 = build_charging_hamiltonian(1.0)
        h2 = build_charging_hamiltonian(2.0)
        assert np.array_equal(h2, 2.0 * h1)

    def test_vanishing_diagonal_expectation(self):
        rho00 = np.zeros((4, 4), dtype=complex)
        rho00[0, 0] = 1.0
        assert expectation(build_charging_hamiltonian(1.0), rho00) == 0.0


class TestPropagator:
    def test_identity_at_zero_time(self):
        for mode in MODES:
            u = propagator(FIG1_PARAMS, ChargingSpec(omega=1.0, mode=mode), 0.0)
            assert np.array_equal(u, np.eye(4, dtype=complex))

    def test_full_rotation_returns_to_identity(self):
        u = propagator(FIG1_PARAMS, SPEC_1, 2.0 * math.pi)
        assert np.max(np.abs(u - np.eye(4))) < 1e-15

    def test_half_rotation_is_minus_xx(self):
        u = propagator(FIG1_PARAMS, SPEC_1, math.pi)
        assert np.max(np.abs(u - (-np.kron(SIGMA_X, SIGMA_X)))) < 1e-15

    def test_unitarity_both_modes(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            p = draw_params(rng)
            t = rng.uniform(0, 20)
            omega = rng.uniform(0.2, 3.0)
            for mode in MODES:
                u = propagator(p, ChargingSpec(omega=omega, mode=mode), t)
                assert is_unitary(u)

    def test_drive_only_form_matches_spectral_and_series(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            omega = rng.uniform(0.2, 3.0)
            t = rng.uniform(0, 15)
            spec = ChargingSpec(omega=omega)
            h_c = build_charging_hamiltonian(omega)
            u = propagator(FIG1_PARAMS, spec, t)
            assert np.max(np.abs(u - unitary_exp(h_c, t))) < 1e-12
            assert np.max(np.abs(u - expm_taylor(-1j * t * h_c))) < 1e-10

    def test_modes_differ_once_driving(self):
        u_drive = propagator(FIG1_PARAMS, SPEC_1, 1.0)
        u_full = propagator(
            FIG1_PARAMS, ChargingSpec(omega=1.0, mode="full"), 1.0)
        assert np.max(np.abs(u_drive - u_full)) > 1e-3


class TestEvolve:
    def test_identity_returns_input(self):
        rho = gibbs_state(FIG1_PARAMS)
        assert np.array_equal(evolve(rho, np.eye(4, dtype=complex)), rho)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            p = draw_params(rng)
            rho = gibbs_state(p)
            t = rng.uniform(0, 10)
            mode = "charging-only" if rng.uniform() < 0.5 else "full"
            u = propagator(p, ChargingSpec(omega=1.3, mode=mode), t)
            before = np.linalg.eigvalsh(rho)
            after = np.linalg.eigvalsh(evolve(rho, u))
            assert np.max(np.abs(before - after)) < 1e-10

    def test_half_rotation_flips_magnetization(self):
        # conjugation by XX sends Z1 + Z2 to its negative
        rho0 = gibbs_state(FIG1_PARAMS)
        rho_pi = evolve(rho0, propagator(FIG1_PARAMS, SPEC_1, math.pi))
        m_total = np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z)
        before = expectation(m_total, rho0)
        after = expectation(m_total, rho_pi)
        assert abs(after + before) < 1e-12


class TestStoredWork:
    def test_zero_at_start(self):
        for mode in MODES:
            spec = ChargingSpec(omega=1.0, mode=mode)
            assert work_curve(FIG1_PARAMS, spec)(0.0) == 0.0

    def test_zero_after_full_period(self):
        assert abs(work_curve(FIG1_PARAMS, SPEC_1)(2.0 * math.pi)) < 1e-12

    def test_half_period_spot_value(self):
        w = work_curve(FIG1_PARAMS, SPEC_1)(math.pi)
        assert abs(w - W_HALF_PERIOD_FIG1) < 1e-10
        assert abs(w - 0.8423) < 0.0005

    def test_nonnegative_from_thermal_start(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            p = draw_params(rng)
            spec = ChargingSpec(omega=rng.uniform(0.3, 2.0))
            for t in rng.uniform(0, 12, 5):
                assert work_curve(p, spec)(t) >= -1e-10

    def test_periodicity(self):
        rng = np.random.default_rng(73)
        period = 2.0 * math.pi
        for t in rng.uniform(0, period, 20):
            delta = work_curve(FIG1_PARAMS, SPEC_1)(t) - work_curve(
                FIG1_PARAMS, SPEC_1)(t + period)
            assert abs(delta) < 1e-10


def curve_draws(rng, box=80, per_edge=10):
    """Box draws plus the edge cases, each paired with a drive strength.

    Edges: |gamma*J| ~ 1e-13 (diagonal corner block), eta ~ 1e-9, B < 0, and
    the double-peak branch with b < 0.
    """
    draws = [draw_params(rng) for _ in range(box)]
    for _ in range(per_edge):
        p = draw_params(rng)
        draws.append(SpinParams(J=p.J, Jz=p.Jz, gamma=rng.uniform(-1, 1) * 1e-13, B=p.B))
        draws.append(SpinParams(J=p.J, Jz=p.Jz, gamma=rng.uniform(-1, 1) * 1e-10,
                                B=rng.uniform(-1, 1) * 1e-9))
        draws.append(SpinParams(J=p.J, Jz=p.Jz, gamma=p.gamma, B=-rng.uniform(0.1, 5.0)))
        while True:
            c = work_coefficients(p)
            if c.b < 0 and abs(c.a) <= 4.0 * abs(c.b):
                break
            p = draw_params(rng)
        draws.append(p)
    return [(p, rng.uniform(0.25, 3.0)) for p in draws]


# a block size: the position-independence checks below use arrays of just
# over one and two blocks
TIME_CHUNK = 512


class TestWorkCurve:
    def test_matches_propagated_oracle(self):
        rng = np.random.default_rng(101)
        for p, omega in curve_draws(rng):
            h = build_total_hamiltonian(p)
            rho0 = gibbs_state(p)
            e0 = expectation(h, rho0)
            times = rng.uniform(0.0, 4.0 * math.pi / omega, 5)
            for mode in MODES:
                spec = ChargingSpec(omega=omega, mode=mode)
                values = work_curve(p, spec)(times)
                for t, w in zip(times, values):
                    expected = expectation(h, evolve(rho0, propagator(p, spec, t))) - e0
                    assert abs(w - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_exactly_zero_at_start(self):
        rng = np.random.default_rng(103)
        times = rng.uniform(0.0, 10.0, TIME_CHUNK + 40)
        times[[0, 7, TIME_CHUNK + 3]] = 0.0
        for p, omega in curve_draws(rng):
            for mode in MODES:
                curve = work_curve(p, ChargingSpec(omega=omega, mode=mode))
                assert curve(0.0) == 0.0
                values = curve(times)
                assert values[0] == values[7] == values[TIME_CHUNK + 3] == 0.0

    def test_scalar_and_array_agree(self):
        rng = np.random.default_rng(107)
        for p, omega in curve_draws(rng):
            times = rng.uniform(0.0, 4.0 * math.pi / omega, 7)
            for mode in MODES:
                curve = work_curve(p, ChargingSpec(omega=omega, mode=mode))
                scalars = [curve(float(t)) for t in times]
                assert all(isinstance(w, float) for w in scalars)
                assert np.array_equal(curve(times), scalars)
                assert curve(times.reshape(7, 1)).shape == (7, 1)

    def test_chunks_match_one_call(self):
        rng = np.random.default_rng(109)
        times = np.linspace(0.0, 30.0, 2 * TIME_CHUNK + 37)
        for p, omega in curve_draws(rng):
            for mode in MODES:
                curve = work_curve(p, ChargingSpec(omega=omega, mode=mode))
                pieces = np.concatenate([curve(times[i:i + 100])
                                         for i in range(0, times.size, 100)])
                assert np.array_equal(curve(times), pieces)

    def test_rejects_non_finite_time(self):
        rng = np.random.default_rng(113)
        for p, omega in curve_draws(rng, box=95, per_edge=2):
            for mode in MODES:
                spec = ChargingSpec(omega=omega, mode=mode)
                curve = work_curve(p, spec)
                bad = [math.nan, math.inf, -math.inf]
                for t in bad + [np.array([1.0, bad[rng.integers(3)], 2.0])]:
                    with pytest.raises(ValueError):
                        curve(t)
                with pytest.raises(ValueError):
                    work_curve(p, spec)(math.inf)


class TestCosineSum:
    """The oracle is a real cosine sum over the generator's eigenvalue pairs."""

    def test_charging_only_gaps_are_drive_harmonics_and_ratio_a_is_4(self):
        rng = np.random.default_rng(127)
        for p, omega in curve_draws(rng, box=260, per_edge=10):
            curve = work_curve(p, ChargingSpec(omega=omega))
            # exactly the omega and 2*omega harmonics, one term each
            assert (2.0 * curve.half_gaps).tolist() == [omega, 2.0 * omega]
            assert curve.amplitudes.shape == (2,)
            # the omega harmonic carries a quarter of the printed a
            a = work_coefficients(p).a
            assert abs(4.0 * curve.amplitudes[0] - a) <= 1e-12 * max(1.0, abs(a))


class TestWorkSeries:
    def test_starts_at_zero(self):
        times, values = work_series(FIG1_PARAMS, SPEC_1, t_max=2.0 * math.pi, n=32)
        assert times[0] == 0.0
        assert values[0] == 0.0

    @pytest.mark.parametrize("mode", MODES)
    def test_samples_the_curve_at_sample_times(self, mode):
        spec = ChargingSpec(omega=0.7, mode=mode)
        times, values = work_series(FIG1_PARAMS, spec, t_max=9.5, n=101)
        expected = np.array(sample_times(9.5, 101))
        assert times.dtype == expected.dtype and times.tobytes() == expected.tobytes()
        assert values.tobytes() == work_curve(FIG1_PARAMS, spec)(times).tobytes()

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            work_series(FIG1_PARAMS, SPEC_1, t_max=1.0, n=1)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            work_series(FIG1_PARAMS, SPEC_1, t_max=0.0, n=16)

    def test_zero_field_kills_the_single_harmonic(self):
        p = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=0.0)
        times, values = work_series(p, SPEC_1, t_max=2.0 * math.pi, n=64)
        fit = harmonic_fit(times, values, SPEC_1.omega)
        assert abs(fit.alpha1) < 1e-10

    def test_series_is_periodic_on_overlap(self):
        period = 2.0 * math.pi
        _, values = work_series(FIG1_PARAMS, SPEC_1, t_max=2.0 * period, n=129)
        # 64 steps per period: sample k and k+64 are exactly one period apart
        assert np.max(np.abs(values[:65] - values[64:])) < 1e-10


class TestPassivity:
    def test_gibbs_is_its_own_passive_state(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            p = draw_params(rng)
            h = build_total_hamiltonian(p)
            rho = gibbs_state(p)
            assert np.max(np.abs(passive_state(rho, h) - rho)) < 1e-10

    def test_maximally_mixed_is_passive(self):
        h = build_total_hamiltonian(FIG1_PARAMS)
        mixed = np.eye(4, dtype=complex) / 4.0
        assert np.max(np.abs(passive_state(mixed, h) - mixed)) < 1e-12

    def test_pure_top_state_maps_to_bottom(self):
        h = build_total_hamiltonian(FIG1_PARAMS)
        _, v = hermitian_eig(h)
        top = np.outer(v[:, -1], v[:, -1].conj())
        bottom = np.outer(v[:, 0], v[:, 0].conj())
        assert np.max(np.abs(passive_state(top, h) - bottom)) < 1e-12


class TestErgotropy:
    def test_zero_for_gibbs(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            p = draw_params(rng)
            h = build_total_hamiltonian(p)
            value = ergotropy(gibbs_state(p), h)
            assert -1e-12 <= value < 1e-12

    def test_pure_state_extremes(self):
        h = build_total_hamiltonian(FIG1_PARAMS)
        w, v = hermitian_eig(h)
        top = np.outer(v[:, -1], v[:, -1].conj())
        expected = w[-1] - w[0]
        assert abs(ergotropy(top, h) - expected) < 1e-12

    def test_equals_stored_work_under_unitary_charging(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            p = draw_params(rng)
            omega = rng.uniform(0.3, 2.0)
            h = build_total_hamiltonian(p)
            rho0 = gibbs_state(p)
            times = rng.uniform(0, 10, 5)
            for mode in MODES:
                spec = ChargingSpec(omega=omega, mode=mode)
                curve = work_curve(p, spec)
                for t in times:
                    rho_t = evolve(rho0, propagator(p, spec, t))
                    assert abs(ergotropy(rho_t, h) - curve(t)) < 1e-10, mode

    def test_nonnegative_for_random_states(self):
        rng = np.random.default_rng(97)
        h = build_total_hamiltonian(FIG1_PARAMS)
        for _ in range(1000):
            assert ergotropy(random_density(rng), h) >= -1e-12
