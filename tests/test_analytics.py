"""Tests for the closed-form work expression and its extrema analysis."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FIG1_PARAMS, draw_params, two_harmonic_extremes
from xyzbattery import analytics
from xyzbattery.analytics import (
    BRANCH_DEGENERATE,
    BRANCH_MAX1,
    BRANCH_MAX2,
    FlatSignalError,
    WorkCoefficients,
    classify_branch,
    closed_form_work,
    consistency_report,
    cosine_work,
    dynamics_coefficients,
    grid_search_max,
    harmonic_fit,
    large_B_asymptote,
    max_work,
    oracle_peak,
    two_harmonic_max,
    work_coefficients,
)
from xyzbattery.charging import (
    evolve,
    propagator,
    work_curve,
    work_series,
)
from xyzbattery.linalg import expectation
from xyzbattery.model import (
    SpinParams,
    UnsupportedClosedFormError,
    build_total_hamiltonian,
    eta_value,
    gibbs_state,
    thermal_elements,
)
from xyzbattery.params import MODES, ChargingSpec

# frozen: 50-digit evaluations at J=0.2, Jz=0.2, gamma=0.5, B=1, beta=1
A_FIG1 = 1.6845720536056897308
B_FIG1 = 0.28290120936370197388
D_FIG1 = 2.8088131952117765577
X_FIG1 = 1.4886575223508314996
TWO_A_FIG1 = 3.3691441072113794616
A_PLUS_2B_FIG1 = 2.2503744723330936786
# frozen: 50-digit b at the same parameters with B=0
B_COEFF_ZERO_FIELD = 0.3278802859024426218


def synthetic(a: float, b: float) -> WorkCoefficients:
    x = a / (4.0 * b) if abs(b) >= 1e-14 else math.nan
    return WorkCoefficients(a=a, b=b, b1=0.0, b2=0.0, b3=0.0, d=1.0, x=x)


class TestWorkCoefficients:
    def test_fig1_values(self):
        c = work_coefficients(FIG1_PARAMS)
        assert abs(c.a - A_FIG1) < 1e-14
        assert abs(c.b - B_FIG1) < 1e-14
        assert abs(c.d - D_FIG1) < 1e-14
        assert abs(c.x - X_FIG1) < 1e-13

    def test_denominator_partition_function_identity(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            p = draw_params(rng)
            c = work_coefficients(p)
            t = thermal_elements(p)
            identity = eta_value(p) * t.Z * math.exp(p.Jz / 2.0) / 2.0
            assert abs(c.d - identity) < 1e-12 * max(1.0, abs(c.d))

    def test_zero_field_kills_a_exactly(self):
        p = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=0.0)
        c = work_coefficients(p)
        assert c.a == 0.0
        assert abs(c.b - B_COEFF_ZERO_FIELD) < 1e-14

    def test_rejects_other_beta(self):
        p = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=1.0, beta=2.0)
        with pytest.raises(UnsupportedClosedFormError):
            work_coefficients(p)

    def test_continuous_through_vanishing_eta(self):
        # eta -> 0 is a removable singularity of the printed expressions
        near = work_coefficients(SpinParams(J=0.7, Jz=0.4, gamma=1e-10, B=0.0))
        at = work_coefficients(SpinParams(J=0.7, Jz=0.4, gamma=0.0, B=0.0))
        assert math.isfinite(at.b)
        assert abs(near.b - at.b) < 1e-9
        assert at.a == 0.0

    def test_x_flagged_when_b_vanishes(self):
        c = synthetic(1.0, 0.0)
        assert math.isnan(c.x)


class TestClosedFormWork:
    def test_exact_zero_at_start(self):
        c = work_coefficients(FIG1_PARAMS)
        assert closed_form_work(c, 1.0, 0.0) == 0.0

    def test_half_period_value(self):
        c = work_coefficients(FIG1_PARAMS)
        w = closed_form_work(c, 1.0, math.pi)
        assert abs(w - TWO_A_FIG1) < 1e-13
        assert abs(w - 3.369) < 0.001

    def test_quarter_period_value(self):
        c = work_coefficients(FIG1_PARAMS)
        w = closed_form_work(c, 1.0, math.pi / 2.0)
        assert abs(w - A_PLUS_2B_FIG1) < 1e-13

    def test_periodicity(self):
        c = work_coefficients(FIG1_PARAMS)
        rng = np.random.default_rng(103)
        for omega in (0.3, 1.0, 2.7):
            for t in rng.uniform(0, 10, 10):
                lhs = closed_form_work(c, omega, t)
                rhs = closed_form_work(c, omega, t + 2.0 * math.pi / omega)
                assert abs(lhs - rhs) < 1e-12

    def test_accepts_arrays(self):
        c = work_coefficients(FIG1_PARAMS)
        times = np.linspace(0, 5, 11)
        values = closed_form_work(c, 1.0, times)
        assert values.shape == times.shape
        assert values[0] == 0.0


class TestCosineWork:
    """The one evaluator behind the closed form and the oracle."""

    def test_start_is_positive_zero(self):
        # a negative amplitude times 1 - cos(0) is -0.0; the sum starts at +0.0
        assert format(cosine_work([0.5, 2.0], [-1.0, -3.0], 0.0), ".17g") == "0"
        values = cosine_work([0.5, 2.0], [-1.0, -3.0], np.zeros(3))
        assert np.array_equal(np.signbit(values), [False] * 3)

    def test_scalar_float_and_array_shape(self):
        rng = np.random.default_rng(131)
        half_gaps, amplitudes = rng.uniform(-3, 3, 6), rng.uniform(-2, 2, 6)
        times = rng.uniform(-10, 10, (4, 3))
        values = cosine_work(half_gaps, amplitudes, times)
        assert values.shape == (4, 3)
        scalars = [cosine_work(half_gaps, amplitudes, float(t)) for t in times.ravel()]
        assert all(type(w) is float for w in scalars)
        assert np.array_equal(values.ravel(), scalars)
        # a time's value does not depend on where it sits in the array
        assert np.array_equal(cosine_work(half_gaps, amplitudes, times.ravel()[::-1]),
                              values.ravel()[::-1])

    def test_closed_form_is_the_two_harmonic_formula_bit_for_bit(self):
        rng = np.random.default_rng(137)
        for _ in range(200):
            c = work_coefficients(draw_params(rng))
            omega = float(np.exp(rng.uniform(-20, 20)))
            times = rng.uniform(0, 50, 64) / omega
            phase = omega * times
            expected = c.a * (1.0 - np.cos(phase)) + c.b * (1.0 - np.cos(2.0 * phase))
            assert np.array_equal(closed_form_work(c, omega, times), expected)

    def test_zero_d_array_gives_zero_d_array(self):
        half_gaps, amplitudes = np.array([0.35, 0.7]), np.array([0.4, -0.1])
        value = cosine_work(half_gaps, amplitudes, np.array(2.3))
        assert type(value) is np.ndarray and value.shape == ()
        assert value == cosine_work(half_gaps, amplitudes, 2.3)

    @pytest.mark.parametrize("t", [math.nan, math.inf, np.array([1.0, -math.inf])])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="time must be finite"):
            cosine_work([1.0], [1.0], t)

    @pytest.mark.parametrize("t", [1e308, np.array([0.0, 1e308])])
    def test_phase_overflow_raises(self, t):
        with pytest.raises(ValueError, match="overflowed"):
            cosine_work([0.5, 1.0], [1.0, 1.0], t)


class TestClassifyBranch:
    def test_fig1_is_single_maximum_branch(self):
        c = work_coefficients(FIG1_PARAMS)
        assert c.x > 1.0
        assert classify_branch(c) == BRANCH_MAX1

    def test_zero_field_is_double_maximum_branch(self):
        p = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=0.0)
        assert classify_branch(work_coefficients(p)) == BRANCH_MAX2

    def test_pure_single_harmonic_is_max1(self):
        assert classify_branch(synthetic(1.0, 0.0)) == BRANCH_MAX1

    def test_flat_signal_is_degenerate(self):
        assert classify_branch(synthetic(0.0, 0.0)) == BRANCH_DEGENERATE


class TestMaxWork:
    def test_fig1_peak(self):
        c = work_coefficients(FIG1_PARAMS)
        ext = max_work(c, 1.0)
        assert ext.branch == BRANCH_MAX1
        assert abs(ext.w_max - TWO_A_FIG1) < 1e-13
        assert abs(ext.w_max - 3.369) < 0.001
        assert ext.peak_times == (math.pi,)
        assert ext.w_m is None
        assert abs(grid_search_max(c)[1] - ext.w_max) < 1e-8

    def test_zero_field_two_peaks(self):
        p = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=0.0)
        c = work_coefficients(p)
        ext = max_work(c, 1.0)
        assert ext.branch == BRANCH_MAX2
        assert abs(ext.w_max - 2.0 * c.b) < 1e-13
        assert abs(ext.peak_times[0] - math.pi / 2.0) < 1e-12
        assert abs(ext.peak_times[1] - 3.0 * math.pi / 2.0) < 1e-12
        assert abs(ext.w_m - 0.0) < 1e-13
        assert abs(ext.delta_phi - math.pi) < 1e-12

    def test_omega_rescales_times(self):
        c = work_coefficients(FIG1_PARAMS)
        ext = max_work(c, 0.5)
        assert abs(ext.peak_times[0] - 2.0 * math.pi) < 1e-12

    def test_boundary_ratio_collapses_the_plateau(self):
        # at x = 1 the two peaks merge with the in-between minimum: both 2a
        c = synthetic(1.0, 0.25)
        ext = max_work(c, 1.0)
        assert ext.branch == BRANCH_MAX2
        assert abs(ext.w_max - 2.0) < 1e-12
        assert abs(ext.w_m - 2.0) < 1e-12
        assert abs(ext.delta_phi - 0.0) < 1e-5

    def test_plateau_identity_on_random_double_peak_draws(self):
        rng = np.random.default_rng(107)
        found = 0
        while found < 100:
            p = draw_params(rng)
            c = work_coefficients(p)
            if classify_branch(c) != BRANCH_MAX2 or c.b <= 0:
                continue
            found += 1
            ext = max_work(c, 1.0)
            assert ext.w_m == 2.0 * c.a
            gap = ext.w_max - ext.w_m
            assert abs(gap - 2.0 * c.b * (1.0 - c.x) ** 2) < 1e-12

    def test_negative_b_double_branch_peaks_at_half_period(self):
        # |a| <= |4b| with b < 0: the two-peak value formula marks the minima,
        # so the reported maximum falls back to 2a at phase pi (grid-checked)
        p = SpinParams(J=-2.0, Jz=2.0, gamma=1.0, B=0.1)
        c = work_coefficients(p)
        assert classify_branch(c) == BRANCH_MAX2
        assert c.b < 0
        ext = max_work(c, 1.0)
        assert abs(ext.w_max - 2.0 * c.a) < 1e-12
        assert ext.peak_times == (math.pi,)
        assert ext.w_m is None
        assert abs(grid_search_max(c)[1] - ext.w_max) < 1e-8

    def test_flat_signal_raises(self):
        with pytest.raises(FlatSignalError):
            max_work(synthetic(0.0, 0.0), 1.0)

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            max_work(synthetic(1.0, 0.1), 0.0)

    def test_grid_search_localizes_fig1_peak(self):
        c = work_coefficients(FIG1_PARAMS)
        phase, value = grid_search_max(c)
        assert abs(phase - math.pi) < 1e-6
        assert abs(value - TWO_A_FIG1) < 1e-8


# (a, b) with a >= 0, as work_coefficients gives it: a box with both signs of
# b, the branch boundary |a| = 4|b| (x = +-1), and |b| around 1e-14
_BOX = st.tuples(st.floats(0.0, 10.0), st.floats(-5.0, 5.0))
_BOUNDARY = st.builds(lambda b: (4.0 * abs(b), b),
                      st.floats(-5.0, 5.0).filter(lambda b: b != 0.0))
_TINY_B = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 1e-12), st.floats(0.0, 10.0)),
    st.builds(lambda e, sign: sign * 10.0 ** e,
              st.floats(-15.0, -13.0), st.sampled_from((-1.0, 1.0))),
)
_PHASES_4096 = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)


class TestExactMaxCheck:
    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(st.one_of(_BOX, _BOUNDARY, _TINY_B))
    def test_maximum_brackets_a_dense_sampling(self, ab):
        c = synthetic(*ab)
        assume(classify_branch(c) != BRANCH_DEGENERATE)
        ext = max_work(c, 1.0)
        sampled = float(np.max(closed_form_work(c, 1.0, _PHASES_4096)))
        step = 2.0 * math.pi / _PHASES_4096.size
        assert ext.w_max >= sampled - 1e-12
        assert ext.w_max - sampled <= (abs(c.a) + 4.0 * abs(c.b)) * step ** 2 / 8.0
        assert abs(grid_search_max(c)[1] - ext.w_max) < 1e-8

    def test_max_work_never_runs_the_grid_search(self, monkeypatch):
        calls = []
        original = analytics.grid_search_max

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(analytics, "grid_search_max", counting)
        ext = max_work(work_coefficients(FIG1_PARAMS), 1.0)
        assert abs(ext.w_max - TWO_A_FIG1) < 1e-13
        assert calls == []

    @pytest.mark.parametrize("a, b", [(-1.0, 0.0), (-1.0, -1.0)],
                             ids=["max1-negative-a", "b-negative-double-negative-a"])
    def test_wrong_branch_value_raises(self, a, b):
        # the branch formula gives 2a < 0, but the signal reaches 0 at phase 0
        with pytest.raises(RuntimeError, match="disagrees with analytic maximum -2.0"):
            max_work(synthetic(a, b), 1.0)


class TestLargeFieldAsymptote:
    def test_linear_values(self):
        assert large_B_asymptote(SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=1.0)) == 8.0
        assert large_B_asymptote(SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=100.0)) == 800.0

    def test_rejects_nonpositive_field(self):
        with pytest.raises(ValueError):
            large_B_asymptote(SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=0.0))

    def test_accurate_to_one_percent_at_b50(self):
        p = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=50.0)
        exact = 2.0 * work_coefficients(p).a
        assert abs(exact / large_B_asymptote(p) - 1.0) < 0.01

    def test_poor_at_small_field(self):
        exact = 2.0 * work_coefficients(FIG1_PARAMS).a
        assert abs(exact - large_B_asymptote(FIG1_PARAMS)) > 1.0

    def test_exact_peak_grows_monotonically(self):
        values = [
            2.0 * work_coefficients(SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=b)).a
            for b in (10.0, 20.0, 30.0, 40.0, 50.0)
        ]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))


class TestHarmonicFit:
    def test_round_trip_from_closed_form(self):
        c = work_coefficients(FIG1_PARAMS)
        times = np.linspace(0.0, 2.0 * math.pi, 64)
        fit = harmonic_fit(times, closed_form_work(c, 1.0, times), 1.0)
        assert abs(fit.alpha0 - (c.a + c.b)) < 1e-10
        assert abs(fit.alpha1 - (-c.a)) < 1e-10
        assert abs(fit.alpha2 - (-c.b)) < 1e-10
        assert fit.residual < 1e-10

    def test_dynamics_series_has_two_harmonic_structure(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            p = draw_params(rng)
            spec = ChargingSpec(omega=rng.uniform(0.3, 2.5))
            times, values = work_series(p, spec, t_max=2.0 * math.pi / spec.omega, n=64)
            assert harmonic_fit(times, values, spec.omega).residual < 1e-9

    def test_rejects_short_series(self):
        times, values = work_series(FIG1_PARAMS, ChargingSpec(omega=1.0),
                                    t_max=2.0 * math.pi, n=15)
        with pytest.raises(ValueError):
            harmonic_fit(times, values, 1.0)

    def test_rejects_partial_period(self):
        times, values = work_series(FIG1_PARAMS, ChargingSpec(omega=1.0),
                                    t_max=math.pi, n=32)
        with pytest.raises(ValueError):
            harmonic_fit(times, values, 1.0)

    def test_overflow_raises_without_a_warning(self):
        # finite samples whose fit sums alpha0 + |alpha1| ~ 1.95e308 at phase
        # pi; pytest turns any warning into an error, so none may escape
        times = np.linspace(0.0, 2.0 * math.pi, 64)
        values = closed_form_work(WorkCoefficients(0.85e308, 0.25e308, *[0.0] * 5), 1.0,
                                  times)
        assert np.isfinite(values).all()
        with pytest.raises(ValueError, match="harmonic fit overflowed"):
            harmonic_fit(times, values, 1.0)


class TestConsistencyReport:
    def test_fig1_reconciliation(self):
        report = consistency_report(FIG1_PARAMS, 1.0)
        assert abs(report.a_printed - A_FIG1) < 1e-14
        assert abs(report.w_half_period_closed - TWO_A_FIG1) < 1e-13
        by_mode = {fit.mode: fit for fit in report.fits}
        drive = by_mode["charging-only"]
        # the drive-only dynamics carries exactly one quarter of the printed
        # single-harmonic amplitude
        assert drive.residual < 1e-9
        assert abs(drive.ratio_a - 4.0) < 1e-6
        assert abs(drive.w_half_period_oracle - 0.8423) < 0.0005
        full = by_mode["full"]
        assert math.isfinite(full.residual)

    def test_zero_field_amplitudes_vanish(self):
        p = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=0.0)
        report = consistency_report(p, 1.0)
        assert report.a_printed == 0.0
        drive = {fit.mode: fit for fit in report.fits}["charging-only"]
        assert abs(drive.a_fitted) < 1e-10


class TestOraclePeak:
    def test_fig1_drive_only_peak(self):
        # frozen: 50-digit 2*B^2*sinh(eta)/d, the drive-only maximum at t = pi
        peak = oracle_peak(FIG1_PARAMS, ChargingSpec(omega=1.0))
        assert abs(peak - 0.84228602680284486539) < 1e-9

    def test_matches_dense_sampling_in_both_modes(self):
        rng = np.random.default_rng(211)
        for _ in range(10):
            p = draw_params(rng)
            omega = rng.uniform(0.25, 3.0)
            for mode in MODES:
                spec = ChargingSpec(omega=omega, mode=mode)
                _, dense = work_series(p, spec, 2.0 * math.pi / omega, 200_001)
                peak = oracle_peak(p, spec)
                assert peak >= np.max(dense) - 1e-12
                assert peak - np.max(dense) < 1e-8 * max(1.0, peak)


_SIGNED = st.floats(-2.0, 2.0)
# the test box, its B = 0 and gamma*J ~ 0 edges, and eta ~ 1e-9
_DRIVE_PARAMS = st.one_of(
    st.builds(lambda J, Jz, gamma, B: (J, Jz, gamma, B), _SIGNED, _SIGNED,
              st.floats(-1.0, 1.0), st.one_of(st.just(0.0), st.floats(-5.0, 5.0))),
    st.builds(lambda J, Jz, g, B: (J, Jz, g * 1e-13, B), _SIGNED, _SIGNED,
              st.floats(-1.0, 1.0), st.floats(-5.0, 5.0)),
    st.builds(lambda J, Jz, g, B: (J, Jz, g * 1e-10, B * 1e-9), _SIGNED, _SIGNED,
              st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
_BETA = st.floats(0.25, 4.0).filter(lambda beta: beta != 1.0)


class TestDynamicsCoefficients:
    """The charging-only dynamics is exactly two harmonics with derived
    amplitudes, at any beta."""

    @pytest.mark.parametrize("beta_one", [True, False], ids=["beta-1", "beta-other"])
    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(values=_DRIVE_PARAMS, beta=_BETA, omega=st.floats(0.25, 3.0))
    def test_two_terms_match_unitary_propagation(self, beta_one, values, beta, omega):
        p = SpinParams(*values, beta=1.0 if beta_one else beta)
        spec = ChargingSpec(omega=omega)
        h = build_total_hamiltonian(p)
        rho0 = gibbs_state(p, method="oracle")
        e0 = expectation(h, rho0)
        times = np.linspace(0.0, 4.0 * math.pi / omega, 13)
        two_terms = cosine_work((omega / 2.0, omega), dynamics_coefficients(p), times.tolist())
        for t, w in zip(times, two_terms):
            reference = expectation(h, evolve(rho0, propagator(p, spec, float(t)))) - e0
            assert abs(w - reference) <= 1e-12 * max(1.0, abs(reference)), (p, t)
        assert two_terms == work_curve(p, spec)(times).tolist()

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(values=_DRIVE_PARAMS)
    def test_four_a_dyn_is_the_printed_a_at_beta_1(self, values):
        p = SpinParams(*values)
        a_dyn, _ = dynamics_coefficients(p)
        a = work_coefficients(p).a
        # relative, down to the smallest normal float (subnormals carry fewer digits)
        assert abs(4.0 * a_dyn - a) <= 1e-12 * max(abs(a), sys.float_info.min)

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(values=_DRIVE_PARAMS, beta=st.one_of(st.just(1.0), _BETA))
    def test_passive_start(self, values, beta):
        # from a Gibbs state no unitary lowers the energy: W >= 0 at every time
        a_dyn, b_dyn = dynamics_coefficients(SpinParams(*values, beta=beta))
        assert a_dyn >= 0.0
        assert two_harmonic_extremes(a_dyn, b_dyn)[0] >= -1e-12

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(values=_DRIVE_PARAMS, beta=st.one_of(st.just(1.0), _BETA),
           omega=st.floats(0.25, 3.0))
    def test_starts_at_exactly_zero(self, values, beta, omega):
        p = SpinParams(*values, beta=beta)
        amplitudes = dynamics_coefficients(p)
        for w in (work_curve(p, ChargingSpec(omega=omega))(0.0),
                  cosine_work((omega / 2.0, omega), amplitudes, [0.0])[0]):
            assert type(w) is float
            assert format(w, ".17g") == "0"

    def test_matches_50_digit_evaluation_up_to_1e3(self):
        mpmath = pytest.importorskip("mpmath")
        magnitudes = (0.0, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3)
        gammas = (0.5, -0.3, 1.0, -1.0, 0.0, 0.9)
        grid = [(J, Jz, B, beta) for J in magnitudes for Jz in magnitudes
                for B in magnitudes for beta in (0.25, 1.0, 4.0)]
        with mpmath.workdps(50):
            for k, (J, Jz, B, beta) in enumerate(grid, 1):
                # signs and gamma cycle with the point's index
                p = SpinParams(J=J if k % 2 else -J, Jz=Jz if k % 3 else -Jz,
                               gamma=gammas[k % len(gammas)], B=B if k % 5 else -B,
                               beta=beta)
                a_dyn, b_dyn = dynamics_coefficients(p)
                a_ref, b_ref = _dynamics_coefficients_mp(mpmath.mp, p)
                tol = 1e-12 * max(1.0, abs(a_dyn) + abs(b_dyn))
                assert abs(a_dyn - a_ref) <= tol, (p, a_dyn, a_ref)
                assert abs(b_dyn - b_ref) <= tol, (p, b_dyn, b_ref)

    def test_overflowed_energy_is_bad_input(self):
        with pytest.raises(ValueError, match="dynamics coefficients overflowed"):
            dynamics_coefficients(SpinParams(J=1.5e308, Jz=-1.5e308, gamma=0.5, B=1.0))


# evenly spaced samples over one drive period in the dense peak check
_PEAK_SAMPLES = 2048


def _propagated_work(p: SpinParams, spec: ChargingSpec, times) -> list[float]:
    """W at each time from propagator + evolve, independent of work_curve."""
    h = build_total_hamiltonian(p)
    rho0 = gibbs_state(p, method="oracle")
    e0 = expectation(h, rho0)
    return [expectation(h, evolve(rho0, propagator(p, spec, float(t)))) - e0
            for t in times]


class TestTwoHarmonicMax:
    """The charging-only peak is exact: the signal's value at its stationary
    phases, bracketed by dense sampling within the curvature bound."""

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(values=_DRIVE_PARAMS, beta=st.one_of(st.just(1.0), _BETA))
    def test_is_the_largest_stationary_value(self, values, beta):
        a_dyn, b_dyn = dynamics_coefficients(SpinParams(*values, beta=beta))
        assert two_harmonic_max(a_dyn, b_dyn) == two_harmonic_extremes(a_dyn, b_dyn)[1]

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(st.one_of(_BOX, _BOUNDARY, _TINY_B))
    def test_serves_the_printed_amplitudes_alike(self, ab):
        assert two_harmonic_max(*ab) == two_harmonic_extremes(*ab)[1]

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0)])
    def test_flat_signal_peaks_at_zero(self, a, b):
        assert format(two_harmonic_max(a, b), ".17g") == "0"

    @pytest.mark.parametrize("beta_one", [True, False], ids=["beta-1", "beta-other"])
    @settings(derandomize=True, deadline=None, max_examples=20, database=None)
    @given(values=_DRIVE_PARAMS, beta=_BETA, omega=st.floats(0.25, 3.0))
    def test_oracle_peak_brackets_dense_sampling(self, beta_one, values, beta, omega):
        p = SpinParams(*values, beta=1.0 if beta_one else beta)
        spec = ChargingSpec(omega=omega)
        a_dyn, b_dyn = dynamics_coefficients(p)
        times = np.linspace(0.0, 2.0 * math.pi / omega, _PEAK_SAMPLES, endpoint=False)
        step = 2.0 * math.pi / _PEAK_SAMPLES  # in phase omega*t
        peak = oracle_peak(p, spec)
        slack = 1e-12 * max(1.0, abs(peak))
        curvature = (abs(a_dyn) + 4.0 * abs(b_dyn)) * step ** 2 / 8.0
        for sampled in (float(np.max(work_curve(p, spec)(times))),
                        max(_propagated_work(p, spec, times))):
            assert peak >= sampled - slack, (p, omega)
            assert peak - sampled <= curvature + slack, (p, omega)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, -1.0])
    def test_oracle_peak_of_a_bare_battery_is_zero(self, gamma):
        p = SpinParams(J=0.0, Jz=0.0, gamma=gamma, B=0.0)
        for omega in (0.3, 1.0, 1e308):
            peak = oracle_peak(p, ChargingSpec(omega=omega))
            assert type(peak) is float and format(peak, ".17g") == "0"


def _capacity(p: SpinParams) -> tuple[float, float]:
    """(C, max |E|): C = sum_k p_k (E_{5-k} - E_k) with the Gibbs populations
    p_k descending and the energies E_k ascending, the anti-passive energy
    minus the passive one, from numpy's eigvalsh."""
    energies = np.linalg.eigvalsh(build_total_hamiltonian(p))
    populations = np.linalg.eigvalsh(gibbs_state(p, method="oracle"))[::-1]
    return (float(np.dot(populations, energies[::-1] - energies)),
            float(np.max(np.abs(energies))))


class TestCapacity:
    """Charging is unitary from a passive (Gibbs) state, so every oracle's
    stored work lies in [0, C], C the battery's capacity."""

    @pytest.mark.parametrize("beta_one", [True, False], ids=["beta-1", "beta-other"])
    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(values=_DRIVE_PARAMS, beta=_BETA, omega=st.floats(0.25, 3.0))
    def test_every_oracle_stays_within_capacity(self, beta_one, values, beta, omega):
        p = SpinParams(*values, beta=1.0 if beta_one else beta)
        capacity, scale = _capacity(p)
        tol = 1e-12 * max(1.0, scale)
        times = np.linspace(0.0, 4.0 * math.pi / omega, 97)
        for mode in MODES:
            spec = ChargingSpec(omega=omega, mode=mode)
            values_by_oracle = {
                "work_curve": work_curve(p, spec)(times).tolist(),
                "propagator": _propagated_work(p, spec, times[::8]),
                "oracle_peak": [oracle_peak(p, spec)],
            }
            for oracle, works in values_by_oracle.items():
                assert min(works) >= -tol, (p, omega, mode, oracle)
                assert max(works) <= capacity + tol, (p, omega, mode, oracle)


def _dynamics_coefficients_mp(mp, p: SpinParams) -> tuple[float, float]:
    """(a_dyn, b_dyn) from unshifted Boltzmann factors in the cosh/sinh form,
    at mp's precision."""
    J, Jz, gamma, B, beta = (mp.mpf(v) for v in (p.J, p.Jz, p.gamma, p.B, p.beta))
    eta = mp.sqrt(B * B + (gamma * J) ** 2)
    corner = mp.exp(-beta * Jz / 2)
    doublet = mp.exp(beta * Jz / 2)
    z = 2 * corner * mp.cosh(beta * eta) + 2 * doublet * mp.cosh(beta * J)
    if eta == 0:
        a_dyn, shift = mp.mpf(0), mp.mpf(0)
    else:
        a_dyn = 2 * B * B * corner * mp.sinh(beta * eta) / eta / z
        shift = gamma * J / eta * mp.sinh(beta * eta)
    zz_minus_yy = 2 * (corner * (mp.cosh(beta * eta) - shift)
                       - doublet * mp.exp(-beta * J)) / z
    return float(a_dyn), float((J * (1 - gamma) - Jz) * zz_minus_yy / 4)
