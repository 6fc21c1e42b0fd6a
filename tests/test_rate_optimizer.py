"""Rate staircase construction and the average-rate maximization.

The threshold and switch-time pins below were frozen from this
implementation after cross-checking the thresholds against the BEP
inversion residuals and the optimum against a dense brute-force sweep.
All pins use the case1 channel at the 35 dBm transmit cap with a 1e-5
threshold unless stated otherwise.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uavlink import (
    RateOptimum,
    RateSchedule,
    RateThreshold,
    WobbleParams,
    average_rate,
    build_rate_schedule,
    build_rate_schedules,
    min_acf_for_rate,
    optimum_transmission_time,
    rate_derivative,
    sweep_rave_max,
    temporal_acf,
)
from uavlink.bep_analysis import max_modulation_order, union_bound
from uavlink.channel import check_acf_monotone
from uavlink.constellation import SUPPORTED_ORDERS
from uavlink.errors import InfeasibleRateError, MonotonicityError, ScheduleError
from uavlink.fixtures import load_fixture
from uavlink.scenario import average_snr_db

GAMMA_MAX = 277.1359929049
BETA = 1e-5

# rate n -> (C_n, t_n - t_estimate shifted to absolute t_n with T_e = 1 ms)
PSK_C = [0.732172423852, 0.835978572882, 0.941010882791, 0.984344179202,
         0.997193242005]
PSK_T = [0.049940053675, 0.030828593181, 0.015770381153, 0.008040793123,
         0.003888755593]
QAM_C = PSK_C[:2] + [0.955140197791, 0.971457189776, 0.985644622796,
                     0.993999492520]
QAM_T = PSK_T[:2] + [0.013572573917, 0.010744018177, 0.007723942561,
                     0.005264142970]


@pytest.fixture(scope="module")
def fx():
    return load_fixture("case1")


@pytest.fixture(scope="module")
def psk_schedule(fx):
    return build_rate_schedule(fx.estimate, GAMMA_MAX, "psk", BETA,
                               fx.wobble, fx.scenario.t_estimate)


@pytest.fixture(scope="module")
def qam_schedule(fx):
    return build_rate_schedule(fx.estimate, GAMMA_MAX, "qam", BETA,
                               fx.wobble, fx.scenario.t_estimate)


class TestSchedulePins:
    def test_psk_thresholds(self, psk_schedule):
        assert psk_schedule.r_max == 5
        for th, c_n, t_n in zip(psk_schedule.thresholds, PSK_C, PSK_T):
            assert th.c_n == pytest.approx(c_n, abs=5e-12)
            assert th.t_n == pytest.approx(t_n, abs=5e-12)

    def test_qam_thresholds(self, qam_schedule):
        assert qam_schedule.r_max == 6
        for th, c_n, t_n in zip(qam_schedule.thresholds, QAM_C, QAM_T):
            assert th.c_n == pytest.approx(c_n, abs=5e-12)
            assert th.t_n == pytest.approx(t_n, abs=5e-12)

    def test_switch_time_convention(self, psk_schedule):
        assert psk_schedule.switch_time(psk_schedule.r_max + 1) == \
            psk_schedule.t_estimate
        assert psk_schedule.switch_time(1) == psk_schedule.t_zero_rate

    def test_threshold_times_invert_acf(self, fx, psk_schedule):
        for th in psk_schedule.thresholds:
            c_back = temporal_acf(fx.wobble, th.t_n - fx.scenario.t_estimate)
            assert c_back == pytest.approx(th.c_n, abs=1e-9)

    def test_qam_times_vs_psk(self, psk_schedule, qam_schedule):
        # the QAM staircase holds each rate at least as long except at
        # rate 3, where the unit-energy 8-QAM lattice is the tighter one
        for n in (1, 2, 4, 5):
            assert qam_schedule.switch_time(n) >= \
                psk_schedule.switch_time(n) - 1e-15
        assert qam_schedule.switch_time(3) < psk_schedule.switch_time(3)


class TestRateAt:
    def test_staircase_boundaries(self, psk_schedule):
        t_e = psk_schedule.t_estimate
        assert psk_schedule.rate_at(t_e) == 0
        for th in psk_schedule.thresholds:
            assert psk_schedule.rate_at(th.t_n) == th.n  # inclusive right end
            assert psk_schedule.rate_at(np.nextafter(th.t_n, np.inf)) == \
                (th.n - 1 if th.n > 1 else 0)
        assert psk_schedule.rate_at(np.nextafter(t_e, np.inf)) == \
            psk_schedule.r_max
        assert psk_schedule.rate_at(1.0) == 0

    def test_array_matches_staircase_loop(self, qam_schedule):
        # rates_at (searchsorted) against the definition read off the
        # thresholds one by one: n on (t_{n+1}, t_n], highest rate first
        s = qam_schedule
        ends = np.array([th.t_n for th in s.thresholds])
        ts = np.concatenate([np.linspace(0.0, 1.1 * s.t_zero_rate, 2001),
                             ends, np.nextafter(ends, np.inf),
                             [s.t_estimate, np.nextafter(s.t_estimate, 1.0)]])
        want = [next((th.n for th in reversed(s.thresholds)
                      if s.t_estimate < t <= th.t_n), 0) for t in ts]
        assert s.rates_at(ts).tolist() == want

    def test_monotone_nonincreasing(self, qam_schedule):
        ts = np.linspace(qam_schedule.t_estimate + 1e-6, 0.06, 500)
        rates = [qam_schedule.rate_at(float(t)) for t in ts]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


def _oracle_average_rate(schedule, t_c):
    """The scalar average_rate the broadcasting one replaced."""
    if t_c < 0:
        raise ValueError("t_c must be non-negative")
    if t_c == 0.0 or schedule.is_empty:
        return 0.0
    t_e = schedule.t_estimate
    tau = t_e + t_c
    total = 0.0
    for th in schedule.thresholds:
        a, b = max(schedule.switch_time(th.n + 1), t_e), min(th.t_n, tau)
        if b > a:
            total += th.n * (b - a)
    return total / tau


class TestAverageRate:
    @settings(max_examples=40, deadline=None)
    @given(fixture=st.sampled_from(["case1", "case2"]),
           scheme=st.sampled_from(["psk", "qam"]),
           log_beta=st.floats(-8.0, math.log10(0.3)),
           fractions=st.lists(st.floats(0.0, 1.5), max_size=40))
    def test_array_equals_scalar_oracle(self, fixture, scheme, log_beta,
                                        fractions):
        fx = load_fixture(fixture)
        t_e = fx.scenario.t_estimate
        gamma = 10.0 ** (average_snr_db(fx.scenario.p_max_dbm, fx.scenario)
                         / 10.0)
        schedule = build_rate_schedule(fx.estimate, gamma, scheme,
                                       10.0 ** log_beta, fx.wobble, t_e)
        # 0, every switch lag, and draws from 0 to half a span past t_1
        span = max(schedule.t_zero_rate - t_e, 1e-3)
        t_c = [0.0] + [th.t_n - t_e for th in schedule.thresholds] \
            + [f * span for f in fractions]
        want = [_oracle_average_rate(schedule, v) for v in t_c]
        assert average_rate(schedule, np.array(t_c)).tolist() == want
        scalar = [average_rate(schedule, v) for v in t_c]
        assert scalar == want
        assert all(type(v) is float for v in scalar)

    def test_zero_cases(self, psk_schedule):
        assert average_rate(psk_schedule, 0.0) == 0.0
        with pytest.raises(ValueError):
            average_rate(psk_schedule, -1e-3)

    @pytest.mark.parametrize("t_c", [5e-4, 3e-3, 7.0407931e-3, 2e-2, 8e-2])
    def test_matches_step_quadrature(self, psk_schedule, t_c):
        # Riemann sum over the staircase converges to the closed form
        t_e = psk_schedule.t_estimate
        ts = np.linspace(t_e, t_e + t_c, 200001)
        mids = 0.5 * (ts[:-1] + ts[1:])
        approx = sum(psk_schedule.rate_at(float(t)) for t in mids) \
            * (ts[1] - ts[0]) / (t_e + t_c)
        assert average_rate(psk_schedule, t_c) == pytest.approx(
            approx, abs=2e-3)

    def test_far_horizon_dilutes(self, psk_schedule):
        # past t_1 the integral is fixed while tau keeps growing
        assert average_rate(psk_schedule, 1.0) < \
            average_rate(psk_schedule, 0.1)


class TestDerivative:
    def test_sign_pattern_around_optimum(self, psk_schedule):
        t_opt = 0.0070407931
        assert rate_derivative(psk_schedule, 0.8 * t_opt) > 0
        assert rate_derivative(psk_schedule, 1.2 * t_opt) < 0
        assert rate_derivative(psk_schedule, 1.0) < 0

    @pytest.mark.parametrize("t_c", [2e-3, 5e-3, 1e-2, 3e-2])
    def test_matches_finite_difference(self, qam_schedule, t_c):
        # central difference inside one region (step well below region width)
        eps = 1e-9
        fd = (average_rate(qam_schedule, t_c + eps)
              - average_rate(qam_schedule, t_c - eps)) / (2 * eps)
        assert rate_derivative(qam_schedule, t_c) == pytest.approx(
            fd, rel=1e-5, abs=1e-7)


class TestOptimum:
    def test_psk_optimum(self, psk_schedule):
        opt = optimum_transmission_time(psk_schedule)
        assert opt.t_max == pytest.approx(0.0070407931, abs=1e-9)
        assert opt.r_ave_max == pytest.approx(3.8617991547, abs=1e-9)
        assert opt.r_op == 4

    def test_qam_optimum(self, qam_schedule):
        opt = optimum_transmission_time(qam_schedule)
        assert opt.t_max == pytest.approx(0.0067239426, abs=1e-9)
        assert opt.r_ave_max == pytest.approx(4.9047303855, abs=1e-9)
        assert opt.r_op == 5

    @pytest.mark.parametrize("scheme", ["psk", "qam"])
    def test_beats_dense_sweep(self, fx, psk_schedule, qam_schedule, scheme):
        schedule = psk_schedule if scheme == "psk" else qam_schedule
        opt = optimum_transmission_time(schedule)
        for t_c in np.linspace(1e-5, 0.06, 4001):
            assert average_rate(schedule, float(t_c)) <= opt.r_ave_max + 1e-12

    def test_coherence_cap_binds(self, psk_schedule):
        # a horizon shorter than the unconstrained optimum moves T_max to it
        horizon = psk_schedule.t_estimate + 4e-3
        opt = optimum_transmission_time(psk_schedule, t_coherence=horizon)
        assert opt.t_max == pytest.approx(4e-3, rel=1e-12)
        assert opt.r_ave_max < 3.8617991547

    def test_coherence_cap_slack(self, psk_schedule):
        opt_free = optimum_transmission_time(psk_schedule)
        opt_cap = optimum_transmission_time(psk_schedule, t_coherence=0.5)
        assert opt_cap == opt_free

    def test_degenerate_horizon(self, psk_schedule):
        opt = optimum_transmission_time(
            psk_schedule, t_coherence=psk_schedule.t_estimate)
        assert opt == RateOptimum(0.0, 0.0, 0)


class TestEmptySchedule:
    def test_low_snr_yields_empty(self, fx):
        schedule = build_rate_schedule(fx.estimate, 0.5, "psk", BETA,
                                       fx.wobble, fx.scenario.t_estimate)
        assert schedule.is_empty
        assert schedule.r_max == 0
        assert schedule.rate_at(0.01) == 0
        assert average_rate(schedule, 0.01) == 0.0
        assert rate_derivative(schedule, 0.01) == 0.0
        assert optimum_transmission_time(schedule) == RateOptimum(0.0, 0.0, 0)


class TestValidation:
    def test_wrong_threshold_order(self):
        ths = (RateThreshold(2, 0.8, 0.05), RateThreshold(1, 0.7, 0.06))
        with pytest.raises(ScheduleError):
            RateSchedule("psk", 2, ths, 1e-3)

    def test_nonmonotone_c(self):
        ths = (RateThreshold(1, 0.9, 0.05), RateThreshold(2, 0.8, 0.03))
        with pytest.raises(ScheduleError):
            RateSchedule("psk", 2, ths, 1e-3)

    def test_nonmonotone_t(self):
        ths = (RateThreshold(1, 0.7, 0.03), RateThreshold(2, 0.8, 0.05))
        with pytest.raises(ScheduleError):
            RateSchedule("psk", 2, ths, 1e-3)

    def test_t_n_below_estimate(self):
        ths = (RateThreshold(1, 0.7, 0.05), RateThreshold(2, 0.8, 5e-4))
        with pytest.raises(ScheduleError):
            RateSchedule("psk", 2, ths, 1e-3)

    def test_threshold_count_mismatch(self):
        with pytest.raises(ScheduleError):
            RateSchedule("psk", 3, (RateThreshold(1, 0.7, 0.05),), 1e-3)


class TestSweep:
    def test_grid_shape_and_monotonicity(self, fx):
        snr_db = [12.0, 18.0, 24.0]
        betas = [1e-3, 1e-5]
        out = sweep_rave_max(fx.estimate, snr_db, betas, "qam", fx.wobble,
                             fx.scenario.t_estimate)
        assert out.shape == (3, 2)
        # more SNR helps, a stricter threshold never helps
        assert np.all(np.diff(out, axis=0) >= -1e-12)
        assert np.all(out[:, 0] >= out[:, 1] - 1e-12)

    def test_empty_grid_rejected(self, fx):
        with pytest.raises(ValueError):
            sweep_rave_max(fx.estimate, [], [1e-5], "psk", fx.wobble, 1e-3)


class TestSecondChannel:
    def test_case2_regression(self):
        fx2 = load_fixture("case2")
        for scheme, t_max, r_ave in [("psk", 4.059e-3, 4.100188),
                                     ("qam", 5.544e-3, 5.083119)]:
            schedule = build_rate_schedule(fx2.estimate, GAMMA_MAX, scheme,
                                           BETA, fx2.wobble,
                                           fx2.scenario.t_estimate)
            assert schedule.r_max == 6
            assert schedule.thresholds[0].t_n == pytest.approx(0.078368,
                                                               abs=5e-7)
            opt = optimum_transmission_time(schedule)
            assert opt.t_max == pytest.approx(t_max, abs=5e-7)
            assert opt.r_ave_max == pytest.approx(r_ave, abs=5e-7)


# --- the batched builder against a scalar reference -----------------------

def _oracle_min_acf(n, estimate, gamma, scheme, beta):
    """Scalar bisection of uub(C) = beta on [0, 1], one cell at a time."""
    bound = union_bound(scheme, 2 ** n)

    def f(acf):
        return bound.u(estimate.norm_sq, acf, gamma) - beta

    if f(1.0) > 0.0:
        raise InfeasibleRateError(f"rate {n}")
    if f(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    while abs(f(hi)) > 1e-8 * beta:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise MonotonicityError(f"rate {n}")
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _oracle_acf_inverse(wobble, target, dt_max):
    """Scalar bisection of C(dt) = target on [0, dt_max]."""
    if target == 1.0:
        return 0.0
    lo, hi = 0.0, dt_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = temporal_acf(wobble, mid)
        if abs(val - target) <= 1e-10:
            return mid
        if val > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _oracle_schedule(estimate, gamma, scheme, beta, wobble, t_estimate):
    m_max = max((m for m in SUPPORTED_ORDERS
                 if union_bound(scheme, m).u(estimate.norm_sq, 1.0, gamma)
                 <= beta), default=0)
    if m_max == 0:
        return RateSchedule(scheme, 0, (), t_estimate)
    r_max = m_max.bit_length() - 1
    cs = [_oracle_min_acf(n, estimate, gamma, scheme, beta)
          for n in range(1, r_max + 1)]
    dt_max = 0.05
    while temporal_acf(wobble, dt_max) > min(cs):
        dt_max *= 2.0
    check_acf_monotone(wobble, dt_max)
    return RateSchedule(scheme, r_max, tuple(
        RateThreshold(n, c_n,
                      t_estimate + _oracle_acf_inverse(wobble, c_n, dt_max))
        for n, c_n in enumerate(cs, start=1)), t_estimate)


_cells = st.lists(
    st.tuples(st.floats(0.0, 40.0), st.floats(-8.0, math.log10(0.3))),
    min_size=1, max_size=12)


class TestBatchedBuilder:
    @settings(max_examples=30, deadline=None)
    @given(fixture=st.sampled_from(["case1", "case2"]),
           scheme=st.sampled_from(["psk", "qam"]), cells=_cells)
    def test_equals_scalar_oracle(self, fixture, scheme, cells):
        fx = load_fixture(fixture)
        est, wob, t_e = fx.estimate, fx.wobble, fx.scenario.t_estimate
        gamma = np.array([10.0 ** (snr_db / 10.0) for snr_db, _ in cells])
        beta = np.array([10.0 ** lb for _, lb in cells])
        got = build_rate_schedules(est, gamma, scheme, beta, wob, t_e)
        # the grid build equals one-cell builds, field for field, exact floats
        assert got == [build_rate_schedule(est, g, scheme, b, wob, t_e)
                       for g, b in zip(gamma.tolist(), beta.tolist())]
        # and the bisection oracle within the solvers' tolerances, which
        # perfbench/checks.py derives for these columns
        want = [_oracle_schedule(est, g, scheme, b, wob, t_e)
                for g, b in zip(gamma.tolist(), beta.tolist())]
        for s, w in zip(got, want):
            assert s.r_max == w.r_max
            for th, th_w in zip(s.thresholds, w.thresholds):
                assert abs(th.c_n - th_w.c_n) <= 2e-12
                assert abs(th.t_n - th_w.t_n) <= 1e-9
        for s, g, b in zip(got, gamma.tolist(), beta.tolist()):
            cs = [th.c_n for th in s.thresholds]
            ts = [th.t_n for th in s.thresholds]
            assert all(lo < hi for lo, hi in zip(cs, cs[1:]))
            assert all(lo > hi for lo, hi in zip(ts, ts[1:]))
            for th in s.thresholds:
                assert abs(temporal_acf(wob, th.t_n - t_e) - th.c_n) <= 1e-10
                assert union_bound(scheme, 2 ** th.n).u(
                    est.norm_sq, th.c_n, g) <= b * (1 + 1e-8)

    def test_sweep_is_one_batched_build(self, fx):
        snr_db, betas = [6.0, 21.0, 33.0], [1e-2, 1e-6]
        gamma = [10.0 ** (v / 10.0) for v in snr_db]
        want = [[optimum_transmission_time(build_rate_schedule(
                    fx.estimate, g, "qam", b, fx.wobble,
                    fx.scenario.t_estimate)).r_ave_max for b in betas]
                for g in gamma]
        got = sweep_rave_max(fx.estimate, snr_db, betas, "qam", fx.wobble,
                             fx.scenario.t_estimate)
        assert got.tolist() == want


# nearly undamped vibration: the ACF ripples at the wobble period (the
# oscillatory profile of tests/test_channel.py)
_OSCILLATORY = WobbleParams(omega_c=2 * np.pi * 28e9, omega_v=20.0 * np.pi,
                            mu=0.01, sigma_v_sq=1e-4)


@pytest.fixture(scope="module")
def first_rise():
    """Lag L where the oscillatory ACF first stops decreasing, on a 0.2 us
    grid."""
    lags = np.linspace(0.0, 0.2, 1_000_001)
    diff = np.diff(temporal_acf(_OSCILLATORY, lags))
    return float(lags[np.argmax(diff >= 0.0)])


class TestGuardsPerCell:
    # the ACF falls monotonically on [0, L], L just past 0.05 s, to about
    # 0.99133, then ripples: a cell whose C_1 lies above ACF(L) schedules on
    # that stretch, and one whose C_1 lies at or below it cannot
    @settings(max_examples=25, deadline=None)
    @given(scheme=st.sampled_from(["psk", "qam"]),
           snr_db=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4),
           log_beta=st.lists(st.floats(-8.0, math.log10(0.3)), min_size=1,
                             max_size=3))
    @example(scheme="psk", snr_db=[0.0], log_beta=[-4.375])
    def test_schedules_stay_on_the_monotone_stretch(self, fx, first_rise,
                                                     scheme, snr_db, log_beta):
        t_e = fx.scenario.t_estimate
        gamma = np.array([10.0 ** (v / 10.0) for v in snr_db])[:, None]
        beta = np.array([10.0 ** lb for lb in log_beta])
        g, b = np.broadcast_arrays(gamma, beta)
        feasible = max_modulation_order(fx.estimate, g, scheme, b) > 0
        # a grid whose every cell is infeasible builds no schedule at all
        assume(feasible.any())
        c_1 = min_acf_for_rate(1, fx.estimate, g[feasible], scheme,
                               b[feasible])
        try:
            schedules = build_rate_schedules(fx.estimate, gamma, scheme, beta,
                                             _OSCILLATORY, t_e)
        except MonotonicityError:
            return
        assert np.min(c_1) > temporal_acf(_OSCILLATORY, first_rise)
        for s in schedules:
            for th in s.thresholds:
                assert t_e < th.t_n <= t_e + first_rise
