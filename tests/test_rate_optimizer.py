"""Rate staircase construction and the average-rate maximization.

The threshold pins below were frozen from this implementation after
cross-checking them against the BEP inversion residuals. The switch times
t_n are T_e plus the 30-digit root of C(t) = C_n (`_exact_acf_root`), and
r_ave_max is the staircase average at those times, both rounded to the
digits shown. The optimum was checked against a dense brute-force sweep.
All pins use the case1 channel at the 35 dBm transmit cap with a 1e-5
threshold unless stated otherwise.
"""

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uavlink import (
    RateOptimum,
    RateSchedule,
    WobbleParams,
    acf_inverse,
    acf_thresholds,
    average_rate,
    build_rate_schedule,
    build_rate_schedules,
    optimum_transmission_time,
    rate_derivative,
    sweep_rave_max,
    temporal_acf,
)
from uavlink.bep_analysis import (
    UnionBound,
    _psk_acf_rows,
    _qam_acf_rows,
    union_bound,
)
from uavlink.channel import check_acf_monotone
from uavlink.constellation import SUPPORTED_ORDERS
from uavlink.errors import DivergenceError, MonotonicityError, ScheduleError
from uavlink.fixtures import load_fixture
from uavlink.rate_optimizer import _check_staircases
from uavlink.scenario import SPEED_OF_LIGHT, average_snr_db
from profiles import damped_profiles

GAMMA_MAX = 277.1359929049
BETA = 1e-5

# rate n -> (C_n, t_n - t_estimate shifted to absolute t_n with T_e = 1 ms)
PSK_C = [0.732172423852, 0.835978572882, 0.941010882791, 0.984344179202,
         0.997193242005]
PSK_T = [0.049940053664, 0.030828593169, 0.015770381159, 0.008040793107,
         0.003888755582]
QAM_C = PSK_C[:2] + [0.955140197791, 0.971457189776, 0.985644622796,
                     0.993999492520]
QAM_T = PSK_T[:2] + [0.013572573926, 0.010744018168, 0.007723942566,
                     0.005264142972]


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
        assert psk_schedule.c_n == pytest.approx(PSK_C, abs=5e-12)
        assert psk_schedule.t_n == pytest.approx(PSK_T, abs=5e-12)

    def test_qam_thresholds(self, qam_schedule):
        assert qam_schedule.r_max == 6
        assert qam_schedule.c_n == pytest.approx(QAM_C, abs=5e-12)
        assert qam_schedule.t_n == pytest.approx(QAM_T, abs=5e-12)

    @pytest.mark.parametrize("case", ["case1", "case2"])
    @pytest.mark.parametrize("scheme", ["psk", "qam"])
    def test_switch_times_are_exact_roots(self, case, scheme):
        # every t_n within 1e-12 s of the 30-digit root of C(t) = C_n, on
        # the fixture's schedule at its transmit cap
        fx = load_fixture(case)
        t_e = fx.scenario.t_estimate
        gamma = 10.0 ** (average_snr_db(fx.scenario.p_max_dbm, fx.scenario)
                         / 10.0)
        schedule = build_rate_schedule(fx.estimate, gamma, scheme,
                                       fx.scenario.bep_threshold, fx.wobble,
                                       t_e)
        assert schedule.r_max >= 5
        for c_n, t_n in zip(schedule.c_n.tolist(), schedule.t_n.tolist()):
            lag = t_n - t_e
            assert abs(lag - _exact_acf_root(fx.wobble, c_n, lag)) <= 1e-12

    def test_threshold_times_invert_acf(self, fx, psk_schedule):
        c_back = temporal_acf(fx.wobble,
                              psk_schedule.t_n - fx.scenario.t_estimate)
        assert c_back == pytest.approx(psk_schedule.c_n, abs=1e-9)

    def test_qam_times_vs_psk(self, psk_schedule, qam_schedule):
        # the QAM staircase holds each rate at least as long except at
        # rate 3, where the unit-energy 8-QAM lattice is the tighter one
        qam_t, psk_t = qam_schedule.t_n, psk_schedule.t_n
        for n in (1, 2, 4, 5):
            assert qam_t[n - 1] >= psk_t[n - 1] - 1e-15
        assert qam_t[2] < psk_t[2]


class TestRateAt:
    def test_staircase_boundaries(self, psk_schedule):
        t_e = psk_schedule.t_estimate
        assert psk_schedule.rate_at(t_e) == 0
        for n, t_n in enumerate(psk_schedule.t_n.tolist(), 1):
            assert psk_schedule.rate_at(t_n) == n  # inclusive right end
            assert psk_schedule.rate_at(np.nextafter(t_n, np.inf)) == n - 1
        assert psk_schedule.rate_at(np.nextafter(t_e, np.inf)) == \
            psk_schedule.r_max
        assert psk_schedule.rate_at(1.0) == 0

    def test_array_matches_staircase_loop(self, qam_schedule):
        # rate_at (searchsorted) against the definition read off the
        # switch times one by one: n on (t_{n+1}, t_n], highest rate first
        s = qam_schedule
        ends = s.t_n
        ts = np.concatenate([np.linspace(0.0, 1.1 * s.t_zero_rate, 2001),
                             ends, np.nextafter(ends, np.inf),
                             [s.t_estimate, np.nextafter(s.t_estimate, 1.0)]])
        want = [next((n for n in range(s.r_max, 0, -1)
                      if s.t_estimate < t <= ends[n - 1]), 0) for t in ts]
        assert s.rate_at(ts).tolist() == want

    @pytest.mark.parametrize("at", ["nan", "t_estimate",
                                    *(f"t_{n}" for n in range(1, 7)),
                                    "past_t_1"])
    def test_scalar_matches_array(self, qam_schedule, at):
        # the case1 QAM schedule has r_max 6; NaN is not after t_estimate,
        # so both read rate 0 there; a scalar gives an int
        s = qam_schedule
        t = {"nan": math.nan, "t_estimate": s.t_estimate,
             "past_t_1": np.nextafter(s.t_zero_rate, np.inf),
             **{f"t_{n}": t_n for n, t_n in enumerate(s.t_n.tolist(), 1)}}[at]
        assert type(s.rate_at(t)) is int
        assert s.rate_at(t) == s.rate_at(np.array([t]))[0]

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
    t = schedule.t_n.tolist() + [t_e]  # t[n - 1] = t_n, t_{r_max+1} = T_e
    total = 0.0
    for n in range(1, schedule.r_max + 1):
        a, b = max(t[n], t_e), min(t[n - 1], tau)
        if b > a:
            total += n * (b - a)
    return total / tau


def _oracle_optimum(schedule, t_coherence=None):
    """The optimum search before it shared the sweep's kernel: every
    candidate min(t_n - T_e, cap) and the cap, each rated by
    _oracle_average_rate, the first (shortest) of the largest winning."""
    t_e = schedule.t_estimate
    horizon = schedule.t_zero_rate if t_coherence is None else t_coherence
    if schedule.is_empty or horizon <= t_e:
        return RateOptimum(0.0, 0.0, 0)
    cap = horizon - t_e
    candidates = sorted({min(t_n - t_e, cap) for t_n in schedule.t_n.tolist()}
                        | {cap})
    rates = [_oracle_average_rate(schedule, t_c) for t_c in candidates]
    k = rates.index(max(rates))
    return RateOptimum(candidates[k], rates[k],
                       schedule.rate_at(t_e + candidates[k]))


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
        t_c = [0.0] + [t_n - t_e for t_n in schedule.t_n.tolist()] \
            + [f * span for f in fractions]
        want = [_oracle_average_rate(schedule, v) for v in t_c]
        assert average_rate(schedule, np.array(t_c)).tolist() == want
        scalar = [average_rate(schedule, v) for v in t_c]
        assert scalar == want
        assert all(type(v) is float for v in scalar)
        # the optimum, free and capped at each drawn horizon, to the bit
        for horizon in [None] + [t_e + v for v in t_c]:
            assert optimum_transmission_time(schedule, horizon) \
                == _oracle_optimum(schedule, horizon)

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
        approx = psk_schedule.rate_at(mids).sum() * (ts[1] - ts[0]) \
            / (t_e + t_c)
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
        assert opt.r_ave_max == pytest.approx(3.8617991530, abs=1e-9)
        assert opt.r_op == 4

    def test_qam_optimum(self, qam_schedule):
        opt = optimum_transmission_time(qam_schedule)
        assert opt.t_max == pytest.approx(0.0067239426, abs=1e-9)
        assert opt.r_ave_max == pytest.approx(4.9047303859, abs=1e-9)
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
        assert opt.r_ave_max < 3.8617991530

    @pytest.mark.parametrize("scheme", ["psk", "qam"])
    def test_coherence_horizon_inside_each_region(self, psk_schedule,
                                                  qam_schedule, scheme):
        # a horizon halfway through rate n's region [t_{n+1}, t_n): the
        # candidates min(t_n - T_e, cap) hold the cap, which the oracle
        # evaluates as a candidate of its own
        schedule = psk_schedule if scheme == "psk" else qam_schedule
        t_e = schedule.t_estimate
        t = schedule.t_n.tolist() + [t_e]
        capped = 0
        for n in range(1, schedule.r_max + 1):
            horizon = 0.5 * (t[n - 1] + t[n])
            assert schedule.rate_at(horizon) == n
            opt = optimum_transmission_time(schedule, horizon)
            assert opt == _oracle_optimum(schedule, horizon)
            assert opt.t_max <= horizon - t_e
            capped += opt.t_max == horizon - t_e
        assert capped > 0  # some horizon cuts the optimum short

    def test_coherence_cap_slack(self, psk_schedule):
        opt_free = optimum_transmission_time(psk_schedule)
        opt_cap = optimum_transmission_time(psk_schedule, t_coherence=0.5)
        assert opt_cap == opt_free

    def test_tie_goes_to_the_shortest_period(self):
        # t_2 = 2 T_e: the average is flat on rate 1's region, so both of
        # its ends rate exactly 1.0
        schedule = RateSchedule("psk", np.array([0.5, 0.9]),
                                np.array([4.0, 2.0]), 1.0)
        assert average_rate(schedule, [1.0, 3.0]).tolist() == [1.0, 1.0]
        want = RateOptimum(1.0, 1.0, 2)
        assert optimum_transmission_time(schedule) == want
        assert _oracle_optimum(schedule) == want

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


class TestNoFiniteT1:
    def test_c1_zero_is_a_schedule_error(self, fx):
        # beta = 0.6 lies above u(C = 0) = W/2 = 0.5 of BPSK, so rate 1
        # meets the threshold on an uncorrelated channel and never ends
        assert acf_thresholds(fx.estimate, GAMMA_MAX, "psk",
                              0.6)[1][0, 0] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScheduleError, match="no finite t_1"):
                build_rate_schedule(fx.estimate, GAMMA_MAX, "psk", 0.6,
                                    fx.wobble, fx.scenario.t_estimate)


class TestValidation:
    def test_nonmonotone_c(self):
        with pytest.raises(ScheduleError, match="C_n must increase"):
            RateSchedule("psk", np.array([0.9, 0.8]), np.array([0.05, 0.03]),
                         1e-3)

    def test_nonmonotone_t(self):
        with pytest.raises(ScheduleError, match="t_n must decrease"):
            RateSchedule("psk", np.array([0.7, 0.8]), np.array([0.03, 0.05]),
                         1e-3)

    def test_t_n_below_estimate(self):
        with pytest.raises(ScheduleError, match="exceed t_estimate"):
            RateSchedule("psk", np.array([0.7, 0.8]), np.array([0.05, 5e-4]),
                         1e-3)

    @pytest.mark.parametrize("c_n, t_n", [
        ([0.7, 0.8, 0.9], [0.05, 0.03]),
        ([0.7], [0.05, 0.03]),
        ([[0.7, 0.8]], [[0.05, 0.03]]),
    ])
    def test_columns_of_unequal_lengths(self, c_n, t_n):
        with pytest.raises(ScheduleError, match="one length"):
            RateSchedule("psk", np.array(c_n), np.array(t_n), 1e-3)

    def test_columns_are_read_only(self, psk_schedule):
        for col in (psk_schedule.c_n, psk_schedule.t_n):
            assert not col.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 0.0


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
            assert schedule.t_zero_rate == pytest.approx(0.078368, abs=5e-7)
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
        raise ScheduleError(f"rate {n} infeasible")
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


def _exact_acf(wobble, t):
    """C(t) = exp(-K1 * bracket(t)) * I0(x(t)) at an mpmath lag, in the
    working precision."""
    wv, mu = mp.mpf(wobble.omega_v), mp.mpf(wobble.mu)
    koc = mp.mpf(wobble.omega_c) / SPEED_OF_LIGHT
    sv2 = mp.mpf(wobble.sigma_v_sq)
    wm = wv ** 2 + mu ** 2
    decay, sin_t, cos_t = mp.exp(-mu * t), mp.sin(wv * t), mp.cos(wv * t)
    bracket = (mu * t * wm - 2 * mu * wv * sin_t * decay
               + (mu ** 2 - wv ** 2) * cos_t * decay - mu ** 2 + wv ** 2)
    x = sv2 / 2 * koc ** 2 * (mu * sin_t - wv * cos_t + wv * decay) / (wm * wv)
    return mp.exp(-sv2 / 2 * (koc / wm) ** 2 * bracket) * mp.besseli(0, x)


def _exact_acf_root(wobble, target, lag):
    """The root of C(t) = target in 30-digit arithmetic, by the secant
    method from `lag`. Where the ACF is monotone up to the root, the root is
    unique and the start only sets how fast the secant reaches it."""
    if target == 1.0:
        return 0.0
    with mp.workdps(30):
        c = mp.mpf(target)
        t0, t1 = mp.mpf(lag), mp.mpf(lag) * (1 + mp.mpf("1e-6"))
        f0, f1 = _exact_acf(wobble, t0) - c, _exact_acf(wobble, t1) - c
        for _ in range(50):
            if abs(t1 - t0) <= mp.mpf("1e-25") * t1:
                return float(t1)
            t0, f0, t1 = t1, f1, t1 - f1 * (t1 - t0) / (f1 - f0)
            f1 = _exact_acf(wobble, t1) - c
    raise ArithmeticError(f"secant did not converge for C = {target}")


def _oracle_schedule(estimate, gamma, scheme, beta, wobble, t_estimate):
    m_max = max((m for m in SUPPORTED_ORDERS
                 if union_bound(scheme, m).u(estimate.norm_sq, 1.0, gamma)
                 <= beta), default=0)
    if m_max == 0:
        return RateSchedule(scheme, np.empty(0), np.empty(0), t_estimate)
    r_max = m_max.bit_length() - 1
    cs = [_oracle_min_acf(n, estimate, gamma, scheme, beta)
          for n in range(1, r_max + 1)]
    # the exact roots, started from the library's; the check makes each
    # one the only root up to t_1
    lags = [_exact_acf_root(wobble, c_n, acf_inverse(wobble, c_n))
            for c_n in cs]
    check_acf_monotone(wobble, lags[0])
    return RateSchedule(scheme, np.array(cs), t_estimate + np.array(lags),
                        t_estimate)


def _columns(schedules):
    """Each schedule's fields as plain values, for exact comparison."""
    return [(s.scheme, s.c_n.tolist(), s.t_n.tolist(), s.t_estimate)
            for s in schedules]


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
        assert _columns(got) == _columns(
            build_rate_schedule(est, g, scheme, b, wob, t_e)
            for g, b in zip(gamma.tolist(), beta.tolist()))
        # and the oracle within the solvers' tolerances, which
        # perfbench/checks.py derives for these columns: the oracle's t_n
        # solve its own C_n, which may differ by 2e-12
        want = [_oracle_schedule(est, g, scheme, b, wob, t_e)
                for g, b in zip(gamma.tolist(), beta.tolist())]
        for s, w in zip(got, want):
            assert s.r_max == w.r_max
            assert np.all(np.abs(s.c_n - w.c_n) <= 2e-12)
            assert np.all(np.abs(s.t_n - w.t_n) <= 1e-9)
        for s, g, b in zip(got, gamma.tolist(), beta.tolist()):
            assert np.all(np.diff(s.c_n) > 0) and np.all(np.diff(s.t_n) < 0)
            assert np.all(np.abs(temporal_acf(wob, s.t_n - t_e) - s.c_n)
                          <= 1e-10)
            for n, c_n in enumerate(s.c_n.tolist(), 1):
                assert union_bound(scheme, 2 ** n).u(
                    est.norm_sq, c_n, g) <= b * (1 + 1e-8)

    def test_sweep_is_one_batched_build(self, fx):
        snr_db, betas = [6.0, 21.0, 33.0], [1e-2, 1e-6]
        gamma = [10.0 ** (v / 10.0) for v in snr_db]
        want = [[_oracle_optimum(build_rate_schedule(
                    fx.estimate, g, "qam", b, fx.wobble,
                    fx.scenario.t_estimate)).r_ave_max for b in betas]
                for g in gamma]
        got = sweep_rave_max(fx.estimate, snr_db, betas, "qam", fx.wobble,
                             fx.scenario.t_estimate)
        assert got.tolist() == want


class TestSchedulesAcrossProfiles:
    # the schedule invariants on monotone wobble profiles well beyond the
    # fixtures' one, and the sweep against the staircase objects
    @settings(max_examples=40, deadline=None)
    @given(w=damped_profiles, scheme=st.sampled_from(["psk", "qam"]),
           snr_db=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4),
           log_beta=st.lists(st.floats(-8.0, math.log10(0.3)), min_size=1,
                             max_size=3))
    def test_invariants(self, fx, w, scheme, snr_db, log_beta):
        t_e = fx.scenario.t_estimate
        gamma = np.array([10.0 ** (v / 10.0) for v in snr_db])
        betas = [10.0 ** v for v in log_beta]
        try:
            schedules = build_rate_schedules(fx.estimate, gamma[:, None],
                                             scheme, np.array(betas), w, t_e)
        except (ScheduleError, MonotonicityError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                sweep_rave_max(fx.estimate, snr_db, betas, scheme, w, t_e)
            return
        for s in schedules:
            assert np.all(np.diff(s.c_n) > 0) and np.all(np.diff(s.t_n) < 0)
            assert np.all(np.abs(temporal_acf(w, s.t_n - t_e) - s.c_n)
                          <= 1e-10)
        want = [_oracle_optimum(s).r_ave_max for s in schedules]
        got = sweep_rave_max(fx.estimate, snr_db, betas, scheme, w, t_e)
        assert got.ravel().tolist() == want


# each cell's rate count, then C_n and t_n - T_e per rate on coarse grids,
# so that ties, inversions and t_n at or before T_e are common
_staircases = st.lists(
    st.integers(0, 4).flatmap(lambda r: st.tuples(
        st.lists(st.integers(0, 3), min_size=r, max_size=r),
        st.lists(st.integers(-1, 3), min_size=r, max_size=r))),
    min_size=1, max_size=5)


class TestArrayChecks:
    @settings(max_examples=200, deadline=None)
    @given(cells=_staircases)
    def test_first_failing_cell_and_check(self, cells):
        # the grid check names the first invariant, in the order C_n
        # rising, t_n falling, t_n past T_e, that fails in the first cell
        # that fails, read off each cell's rows one by one; each cell's
        # schedule raises the same
        t_e, top = 1e-3, max(len(c) for c, _ in cells)
        cs = np.full((top, len(cells)), np.inf)
        ts = np.full((top, len(cells)), t_e)
        for k, (c, lag) in enumerate(cells):
            cs[:len(c), k] = [0.2 * v + 0.1 for v in c]
            ts[:len(c), k] = [t_e + 1e-3 * v for v in lag]
        want = None
        for k, (c, _) in enumerate(cells):
            c_k, t_k = cs[:len(c), k].tolist(), ts[:len(c), k].tolist()
            failed = [any(b <= a for a, b in zip(c_k, c_k[1:])),
                      any(b >= a for a, b in zip(t_k, t_k[1:])),
                      any(t <= t_e for t in t_k)]
            if any(failed):
                want = ("C_n must increase strictly with n",
                        "t_n must decrease strictly as n grows",
                        "every t_n must exceed t_estimate")[failed.index(True)]
                break
        assert _message(lambda: _check_staircases(cs, ts, t_e)) == want

        def schedules():
            for k, (c, _) in enumerate(cells):
                RateSchedule("qam", cs[:len(c), k], ts[:len(c), k], t_e)
        assert _message(schedules) == want


def _message(call):
    """The message of the ScheduleError a call raises, or None."""
    try:
        call()
    except ScheduleError as exc:
        return str(exc)
    return None


# --- the one-solve grid build against the loops it replaced ---------------

def _loop_min_acf(rate_n, estimate, gamma, scheme, beta):
    """The one-rate threshold solve over 1-D cells: feasibility at C = 1,
    then, over the cells that C = 0 does not already satisfy, the rate's
    PSK roots mapped to C, or its QAM rows solved in z, with the rate's own
    bound."""
    bound = union_bound(scheme, 2 ** rate_n)
    norm_sq = estimate.norm_sq
    if np.any(bound.u(norm_sq, 1.0, gamma) > beta):
        raise ScheduleError(f"rate {rate_n} infeasible at C = 1")
    out = np.zeros(gamma.size)
    cells = np.flatnonzero(bound.u(norm_sq, 0.0, 1.0) > beta)
    g, b = gamma[cells], beta[cells]
    try:
        if scheme == "psk":
            out[cells] = _psk_acf_rows(norm_sq, np.full(cells.size, rate_n),
                                       g, b)
        else:
            out[cells] = _qam_acf_rows(norm_sq, np.full(cells.size,
                                                        2 ** rate_n), g, b)
    except DivergenceError as exc:
        raise MonotonicityError(f"rate {rate_n} did not converge") from exc
    return out


def _loop_schedules(estimate, snr_linear, scheme, bep_threshold, wobble,
                    t_estimate):
    """The per-rate build: the largest order by one bound call per order,
    then one one-rate solve (`_loop_min_acf`) per rate over the cells that
    reach it."""
    gamma, beta = np.broadcast_arrays(np.asarray(snr_linear, dtype=float),
                                      np.asarray(bep_threshold, dtype=float))
    gamma_f, beta_f = gamma.reshape(-1), beta.reshape(-1)
    best = np.zeros(gamma_f.shape, dtype=np.int64)
    for order in SUPPORTED_ORDERS:
        ok = union_bound(scheme, order).u(estimate.norm_sq, 1.0,
                                          gamma_f) <= beta_f
        best = np.where(ok, np.maximum(best, order), best)
    r_max = np.log2(np.maximum(best, 1)).astype(np.int64)
    top = int(r_max.max())
    cs = np.full((top, gamma.size), np.inf)
    for n in range(1, top + 1):
        reach = r_max >= n
        cs[n - 1, reach] = _loop_min_acf(n, estimate, gamma_f[reach],
                                         scheme, beta_f[reach])
    if np.any(cs[:1] == 0.0):
        raise ScheduleError("no finite t_1")
    has = np.isfinite(cs)
    ts = np.zeros(cs.shape)
    if has.any():
        try:
            lags = acf_inverse(wobble, cs[has])
        except DivergenceError as exc:
            raise MonotonicityError("ACF inversion did not converge") from exc
        check_acf_monotone(wobble, float(lags.max()))
        ts[has] = t_estimate + lags
    return [RateSchedule(scheme, cs[:r, k], ts[:r, k], t_estimate)
            for k, r in enumerate(r_max.tolist())]


def _outcome(call):
    """A call's result, or the type of the UavlinkError it raised."""
    try:
        return call()
    except (ScheduleError, MonotonicityError) as exc:
        return type(exc)


_grid = dict(
    fixture=st.sampled_from(["case1", "case2"]),
    scheme=st.sampled_from(["psk", "qam"]),
    # low SNRs give empty cells; thresholds above 1/2 give C_1 = 0
    snr_db=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=5),
    log_beta=st.lists(st.floats(-8.0, math.log10(0.6)), min_size=1,
                      max_size=4),
    oscillatory=st.booleans())


class TestOneSolveEqualsLoops:
    # every C_n, t_n and r_ave_max to the bit, and the same exception type
    # on every error path the loops reach
    @settings(max_examples=40, deadline=None)
    @given(**_grid)
    @example(fixture="case1", scheme="qam", snr_db=[0.0, 12.0, 30.0],
             log_beta=[-2.0, -6.0], oscillatory=False)
    @example(fixture="case1", scheme="psk", snr_db=[25.0],
             log_beta=[-5.0, -0.25], oscillatory=False)
    def test_schedules(self, fixture, scheme, snr_db, log_beta, oscillatory):
        fx = load_fixture(fixture)
        wobble = _OSCILLATORY if oscillatory else fx.wobble
        gamma = np.array([10.0 ** (v / 10.0) for v in snr_db])[:, None]
        beta = np.array([10.0 ** v for v in log_beta])
        args = (fx.estimate, gamma, scheme, beta, wobble,
                fx.scenario.t_estimate)
        got = _outcome(lambda: _columns(build_rate_schedules(*args)))
        assert got == _outcome(lambda: _columns(_loop_schedules(*args)))

    @settings(max_examples=40, deadline=None)
    @given(**_grid)
    @example(fixture="case2", scheme="qam", snr_db=[0.0, 14.0, 36.0],
             log_beta=[-2.0, -3.0, -6.0], oscillatory=False)
    def test_sweep(self, fixture, scheme, snr_db, log_beta, oscillatory):
        fx = load_fixture(fixture)
        wobble = _OSCILLATORY if oscillatory else fx.wobble
        betas = [10.0 ** v for v in log_beta]
        t_e = fx.scenario.t_estimate

        def cell_by_cell():
            gamma = np.array([10.0 ** (v / 10.0) for v in snr_db])
            schedules = _loop_schedules(fx.estimate, gamma[:, None], scheme,
                                        np.array(betas), wobble, t_e)
            return [[_oracle_optimum(s).r_ave_max
                     for s in schedules[i * len(betas):(i + 1) * len(betas)]]
                    for i in range(len(snr_db))]
        got = _outcome(lambda: sweep_rave_max(fx.estimate, snr_db, betas,
                                              scheme, wobble, t_e).tolist())
        assert got == _outcome(cell_by_cell)

    def test_empty_grid_sweeps_to_zeros(self, fx):
        out = sweep_rave_max(fx.estimate, [0.0, 1.0], [1e-6], "qam",
                             fx.wobble, fx.scenario.t_estimate)
        assert out.tolist() == [[0.0], [0.0]]

    @pytest.mark.parametrize("bumps,error", [
        ((16,), ScheduleError),
        ((8, 16), ScheduleError),
        ((16, 32), ScheduleError),
    ])
    def test_lowest_failing_rate_raises_first(self, fx, monkeypatch, bumps,
                                              error):
        # each bumped order's bound is raised by 1e-3, so its rate fails at
        # C = 1; the grid reaches every QAM rate, and the lowest bumped rate
        # is named
        u = UnionBound.u

        def bumped(self, norm_sq, acf, gamma):
            return u(self, norm_sq, acf, gamma) + 1e-3 * (self.order in bumps)
        monkeypatch.setattr(UnionBound, "u", bumped)
        args = (fx.estimate, np.array([4.0 * GAMMA_MAX, GAMMA_MAX]), "qam",
                BETA, fx.wobble, fx.scenario.t_estimate)
        first = f"rate {min(bumps).bit_length() - 1} infeasible"
        with pytest.raises(error, match=first):
            build_rate_schedules(*args)
        with pytest.raises(error, match=first):
            _loop_schedules(*args)

    def test_unconverged_solve_names_its_rate(self, fx, monkeypatch):
        # a flat 8-QAM bound above every threshold never crosses it: the
        # rate-3 rows cannot converge while the other rates do
        slope = UnionBound.u_and_acf_slope

        def flat_at_8(self, norm_sq, acf, gamma):
            if self.order != 8:
                return slope(self, norm_sq, acf, gamma)
            return np.ones(np.shape(acf)), np.zeros(np.shape(acf))
        monkeypatch.setattr(UnionBound, "u_and_acf_slope", flat_at_8)
        with pytest.raises(MonotonicityError,
                           match="did not converge for rate 3$"):
            build_rate_schedules(fx.estimate, np.array([GAMMA_MAX, 2e3]),
                                 "qam", BETA, fx.wobble,
                                 fx.scenario.t_estimate)


    def test_unconverged_solve_raises_before_a_higher_infeasible_rate(
            self, fx, monkeypatch):
        # rate 3's solve never converges (flat 8-QAM bound) and rate 5
        # fails at C = 1 (32-QAM bound raised by 1e-3): a rate-by-rate
        # build meets the solve of rate 3 first
        slope, u = UnionBound.u_and_acf_slope, UnionBound.u

        def flat_at_8(self, norm_sq, acf, gamma):
            if self.order != 8:
                return slope(self, norm_sq, acf, gamma)
            return np.ones(np.shape(acf)), np.zeros(np.shape(acf))

        def raised_at_32(self, norm_sq, acf, gamma):
            return u(self, norm_sq, acf, gamma) + 1e-3 * (self.order == 32)
        monkeypatch.setattr(UnionBound, "u_and_acf_slope", flat_at_8)
        monkeypatch.setattr(UnionBound, "u", raised_at_32)
        args = (fx.estimate, np.array([4.0 * GAMMA_MAX, GAMMA_MAX]), "qam",
                BETA, fx.wobble, fx.scenario.t_estimate)
        with pytest.raises(MonotonicityError,
                           match="did not converge for rate 3$"):
            build_rate_schedules(*args)
        with pytest.raises(MonotonicityError, match="rate 3 did not"):
            _loop_schedules(*args)
        monkeypatch.setattr(UnionBound, "u_and_acf_slope", slope)
        with pytest.raises(ScheduleError, match="rate 5 infeasible"):
            build_rate_schedules(*args)


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
        r_max, cs = acf_thresholds(fx.estimate, g, scheme, b)
        feasible = r_max > 0
        # a grid whose every cell is infeasible builds no schedule at all
        assume(feasible.any())
        c_1 = cs[0, feasible]
        try:
            schedules = build_rate_schedules(fx.estimate, gamma, scheme, beta,
                                             _OSCILLATORY, t_e)
        except MonotonicityError:
            return
        assert np.min(c_1) > temporal_acf(_OSCILLATORY, first_rise)
        for s in schedules:
            assert np.all((t_e < s.t_n) & (s.t_n <= t_e + first_rise))
