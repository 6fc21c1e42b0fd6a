"""Minimum-power solvers and the per-instant power schedule.

Pins were frozen from this implementation with residuals cross-checked
against the BEP expressions each solver inverts. The trace-level energy
numbers use the case1 channel, a 1e-5 threshold, the 35 dBm cap and a
10 us sampling grid.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from uavlink import (
    BepContext,
    DetectorKind,
    EnergySavings,
    PowerSchedule,
    QamRootInfo,
    UnionBound,
    acf_inverse,
    build_rate_schedule,
    energy_savings,
    max_modulation_order,
    min_acf_for_rate,
    min_power_schedule,
    min_snr_psk,
    min_snr_qam,
    ml_detect,
    monte_carlo_bep,
    optimum_transmission_time,
    power_control,
    psk_bep_approx,
    q_inverse,
    so_detect,
    union_bound,
    uub,
)
from uavlink.constellation import make_qam
from uavlink.errors import (
    InfeasibleCsiError,
    InfeasibleRateError,
    SchemeError,
)
from uavlink.fixtures import load_fixture
from uavlink.scenario import average_snr_db, noise_power_dbm, path_loss_db

GAMMA_MAX = 277.1359929049
BETA = 1e-5
SAMPLE_DT = 1e-5


@pytest.fixture(scope="module")
def fx():
    return load_fixture("case1")


def _power(fx, scheme):
    schedule = build_rate_schedule(fx.estimate, GAMMA_MAX, scheme, BETA,
                                   fx.wobble, fx.scenario.t_estimate)
    power = min_power_schedule(schedule, fx.estimate, fx.scenario, fx.wobble,
                               sample_dt=SAMPLE_DT)
    return schedule, power


@pytest.fixture(scope="module")
def psk_power(fx):
    return _power(fx, "psk")


@pytest.fixture(scope="module")
def qam_power(fx):
    return _power(fx, "qam")


class TestPskSolver:
    def test_bpsk_closed_form(self, fx):
        c, beta = 0.95, 1e-5
        alpha_sq = q_inverse(beta) ** 2
        hc_sq = fx.estimate.norm_sq * c * c
        want = alpha_sq / (2.0 * hc_sq - (1.0 - c * c) * alpha_sq)
        assert min_snr_psk(2, fx.estimate, c, beta) == pytest.approx(
            want, rel=1e-14)

    @pytest.mark.parametrize("order,acf", [(2, 0.95), (4, 0.99), (8, 0.995),
                                           (16, 0.999), (32, 0.9999)])
    def test_roundtrip(self, fx, order, acf):
        g = min_snr_psk(order, fx.estimate, acf, BETA)
        assert psk_bep_approx(order, fx.estimate, acf, g) == pytest.approx(
            BETA, rel=1e-12)

    def test_infeasible_csi(self, fx):
        # 16-PSK at C = 0.9: the CSI noise floor sits above the threshold
        with pytest.raises(InfeasibleCsiError):
            min_snr_psk(16, fx.estimate, 0.9, BETA)

    def test_more_acf_needs_less_power(self, fx):
        gs = [min_snr_psk(8, fx.estimate, acf, BETA)
              for acf in (0.993, 0.996, 0.999, 1.0)]
        assert all(a > b for a, b in zip(gs, gs[1:]))


class TestQamSolver:
    # (order, acf) -> root, iterations, method, all at beta = 1e-5
    PINS = [
        (4, 0.99, 2.454066702721, 2, "newton"),
        (4, 0.999, 2.308435205889, 2, "newton"),
        (16, 0.99, 15.166363129613, 4, "newton"),
        (16, 0.999, 11.369164682887, 4, "newton"),
    ]

    @pytest.mark.parametrize("order,acf,gamma,iters,method", PINS)
    def test_frozen_roots(self, fx, order, acf, gamma, iters, method):
        info = min_snr_qam(order, fx.estimate, acf, BETA, details=True)
        assert isinstance(info, QamRootInfo)
        assert info.gamma_min == pytest.approx(gamma, rel=1e-9)
        assert info.iterations == iters
        assert info.method == method

    @pytest.mark.parametrize("order,acf,gamma,iters,method", PINS)
    def test_roundtrip_to_threshold(self, fx, order, acf, gamma, iters,
                                    method):
        g = min_snr_qam(order, fx.estimate, acf, BETA)
        bound = uub(BepContext(fx.estimate, acf, g, make_qam(order)))
        assert bound.raw == pytest.approx(BETA, rel=1e-7)

    @given(order=st.sampled_from([4, 16, 64]),
           log_one_minus_c=st.floats(-7.0, -1.0),
           log_beta=st.floats(-7.0, -2.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_bisection_oracle(self, fx, order, log_one_minus_c,
                                      log_beta):
        # each root against a plain bisection on ln(gamma), in the test
        acf, beta = 1.0 - 10.0 ** log_one_minus_c, 10.0 ** log_beta
        bound, norm_sq = union_bound("qam", order), fx.estimate.norm_sq
        lo, hi = math.log(1e-12), math.log(1e30)
        assume(bound.u(norm_sq, acf, math.exp(hi)) < beta)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if bound.u(norm_sq, acf, math.exp(mid)) > beta:
                lo = mid
            else:
                hi = mid
        root = min_snr_qam(order, fx.estimate, acf, beta)
        assert abs(math.log(root) - 0.5 * (lo + hi)) <= 2e-9

    def test_order_two_redirects(self, fx):
        with pytest.raises(SchemeError):
            min_snr_qam(2, fx.estimate, 0.99, BETA)

    def test_floor_infeasible(self, fx):
        # 64-QAM at C = 0.7: even infinite power leaves the bound above beta
        with pytest.raises(InfeasibleCsiError):
            min_snr_qam(64, fx.estimate, 0.7, BETA)


def _bisect(f, lo, hi):
    """The final (lo, hi) of a bisection of a falling f down to float
    resolution, with f(lo) > 0 >= f(hi)."""
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    return lo, hi


class TestClosedFormStarts:
    # both inversions start at the largest single-term root, a lower
    # bracket up to rounding; where rounding puts it past the root, the C
    # solve keeps 0 as its lower end and the QAM power solve grows one
    @given(fixture=st.sampled_from(["case1", "case2"]),
           scheme=st.sampled_from(["psk", "qam"]),
           rate=st.integers(1, 6),
           snr_db=st.floats(0.0, 40.0),
           log_beta=st.floats(-8.0, math.log10(0.3)),
           log_one_minus_c=st.floats(-8.0, 0.0))
    @settings(max_examples=80, deadline=None)
    def test_starts_bracket_and_roots_match_bisection(self, fixture, scheme,
                                                      rate, snr_db, log_beta,
                                                      log_one_minus_c):
        est = load_fixture(fixture).estimate
        order, norm_sq = 2 ** rate, est.norm_sq
        bound = union_bound(scheme, order)
        gamma, beta = 10.0 ** (snr_db / 10.0), 10.0 ** log_beta
        acf = 1.0 - 10.0 ** log_one_minus_c

        # in C at this SNR
        if bound.u(norm_sq, 1.0, gamma) > beta:
            with pytest.raises(InfeasibleRateError):
                min_acf_for_rate(rate, est, gamma, scheme, beta)
        elif bound.u(norm_sq, 0.0, gamma) <= beta:
            assert min_acf_for_rate(rate, est, gamma, scheme, beta) == 0.0
        else:
            lo, hi = _bisect(lambda c: bound.u(norm_sq, c, gamma) - beta,
                             0.0, 1.0)
            assert bound.acf_lower(norm_sq, gamma, beta) <= hi + 1e-14
            c_n = min_acf_for_rate(rate, est, gamma, scheme, beta)
            # the bound falls in C only up to rounding, so several ulps
            # may cross beta
            assert lo - 1e-14 <= c_n <= hi + 1e-12
            u = bound.u(norm_sq, c_n, gamma)
            assert u <= beta and 1.0 - u / beta <= 1e-8

        # in ln(gamma) at this C, where finite power meets beta
        if bound.u(norm_sq, acf, 1e30) >= beta:
            return
        lo, hi = _bisect(lambda x: bound.u(norm_sq, acf, math.exp(x)) - beta,
                         math.log(1e-12), math.log(1e30))
        start = bound.gamma_lower(norm_sq, acf, beta)
        assert start == 0.0 or math.log(start) <= hi + 1e-12
        if scheme == "qam" and order > 2:
            root = min_snr_qam(order, est, acf, beta)
            assert abs(math.log(root) - 0.5 * (lo + hi)) <= 2e-9

    def test_starts_past_the_root_take_the_fallbacks(self, fx, monkeypatch):
        c_n = min_acf_for_rate(4, fx.estimate, 300.0, "qam", BETA)
        root = min_snr_qam(16, fx.estimate, 0.99, BETA)
        monkeypatch.setattr(UnionBound, "acf_lower",
                            lambda self, n, g, b: np.full(np.shape(g),
                                                          c_n + 1e-6))
        assert abs(min_acf_for_rate(4, fx.estimate, 300.0, "qam", BETA)
                   - c_n) <= 1e-12
        for start in (1.01 * root, 0.0):
            monkeypatch.setattr(UnionBound, "gamma_lower",
                                lambda self, n, c, b: np.full(np.shape(c),
                                                              start))
            assert min_snr_qam(16, fx.estimate, 0.99, BETA) == pytest.approx(
                root, rel=2e-9)


class TestPowerSchedule:
    def test_grid_layout(self, fx, psk_power):
        schedule, power = psk_power
        t_e = fx.scenario.t_estimate
        assert len(power.samples) == 4894
        assert power.samples[0].t == pytest.approx(t_e + SAMPLE_DT, rel=1e-12)
        assert power.samples[-1].t <= schedule.t_zero_rate + 1e-12
        steps = np.diff([s.t for s in power.samples])
        assert np.allclose(steps, SAMPLE_DT, rtol=1e-9)

    @pytest.mark.parametrize("which", ["psk", "qam"])
    def test_trace_structure(self, fx, psk_power, qam_power, which):
        schedule, power = psk_power if which == "psk" else qam_power
        rates = [s.rate for s in power.samples]
        acfs = [s.acf_value for s in power.samples]
        assert all(r >= 1 for r in rates)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert all(a > b for a, b in zip(acfs, acfs[1:]))
        assert all(s.order == 1 << s.rate for s in power.samples)
        assert all(s.rate == schedule.rate_at(s.t) for s in power.samples)

    @pytest.mark.parametrize("which", ["psk", "qam"])
    def test_nothing_clamped_on_reference_channel(self, fx, psk_power,
                                                  qam_power, which):
        _, power = psk_power if which == "psk" else qam_power
        assert sum(s.clamped for s in power.samples) == 0
        assert all(s.p_min_dbm <= fx.scenario.p_max_dbm for s in power.samples)

    @pytest.mark.parametrize("which", ["psk", "qam"])
    def test_each_region_ends_near_the_cap(self, fx, psk_power, qam_power,
                                           which):
        # the switch times are exactly where full power stops sufficing, so
        # the last sample of each region must push close to 35 dBm
        _, power = psk_power if which == "psk" else qam_power
        region_max = {}
        for s in power.samples:
            region_max[s.rate] = max(region_max.get(s.rate, -np.inf),
                                     s.p_min_dbm)
        for rate, p in region_max.items():
            assert 34.5 <= p <= fx.scenario.p_max_dbm + 1e-9

    def test_power_rises_within_each_region(self, psk_power):
        _, power = psk_power
        for a, b in zip(power.samples, power.samples[1:]):
            if a.rate == b.rate:
                assert b.p_min_dbm > a.p_min_dbm

    def test_power_drops_at_region_switch(self, psk_power):
        _, power = psk_power
        switches = [(a, b) for a, b in zip(power.samples, power.samples[1:])
                    if a.rate != b.rate]
        assert len(switches) == 4
        assert all(b.p_min_dbm < a.p_min_dbm for a, b in switches)

    @pytest.mark.parametrize("which", ["psk", "qam"])
    def test_emitted_power_meets_threshold(self, fx, psk_power, qam_power,
                                           which):
        schedule, power = psk_power if which == "psk" else qam_power
        pl, n0 = path_loss_db(fx.scenario), noise_power_dbm(fx.scenario)
        for s in power.samples[::251]:
            gamma = 10.0 ** ((s.p_min_dbm - pl - n0) / 10.0)
            assert gamma == pytest.approx(10.0 ** (s.gamma_min_db / 10.0),
                                          rel=1e-12)
            if schedule.scheme == "psk" or s.order == 2:
                bep = psk_bep_approx(s.order, fx.estimate, s.acf_value, gamma)
            else:
                bep = uub(BepContext(fx.estimate, s.acf_value, gamma,
                                     make_qam(s.order))).raw
            assert bep == pytest.approx(BETA, rel=1e-6)

    def test_empty_schedule_gives_empty_trace(self, fx):
        schedule = build_rate_schedule(fx.estimate, 0.5, "psk", BETA,
                                       fx.wobble, fx.scenario.t_estimate)
        power = min_power_schedule(schedule, fx.estimate, fx.scenario,
                                   fx.wobble)
        assert power.samples == ()

    def test_bad_sample_dt(self, fx, psk_power):
        schedule, _ = psk_power
        with pytest.raises(ValueError):
            min_power_schedule(schedule, fx.estimate, fx.scenario, fx.wobble,
                               sample_dt=0.0)


def _bep_at(estimate, scheme, s, gamma):
    if scheme == "psk" or s.order == 2:
        return psk_bep_approx(s.order, estimate, s.acf_value, gamma)
    return uub(BepContext(estimate, s.acf_value, gamma,
                          make_qam(s.order))).raw


def _trace(fx, scheme, sample_dt):
    """Schedule at the power cap's SNR and its minimum-power trace."""
    gamma_max = 10.0 ** (average_snr_db(fx.scenario.p_max_dbm,
                                        fx.scenario) / 10.0)
    schedule = build_rate_schedule(fx.estimate, gamma_max, scheme,
                                   fx.scenario.bep_threshold, fx.wobble,
                                   fx.scenario.t_estimate)
    return schedule, min_power_schedule(schedule, fx.estimate, fx.scenario,
                                        fx.wobble, sample_dt=sample_dt)


class TestBatchedSolve:
    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_samples_never_mix(self, case):
        # each batched QAM root equals a one-sample solve of that sample
        fx = load_fixture(case)
        _, power = _trace(fx, "qam", 4e-5)
        qam = [s for s in power.samples if s.order > 2]
        assert len({s.order for s in qam}) >= 3
        for s in qam:
            alone = min_snr_qam(s.order, fx.estimate, s.acf_value,
                                fx.scenario.bep_threshold)
            assert s.gamma_min_db == pytest.approx(10.0 * math.log10(alone),
                                                   rel=1e-12)

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_trace_roots_converge_fast_and_tight(self, case):
        # every sample of a QAM power trace is solved in at most 6 Newton
        # iterations, with the bound at the threshold to 1e-12
        fx = load_fixture(case)
        _, power = _trace(fx, "qam", 4e-5)
        beta = fx.scenario.bep_threshold
        for order in sorted({s.order for s in power.samples} - {2}):
            acf = np.array([s.acf_value for s in power.samples
                            if s.order == order])
            roots = power_control._solve_qam(order, fx.estimate, acf, beta)
            assert roots.iterations.max() <= 6
            u = union_bound("qam", order).u(fx.estimate.norm_sq, acf,
                                            roots.gamma_min)
            assert np.max(np.abs(u / beta - 1.0)) <= 1e-12

    @given(case=st.sampled_from(["case1", "case2"]),
           scheme=st.sampled_from(["psk", "qam"]),
           p_max_dbm=st.floats(25.0, 45.0),
           log_beta=st.floats(-7.0, -2.0))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_feasible_schedule_invariants(self, case, scheme, p_max_dbm,
                                          log_beta):
        # on any feasible schedule no sample hits the cap, and the power
        # emitted meets the threshold
        base = load_fixture(case)
        scenario = dataclasses.replace(base.scenario, p_max_dbm=p_max_dbm,
                                       bep_threshold=10.0 ** log_beta)
        fx = dataclasses.replace(base, scenario=scenario)
        _, power = _trace(fx, scheme, 1e-4)
        assume(power.samples)
        pl, n0 = path_loss_db(fx.scenario), noise_power_dbm(fx.scenario)
        beta = fx.scenario.bep_threshold
        for s in power.samples:
            assert not s.clamped
            gamma = 10.0 ** ((s.p_min_dbm - pl - n0) / 10.0)
            assert _bep_at(fx.estimate, scheme, s, gamma) <= beta * (1 + 1e-6)


class TestFiniteInputGuard:
    @pytest.mark.parametrize("call", [
        lambda fx: acf_inverse(fx.wobble, math.nan, 1.0),
        lambda fx: acf_inverse(fx.wobble, 0.9, math.inf),
        lambda fx: min_acf_for_rate(2, fx.estimate, 300.0, "psk", math.nan),
        lambda fx: min_acf_for_rate(2, fx.estimate, math.inf, "qam", 1e-5),
        lambda fx: min_snr_qam(16, fx.estimate, math.nan, BETA),
        lambda fx: min_snr_qam(16, fx.estimate, 0.99, -math.inf),
        lambda fx: min_snr_psk(8, fx.estimate, math.nan, BETA),
        lambda fx: min_snr_psk(8, fx.estimate, np.array([0.99, math.nan]),
                               BETA),
        lambda fx: max_modulation_order(fx.estimate, math.nan, "qam", BETA),
        lambda fx: max_modulation_order(fx.estimate, np.array([300.0]),
                                        "psk", math.inf),
        lambda fx: monte_carlo_bep(fx.estimate, 0.99, math.nan,
                                   make_qam(16), DetectorKind.SO, 100, 1),
        lambda fx: ml_detect(np.full(fx.estimate.h.size, math.nan),
                             fx.estimate, 0.9, 10.0, make_qam(16)),
        lambda fx: so_detect(np.ones(fx.estimate.h.size), fx.estimate, 0.9,
                             math.nan, make_qam(16)),
    ], ids=["acf_inverse-target", "acf_inverse-dt_max",
            "min_acf_for_rate-threshold", "min_acf_for_rate-snr",
            "min_snr_qam-acf", "min_snr_qam-threshold",
            "min_snr_psk-acf", "min_snr_psk-acf-array",
            "max_modulation_order-snr", "max_modulation_order-threshold",
            "monte_carlo_bep-snr", "ml_detect-y", "so_detect-snr"])
    def test_non_finite_input_raises(self, fx, call):
        with pytest.raises(ValueError, match="must be finite"):
            call(fx)


class TestEnergySavings:
    # (scheme, window) -> mean dBm, savings %, n samples
    PINS = [
        ("psk", "full", 25.5994252235, 88.5199832334, 4894),
        ("psk", "opt", 30.6572019556, 63.2108125726, 704),
        ("qam", "full", 25.0582355350, 89.8650046564, 4894),
        ("qam", "opt", 29.1960598998, 73.7211721447, 672),
    ]

    @pytest.mark.parametrize("scheme,window,mean_dbm,savings,n", PINS)
    def test_frozen_windows(self, fx, psk_power, qam_power, scheme, window,
                            mean_dbm, savings, n):
        schedule, power = psk_power if scheme == "psk" else qam_power
        t_e = fx.scenario.t_estimate
        if window == "full":
            bounds = (t_e, schedule.t_zero_rate)
        else:
            opt = optimum_transmission_time(schedule)
            bounds = (t_e, t_e + opt.t_max)
        out = energy_savings(power, fx.scenario.p_max_dbm, bounds)
        assert out.n_samples == n
        assert out.mean_power_dbm == pytest.approx(mean_dbm, abs=1e-8)
        assert out.savings_percent == pytest.approx(savings, abs=1e-8)

    def test_flat_trace_at_baseline_saves_nothing(self):
        power = PowerSchedule(
            "psk", 1e-5, 35.0, t=1e-3 + np.arange(1, 6) * 1e-5,
            rate=np.ones(5, dtype=np.int64), acf_value=np.full(5, 0.9),
            gamma_min_db=np.full(5, 10.0), p_min_dbm=np.full(5, 30.0),
            clamped=np.zeros(5, dtype=bool))
        out = energy_savings(power, 30.0, (1e-3, 1e-3 + 5e-5))
        assert isinstance(out, EnergySavings)
        assert out.savings_percent == pytest.approx(0.0, abs=1e-12)
        assert out.mean_power_dbm == pytest.approx(30.0, abs=1e-12)

    def test_savings_identity_against_cap(self, fx, psk_power):
        # with a constant baseline, savings = 1 - 10^((mean - base)/10)
        schedule, power = psk_power
        out = energy_savings(power, fx.scenario.p_max_dbm,
                             (fx.scenario.t_estimate, schedule.t_zero_rate))
        want = (1.0 - 10.0 ** ((out.mean_power_dbm
                                - fx.scenario.p_max_dbm) / 10.0)) * 100.0
        assert out.savings_percent == pytest.approx(want, rel=1e-12)

    def test_window_needs_two_samples(self, fx, psk_power):
        _, power = psk_power
        t_e = fx.scenario.t_estimate
        with pytest.raises(ValueError):
            energy_savings(power, 35.0, (t_e, t_e + 1.5e-5))
