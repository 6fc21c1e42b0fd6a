"""Minimum-power solvers and the per-instant power schedule.

Pins were frozen from this implementation with residuals cross-checked
against the BEP expressions each solver inverts. The trace-level energy
numbers use the case1 channel, a 1e-5 threshold, the 35 dBm cap and a
10 us sampling grid.
"""

import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from uavlink import (
    ChannelEstimate,
    DetectorKind,
    EnergySavings,
    PowerSchedule,
    RateSchedule,
    UnionBound,
    acf_inverse,
    acf_thresholds,
    build_rate_schedule,
    energy_savings,
    min_power_schedule,
    min_snr_psk,
    ml_detect,
    monte_carlo_bep,
    optimum_transmission_time,
    power_control,
    psk_bep_approx,
    q_function,
    q_inverse,
    so_detect,
    temporal_acf,
    union_bound,
)
from uavlink import bep_analysis
from uavlink.bep_analysis import _gamma_of_z, _z_sq, _z_start
from uavlink.constellation import make_qam
from uavlink.errors import DivergenceError, InfeasibleCsiError, ScheduleError
from uavlink.fixtures import load_fixture
from uavlink.lockstep import LockstepRoots
from uavlink.rate_optimizer import sample_grid
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


def _qam_root(order, estimate, acf, beta) -> LockstepRoots:
    """The batched QAM power solve at one sample: its root, iteration
    count and final step, one entry each."""
    return bep_analysis._qam_gamma_rows(estimate.norm_sq, order,
                                        np.array([acf]), beta)


class TestQamSolver:
    # (order, acf) -> root, iterations, method, all at beta = 1e-5
    # a one-sample call starts at its own node's root: 1 evaluation
    PINS = [
        (4, 0.99, 2.454066702721, 1, "newton"),
        (4, 0.999, 2.308435205889, 1, "newton"),
        (16, 0.99, 15.166363129613, 1, "newton"),
        (16, 0.999, 11.369164682887, 1, "newton"),
    ]

    @pytest.mark.parametrize("order,acf,gamma,iters,method", PINS)
    def test_frozen_roots(self, fx, order, acf, gamma, iters, method):
        roots = _qam_root(order, fx.estimate, acf, BETA)
        assert isinstance(roots, LockstepRoots)
        assert roots.root[0] == pytest.approx(gamma, rel=1e-9)
        assert roots.iterations[0] == iters
        assert ("newton" if roots.newton[0] else "bisection") == method

    @pytest.mark.parametrize("order,acf,gamma,iters,method", PINS)
    def test_roundtrip_to_threshold(self, fx, order, acf, gamma, iters,
                                    method):
        g = _qam_root(order, fx.estimate, acf, BETA).root[0]
        raw = union_bound("qam", order).u(fx.estimate.norm_sq, acf, g)
        assert raw == pytest.approx(BETA, rel=1e-7)

    @given(order=st.sampled_from([4, 8, 16, 32, 64]),
           log_scale=st.floats(-4.0, 4.0),
           log_one_minus_c=st.floats(-7.0, -1.0),
           log_beta=st.floats(-7.0, math.log10(0.49)))
    @settings(max_examples=60, deadline=None)
    def test_matches_bisection_oracle(self, fx, order, log_scale,
                                      log_one_minus_c, log_beta):
        # each root against a plain bisection on ln(gamma), in the test;
        # ||h||^2 spans 1e-4 to 1e4 times the fixture's, and a beta near
        # 1/2 leaves samples where no single term reaches beta
        est = ChannelEstimate(fx.estimate.h * 10.0 ** (log_scale / 2.0),
                              fx.estimate.t_estimate)
        acf, beta = 1.0 - 10.0 ** log_one_minus_c, 10.0 ** log_beta
        bound, norm_sq = union_bound("qam", order), est.norm_sq
        lo, hi = math.log(1e-12), math.log(1e30)
        assume(bound.u(norm_sq, acf, math.exp(hi)) < beta)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if bound.u(norm_sq, acf, math.exp(mid)) > beta:
                lo = mid
            else:
                hi = mid
        root = _qam_root(order, est, acf, beta).root[0]
        assert abs(math.log(root) - 0.5 * (lo + hi)) <= 2e-9

    def test_floor_infeasible(self, fx):
        # 64-QAM at C = 0.7: even infinite power leaves the bound above beta
        with pytest.raises(InfeasibleCsiError):
            _qam_root(64, fx.estimate, 0.7, BETA)

    @pytest.mark.parametrize("case", ["case1", "case2"])
    @pytest.mark.parametrize("beta", [1e-2, 1e-5, 1e-9, 1e-15])
    def test_bpsk_floor_edge_roots_or_infeasible(self, case, beta):
        # BPSK's start is its one term's root, which is the floor's: in the
        # first ulps of C whose floor u(C, inf) lies below beta a start can
        # round past the edge (case1 and case2 at 1e-5, the first double),
        # and the sample is then infeasible, not unsolved
        est = load_fixture(case).estimate
        bound = union_bound("qam", 2)
        _, edge = _bisect(lambda c: bound.u(est.norm_sq, c, np.inf) - beta,
                          0.0, 1.0)
        for c in edge + np.spacing(edge) * np.arange(8):
            try:
                root = _qam_root(2, est, c, beta).root[0]
            except InfeasibleCsiError:
                continue
            assert 1e13 < root < np.inf  # the ill-conditioned edge's

    @pytest.mark.parametrize("order,beta", [(4, 1e-15), (16, 1e-5),
                                            (64, 1e-3), (8, 1e-8),
                                            (2, 1e-9)])
    def test_floor_edge(self, fx, monkeypatch, order, beta):
        # the floor's edge on case1, by bisection on doubles of
        # u(C, inf) - beta: the power solve reads the floor check's
        # arithmetic, so the last double where u(C, inf) >= beta is
        # infeasible, with no RuntimeWarning, and min_power_schedule names
        # its region; each of the next 40 doubles has a finite root
        norm_sq, bound = fx.estimate.norm_sq, union_bound("qam", order)
        last, first = _bisect(
            lambda c: 1.0 if bound.u(norm_sq, c, np.inf) >= beta else -1.0,
            0.0, 1.0)
        assert bound.u(norm_sq, last, np.inf) >= beta
        assert bound.u(norm_sq, first, np.inf) < beta
        name = "PSK" if order == 2 else "QAM"
        message = (f"{order}-{name} cannot reach {beta:g} at C={last:.6f} "
                   "for any power")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleCsiError,
                               match=f"^{re.escape(message)}$") as info:
                bep_analysis._qam_gamma_rows(norm_sq, order, last, beta)
            assert info.value.order == order
            c = first
            for _ in range(40):
                root = bep_analysis._qam_gamma_rows(norm_sq, order, c,
                                                    beta).root[0]
                assert 0.0 < root < np.inf
                assert bound.u(norm_sq, c, root) == pytest.approx(beta,
                                                                  rel=1e-8)
                c = np.nextafter(c, 1.0)
        # a trace whose samples all sit at the last infeasible double: the
        # lower orders' floors lie below beta there, so min_power_schedule
        # names the order's region
        rate = order.bit_length() - 1
        for m in range(1, rate):
            assert union_bound("qam", 1 << m).u(norm_sq, last, np.inf) < beta
        monkeypatch.setattr(power_control, "temporal_acf",
                            lambda wobble, lag: np.full(np.shape(lag), last))
        schedule = RateSchedule("qam", np.linspace(0.5, 0.9, rate),
                                np.linspace(0.02, 0.01, rate), 1e-3)
        scenario = dataclasses.replace(fx.scenario, bep_threshold=beta)
        with pytest.raises(ScheduleError, match=re.escape(
                f"power infeasible inside rate-{rate} region ({message})")):
            min_power_schedule(schedule, fx.estimate, scenario, fx.wobble,
                               sample_dt=1e-3)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30),
           log_beta=st.floats(-8.0, -2.0))
    @settings(max_examples=60, deadline=None)
    def test_floor_error_names_the_lowest_order_and_its_first_c(
            self, fx, seed, n, log_beta):
        # the floor is checked at each order's smallest C only; where that
        # fails, the error is the one a check of every sample gives: the
        # lowest failing order and its first failing C. Order 2 is BPSK
        rng = np.random.default_rng(seed)
        order = rng.choice([2, 4, 8, 16, 32, 64], n)
        acf = 1.0 - 10.0 ** rng.uniform(-5.0, -0.3, n)
        beta, norm_sq = 10.0 ** log_beta, fx.estimate.norm_sq
        floor = np.array([union_bound("qam", int(m)).u(norm_sq, c, np.inf)
                          for m, c in zip(order, acf)])
        bad = np.flatnonzero(floor >= beta)
        if not bad.size:
            assert bep_analysis._qam_gamma_rows(norm_sq, order, acf,
                                                beta).root.shape == (n,)
            return
        k = bad[np.argmin(order[bad])]
        with pytest.raises(InfeasibleCsiError) as info:
            bep_analysis._qam_gamma_rows(norm_sq, order, acf, beta)
        name = "PSK" if order[k] == 2 else "QAM"
        assert str(info.value) == (f"{order[k]}-{name} cannot reach {beta:g} "
                                   f"at C={acf[k]:.6f} for any power")
        assert info.value.order == order[k]


def _bisect(f, lo, hi):
    """The final (lo, hi) of a bisection of a falling f down to float
    resolution, with f(lo) > 0 >= f(hi)."""
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    return lo, hi


class TestClosedFormStarts:
    # both inversions start at z_s, the largest single-term root at C = 1
    # (`bep_analysis._z_start`): a lower bracket of the PSK root z*, and a
    # start near the root on QAM. Where a start lies past the root, the
    # first evaluation makes it the upper end, and the lower end stays 0
    # in z and -inf in ln(gamma)
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
        r_max, cs = acf_thresholds(est, gamma, scheme, beta)
        if bound.u(norm_sq, 1.0, gamma) > beta:
            assert r_max[0] < rate  # no threshold for the rate
        elif bound.u(norm_sq, 0.0, gamma) <= beta:
            assert cs[rate - 1, 0] == 0.0
        else:
            lo, hi = _bisect(lambda c: bound.u(norm_sq, c, gamma) - beta,
                             0.0, 1.0)
            c_n = cs[rate - 1, 0]
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
        if scheme == "psk":
            # the PSK bound is a function of z alone, and z_s <= z*
            z_s = _z_start(scheme, order, beta)[0]
            start = _gamma_of_z(norm_sq, acf, z_s * z_s)
            assert start > 0.0 and math.log(start) <= hi + 1e-12
        if scheme == "qam":
            root = _qam_root(order, est, acf, beta).root[0]
            assert abs(math.log(root) - 0.5 * (lo + hi)) <= 2e-9

    @given(order=st.sampled_from([8, 16, 32, 64]),
           log_beta=st.floats(math.log10(sys.float_info.min),
                              math.log10(0.5), exclude_max=True))
    @example(order=16, log_beta=-5.0)
    @example(order=64, log_beta=math.log10(0.3))  # no term alone reaches it
    @settings(max_examples=200, deadline=None)
    def test_every_start_is_finite(self, order, log_beta):
        # z_inf^2 = z_s^2 s^2 < rho_inf / 2, where
        # rho = C^2 ||h||^2 / (1 - C^2) and rho_inf is the rho at which the
        # infinite-power floor, sum(w Q(d / |s| sqrt(rho / 2))), equals
        # beta: z_inf is the floor's largest single-term root in
        # sqrt(rho / 2), a lower bracket of its root. The floor falls in
        # rho, so this holds where it is at least beta at rho = 2 z_inf^2,
        # here up to the rounding of Q and Q^-1 (at most 7.5e-13 relative
        # over 3,000 thresholds per order: at small beta one term makes
        # the floor, and z_inf^2 nears rho_inf / 2). A feasible sample has
        # rho > rho_inf >= 2 z_inf^2, so its start
        # gamma = 2 z_s^2 / (C^2 ||h||^2 - 2 z_s^2 s^2 (1 - C^2)) is finite
        # and positive. Every drawn beta lies below W / 2, at least 2 here
        bound = union_bound("qam", order)
        beta = max(10.0 ** log_beta, sys.float_info.min)
        z_s, s_sq = map(float, _z_start("qam", order, beta))
        floor = bound.weight @ q_function(
            z_s * math.sqrt(s_sq) * np.sqrt(bound.d_sq / bound.s_sq))
        assert z_s > 0.0 and floor >= beta * (1.0 - 1e-11)

    def test_starts_past_the_root_take_the_fallbacks(self, fx,
                                                     monkeypatch):
        # every start injected as z_s: the C_n solve's past its root, and
        # the power solve's Chebyshev nodes' at 1.01 and 1e-3 times theirs
        norm_sq = fx.estimate.norm_sq
        c_n = acf_thresholds(fx.estimate, 300.0, "qam", BETA)[1][3, 0]
        root = _qam_root(16, fx.estimate, 0.99, BETA).root[0]

        def inject(module, z_sq):
            z = math.sqrt(z_sq)
            monkeypatch.setattr(module, "_z_start", lambda scheme, order,
                                beta: (np.full(np.shape(order), z),
                                       np.ones(np.shape(order))))
        inject(bep_analysis, _z_sq(norm_sq, c_n + 1e-6, 300.0))
        assert abs(acf_thresholds(fx.estimate, 300.0, "qam", BETA)[1][3, 0]
                   - c_n) <= 1e-12
        for start in (1.01 * root, 1e-3 * root):
            inject(bep_analysis, _z_sq(norm_sq, 0.99, start))
            assert _qam_root(16, fx.estimate, 0.99, BETA).root[0] == \
                pytest.approx(root, rel=2e-9)


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
                bep = union_bound("qam", s.order).u(fx.estimate.norm_sq,
                                                    s.acf_value, gamma)
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


class TestBepAtPmin:
    # the schedule is built at the 35 dBm cap; under a 30 dBm cap the end
    # of every rate region is clamped, and misses the threshold there
    @pytest.mark.parametrize("scheme", ["psk", "qam"])
    @pytest.mark.parametrize("p_max_dbm", [35.0, 30.0])
    def test_evaluates_the_model_the_trace_meets(self, fx, scheme,
                                                 p_max_dbm):
        schedule = build_rate_schedule(fx.estimate, GAMMA_MAX, scheme, BETA,
                                       fx.wobble, fx.scenario.t_estimate)
        scenario = dataclasses.replace(fx.scenario, p_max_dbm=p_max_dbm)
        power = min_power_schedule(schedule, fx.estimate, scenario,
                                   fx.wobble, sample_dt=4e-5)
        got = power.bep_at_pmin
        gamma = 10.0 ** ((power.p_min_dbm - path_loss_db(scenario)
                          - noise_power_dbm(scenario)) / 10.0)
        for r in np.unique(power.rate).tolist():
            region = power.rate == r
            acf = power.acf_value[region]
            if scheme == "psk":
                want = psk_bep_approx(1 << r, fx.estimate, acf, gamma[region])
            else:  # the UUB clamped to 1, BPSK's region included
                want = np.minimum(union_bound("qam", 1 << r).u(
                    fx.estimate.norm_sq, acf, gamma[region]), 1.0)
            assert got[region].tolist() == want.tolist()
        assert [s.bep_at_pmin for s in power.samples] == got.tolist()
        assert np.all(got[~power.clamped] <= BETA * (1 + 1e-6))
        assert power.clamped.any() == (p_max_dbm < 35.0)
        assert np.all(got[power.clamped] > BETA)

    @pytest.mark.parametrize("which", ["psk", "qam"])
    def test_columns_are_read_only(self, psk_power, qam_power, which):
        _, power = psk_power if which == "psk" else qam_power
        with pytest.raises(ValueError, match="read-only"):
            power.bep_at_pmin[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            power.bep_at_pmin = np.zeros(power.t.size)


def _bep_at(estimate, scheme, s, gamma):
    if scheme == "psk" or s.order == 2:
        return psk_bep_approx(s.order, estimate, s.acf_value, gamma)
    return union_bound("qam", s.order).u(estimate.norm_sq, s.acf_value,
                                         gamma)


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
    def test_qam_trace_calls_no_psk_closed_form(self, case, monkeypatch):
        # one model per QAM trace: every sample, BPSK's included, takes the
        # union bound's solve
        def closed_form(*args):
            raise AssertionError("min_snr_psk called on a QAM trace")
        monkeypatch.setattr(power_control, "min_snr_psk", closed_form)
        _, power = _trace(load_fixture(case), "qam", 4e-5)
        assert 1 in power.rate

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_samples_never_mix(self, case):
        # each batched QAM root equals a one-sample solve of that sample
        fx = load_fixture(case)
        _, power = _trace(fx, "qam", 4e-5)
        qam = [s for s in power.samples if s.order > 2]
        assert len({s.order for s in qam}) >= 3
        for s in qam:
            alone = _qam_root(s.order, fx.estimate, s.acf_value,
                              fx.scenario.bep_threshold).root[0]
            assert s.gamma_min_db == pytest.approx(10.0 * math.log10(alone),
                                                   rel=1e-12)

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_trace_roots_converge_fast_and_tight(self, case):
        # every sample of a QAM power trace, BPSK's included, is solved in
        # at most 6 Newton iterations, with the bound at the threshold to
        # 1e-12
        fx = load_fixture(case)
        _, power = _trace(fx, "qam", 4e-5)
        beta = fx.scenario.bep_threshold
        for order in sorted({s.order for s in power.samples}):
            acf = np.array([s.acf_value for s in power.samples
                            if s.order == order])
            roots = bep_analysis._qam_gamma_rows(fx.estimate.norm_sq, order,
                                                 acf, beta)
            assert roots.iterations.max() <= 6
            u = union_bound("qam", order).u(fx.estimate.norm_sq, acf,
                                            roots.root)
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


def _qam_trace_roots(fx, sample_dt):
    """The batched QAM solve of one trace's samples, BPSK's included, as
    `min_power_schedule` makes it: their orders and the roots."""
    schedule, _ = _trace(fx, "qam", sample_dt)
    t, rate = sample_grid(schedule, sample_dt)
    acf = temporal_acf(fx.wobble, t - schedule.t_estimate)
    return 1 << rate, bep_analysis._qam_gamma_rows(
        fx.estimate.norm_sq, 1 << rate, acf, fx.scenario.bep_threshold)


class TestStartsNextToTheRoot:
    # every order present starts next to its roots, at the Chebyshev
    # interpolant of z^2 in C through _NODES nodes of its own
    @pytest.mark.parametrize("case", ["case1", "case2"])
    @pytest.mark.parametrize("sample_dt", [4e-5, 1e-5])
    def test_one_evaluation_per_sample(self, case, sample_dt, monkeypatch):
        solves, solve = [], bep_analysis._ln_gamma_roots

        def recorded(order, *args):
            solves.append(order)
            return solve(order, *args)
        monkeypatch.setattr(bep_analysis, "_ln_gamma_roots", recorded)
        order, roots = _qam_trace_roots(load_fixture(case), sample_dt)
        assert np.unique(order).tolist() == [2, 4, 8, 16, 32, 64]
        assert np.all(roots.iterations == 1)
        assert np.all(roots.newton)
        node_order = solves[0]  # the nodes' solve comes first
        assert np.unique(node_order, return_counts=True)[1].tolist() == \
            [bep_analysis._NODES] * 6

    def test_unconverged_nodes_leave_the_lower_starts(self, fx,
                                                     monkeypatch):
        # where the nodes' solve fails, every sample starts at its order's
        # z_s mapped to gamma and reaches the same roots, in more
        # evaluations but on BPSK, whose one term makes z_s its root
        order, want = _qam_trace_roots(fx, 4e-5)
        solve, nodes = bep_analysis._ln_gamma_roots, 6 * bep_analysis._NODES

        def nodes_fail(order, *args):
            if order.size == nodes:  # the 2- to 64-QAM nodes
                raise DivergenceError("stuck", cells=np.arange(1))
            return solve(order, *args)
        monkeypatch.setattr(bep_analysis, "_ln_gamma_roots", nodes_fail)
        _, got = _qam_trace_roots(fx, 4e-5)
        assert np.abs(got.root / want.root - 1.0).max() <= 1e-12
        assert got.iterations[order > 2].min() >= 2
        assert np.all(got.iterations[order == 2] == 1)

    @given(case=st.sampled_from(["case1", "case2"]),
           p_max_dbm=st.floats(25.0, 45.0),
           log_beta=st.floats(-7.0, -2.0),
           sample_dt=st.sampled_from([4e-4, 1e-4, 4e-5]))
    @example(case="case1", p_max_dbm=35.0, log_beta=-5.0, sample_dt=4e-4)
    @settings(max_examples=6, deadline=None)
    def test_trace_roots_match_bisection_and_one_sample_solves(
            self, case, p_max_dbm, log_beta, sample_dt):
        # every sample, BPSK's included; at 4e-4 s the 8- to 64-QAM orders
        # have fewer samples than nodes
        base = load_fixture(case)
        scenario = dataclasses.replace(base.scenario, p_max_dbm=p_max_dbm,
                                       bep_threshold=10.0 ** log_beta)
        fx = dataclasses.replace(base, scenario=scenario)
        _, power = _trace(fx, "qam", sample_dt)
        assume(power.rate.size)
        order, acf = 1 << power.rate, power.acf_value
        ln_root = np.log(10.0) * power.gamma_min_db / 10.0
        beta, norm_sq = scenario.bep_threshold, fx.estimate.norm_sq
        # each sample bisected on its own bracket in ln(gamma), every
        # sample of an order in one array call
        lo, hi = np.full(acf.size, math.log(1e-12)), np.full(acf.size,
                                                              math.log(1e30))
        for m in np.unique(order).tolist():
            at = order == m
            bound = union_bound("qam", m)
            assert np.all(bound.u(norm_sq, acf[at], np.exp(hi[at])) <= beta)
            for _ in range(60):
                mid = 0.5 * (lo[at] + hi[at])
                above = bound.u(norm_sq, acf[at], np.exp(mid)) > beta
                lo[at] = np.where(above, mid, lo[at])
                hi[at] = np.where(above, hi[at], mid)
        assert np.abs(ln_root - 0.5 * (lo + hi)).max() <= 2e-9
        alone = np.array([_qam_root(m, fx.estimate, c, beta).root[0]
                          for m, c in zip(order.tolist(), acf.tolist())])
        assert np.abs(np.exp(ln_root) / alone - 1.0).max() <= 1e-12


def _loop_gamma(schedule, estimate, scenario, wobble, sample_dt):
    """The per-region power loop the batched solve replaced: the minimum
    SNR of every sample, one closed-form call (PSK) or one union-bound
    solve (QAM, BPSK's region included) per rate region, lowest rate
    first."""
    t, rate = sample_grid(schedule, sample_dt)
    acf = temporal_acf(wobble, t - schedule.t_estimate)
    beta = scenario.bep_threshold
    gamma = np.empty(t.size)
    for r in np.unique(rate).tolist():
        region = rate == r
        order = 1 << r
        try:
            if schedule.scheme == "psk":
                gamma[region] = min_snr_psk(order, estimate, acf[region],
                                            beta)
            else:
                gamma[region] = bep_analysis._qam_gamma_rows(
                    estimate.norm_sq, order, acf[region], beta).root
        except InfeasibleCsiError as exc:
            raise ScheduleError(
                f"power infeasible inside rate-{r} region ({exc}); "
                "schedule and threshold disagree") from exc
    return gamma


class TestOneSolveEqualsRegionLoop:
    # the schedule is built at one threshold and powered at another: a
    # stricter one makes samples near the end of a region infeasible
    @given(case=st.sampled_from(["case1", "case2"]),
           scheme=st.sampled_from(["psk", "qam"]),
           p_max_dbm=st.floats(25.0, 45.0),
           log_beta=st.floats(-7.0, -2.0),
           log_stricter=st.sampled_from([0.0, 0.0, 0.5, 2.0]))
    @settings(max_examples=30, deadline=None)
    def test_roots_and_errors_equal_the_loop(self, case, scheme, p_max_dbm,
                                             log_beta, log_stricter):
        fx = load_fixture(case)
        gamma_max = 10.0 ** ((p_max_dbm - path_loss_db(fx.scenario)
                              - noise_power_dbm(fx.scenario)) / 10.0)
        schedule = build_rate_schedule(fx.estimate, gamma_max, scheme,
                                       10.0 ** log_beta, fx.wobble,
                                       fx.scenario.t_estimate)
        scenario = dataclasses.replace(
            fx.scenario, p_max_dbm=p_max_dbm,
            bep_threshold=10.0 ** (log_beta - log_stricter))
        args = (schedule, fx.estimate, scenario, fx.wobble, 1e-4)
        try:
            want = 10.0 * np.log10(_loop_gamma(*args))
        except ScheduleError as exc:
            with pytest.raises(ScheduleError) as info:
                min_power_schedule(*args)
            assert str(info.value) == str(exc)
            return
        power = min_power_schedule(*args)
        assert power.gamma_min_db.tolist() == want.tolist()

    def test_infeasible_qam_sample_names_its_rate(self, fx, qam_power,
                                                  kernel_fault):
        # a 16-QAM floor above every threshold: no power serves rate 4
        schedule, _ = qam_power
        kernel_fault(UnionBound.u,
                     lambda order, u: (np.where(order == 16, 1.0, u),))
        with pytest.raises(ScheduleError, match="rate-4 region .16-QAM"):
            min_power_schedule(schedule, fx.estimate, fx.scenario, fx.wobble,
                               sample_dt=4e-5)

    def test_infeasible_bpsk_sample_names_psk(self, fx, qam_power):
        # powered at a threshold stricter than the schedule's, the rate-1
        # samples near t_1 have no power; rate-1 QAM is BPSK, and the
        # error says so (make_qam refuses order 2)
        schedule, _ = qam_power
        scenario = dataclasses.replace(fx.scenario, bep_threshold=BETA / 10.0)
        with pytest.raises(ScheduleError) as info:
            min_power_schedule(schedule, fx.estimate, scenario, fx.wobble,
                               sample_dt=4e-5)
        assert "rate-1 region (2-PSK cannot reach 1e-06 at C=" in \
            str(info.value)
        assert "2-QAM" not in str(info.value)


class TestFiniteInputGuard:
    @pytest.mark.parametrize("call", [
        lambda fx: acf_inverse(fx.wobble, math.nan),
        lambda fx: acf_inverse(fx.wobble, np.array([0.9, math.inf])),
        lambda fx: acf_thresholds(fx.estimate, 300.0, "psk", math.nan),
        lambda fx: acf_thresholds(fx.estimate, math.inf, "qam", 1e-5),
        lambda fx: min_snr_psk(8, fx.estimate, math.nan, BETA),
        lambda fx: min_snr_psk(8, fx.estimate, np.array([0.99, math.nan]),
                               BETA),
        lambda fx: acf_thresholds(fx.estimate, math.nan, "qam", BETA),
        lambda fx: acf_thresholds(fx.estimate, np.array([300.0]), "psk",
                                  math.inf),
        lambda fx: monte_carlo_bep(fx.estimate, 0.99, math.nan,
                                   make_qam(16), DetectorKind.SO, 100, 1),
        lambda fx: ml_detect(np.full(fx.estimate.h.size, math.nan),
                             fx.estimate, 0.9, 10.0, make_qam(16)),
        lambda fx: so_detect(np.ones(fx.estimate.h.size), fx.estimate, 0.9,
                             math.nan, make_qam(16)),
    ], ids=["acf_inverse-target", "acf_inverse-target-array",
            "acf_thresholds-threshold", "acf_thresholds-snr",
            "min_snr_psk-acf", "min_snr_psk-acf-array",
            "acf_thresholds-snr-nan", "acf_thresholds-threshold-array",
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
            clamped=np.zeros(5, dtype=bool), bep_at_pmin=np.full(5, 1e-5))
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
