"""Temporal ACF numerics, inversion, and the channel evolution model.

The ACF reference values were computed independently with 60-digit
arbitrary-precision arithmetic (complex Bessel J0 route) and frozen here;
the library path (log-domain exp * i0e) must reproduce them to double
precision.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0e, i1e

from uavlink import (
    ChannelEstimate,
    WobbleParams,
    acf_inverse,
    check_acf_monotone,
    default_sigma_v_sq,
    evolve_channel,
    received_signal,
    temporal_acf,
)
from uavlink import channel
from uavlink.channel import ChannelState, _acf, _bessel_ratio
from uavlink.errors import (
    InfeasibleTargetError,
    MonotonicityError,
    NumericOverflowError,
)
from uavlink.fixtures import load_fixture
from profiles import CARRIER_HZ, damped_profiles

# (dt, C(dt)) for omega_v = 20*pi, mu = 30, sigma_v^2 from the 5 mm default
ACF_REFERENCE = [
    (1e-4, 0.99999652557456856),
    (1e-3, 0.99965586108798475),
    (5e-3, 0.99183960255554056),
    (2e-2, 0.90458058876674031),
    (5e-2, 0.72769307053458603),
    (2e-1, 0.38838067622874382),
]

# faster vibration, slower decay: omega_v = 70*pi, mu = 12, sigma_v^2 = 1.6e-3
ACF_REFERENCE_ALT = [
    (1e-3, 0.99986336963198254),
    (1e-2, 0.99123003883615515),
    (1e-1, 0.98595144049513291),
]


@pytest.fixture(scope="module")
def wobble():
    return WobbleParams.for_carrier(CARRIER_HZ, omega_v=20.0 * np.pi, mu=30.0)


@pytest.fixture(scope="module")
def wobble_alt():
    return WobbleParams.for_carrier(CARRIER_HZ, omega_v=70.0 * np.pi, mu=12.0,
                                    sigma_v_sq=1.6e-3)


class TestTemporalAcf:
    def test_zero_lag_is_exactly_one(self, wobble):
        assert temporal_acf(wobble, 0.0) == 1.0

    @pytest.mark.parametrize("dt,expected", ACF_REFERENCE)
    def test_reference_values(self, wobble, dt, expected):
        assert temporal_acf(wobble, dt) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("dt,expected", ACF_REFERENCE_ALT)
    def test_reference_values_alt_profile(self, wobble_alt, dt, expected):
        assert temporal_acf(wobble_alt, dt) == pytest.approx(expected,
                                                             rel=1e-13)

    def test_default_velocity_variance(self):
        # 0.005^2 * (omega_v^2 + mu^2) / mu at the reference profile
        got = default_sigma_v_sq(20.0 * np.pi, 30.0)
        assert got == pytest.approx(0.0040398681336964535, rel=1e-15)

    def test_array_input_matches_scalars(self, wobble):
        dts = np.array([d for d, _ in ACF_REFERENCE])
        vals = temporal_acf(wobble, dts)
        assert isinstance(vals, np.ndarray)
        for dt, v in zip(dts, vals):
            assert v == temporal_acf(wobble, float(dt))

    def test_negative_lag_rejected(self, wobble):
        with pytest.raises(ValueError):
            temporal_acf(wobble, -1e-3)

    @given(dt=st.floats(0.0, 0.5))
    @settings(max_examples=50)
    def test_bounded_by_one(self, dt):
        w = WobbleParams.for_carrier(CARRIER_HZ, omega_v=20.0 * np.pi, mu=30.0)
        assert 0.0 < temporal_acf(w, dt) <= 1.0

    def test_pathological_params_raise(self):
        w = WobbleParams(omega_c=2 * np.pi * CARRIER_HZ, omega_v=1e-20,
                         mu=30.0, sigma_v_sq=1e308)
        with pytest.raises(NumericOverflowError):
            temporal_acf(w, 0.1)


class TestAcfInverse:
    @pytest.mark.parametrize("target", [0.99, 0.9, 0.8, 0.732172, 0.5])
    def test_roundtrip(self, wobble, target):
        dt = acf_inverse(wobble, target)
        assert abs(temporal_acf(wobble, dt) - target) <= 1e-10

    def test_target_one_maps_to_zero_lag(self, wobble):
        assert acf_inverse(wobble, 1.0) == 0.0

    def test_target_above_one_rejected(self, wobble):
        with pytest.raises(InfeasibleTargetError):
            acf_inverse(wobble, 1.5)

    def test_non_positive_target_rejected(self, wobble):
        # C > 0 at every finite lag; the start's ln(target) must not run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in (0.0, -0.5, np.array([0.5, 0.0])):
                with pytest.raises(InfeasibleTargetError):
                    acf_inverse(wobble, target)

    @given(target=st.floats(0.45, 0.995))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, target):
        w = WobbleParams.for_carrier(CARRIER_HZ, omega_v=20.0 * np.pi, mu=30.0)
        dt = acf_inverse(w, target)
        assert abs(temporal_acf(w, dt) - target) <= 1e-10


class TestAcfSolveAcrossProfiles:
    @given(w=damped_profiles, target=st.floats(1e-3, 0.9999))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, w, target):
        dt = acf_inverse(w, target)
        check_acf_monotone(w, dt)  # the draw is a monotone profile
        c = temporal_acf(w, dt)
        assert c <= target
        assert abs(c - target) <= 1e-10

    @given(w=damped_profiles, target=st.floats(1e-3, 0.999),
           frac=st.floats(0.2, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_slope_matches_central_difference(self, w, target, frac):
        t = frac * acf_inverse(w, target)
        # a step short against the lag and the vibration period, and long
        # against the rounding of sin(omega_v t) at lags of minutes
        h = 1e-3 * min(t, 1.0 / (w.omega_v + w.mu))

        def ln_c(lag):
            return math.log(temporal_acf(w, lag))
        fd = (8.0 * (ln_c(t + h) - ln_c(t - h))
              - (ln_c(t + 2.0 * h) - ln_c(t - 2.0 * h))) / (12.0 * h)
        acf, slope = _acf(w, np.array([t]), slope=True)
        assert acf[0] == temporal_acf(w, t)
        # the Bessel ratio's 1.1e-6 error grows where a' and x' I1/I0
        # nearly cancel; a wrong term would miss by far more
        assert slope[0] == pytest.approx(fd, rel=5e-4)

    @given(targets=st.lists(st.floats(1e-6, 1.0 - 1e-9), min_size=1,
                            max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_case1_takes_at_most_8_evaluations(self, targets):
        # every lockstep iteration evaluates the ACF and its slope once
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _acf(*args, **kwargs)
        w = load_fixture("case1").wobble
        with pytest.MonkeyPatch.context() as m:
            m.setattr(channel, "_acf", counted)
            acf_inverse(w, np.array(targets))
        assert len(calls) <= 8

    def test_bessel_ratio_against_scipy(self):
        x = np.concatenate([np.linspace(-10.0, 10.0, 20001),
                            np.geomspace(10.0, 1e6, 2001)])
        ax = np.abs(x)
        want = np.sign(x) * i1e(ax) / i0e(ax)
        got = _bessel_ratio(x)
        small = ax <= 0.2
        assert np.all(np.abs(got - want) <= 1.1e-6 * np.abs(want))
        assert np.all(np.abs(got - want)[small]
                      <= 4e-9 * np.abs(want)[small])


# lightly to heavily damped profiles, most of them monotone only on a
# stretch: mu / omega_v from 10^-2.5 to 10, spans up to 30 / omega_v
_any_damping = st.builds(
    lambda omega_v, log_damping, sigma_v_sq, frac: (
        WobbleParams.for_carrier(CARRIER_HZ, omega_v,
                                 10.0 ** log_damping * omega_v, sigma_v_sq),
        frac * 30.0 / omega_v),
    omega_v=st.floats(3.0, 1000.0), log_damping=st.floats(-2.5, 1.0),
    sigma_v_sq=st.floats(1e-6, 0.1), frac=st.floats(0.0, 1.0))


class TestMonotoneCheck:
    def test_reference_profile_is_monotone(self, wobble):
        check_acf_monotone(wobble, 0.4)

    def test_oscillatory_profile_rejected(self):
        # nearly undamped vibration: the ACF ripples at the wobble period
        w = WobbleParams(omega_c=2 * np.pi * CARRIER_HZ, omega_v=20.0 * np.pi,
                         mu=0.01, sigma_v_sq=1e-4)
        with pytest.raises(MonotonicityError, match="could not be certified"):
            check_acf_monotone(w, 0.3)

    def test_bessel_driven_rise_rejected(self):
        # P stays positive, but past 0.043 s b R overtakes it and the ACF
        # rises: only the bound on b keeps the certificate off this span
        w = WobbleParams.for_carrier(CARRIER_HZ, 112.5, 0.358 * 112.5,
                                     0.0894)
        span = 0.1636
        assert np.max(np.diff(temporal_acf(
            w, np.linspace(0.0, span, 100_001)))) > 1e-7
        with pytest.raises(MonotonicityError, match="could not be certified"):
            check_acf_monotone(w, span)

    @given(drawn=_any_damping)
    @settings(max_examples=100, deadline=None)
    def test_sound(self, drawn):
        # an accepted span shows no rise on a dense sample beyond the
        # rounding of temporal_acf itself: near C = 1 that is a few ulp of
        # 1 plus the cancellation in the exponent's bracket and in x, whose
        # terms reach (gain / w) (3 + (mu + 2 omega_v) t) and
        # gain (mu + 2 omega_v) (1 + omega_v t) / (w omega_v); at
        # omega_v = mu = 3 and sigma_v^2 = 0.0625 a proven span shows
        # 5.5-ulp rises
        w, span = drawn
        try:
            check_acf_monotone(w, span)
        except MonotonicityError:
            return
        vals = temporal_acf(w, np.linspace(0.0, span, 100_001))
        wm, _, gain = channel._acf_scales(w)
        reach = (w.mu + 2.0 * w.omega_v) * span
        rounding = 16.0 * np.finfo(float).eps * (
            1.0 + gain / wm * (3.0 + reach)
            + gain * (w.mu + 2.0 * w.omega_v) * (1.0 + w.omega_v * span)
            / (wm * w.omega_v))
        assert np.max(np.diff(vals), initial=0.0) <= rounding

    @given(w=damped_profiles)
    @settings(max_examples=60, deadline=None)
    def test_complete_on_damped_profiles(self, w):
        check_acf_monotone(w, acf_inverse(w, 1e-3))

    @pytest.mark.parametrize("fixture", ["case1", "case2"])
    @pytest.mark.parametrize("target", [0.7, 0.5, 1e-3])
    def test_fixture_spans_take_at_most_64_intervals(self, fixture, target):
        # the certificate bounds intervals of the middle stretch, and never
        # evaluates the ACF or a Bessel function
        intervals = []

        def counted(params, lo, hi):
            intervals.append(lo.size)
            return margin(params, lo, hi)

        def forbidden(*args, **kwargs):
            raise AssertionError("the certificate evaluated a Bessel term")
        w = load_fixture(fixture).wobble
        span = acf_inverse(w, target)
        margin = channel._slope_margin
        with pytest.MonkeyPatch.context() as m:
            m.setattr(channel, "_slope_margin", counted)
            for name in ("_acf", "_bessel_ratio", "i0e"):
                m.setattr(channel, name, forbidden)
            check_acf_monotone(w, span)
        assert 0 < sum(intervals) <= 64

    def test_ratio_bound_against_scipy(self):
        x = np.concatenate([np.linspace(0.0, 10.0, 20001),
                            np.geomspace(10.0, 1e6, 2001)])
        assert np.all(i1e(x) / i0e(x) <= channel._ratio_bound(x))


class TestChannelEvolution:
    def test_perfect_correlation_returns_estimate(self):
        h = np.array([1 + 2j, -0.5 + 0.25j])
        est = ChannelEstimate(h, 1e-3)
        state = evolve_channel(est, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(state.h_t, h)

    def test_zero_correlation_is_pure_innovation(self):
        h = np.array([1 + 2j, -0.5 + 0.25j])
        est = ChannelEstimate(h, 1e-3)
        rng = np.random.default_rng(42)
        state = evolve_channel(est, 0.0, rng)
        rng2 = np.random.default_rng(42)
        expected = (rng2.standard_normal(2)
                    + 1j * rng2.standard_normal(2)) * np.sqrt(0.5)
        np.testing.assert_allclose(state.h_t, expected, rtol=1e-15)

    def test_energy_statistics(self):
        est = ChannelEstimate(np.ones(4) + 0j, 1e-3)
        rng = np.random.default_rng(7)
        acc = 0.0
        n = 4000
        for _ in range(n):
            acc += np.sum(np.abs(evolve_channel(est, 0.8, rng).h_t) ** 2)
        # E||h_t||^2 = C^2 ||h||^2 + (1 - C^2) N = 0.64*4 + 0.36*4 = 4
        assert acc / n == pytest.approx(4.0, rel=0.05)

    def test_bad_acf_rejected(self):
        est = ChannelEstimate(np.ones(2) + 0j, 1e-3)
        with pytest.raises(ValueError):
            evolve_channel(est, 1.2, np.random.default_rng(0))

    def test_received_signal_shape_and_determinism(self):
        state = ChannelState(np.array([1 + 0j, 0 + 1j]), 0.9)
        y1 = received_signal(state, 1 + 0j, 10.0, np.random.default_rng(3))
        y2 = received_signal(state, 1 + 0j, 10.0, np.random.default_rng(3))
        assert y1.shape == (2,)
        np.testing.assert_array_equal(y1, y2)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            ChannelEstimate(np.zeros(3, dtype=complex), 1e-3)
        with pytest.raises(ValueError):
            ChannelEstimate(np.array([np.inf + 0j]), 1e-3)
        with pytest.raises(ValueError):
            ChannelEstimate(np.ones((2, 2), dtype=complex), 1e-3)

    @pytest.mark.parametrize("h,match", [
        # finite entries whose ||h||^2 overflows
        ([1e200, 1.0], "overflows"),
        ([1e308 + 1e308j], "overflows"),
        ([np.inf, 1.0], "must be finite"),
        ([1.0, np.nan], "must be finite"),
        ([1.0, complex(0.0, -np.inf)], "must be finite"),
        ([0.0, 0.0], "zero vector"),
        ([1e-200], "zero vector"),  # ||h||^2 underflows to 0
        ([1e200, np.nan], "must be finite"),  # checked before the overflow
    ])
    def test_norm_sq_must_be_finite_and_positive(self, h, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                ChannelEstimate(np.array(h, dtype=complex), 1e-3)


class TestWobbleParams:
    def test_for_carrier_fills_default_variance(self):
        w = WobbleParams.for_carrier(CARRIER_HZ, 20.0 * np.pi, 30.0)
        assert w.omega_c == pytest.approx(2 * np.pi * CARRIER_HZ, rel=1e-15)
        assert w.sigma_v_sq == pytest.approx(
            default_sigma_v_sq(20.0 * np.pi, 30.0), rel=1e-15)

    @pytest.mark.parametrize("kw", [
        dict(omega_c=-1.0, omega_v=1.0, mu=1.0, sigma_v_sq=1.0),
        dict(omega_c=1.0, omega_v=0.0, mu=1.0, sigma_v_sq=1.0),
        dict(omega_c=1.0, omega_v=1.0, mu=-2.0, sigma_v_sq=1.0),
        dict(omega_c=1.0, omega_v=1.0, mu=1.0, sigma_v_sq=0.0),
        dict(omega_c=1.0, omega_v=np.nan, mu=1.0, sigma_v_sq=1.0),
        dict(omega_c=np.inf, omega_v=1.0, mu=1.0, sigma_v_sq=1.0),
        dict(omega_c=1.0, omega_v=1.0, mu=1.0, sigma_v_sq=np.nan),
    ])
    def test_positivity_validation(self, kw):
        with pytest.raises(ValueError):
            WobbleParams(**kw)
