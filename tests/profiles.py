"""Hypothesis strategy for monotone wobble profiles well beyond the
fixtures' one, shared by the channel and the rate-schedule tests."""

from hypothesis import strategies as st

from uavlink import WobbleParams

CARRIER_HZ = 28e9

# damping mu at least the vibration frequency omega_v, and Bessel arguments
# |x| from about 1e-3 to several hundred
damped_profiles = st.builds(
    lambda omega_v, damping, sigma_v_sq: WobbleParams.for_carrier(
        CARRIER_HZ, omega_v, damping * omega_v, sigma_v_sq),
    omega_v=st.floats(3.0, 1000.0), damping=st.floats(1.0, 10.0),
    sigma_v_sq=st.floats(1e-5, 0.1))
