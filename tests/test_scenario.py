"""Link-budget arithmetic: geometry, path loss, noise floor, SNR."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavlink.scenario import (
    BOLTZMANN,
    SPEED_OF_LIGHT,
    LinkScenario,
    average_snr_db,
    distance,
    noise_power_dbm,
    path_loss_db,
)

# reference link: 100 m hover, 100 m ground offset, 28 GHz, 100 MHz, 300 K
REF_DISTANCE_M = 141.4214
REF_PATH_LOSS_DB = 104.4010
REF_NOISE_DBM = -93.8280
REF_SNR_AT_CAP_DB = 24.4269


def _ref_scenario(**overrides) -> LinkScenario:
    kw = dict(uav_height=100.0, ground_xy=(100.0, 0.0), carrier_freq=28e9,
              n_rx_antennas=8, bandwidth=100e6, temperature=300.0,
              p_max_dbm=35.0, bep_threshold=1e-5, t_estimate=1e-3)
    kw.update(overrides)
    return LinkScenario(**kw)


class TestLinkBudget:
    def test_distance(self):
        s = _ref_scenario()
        assert distance(s) == pytest.approx(100.0 * math.sqrt(2.0), rel=1e-15)
        assert distance(s) == pytest.approx(REF_DISTANCE_M, abs=5e-5)

    def test_distance_uses_both_ground_coordinates(self):
        s = _ref_scenario(ground_xy=(60.0, 80.0))
        assert distance(s) == pytest.approx(math.sqrt(100.0 ** 2 + 100.0 ** 2))

    def test_path_loss_formula(self):
        s = _ref_scenario()
        d = distance(s)
        expected = 20.0 * math.log10(4.0 * math.pi * d * 28e9 / SPEED_OF_LIGHT)
        assert path_loss_db(s) == pytest.approx(expected, rel=1e-15)
        assert path_loss_db(s) == pytest.approx(REF_PATH_LOSS_DB, abs=5e-5)

    def test_noise_floor(self):
        s = _ref_scenario()
        expected = 10.0 * math.log10(BOLTZMANN * 300.0 * 100e6 / 1e-3)
        assert noise_power_dbm(s) == pytest.approx(expected, rel=1e-15)
        assert noise_power_dbm(s) == pytest.approx(REF_NOISE_DBM, abs=5e-5)

    def test_snr_at_power_cap(self):
        s = _ref_scenario()
        assert average_snr_db(35.0, s) == pytest.approx(REF_SNR_AT_CAP_DB,
                                                        abs=5e-5)

    def test_snr_linear_in_power(self):
        s = _ref_scenario()
        assert (average_snr_db(30.0, s) - average_snr_db(20.0, s)
                == pytest.approx(10.0, rel=1e-12))

    @given(h=st.floats(1.0, 1e4), wx=st.floats(-1e4, 1e4),
           wy=st.floats(-1e4, 1e4))
    def test_distance_dominates_height(self, h, wx, wy):
        s = _ref_scenario(uav_height=h, ground_xy=(wx, wy))
        assert distance(s) >= h * (1.0 - 1e-12)


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("uav_height", 0.0),
        ("uav_height", -5.0),
        ("carrier_freq", 0.0),
        ("bandwidth", -1.0),
        ("temperature", 0.0),
        ("bep_threshold", 0.0),
        ("bep_threshold", 0.5),
        ("bep_threshold", 1.2),
        ("t_estimate", 0.0),
        ("n_rx_antennas", 0),
        ("uav_height", math.nan),
        ("carrier_freq", math.inf),
        ("temperature", math.inf),
        ("t_estimate", math.nan),
        ("p_max_dbm", math.nan),
        ("p_max_dbm", -math.inf),
        ("ground_xy", (math.nan, 0.0)),
        ("t_coherence", math.nan),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError):
            _ref_scenario(**{field: value})

    @pytest.mark.parametrize("value", [1e-310, 5e-324])
    def test_rejects_subnormal_threshold(self, value):
        with pytest.raises(ValueError, match=f"got {value}"):
            _ref_scenario(bep_threshold=value)

    def test_least_normal_threshold_accepted(self):
        for value in (sys.float_info.min, 2.3e-308):
            assert _ref_scenario(bep_threshold=value).bep_threshold == value

    def test_coherence_must_exceed_estimate(self):
        with pytest.raises(ValueError):
            _ref_scenario(t_coherence=1e-3)
        s = _ref_scenario(t_coherence=2e-3)
        assert s.t_coherence == 2e-3

    def test_frozen(self):
        s = _ref_scenario()
        with pytest.raises(Exception):
            s.uav_height = 50.0
