"""Link-budget arithmetic for the UAV air-to-ground scenario.

Geometry, free-space path loss, thermal noise and average SNR. Everything
here is pure dB/dBm bookkeeping; no randomness, no state.
"""

import math
from dataclasses import dataclass

from .errors import require_bep_threshold

__all__ = [
    "SPEED_OF_LIGHT",
    "BOLTZMANN",
    "LinkScenario",
    "distance",
    "path_loss_db",
    "noise_power_dbm",
    "average_snr_db",
]

SPEED_OF_LIGHT = 2.998e8  # m/s
BOLTZMANN = 1.380649e-23  # J/K (exact SI value)


@dataclass(frozen=True)
class LinkScenario:
    """Static description of one A2G link.

    Attributes:
        uav_height: hover height above the ground node, meters.
        ground_xy: horizontal offset of the ground node, meters.
        carrier_freq: carrier frequency, Hz.
        n_rx_antennas: receive antennas at the ground node.
        bandwidth: signal bandwidth, Hz.
        temperature: receiver noise temperature, Kelvin.
        p_max_dbm: transmit power cap, dBm.
        bep_threshold: tolerable instantaneous bit-error probability, a
            normal double below 1/2.
        t_estimate: channel estimation time, seconds.
        t_coherence: optional coherence horizon, seconds. When None the
            schedule's own zero-rate time is used as the horizon.
    """

    uav_height: float
    ground_xy: tuple[float, float]
    carrier_freq: float
    n_rx_antennas: int
    bandwidth: float
    temperature: float
    p_max_dbm: float
    bep_threshold: float
    t_estimate: float
    t_coherence: float | None = None

    def __post_init__(self):
        # the negated range tests here and below also reject nan
        for name in ("uav_height", "carrier_freq", "bandwidth",
                     "temperature"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not all(map(math.isfinite, (*self.ground_xy, self.p_max_dbm))):
            raise ValueError("ground_xy and p_max_dbm must be finite")
        require_bep_threshold("bep_threshold", self.bep_threshold)
        if not 0 < self.t_estimate < math.inf:
            raise ValueError("t_estimate must be positive and finite")
        if self.n_rx_antennas < 1:
            raise ValueError("n_rx_antennas must be at least 1")
        if self.t_coherence is not None and not (
                self.t_coherence > self.t_estimate):
            raise ValueError("t_coherence must exceed t_estimate")


def distance(scenario: LinkScenario) -> float:
    """UAV-to-ground Euclidean distance d = sqrt(H^2 + ||w||^2), meters."""
    wx, wy = scenario.ground_xy
    return math.sqrt(scenario.uav_height ** 2 + wx * wx + wy * wy)


def path_loss_db(scenario: LinkScenario) -> float:
    """Free-space path loss in dB.

    PL = (4*pi*d*f/c)^2, returned as 20*log10(4*pi*d*f/c).
    """
    d = distance(scenario)
    return 20.0 * math.log10(4.0 * math.pi * d * scenario.carrier_freq / SPEED_OF_LIGHT)


def noise_power_dbm(scenario: LinkScenario) -> float:
    """Thermal noise power 10*log10(k_b*T*B / 1 mW), dBm.

    The 1 mW normalization keeps link-budget dB arithmetic honest: transmit
    power in dBm minus path loss in dB minus this value gives SNR in dB.
    """
    watts = BOLTZMANN * scenario.temperature * scenario.bandwidth
    return 10.0 * math.log10(watts / 1e-3)


def average_snr_db(p_tx_dbm: float, scenario: LinkScenario) -> float:
    """Average SNR in dB for a given transmit power in dBm."""
    return p_tx_dbm - path_loss_db(scenario) - noise_power_dbm(scenario)
