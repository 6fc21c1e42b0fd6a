"""Adaptive rate and power control for a wobbling mm-wave UAV downlink.

Simulates the air-to-ground link of a hovering multi-antenna UAV whose
mechanical vibration degrades channel state information over time, and
solves the two operational problems that follow: picking the largest
modulation order the aging estimate still supports (rate adaptation),
and holding that schedule at the error target with the least transmit
power (power control).
"""

__version__ = "0.1.0"

from .bep_analysis import (
    UnionBound,
    acf_thresholds,
    psk_bep_approx,
    q_function,
    q_inverse,
    union_bound,
)
from .channel import (
    ChannelEstimate,
    ChannelState,
    WobbleParams,
    acf_inverse,
    check_acf_monotone,
    default_sigma_v_sq,
    evolve_channel,
    received_signal,
    temporal_acf,
)
from .constellation import (
    SUPPORTED_ORDERS,
    Constellation,
    constellation_for,
    hamming_matrix,
    make_psk,
    make_qam,
)
from .detectors import (
    BepEstimate,
    DetectorKind,
    backend_name,
    effective_variance,
    ml_detect,
    monte_carlo_bep,
    so_detect,
)
from .fixtures import FIXTURE_NAMES, ReferenceFixture, load_fixture
from .power_control import (
    EnergySavings,
    PowerSample,
    PowerSchedule,
    bep_at_pmin,
    energy_savings,
    min_power_schedule,
    min_snr_psk,
)
from .rate_optimizer import (
    RateOptimum,
    RateSchedule,
    average_rate,
    build_rate_schedule,
    build_rate_schedules,
    optimum_transmission_time,
    rate_derivative,
    sweep_rave_max,
)
from .scenario import (
    LinkScenario,
    average_snr_db,
    distance,
    noise_power_dbm,
    path_loss_db,
)
from . import errors

__all__ = [
    "__version__",
    "backend_name",
    "errors",
    # scenario
    "LinkScenario", "distance", "path_loss_db", "noise_power_dbm",
    "average_snr_db",
    # channel
    "WobbleParams", "ChannelEstimate", "ChannelState", "temporal_acf",
    "acf_inverse", "check_acf_monotone", "default_sigma_v_sq",
    "evolve_channel", "received_signal",
    # constellation
    "Constellation", "SUPPORTED_ORDERS", "make_psk", "make_qam",
    "constellation_for", "hamming_matrix",
    # detectors
    "DetectorKind", "BepEstimate", "ml_detect", "so_detect",
    "monte_carlo_bep", "effective_variance",
    # bep analysis
    "UnionBound", "union_bound", "acf_thresholds", "psk_bep_approx",
    "q_function", "q_inverse",
    # rate optimizer
    "RateSchedule", "RateOptimum", "build_rate_schedule",
    "build_rate_schedules", "average_rate", "rate_derivative",
    "optimum_transmission_time", "sweep_rave_max",
    # power control
    "PowerSample", "PowerSchedule", "EnergySavings", "min_snr_psk",
    "min_power_schedule", "bep_at_pmin", "energy_savings",
    # fixtures
    "ReferenceFixture", "FIXTURE_NAMES", "load_fixture",
]
