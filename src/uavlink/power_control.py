"""Minimum-power policy that holds the rate schedule at the BEP threshold.

`min_power_schedule` alone picks the BEP model each trace meets, one per
scheme, inverts it and evaluates it at the emitted power: PSK traces
invert the PSK closed form (`bep_analysis.min_snr_psk`), QAM traces, rate
1 (BPSK) included, the union bound, by its batched solve over every rate
region (`bep_analysis._qam_gamma_rows`, where the bound's solves are
described).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bep_analysis import (
    UnionBound,
    _qam_gamma_rows,
    min_snr_psk,
    psk_bep_approx,
    union_bound_rows,
)
from .channel import ChannelEstimate, WobbleParams, temporal_acf
from .errors import InfeasibleCsiError, ScheduleError
from .rate_optimizer import RateSchedule, sample_grid
from .scenario import (
    LinkScenario,
    average_snr_db,
    noise_power_dbm,
    path_loss_db,
)

__all__ = [
    "PowerSample",
    "PowerSchedule",
    "EnergySavings",
    "min_snr_psk",
    "min_power_schedule",
    "energy_savings",
]


class PowerSample(NamedTuple):
    t: float
    rate: int
    order: int
    acf_value: float
    gamma_min_db: float
    p_min_dbm: float
    clamped: bool
    bep_at_pmin: float


@dataclass(frozen=True, eq=False)
class PowerSchedule:
    """Per-instant minimum power along one rate schedule, and the BEP it
    gives, as NumPy columns with one entry per sample (the order is
    1 << rate). The column arrays are made read-only."""

    scheme: str
    sample_dt: float
    p_max_dbm: float
    t: np.ndarray
    rate: np.ndarray
    acf_value: np.ndarray
    gamma_min_db: np.ndarray
    p_min_dbm: np.ndarray
    clamped: np.ndarray
    bep_at_pmin: np.ndarray

    def __post_init__(self):
        for col in (self.t, self.rate, self.acf_value, self.gamma_min_db,
                    self.p_min_dbm, self.clamped, self.bep_at_pmin):
            col.flags.writeable = False  # shared by every reader of the trace

    @cached_property
    def samples(self) -> tuple[PowerSample, ...]:
        """The trace as PowerSample rows, built on first use."""
        return tuple(map(PowerSample._make, zip(
            self.t.tolist(), self.rate.tolist(), (1 << self.rate).tolist(),
            self.acf_value.tolist(), self.gamma_min_db.tolist(),
            self.p_min_dbm.tolist(), self.clamped.tolist(),
            self.bep_at_pmin.tolist())))


def min_power_schedule(schedule: RateSchedule, estimate: ChannelEstimate,
                       scenario: LinkScenario, wobble: WobbleParams,
                       sample_dt: float = 1e-5) -> PowerSchedule:
    """Minimum transmit power at each sample of the transmitting interval,
    and the BEP it gives.

    P_min[dBm] = gamma_min[dB] + P_L[dB] + N_0[dBm], clamped to the power
    cap with a flag. One model per scheme takes every sample in one call:
    the PSK closed form on PSK, the UUB's batched root solve on QAM, rate 1
    included, each sample with its own order. The solvers cannot
    legitimately fail inside a region (the schedule guarantees feasibility
    up to each t_n), so an infeasible sample raises ScheduleError naming
    the lowest rate that fails. bep_at_pmin is the BEP at the clamped
    power: `psk_bep_approx` on PSK traces, the UUB clamped to 1 on QAM's.
    """
    if sample_dt <= 0:
        raise ValueError("sample_dt must be positive")
    t, rate = sample_grid(schedule, sample_dt)
    acf = temporal_acf(wobble, t - schedule.t_estimate)
    order, beta = 1 << rate, scenario.bep_threshold
    qam = schedule.scheme == "qam"
    try:
        gamma = (_qam_gamma_rows(estimate.norm_sq, order, acf, beta).root
                 if qam else min_snr_psk(order, estimate, acf, beta))
    except InfeasibleCsiError as exc:
        raise ScheduleError(
            f"power infeasible inside rate-{exc.order.bit_length() - 1} "
            f"region ({exc}); schedule and threshold disagree") from exc
    gamma_db = 10.0 * np.log10(gamma)
    p = gamma_db + path_loss_db(scenario) + noise_power_dbm(scenario)
    p_min = np.minimum(p, scenario.p_max_dbm)
    emitted = 10.0 ** (average_snr_db(p_min, scenario) / 10.0)
    bep = (np.minimum(union_bound_rows("qam", order, UnionBound.u,
                                       estimate.norm_sq, acf, emitted)[0], 1.0)
           if qam else psk_bep_approx(order, estimate, acf, emitted))
    return PowerSchedule(schedule.scheme, sample_dt, scenario.p_max_dbm,
                         t, rate, acf, gamma_db, p_min,
                         p > scenario.p_max_dbm, bep)


@dataclass(frozen=True)
class EnergySavings:
    """Trapezoid-averaged power over a window, versus a constant baseline."""

    savings_percent: float
    mean_power_dbm: float
    n_samples: int


def energy_savings(power: PowerSchedule, p_baseline_dbm: float,
                   window: tuple[float, float]) -> EnergySavings:
    """Fractional power saving over `window` = (t_a, t_b].

    Mean power is the trapezoid time average of the linear-watt trace;
    the reported mean_power_dbm is that average converted back to dBm.
    """
    t_a, t_b = window
    eps = 1e-9 * power.sample_dt
    mask = (power.t > t_a + eps) & (power.t <= t_b + eps)
    if mask.sum() < 2:
        raise ValueError("window must contain at least two power samples")
    lin = 10.0 ** (power.p_min_dbm[mask] / 10.0)  # mW
    mean_lin = float((0.5 * (lin[0] + lin[-1]) + lin[1:-1].sum())
                     / (lin.size - 1))
    base_lin = 10.0 ** (p_baseline_dbm / 10.0)
    return EnergySavings(
        savings_percent=(1.0 - mean_lin / base_lin) * 100.0,
        mean_power_dbm=10.0 * math.log10(mean_lin),
        n_samples=int(mask.sum()),
    )
