"""Adaptive-modulation rate schedule and the optimum transmission time.

The schedule maps each rate n (order 2^n) to the smallest ACF value C_n
that still meets the BEP threshold at full transmit power, then converts
C_n to a switch time t_n through the monotone wobble ACF. Within a frame
the rate is the piecewise-constant staircase R(t) = n on (t_{n+1}, t_n].
`build_rate_schedules` builds the staircases of a whole grid of (SNR,
threshold) cells at once; `build_rate_schedule` is its one-cell call.

The average rate over a transmission period T_c has a constant-sign
derivative inside each staircase region, so the maximizer sits on a region
boundary; the optimizer evaluates the exact average at each candidate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bep_analysis import max_modulation_order, min_acf_for_rate
from .channel import (
    ChannelEstimate,
    WobbleParams,
    acf_inverse,
    check_acf_monotone,
    temporal_acf,
)
from .errors import InfeasibleRateError, ScheduleError

__all__ = [
    "RateThreshold",
    "RateSchedule",
    "RateOptimum",
    "build_rate_schedule",
    "build_rate_schedules",
    "average_rate",
    "rate_derivative",
    "sample_lags",
    "sample_grid",
    "optimum_transmission_time",
    "sweep_rave_max",
]


@dataclass(frozen=True)
class RateThreshold:
    """Rate n is usable while the ACF stays at or above c_n, i.e. t <= t_n."""

    n: int
    c_n: float
    t_n: float


@dataclass(frozen=True)
class RateSchedule:
    """Piecewise-constant rate staircase for one estimated channel.

    thresholds[k] holds rate n = k+1; times t_n decrease as n grows and
    t_{r_max+1} = t_estimate by convention (C there is 1).
    """

    scheme: str
    r_max: int
    thresholds: tuple[RateThreshold, ...]
    t_estimate: float

    def __post_init__(self):
        if len(self.thresholds) != self.r_max:
            raise ScheduleError("thresholds must cover rates 1..r_max")
        for k, th in enumerate(self.thresholds):
            if th.n != k + 1:
                raise ScheduleError("thresholds must be ordered by rate")
        cs = [th.c_n for th in self.thresholds]
        ts = [th.t_n for th in self.thresholds]
        if any(b <= a for a, b in zip(cs, cs[1:])):
            raise ScheduleError("C_n must increase strictly with n")
        if any(b >= a for a, b in zip(ts, ts[1:])):
            raise ScheduleError("t_n must decrease strictly as n grows")
        if self.thresholds and ts[-1] <= self.t_estimate:
            raise ScheduleError("every t_n must exceed t_estimate")

    @property
    def is_empty(self) -> bool:
        return self.r_max == 0

    @property
    def t_zero_rate(self) -> float:
        """Time t_1 past which no rate is feasible (t_estimate if empty)."""
        return self.thresholds[0].t_n if self.thresholds else self.t_estimate

    def switch_time(self, n: int) -> float:
        """t_n for 1 <= n <= r_max; t_estimate for n = r_max + 1."""
        if n == self.r_max + 1:
            return self.t_estimate
        return self.thresholds[n - 1].t_n

    def rate_at(self, t: float) -> int:
        """Instantaneous rate: n on (t_{n+1}, t_n], 0 outside.

        t_n decreases as n grows, so the rate is r_max less the number of
        switch times before t.
        """
        if t <= self.t_estimate:
            return 0
        return self.r_max - sum(th.t_n < t for th in self.thresholds)

    def rates_at(self, t) -> np.ndarray:
        """rate_at over an array of instants (searchsorted on the t_n)."""
        t = np.asarray(t, dtype=np.float64)
        # switch times ascending: t_{r_max}, ..., t_1
        ends = np.array([th.t_n for th in reversed(self.thresholds)])
        rate = self.r_max - np.searchsorted(ends, t, side="left")
        return np.where(t > self.t_estimate, rate, 0)


@dataclass(frozen=True)
class RateOptimum:
    """Solution of the rate-maximization problem."""

    t_max: float  # optimal transmission period T_c, seconds
    r_ave_max: float  # bits/symbol achieved at t_max
    r_op: int  # rate in force when transmission ends


def build_rate_schedules(estimate: ChannelEstimate, snr_linear, scheme: str,
                         bep_threshold, wobble: WobbleParams,
                         t_estimate: float) -> list:
    """Rate staircases for every cell of broadcast (snr_linear,
    bep_threshold), as a list in C order.

    Each rate's C thresholds are inverted for all cells that reach it in
    one lockstep Newton solve, and every threshold's switch time in one ACF
    inversion. A cell where every order is infeasible yields an empty
    schedule (rate 0 everywhere) rather than an error.
    """
    gamma, beta = np.broadcast_arrays(np.asarray(snr_linear, dtype=np.float64),
                                      np.asarray(bep_threshold,
                                                 dtype=np.float64))
    # a one-cell grid stays 0-d wherever all cells take part, which keeps
    # the bound on its scalar path
    gamma_f, beta_f = gamma.reshape(-1), beta.reshape(-1)
    order = np.reshape(max_modulation_order(estimate, gamma, scheme, beta), -1)
    r_max = np.log2(np.maximum(order, 1)).astype(np.int64)
    top = int(r_max.max())
    # cs[n - 1] holds C_n in the cells that reach rate n, +inf elsewhere
    cs = np.full((top, gamma.size), np.inf)
    for n in range(1, top + 1):
        reach = r_max >= n
        g, b = (gamma, beta) if reach.all() else (gamma_f[reach],
                                                  beta_f[reach])
        try:
            cs[n - 1, reach] = np.reshape(
                min_acf_for_rate(n, estimate, g, scheme, b), -1)
        except InfeasibleRateError as exc:
            raise ScheduleError(
                f"rate {n} infeasible although a higher rate is feasible; "
                "UUB is not monotone across orders here") from exc

    # per cell one dt_max spanning the slowest threshold; the inversion
    # needs the ACF verified monotone over each scheduling span
    live = r_max > 0
    c_min = cs.min(axis=0, initial=np.inf)
    dt_max = np.full(gamma.size, 0.05)
    grow = live.copy()
    while True:
        grow &= temporal_acf(wobble, dt_max) > c_min
        if not grow.any():
            break
        dt_max = np.where(grow, 2.0 * dt_max, dt_max)
        if np.any(dt_max > 1e6):
            raise ScheduleError(
                "ACF never decays to the rate-1 threshold; no finite t_1")
    for span in np.unique(dt_max[live]).tolist():
        check_acf_monotone(wobble, span)

    has = np.isfinite(cs)
    ts = np.zeros(cs.shape)
    ts[has] = t_estimate + acf_inverse(
        wobble, cs[has], np.broadcast_to(dt_max, cs.shape)[has])
    return [RateSchedule(scheme, r, tuple(
                RateThreshold(n, c_n, t_n)
                for n, c_n, t_n in zip(range(1, r + 1), c_cell, t_cell)),
                         t_estimate)
            for r, c_cell, t_cell in zip(r_max.tolist(), cs.T.tolist(),
                                         ts.T.tolist())]


def build_rate_schedule(estimate: ChannelEstimate, snr_linear: float,
                        scheme: str, bep_threshold: float,
                        wobble: WobbleParams,
                        t_estimate: float) -> RateSchedule:
    """Construct the rate staircase for one channel estimate: the one-cell
    call of build_rate_schedules."""
    return build_rate_schedules(estimate, snr_linear, scheme, bep_threshold,
                                wobble, t_estimate)[0]


def sample_lags(schedule: RateSchedule, sample_dt: float) -> np.ndarray:
    """Lags k * sample_dt, k = 1, 2, ..., spanning (0, t_1 - T_e].

    The count allows a 1e-9 step of rounding, so the last instant may sit a
    hair past t_1 (where sample_grid drops it).
    """
    n_steps = int(math.floor((schedule.t_zero_rate - schedule.t_estimate)
                             / sample_dt + 1e-9))
    return np.arange(1, n_steps + 1) * sample_dt


def sample_grid(schedule: RateSchedule,
                sample_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The sample instants T_e + k * sample_dt of the transmitting interval
    and the rate in force at each; instants at rate 0 are left out."""
    t = schedule.t_estimate + sample_lags(schedule, sample_dt)
    rate = schedule.rates_at(t)
    keep = rate > 0
    return t[keep], rate[keep]


def average_rate(schedule: RateSchedule, t_c):
    """Exact average rate over [T_e, T_e + T_c], normalized by T_e + T_c.

    Integrates the rate staircase in closed form; t_c = 0 gives 0.
    Broadcasts over an array of t_c; a scalar gives a float.
    """
    t_c = np.asarray(t_c, dtype=np.float64)
    if not (t_c >= 0.0).all():
        raise ValueError("t_c must be non-negative")
    t_e = schedule.t_estimate
    tau = t_e + t_c
    total = 0.0
    for th in schedule.thresholds:  # summed in rate order
        a = schedule.switch_time(th.n + 1)  # never below t_e
        b = np.minimum(th.t_n, tau)
        total = total + th.n * (b - a) * (b > a)  # 0 where b <= a
    # the sum is 0 at t_c = 0, where tau may be 0 too
    avg = total / np.where(t_c > 0.0, tau, 1.0)
    return float(avg) if avg.ndim == 0 else avg


def rate_derivative(schedule: RateSchedule, t_c: float) -> float:
    """d(average rate)/dT_c of the region containing T_c.

    The derivative is constant-sign within each staircase region:
    -(sum_{j=n+1}^{R_max} t_j - R_max * T_e) / (T_e + T_c)^2 while rate n
    is active, and strictly negative past t_1. Exactly at a switch time
    the region to the right is used.
    """
    t_e = schedule.t_estimate
    tau = t_e + t_c
    if schedule.is_empty:
        return 0.0
    # right-continuous region: rate n while t_{n+1} <= tau < t_n
    n = 0
    for th in reversed(schedule.thresholds):
        if schedule.switch_time(th.n + 1) <= tau < th.t_n:
            n = th.n
            break
    tail = sum(th.t_n for th in schedule.thresholds if th.n >= n + 1)
    numerator = tail - schedule.r_max * t_e
    return -numerator / tau ** 2


def optimum_transmission_time(schedule: RateSchedule,
                              t_coherence: float | None = None) -> RateOptimum:
    """Transmission period maximizing the average rate.

    Within each region the average rate is monotone (constant-sign
    derivative), so the maximum lies at a region boundary t_n or at the
    coherence horizon; every candidate is evaluated exactly and ties go to
    the shortest period.
    """
    t_e = schedule.t_estimate
    horizon = (schedule.t_zero_rate if t_coherence is None else t_coherence)
    if schedule.is_empty or horizon <= t_e:
        return RateOptimum(0.0, 0.0, 0)
    t_c_cap = horizon - t_e

    candidates = np.array(sorted(
        {min(th.t_n - t_e, t_c_cap) for th in schedule.thresholds}
        | {t_c_cap}))
    rates = average_rate(schedule, candidates)
    k = int(np.argmax(rates))  # ties go to the first, shortest period
    best_tc = float(candidates[k])
    return RateOptimum(best_tc, float(rates[k]),
                       schedule.rate_at(t_e + best_tc))


def sweep_rave_max(estimate: ChannelEstimate, snr_db_grid,
                   bep_threshold_grid, scheme: str, wobble: WobbleParams,
                   t_estimate: float) -> np.ndarray:
    """Maximum average rate on an SNR x threshold grid.

    Cell [i, j] is r_ave_max at snr_db_grid[i], bep_threshold_grid[j];
    infeasible cells are 0.
    """
    snr_db_grid = list(snr_db_grid)
    bep_threshold_grid = list(bep_threshold_grid)
    if not snr_db_grid or not bep_threshold_grid:
        raise ValueError("sweep grids must be non-empty")
    gamma = np.array([10.0 ** (snr_db / 10.0) for snr_db in snr_db_grid])
    schedules = build_rate_schedules(
        estimate, gamma[:, None], scheme, np.array(bep_threshold_grid),
        wobble, t_estimate)
    return np.array([optimum_transmission_time(s).r_ave_max
                     for s in schedules]).reshape(gamma.size, -1)
