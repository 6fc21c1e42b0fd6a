"""Adaptive-modulation rate schedule and the optimum transmission time.

The schedule maps each rate n (order 2^n) to the smallest ACF value C_n
that still meets the BEP threshold at full transmit power, then converts
C_n to a switch time t_n through the monotone wobble ACF. Within a frame
the rate is the piecewise-constant staircase R(t) = n on (t_{n+1}, t_n].
`build_rate_schedules` builds the staircases of a whole grid of (SNR,
threshold) cells at once, with one C_n solve over every (rate, cell) and
one ACF inversion; `build_rate_schedule` is its one-cell call.
`sweep_rave_max` runs the same solve and reads the (r_max, C_n, t_n)
arrays directly, building no schedule object.

The average rate over a transmission period T_c has a constant-sign
derivative inside each staircase region, so the maximizer sits on a region
boundary; the optimizer evaluates the exact average at each candidate.
One kernel, `_average_rates`, evaluates that average from switch times
padded with T_e past each schedule's r_max: `average_rate` on one
schedule, `optimum_transmission_time` on its candidates and
`sweep_rave_max` on every cell of a grid in one array pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bep_analysis import acf_thresholds
from .channel import (
    ChannelEstimate,
    WobbleParams,
    acf_inverse,
    check_acf_monotone,
)
from .errors import DivergenceError, MonotonicityError, ScheduleError

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


# RateSchedule's invariants, in the order it checks them
_SCHEDULE_CHECKS = ("C_n must increase strictly with n",
                    "t_n must decrease strictly as n grows",
                    "every t_n must exceed t_estimate")


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
        c_rises, t_falls, past_estimate = _SCHEDULE_CHECKS
        if any(b <= a for a, b in zip(cs, cs[1:])):
            raise ScheduleError(c_rises)
        if any(b >= a for a, b in zip(ts, ts[1:])):
            raise ScheduleError(t_falls)
        if self.thresholds and ts[-1] <= self.t_estimate:
            raise ScheduleError(past_estimate)

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

    def rate_at(self, t):
        """Instantaneous rate: n on (t_{n+1}, t_n], 0 outside (and at NaN).

        t_n decreases as n grows, so the rate is r_max less the number of
        switch times before t (searchsorted on the t_n). Broadcasts over an
        array of instants; a scalar gives an int.
        """
        t = np.asarray(t, dtype=np.float64)
        # switch times ascending: t_{r_max}, ..., t_1
        ends = np.array([th.t_n for th in reversed(self.thresholds)])
        rate = self.r_max - np.searchsorted(ends, t, side="left")
        rate = np.where(t > self.t_estimate, rate, 0)
        return int(rate) if rate.ndim == 0 else rate


@dataclass(frozen=True)
class RateOptimum:
    """Solution of the rate-maximization problem."""

    t_max: float  # optimal transmission period T_c, seconds
    r_ave_max: float  # bits/symbol achieved at t_max
    r_op: int  # rate in force when transmission ends


def _switch_grid(estimate: ChannelEstimate, snr_linear, scheme: str,
                 bep_threshold, wobble: WobbleParams,
                 t_estimate: float) -> tuple:
    """(r_max, cs, ts) of every cell of broadcast (snr_linear,
    bep_threshold), flattened in C order: each cell's highest feasible
    rate, and C_n as cs[n - 1] and t_n as ts[n - 1], rows past the cell's
    r_max holding +inf and T_e.

    The C thresholds of every rate of every cell are inverted in one
    lockstep Newton solve (`bep_analysis.acf_thresholds`), and every
    threshold's switch time in one ACF inversion, after which the ACF is
    certified monotone once, on [0, max(t_1) - t_estimate]. The arrays are
    checked as each cell's RateSchedule checks itself, with the same
    ScheduleError for the first cell that fails.
    """
    r_max, cs = acf_thresholds(estimate, snr_linear, scheme, bep_threshold)
    # C_1 = 0 where even an uncorrelated channel meets the threshold: the
    # ACF is positive at every finite lag, so rate 1 never ends
    if np.any(cs[:1] == 0.0):
        raise ScheduleError(
            "rate 1 meets the threshold even at C = 0; the ACF never falls "
            "to it, so there is no finite t_1")
    has = np.isfinite(cs)
    ts = np.full(cs.shape, float(t_estimate))
    if has.any():
        try:
            lags = acf_inverse(wobble, cs[has])
        except DivergenceError as exc:
            raise MonotonicityError(
                "ACF inversion did not converge; the temporal ACF is not "
                "monotone over the schedule") from exc
        # every t_n is unique only where the ACF falls on all of [0, t_1]
        check_acf_monotone(wobble, float(lags.max()))
        ts[has] = t_estimate + lags
    _check_staircases(cs, ts, t_estimate)
    return r_max, cs, ts


def _check_staircases(cs: np.ndarray, ts: np.ndarray,
                      t_estimate: float) -> None:
    """RateSchedule's checks on every column of (cs, ts), the rates of a
    cell being its rows of finite C_n, in RateSchedule's order: C_n rising,
    t_n falling, then every t_n past T_e (it checks the last t_n, the
    least once the t_n fall). Raises its ScheduleError for the first
    column that fails."""
    has = np.isfinite(cs)
    pair = has[1:]
    failed = np.array([(pair & (cs[1:] <= cs[:-1])).any(axis=0),
                       (pair & (ts[1:] >= ts[:-1])).any(axis=0),
                       (has & (ts <= t_estimate)).any(axis=0)])
    if failed.any():
        cell = int(np.argmax(failed.any(axis=0)))
        raise ScheduleError(_SCHEDULE_CHECKS[int(np.argmax(failed[:, cell]))])


def build_rate_schedules(estimate: ChannelEstimate, snr_linear, scheme: str,
                         bep_threshold, wobble: WobbleParams,
                         t_estimate: float) -> list:
    """Rate staircases for every cell of broadcast (snr_linear,
    bep_threshold), as a list in C order.

    Every cell's C_n and t_n come from one solve over the grid
    (`_switch_grid`). A cell where every order is infeasible yields an
    empty schedule (rate 0 everywhere) rather than an error.

    Raises ScheduleError where C_1 = 0, as no finite t_1 exists there, or
    where a rate below a cell's highest feasible rate is infeasible, and
    MonotonicityError where the ACF cannot be certified strictly decreasing
    up to t_1.
    """
    r_max, cs, ts = _switch_grid(estimate, snr_linear, scheme, bep_threshold,
                                 wobble, t_estimate)
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
    rate = schedule.rate_at(t)
    keep = rate > 0
    return t[keep], rate[keep]


def _average_rates(ts: np.ndarray, t_estimate: float, t_c) -> np.ndarray:
    """Exact average rate over [T_e, T_e + t_c], normalized by T_e + t_c,
    from switch times ts[n - 1] = t_n, each row broadcasting against t_c.

    Rows past a schedule's r_max hold T_e: such a rate m adds
    m (b - a) (b > a) with a = b = T_e, an exact 0. Summed in rate order;
    t_c = 0 gives 0.
    """
    tau = t_estimate + t_c
    # switch_time(n + 1): t_{n+1}, and T_e above the top rate
    starts = np.concatenate([ts[1:], np.full(ts[:1].shape, t_estimate)])
    total = 0.0
    for n in range(1, ts.shape[0] + 1):  # summed in rate order
        b = np.minimum(ts[n - 1], tau)
        a = starts[n - 1]  # never below T_e
        total = total + n * (b - a) * (b > a)  # 0 where b <= a
    # the sum is 0 at t_c = 0, where tau may be 0 too
    return total / np.where(t_c > 0.0, tau, 1.0)


def _switch_times(schedule: RateSchedule) -> np.ndarray:
    """ts[n - 1] = t_n of one schedule, for _average_rates."""
    return np.array([th.t_n for th in schedule.thresholds])


def average_rate(schedule: RateSchedule, t_c):
    """Exact average rate over [T_e, T_e + T_c], normalized by T_e + T_c.

    Integrates the rate staircase in closed form; t_c = 0 gives 0.
    Broadcasts over an array of t_c; a scalar gives a float.
    """
    t_c = np.asarray(t_c, dtype=np.float64)
    if not (t_c >= 0.0).all():
        raise ValueError("t_c must be non-negative")
    avg = _average_rates(_switch_times(schedule), schedule.t_estimate, t_c)
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
    the shortest period. The candidates are min(t_n - T_e, cap), with cap
    the horizon less T_e. They hold the cap itself wherever it can win: if
    cap <= t_1 - T_e, min(t_1 - T_e, cap) is the cap; past t_1 the rate is
    0, so the average only falls (a fixed integral over a growing
    T_e + T_c), and t_1 - T_e beats any longer cap.
    """
    t_e = schedule.t_estimate
    horizon = (schedule.t_zero_rate if t_coherence is None else t_coherence)
    if schedule.is_empty or horizon <= t_e:
        return RateOptimum(0.0, 0.0, 0)
    t_c_cap = horizon - t_e

    ts = _switch_times(schedule)
    candidates = np.unique(np.minimum(ts - t_e, t_c_cap))
    rates = _average_rates(ts, t_e, candidates)
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
    # every cell's switch times, padded with T_e to the grid's top rate;
    # candidate k of a cell is t_c = t_k - T_e, and a padded candidate
    # t_c = 0 rates 0, so an empty cell gets 0, as its empty schedule does
    _, _, ts = _switch_grid(estimate, gamma[:, None], scheme,
                            np.array(bep_threshold_grid), wobble, t_estimate)
    avg = _average_rates(ts, t_estimate, ts - t_estimate)
    return np.max(avg, axis=0, initial=0.0).reshape(gamma.size, -1)
