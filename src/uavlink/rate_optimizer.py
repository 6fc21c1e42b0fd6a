"""Adaptive-modulation rate schedule and the optimum transmission time.

The schedule maps each rate n (order 2^n) to the smallest ACF value C_n
that still meets the BEP threshold at full transmit power, then converts
C_n to a switch time t_n through the monotone wobble ACF. Within a frame
the rate is the piecewise-constant staircase R(t) = n on (t_{n+1}, t_n].
`build_rate_schedules` builds the staircases of a whole grid of (SNR,
threshold) cells at once, with one C_n solve over every (rate, cell) and
one ACF inversion; `build_rate_schedule` is its one-cell call.
A `RateSchedule` is its cell's columns of that solve, C_n and t_n;
`sweep_rave_max` reads the solved arrays of the whole grid instead,
building no schedule object. Both are checked by one function,
`_check_staircases`.

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


@dataclass(frozen=True, eq=False)
class RateSchedule:
    """Piecewise-constant rate staircase for one estimated channel.

    c_n[n - 1] = C_n and t_n[n - 1] = t_n for rates n = 1..r_max, as
    read-only 1-D float columns: C_n rise and t_n fall as n grows, and
    t_{r_max+1} = t_estimate by convention (C there is 1).
    """

    scheme: str
    c_n: np.ndarray
    t_n: np.ndarray
    t_estimate: float

    def __post_init__(self):
        if self.c_n.shape != self.t_n.shape or self.t_n.ndim != 1:
            raise ScheduleError("c_n and t_n must be 1-D and of one length")
        for col in (self.c_n, self.t_n):
            col.flags.writeable = False  # no reader can undo the checks below
        _check_staircases(self.c_n[:, None], self.t_n[:, None],
                          self.t_estimate)

    @property
    def r_max(self) -> int:
        return self.t_n.size

    @property
    def is_empty(self) -> bool:
        return self.r_max == 0

    @property
    def t_zero_rate(self) -> float:
        """Time t_1 past which no rate is feasible (t_estimate if empty)."""
        return float(self.t_n[0]) if self.r_max else self.t_estimate

    def rate_at(self, t):
        """Instantaneous rate: n on (t_{n+1}, t_n], 0 outside (and at NaN).

        t_n decreases as n grows, so the rate is r_max less the number of
        switch times before t (searchsorted on the ascending t_n). Broadcasts
        over an array of instants; a scalar gives an int.
        """
        t = np.asarray(t, dtype=np.float64)
        rate = self.r_max - np.searchsorted(self.t_n[::-1], t, side="left")
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
    certified monotone once, on [0, max(t_1) - t_estimate]. The staircases
    are left to the caller to check (`_check_staircases`).
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
    return r_max, cs, ts


def _check_staircases(cs: np.ndarray, ts: np.ndarray,
                      t_estimate: float) -> None:
    """The staircase invariants of every column of (cs, ts), the rates of
    a cell being its rows of finite C_n, in this order: C_n rising, t_n
    falling, then every t_n past T_e. Raises a ScheduleError naming the
    first invariant that fails in the first column that fails."""
    has = np.isfinite(cs)
    pair = has[1:]
    failed = np.array([(pair & (cs[1:] <= cs[:-1])).any(axis=0),
                       (pair & (ts[1:] >= ts[:-1])).any(axis=0),
                       (has & (ts <= t_estimate)).any(axis=0)])
    if failed.any():
        cell = int(np.argmax(failed.any(axis=0)))
        messages = ("C_n must increase strictly with n",
                    "t_n must decrease strictly as n grows",
                    "every t_n must exceed t_estimate")
        raise ScheduleError(messages[int(np.argmax(failed[:, cell]))])


def build_rate_schedules(estimate: ChannelEstimate, snr_linear, scheme: str,
                         bep_threshold, wobble: WobbleParams,
                         t_estimate: float) -> list:
    """Rate staircases for every cell of broadcast (snr_linear,
    bep_threshold), as a list in C order.

    Every cell's C_n and t_n come from one solve over the grid
    (`_switch_grid`), and each schedule holds its cell's rows of the solved
    arrays. A cell where every order is infeasible yields an empty schedule
    (rate 0 everywhere) rather than an error.

    Raises ScheduleError where C_1 = 0, as no finite t_1 exists there, or
    where a rate below a cell's highest feasible rate is infeasible, and
    MonotonicityError where the ACF cannot be certified strictly decreasing
    up to t_1.
    """
    r_max, cs, ts = _switch_grid(estimate, snr_linear, scheme, bep_threshold,
                                 wobble, t_estimate)
    return [RateSchedule(scheme, cs[:r, k], ts[:r, k], t_estimate)
            for k, r in enumerate(r_max.tolist())]


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
    # t_{n+1}, and T_e above the top rate
    starts = np.concatenate([ts[1:], np.full(ts[:1].shape, t_estimate)])
    total = 0.0
    for n in range(1, ts.shape[0] + 1):  # summed in rate order
        b = np.minimum(ts[n - 1], tau)
        a = starts[n - 1]  # never below T_e
        total = total + n * (b - a) * (b > a)  # 0 where b <= a
    # the sum is 0 at t_c = 0, where tau may be 0 too
    return total / np.where(t_c > 0.0, tau, 1.0)


def average_rate(schedule: RateSchedule, t_c):
    """Exact average rate over [T_e, T_e + T_c], normalized by T_e + T_c.

    Integrates the rate staircase in closed form; t_c = 0 gives 0.
    Broadcasts over an array of t_c; a scalar gives a float.
    """
    t_c = np.asarray(t_c, dtype=np.float64)
    if not (t_c >= 0.0).all():
        raise ValueError("t_c must be non-negative")
    avg = _average_rates(schedule.t_n, schedule.t_estimate, t_c)
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
    # right-continuous region: rate n while t_{n+1} <= tau < t_n, with
    # t_{r_max+1} = T_e, so n counts the t_n past tau; none before T_e
    n = int(np.count_nonzero(schedule.t_n > tau)) if tau >= t_e else 0
    numerator = schedule.t_n[n:].sum() - schedule.r_max * t_e
    return float(-numerator / tau ** 2)


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

    ts = schedule.t_n
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
    _, cs, ts = _switch_grid(estimate, gamma[:, None], scheme,
                             np.array(bep_threshold_grid), wobble, t_estimate)
    _check_staircases(cs, ts, t_estimate)
    avg = _average_rates(ts, t_estimate, ts - t_estimate)
    return np.max(avg, axis=0, initial=0.0).reshape(gamma.size, -1)
