"""Minimum-power policy that holds the rate schedule at the BEP threshold.

PSK inverts its closed-form BEP approximation directly. QAM has no closed
inverse, so the union bound is driven to the threshold by the package's one
safeguarded Newton solve, `bep_analysis.newton_lockstep`, in
x = ln(gamma): the Newton step of f(x) = ln u(e^x) - ln(beta), which is
the multiplicative update gamma * (u/beta)^(u/v), is taken while it stays
inside a bracket that holds the root, and the bracket is bisected
otherwise. Each sample starts at a closed-form lower bracket: the largest
SNR at which one term of the bound alone equals beta.

The bound, its slope in ln(gamma), its infinite-power floor and that start
come from the one cached, grouped `bep_analysis.UnionBound`. The power
trace solves all QAM samples of a rate region in one batch, each sample
running the same algorithm as the scalar `min_snr_qam` (which is the
one-sample case).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bep_analysis import newton_lockstep, q_inverse, union_bound
from .channel import ChannelEstimate, WobbleParams, temporal_acf
from .errors import (
    DivergenceError,
    InfeasibleCsiError,
    ScheduleError,
    SchemeError,
    require_finite,
)
from .rate_optimizer import RateSchedule, sample_grid
from .scenario import LinkScenario, noise_power_dbm, path_loss_db

__all__ = [
    "QamRootInfo",
    "PowerSample",
    "PowerSchedule",
    "EnergySavings",
    "min_snr_psk",
    "min_snr_qam",
    "min_power_schedule",
    "energy_savings",
]

_LN_TOL = 1e-9  # convergence tolerance on ln(gamma)


class QamRootInfo(NamedTuple):
    gamma_min: float
    iterations: int
    method: str  # kind of the final step: "newton" or "bisection"


def min_snr_psk(order: int, estimate: ChannelEstimate, acf_value,
                bep_threshold: float):
    """Closed-form minimum SNR for M-PSK at one ACF value or an array of them.

    Inverts the signal-space BEP approximation elementwise; a scalar
    `acf_value` gives a float. Raises InfeasibleCsiError when a denominator
    is non-positive: no finite power reaches the threshold at that CSI
    quality, so the schedule must have switched down already, and
    ValueError for a non-finite ACF value or threshold.
    """
    require_finite(acf_value=acf_value, bep_threshold=bep_threshold)
    c, b = np.asarray(acf_value, dtype=np.float64), bep_threshold
    hc_sq = estimate.norm_sq * c * c
    one_m_c2 = 1.0 - c * c
    if order == 2:
        alpha_sq = q_inverse(b) ** 2
        den = 2.0 * hc_sq - one_m_c2 * alpha_sq
    else:
        bits = order.bit_length() - 1
        alpha_sq = q_inverse(b * bits / 2.0) ** 2
        den = hc_sq * (1.0 - math.cos(2.0 * math.pi / order)) - one_m_c2 * alpha_sq
    infeasible = den <= 0.0
    if infeasible.any():
        raise InfeasibleCsiError(
            f"{order}-PSK cannot reach {bep_threshold:g} at "
            f"C={c[infeasible].flat[0]:.6f}")
    gamma = alpha_sq / den
    return float(gamma) if gamma.ndim == 0 else gamma


class _QamRoots(NamedTuple):
    gamma_min: np.ndarray
    iterations: np.ndarray
    newton: np.ndarray  # True where the final step was Newton's


def _solve_qam(order: int, estimate: ChannelEstimate, acf: np.ndarray,
               bep_threshold: float) -> _QamRoots:
    """Minimum SNR of every sample in `acf` at once, by safeguarded Newton.

    Each sample solves ln u(e^x) = ln(beta) in x = ln(gamma) by
    `bep_analysis.newton_lockstep`, started at the largest single-term root
    (`UnionBound.gamma_lower`), a lower bracket that one bound evaluation
    checks. Where rounding, or the absence of such a term, fails that
    check, the lower bracket is grown down from 1e-9 by factors of 10. The
    upper bracket grows up from 10 times the lower by factors of 10. A
    sample is done when a Newton step moves it by at most 1e-9, or when its
    bracket is narrower than 1e-9; its root is that last iterate. Samples
    never mix: each keeps its own bracket, iterate, count and final step,
    and all run in lockstep.
    """
    bound = union_bound("qam", order)
    norm_sq, beta = estimate.norm_sq, bep_threshold
    acf = np.asarray(acf, dtype=np.float64)
    infeasible = bound.floor(norm_sq, acf) >= beta
    if infeasible.any():
        raise InfeasibleCsiError(
            f"{order}-QAM cannot reach {beta:g} at "
            f"C={acf[infeasible][0]:.6f} for any power")

    lo = bound.gamma_lower(norm_sq, acf, beta)
    grow = (lo <= 0.0) | (bound.u(norm_sq, acf, lo) <= beta)
    lo[grow] = 1e-8
    while grow.any():
        lo[grow] /= 10.0
        if np.any(lo[grow] < 1e-30):
            raise DivergenceError("no lower bracket for the QAM root")
        grow[grow] = bound.u(norm_sq, acf[grow], lo[grow]) <= beta
    hi = 10.0 * lo
    grow = bound.u(norm_sq, acf, hi) > beta
    while grow.any():
        hi[grow] *= 10.0
        if np.any(hi[grow] > 1e30):
            raise DivergenceError("no upper bracket for the QAM root")
        grow[grow] = bound.u(norm_sq, acf[grow], hi[grow]) > beta

    x_lo = np.log(lo)
    roots = newton_lockstep(
        lambda live, x: bound.u_and_slope(norm_sq, acf[live], np.exp(x)),
        beta, x_lo, x_lo, np.log(hi), _LN_TOL)
    return _QamRoots(np.exp(roots.root), roots.iterations, roots.newton)


def min_snr_qam(order: int, estimate: ChannelEstimate, acf_value: float,
                bep_threshold: float, details: bool = False):
    """Minimum SNR driving the M-QAM union bound to the threshold.

    Safeguarded Newton on ln(gamma) from the largest SNR at which one term
    of the bound alone equals the threshold, bisecting whenever the Newton
    step leaves the bracket that holds the root. Raises InfeasibleCsiError when even infinite power cannot meet the
    threshold (the bound's C-limited floor is too high), and ValueError
    for a non-finite ACF value or threshold. This is the one-sample case
    of the batched solve behind min_power_schedule.

    With details=True returns QamRootInfo(gamma_min, iterations, method):
    the number of Newton iterations (bound evaluations after the bracket is
    set up), and "newton" or "bisection" for the kind of the final step.
    """
    require_finite(acf_value=acf_value, bep_threshold=bep_threshold)
    if order == 2:
        raise SchemeError("order-2 QAM is BPSK; use min_snr_psk(2, ...)")
    roots = _solve_qam(order, estimate, np.array([acf_value]), bep_threshold)
    gamma = float(roots.gamma_min[0])
    if details:
        return QamRootInfo(gamma, int(roots.iterations[0]),
                           "newton" if roots.newton[0] else "bisection")
    return gamma


class PowerSample(NamedTuple):
    t: float
    rate: int
    order: int
    acf_value: float
    gamma_min_db: float
    p_min_dbm: float
    clamped: bool


@dataclass(frozen=True, eq=False)
class PowerSchedule:
    """Per-instant minimum power along one rate schedule, as NumPy columns
    with one entry per sample (the order is 1 << rate). The column arrays
    are made read-only."""

    scheme: str
    sample_dt: float
    p_max_dbm: float
    t: np.ndarray
    rate: np.ndarray
    acf_value: np.ndarray
    gamma_min_db: np.ndarray
    p_min_dbm: np.ndarray
    clamped: np.ndarray

    def __post_init__(self):
        for col in (self.t, self.rate, self.acf_value, self.gamma_min_db,
                    self.p_min_dbm, self.clamped):
            col.flags.writeable = False  # shared by every reader of the trace

    @cached_property
    def samples(self) -> tuple[PowerSample, ...]:
        """The trace as PowerSample rows, built on first use."""
        return tuple(map(PowerSample._make, zip(
            self.t.tolist(), self.rate.tolist(), (1 << self.rate).tolist(),
            self.acf_value.tolist(), self.gamma_min_db.tolist(),
            self.p_min_dbm.tolist(), self.clamped.tolist())))


def min_power_schedule(schedule: RateSchedule, estimate: ChannelEstimate,
                       scenario: LinkScenario, wobble: WobbleParams,
                       sample_dt: float = 1e-5) -> PowerSchedule:
    """Minimum transmit power at each sample of the transmitting interval.

    P_min[dBm] = gamma_min[dB] + P_L[dB] + N_0[dBm], clamped to the power
    cap with a flag. The samples of each rate region are solved together
    (QAM: one batched root solve; PSK: one array call of the closed form). The
    solvers cannot legitimately fail inside a region (the schedule
    guarantees feasibility up to each t_n), so an infeasible sample raises
    ScheduleError.
    """
    if sample_dt <= 0:
        raise ValueError("sample_dt must be positive")
    t, rate = sample_grid(schedule, sample_dt)
    acf = temporal_acf(wobble, t - schedule.t_estimate)
    beta = scenario.bep_threshold
    gamma = np.empty(t.size)
    for r in np.unique(rate).tolist():
        region = rate == r
        order = 1 << r
        try:
            if schedule.scheme == "psk" or order == 2:
                gamma[region] = min_snr_psk(order, estimate, acf[region], beta)
            else:
                gamma[region] = _solve_qam(order, estimate, acf[region],
                                           beta).gamma_min
        except InfeasibleCsiError as exc:
            raise ScheduleError(
                f"power infeasible inside rate-{r} region ({exc}); "
                "schedule and threshold disagree") from exc
    gamma_db = 10.0 * np.log10(gamma)
    p = gamma_db + path_loss_db(scenario) + noise_power_dbm(scenario)
    return PowerSchedule(schedule.scheme, sample_dt, scenario.p_max_dbm,
                         t, rate, acf, gamma_db,
                         np.minimum(p, scenario.p_max_dbm),
                         p > scenario.p_max_dbm)


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
