"""Minimum-power policy that holds the rate schedule at the BEP threshold.

PSK inverts its closed-form BEP approximation directly. QAM has no closed
inverse, so the union bound is driven to the threshold by the package's one
safeguarded Newton solve, `lockstep.newton_lockstep`, in
x = ln(gamma): the Newton step of f(x) = ln u(e^x) - ln(beta), which is
the multiplicative update gamma * (u/beta)^(u/v), is taken while it stays
inside a bracket that holds the root, and the bracket is bisected
otherwise. That bracket starts open, (-inf, +inf); each evaluation moves
one of its ends to the iterate. Each sample starts at a closed-form lower
bracket, the larger of two single-term roots: the largest SNR at which one
term of the bound alone equals beta, and the smallest at which one term
carrying the bound's whole weight does.

The bound, its slope in ln(gamma), its infinite-power floor and that start
come from the one cached, grouped `bep_analysis.UnionBound`, evaluated by
`bep_analysis.union_bound_rows` with each sample's own order. The power
trace solves all QAM samples of every rate region in one batch, each
sample running the same algorithm as the scalar `min_snr_qam` (which is
the one-sample case); the PSK closed form takes one call per region.

This module alone decides which BEP model a power trace meets: PSK
inverts `psk_bep_approx` and QAM the UUB, and `bep_at_pmin` evaluates
that same model at the emitted power.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bep_analysis import (
    UnionBound,
    psk_bep_approx,
    q_inverse,
    union_bound_rows,
)
from .channel import ChannelEstimate, WobbleParams, temporal_acf
from .errors import (
    InfeasibleCsiError,
    ScheduleError,
    SchemeError,
    require_finite,
)
from .lockstep import LockstepRoots, newton_lockstep
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
    "bep_at_pmin",
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


def _solve_qam(order, estimate: ChannelEstimate, acf,
               bep_threshold: float) -> LockstepRoots:
    """Minimum SNR of every sample in `acf` at once, by safeguarded Newton;
    `order` is one order for all samples or one per sample.

    Each sample solves ln u(e^x) = ln(beta) in x = ln(gamma), with its own
    order's bound, by `lockstep.newton_lockstep` on the open bracket
    (-inf, +inf), started at the closed-form lower bracket
    `UnionBound.gamma_lower`. The ends hold as limits: u(0) = W/2 > beta,
    with W the bound's whole weight, and u(inf) is the floor, checked below
    beta first. A sample is done when a Newton step moves it by at most
    1e-9, or when its bracket is narrower than 1e-9; its root is that last
    iterate. Samples never mix: each keeps its own bracket, iterate, count
    and final step, and all run in lockstep, whatever their orders. Returns
    the roots in gamma. Raises InfeasibleCsiError naming the lowest order
    whose floor does not fall below beta at some sample.
    """
    norm_sq, beta = estimate.norm_sq, bep_threshold
    order, acf = np.broadcast_arrays(np.asarray(order, dtype=np.int64),
                                     np.asarray(acf, dtype=np.float64))
    infeasible = np.flatnonzero(
        union_bound_rows("qam", order, UnionBound.floor, norm_sq,
                         acf)[0] >= beta)
    if infeasible.size:
        k = infeasible[np.argmin(order[infeasible])]
        raise InfeasibleCsiError(
            f"{order[k]}-QAM cannot reach {beta:g} at C={acf[k]:.6f} for "
            "any power", order=int(order[k]))
    roots = newton_lockstep(
        lambda live, x: union_bound_rows("qam", order[live],
                                         UnionBound.u_and_slope, norm_sq,
                                         acf[live], np.exp(x)),
        beta, np.log(union_bound_rows("qam", order, UnionBound.gamma_lower,
                                      norm_sq, acf, beta)[0]),
        -np.inf, np.inf, _LN_TOL)
    return roots._replace(root=np.exp(roots.root))


def min_snr_qam(order: int, estimate: ChannelEstimate, acf_value: float,
                bep_threshold: float, details: bool = False):
    """Minimum SNR driving the M-QAM union bound to the threshold.

    Safeguarded Newton on ln(gamma) from the closed-form lower bracket
    `UnionBound.gamma_lower`, on an open bracket that each evaluation
    narrows, bisecting whenever the Newton step leaves it. Raises
    InfeasibleCsiError when even infinite power cannot meet the threshold
    (the bound's C-limited floor is too high), and ValueError for a
    non-finite ACF value or threshold. This is the one-sample case of the
    batched solve behind min_power_schedule.

    With details=True returns QamRootInfo(gamma_min, iterations, method):
    the number of Newton iterations (bound evaluations), and "newton" or
    "bisection" for the kind of the final step.
    """
    require_finite(acf_value=acf_value, bep_threshold=bep_threshold)
    if order == 2:
        raise SchemeError("order-2 QAM is BPSK; use min_snr_psk(2, ...)")
    roots = _solve_qam(order, estimate, np.array([acf_value]), bep_threshold)
    gamma = float(roots.root[0])
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
    cap with a flag. All QAM samples are solved in one batched root solve,
    each with its own order; the PSK closed form (and QAM's BPSK region)
    takes one array call per rate region. The solvers cannot legitimately
    fail inside a region (the schedule guarantees feasibility up to each
    t_n), so an infeasible sample raises ScheduleError naming the lowest
    rate that fails.
    """
    if sample_dt <= 0:
        raise ValueError("sample_dt must be positive")
    t, rate = sample_grid(schedule, sample_dt)
    acf = temporal_acf(wobble, t - schedule.t_estimate)
    beta = scenario.bep_threshold
    gamma = np.empty(t.size)
    # the PSK closed form, on every PSK region and on QAM's BPSK region,
    # takes one order per call; all QAM samples are one batched solve, and
    # the lowest rate fails first either way
    closed = rate == 1 if schedule.scheme == "qam" else np.ones(t.size, bool)
    for r in np.unique(rate[closed]).tolist():
        region = rate == r
        try:
            gamma[region] = min_snr_psk(1 << r, estimate, acf[region], beta)
        except InfeasibleCsiError as exc:
            raise _region_infeasible(r, exc) from exc
    if not closed.all():
        qam = ~closed
        try:
            gamma[qam] = _solve_qam(1 << rate[qam], estimate, acf[qam],
                                    beta).root
        except InfeasibleCsiError as exc:
            raise _region_infeasible(exc.order.bit_length() - 1,
                                     exc) from exc
    gamma_db = 10.0 * np.log10(gamma)
    p = gamma_db + path_loss_db(scenario) + noise_power_dbm(scenario)
    return PowerSchedule(schedule.scheme, sample_dt, scenario.p_max_dbm,
                         t, rate, acf, gamma_db,
                         np.minimum(p, scenario.p_max_dbm),
                         p > scenario.p_max_dbm)


def bep_at_pmin(power: PowerSchedule, estimate: ChannelEstimate,
                scenario: LinkScenario) -> np.ndarray:
    """BEP at each sample's emitted power, under the model the trace meets.

    The emitted SNR comes from the clamped p_min_dbm through the link
    budget. PSK traces evaluate `psk_bep_approx`, the model their power
    inverts, one order per call. QAM traces evaluate the UUB clamped to 1
    in one call over every sample's own order; on the BPSK region, whose
    power takes the PSK closed form, the two coincide.
    """
    pl = path_loss_db(scenario)
    n0 = noise_power_dbm(scenario)
    gamma = 10.0 ** ((power.p_min_dbm - pl - n0) / 10.0)
    if power.scheme == "qam":
        return np.minimum(union_bound_rows("qam", 1 << power.rate,
                                           UnionBound.u, estimate.norm_sq,
                                           power.acf_value, gamma)[0], 1.0)
    out = np.empty(power.acf_value.shape)
    for r in np.unique(power.rate).tolist():
        region = power.rate == r
        out[region] = psk_bep_approx(1 << r, estimate,
                                     power.acf_value[region], gamma[region])
    return out


def _region_infeasible(rate: int, exc: InfeasibleCsiError) -> ScheduleError:
    return ScheduleError(f"power infeasible inside rate-{rate} region "
                         f"({exc}); schedule and threshold disagree")


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
