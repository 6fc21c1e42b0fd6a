"""Minimum-power policy that holds the rate schedule at the BEP threshold.

PSK inverts its closed-form BEP approximation directly. QAM has no closed
inverse, so the union bound is driven to the threshold with the
multiplicative Newton-Raphson update gamma * (u_m/beta)^(u_m/v_m); when
that update misbehaves (it has no global convergence guarantee) a
bisection on ln(gamma) over a verified bracket finishes the job.

The bound, its slope in ln(gamma) and its infinite-power floor come from
the one cached, grouped `bep_analysis.UnionBound`. The power trace solves
all QAM samples of a rate region in one batch, each sample running the
same algorithm as the scalar `min_snr_qam` (which is the one-sample case).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bep_analysis import q_inverse, union_bound
from .channel import ChannelEstimate, WobbleParams, temporal_acf
from .constellation import Constellation
from .errors import DivergenceError, InfeasibleCsiError, ScheduleError, SchemeError
from .rate_optimizer import RateSchedule, sample_grid
from .scenario import LinkScenario, noise_power_dbm, path_loss_db

__all__ = [
    "NewtonIterate",
    "QamRootInfo",
    "PowerSample",
    "PowerSchedule",
    "EnergySavings",
    "min_snr_psk",
    "evaluate_iterate",
    "newton_step",
    "min_snr_qam",
    "min_power_schedule",
    "energy_savings",
]

_GAMMA_INIT = 1000.0  # 30 dB: where the QAM root search starts
_LN_TOL = 1e-9  # convergence tolerance on ln(gamma)
_MAX_ITER = 100
_LN_GAMMA_LIMIT = math.log(1e15)  # leaving this range counts as divergence


@dataclass(frozen=True)
class NewtonIterate:
    """State of the QAM root search at one gamma.

    u_m and v_m are the union-bound value and its negated log-log slope at
    gamma_re; lam and psi are the pairwise numerator factors
    ||h C||^2 |s_m - s_mhat|^2 and the per-symbol denominator factors
    2 (1 - C^2) |s_m|^2 (gamma-independent).
    """

    gamma_re: float
    u_m: float
    v_m: float
    lam: np.ndarray
    psi: np.ndarray


class QamRootInfo(NamedTuple):
    gamma_min: float
    iterations: int
    method: str  # "newton" or "bisection"


def min_snr_psk(order: int, estimate: ChannelEstimate, acf_value,
                bep_threshold: float):
    """Closed-form minimum SNR for M-PSK at one ACF value or an array of them.

    Inverts the signal-space BEP approximation elementwise; a scalar
    `acf_value` gives a float. Raises InfeasibleCsiError when a denominator
    is non-positive: no finite power reaches the threshold at that CSI
    quality, so the schedule must have switched down already.
    """
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


def _newton_target(gamma, u, v, bep_threshold: float):
    """ln of the multiplicative update gamma * (u/beta)^(u/v), elementwise.

    NaN where the state is degenerate (u or v non-finite or non-positive)
    or the update leaves the usable SNR range: the divergence tests.
    """
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    with np.errstate(all="ignore"):
        ln_next = np.log(gamma) + u / v * (np.log(u) - math.log(bep_threshold))
        ok = (np.isfinite(u) & np.isfinite(v) & (u > 0.0) & (v > 0.0)
              & np.isfinite(ln_next) & (np.abs(ln_next) <= _LN_GAMMA_LIMIT))
    return np.where(ok, ln_next, np.nan)


def evaluate_iterate(gamma: float, estimate: ChannelEstimate,
                     acf_value: float, c: Constellation) -> NewtonIterate:
    """NewtonIterate with u_m, v_m, lam, psi all evaluated at `gamma`."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    pts = c.points
    hc_sq = estimate.norm_sq * acf_value * acf_value
    lam = hc_sq * np.abs(pts[:, None] - pts[None, :]) ** 2
    psi = 2.0 * (1.0 - acf_value * acf_value) * np.abs(pts) ** 2
    u, v = union_bound(c.scheme, c.order).u_and_slope(estimate.norm_sq,
                                                      acf_value, gamma)
    return NewtonIterate(gamma, u, v, lam, psi)


def newton_step(estimate: ChannelEstimate, acf_value: float,
                bep_threshold: float, iterate: NewtonIterate,
                c: Constellation) -> NewtonIterate:
    """One multiplicative update gamma * (u_m/beta)^(u_m/v_m).

    Computed in the log domain; a degenerate state or a non-finite or
    out-of-range update raises DivergenceError. The returned iterate is
    re-evaluated at the new gamma, so u_m = beta is a fixed point.
    """
    it = iterate
    ln_next = float(_newton_target(it.gamma_re, it.u_m, it.v_m, bep_threshold))
    if math.isnan(ln_next):
        raise DivergenceError(
            f"Newton update diverged at gamma={it.gamma_re:.6g} "
            f"(u={it.u_m:.3g}, v={it.v_m:.3g})")
    return evaluate_iterate(math.exp(ln_next), estimate, acf_value, c)


class _QamRoots(NamedTuple):
    gamma_min: np.ndarray
    iterations: np.ndarray
    newton: np.ndarray  # True where Newton converged, False: bisection


def _solve_qam(order: int, estimate: ChannelEstimate, acf: np.ndarray,
               bep_threshold: float,
               gamma_init: float = _GAMMA_INIT) -> _QamRoots:
    """Minimum SNR of every sample in `acf` at once, one sample's algorithm
    applied elementwise.

    Each sample runs multiplicative Newton from gamma_init until
    |d ln gamma| <= 1e-9; if it diverges or has not converged after 100
    steps it falls back to bisection on ln(gamma) over a bracket grown by
    factors of 10 around the target. Samples never mix: each keeps its own
    iterate, iteration count and method.
    """
    bound = union_bound("qam", order)
    norm_sq, beta = estimate.norm_sq, bep_threshold
    acf = np.asarray(acf, dtype=np.float64)
    infeasible = bound.floor(norm_sq, acf) >= beta
    if infeasible.any():
        raise InfeasibleCsiError(
            f"{order}-QAM cannot reach {beta:g} at "
            f"C={acf[infeasible][0]:.6f} for any power")

    n = acf.size
    gamma = np.full(n, float(gamma_init))
    u, v = bound.u_and_slope(norm_sq, acf, gamma)
    iterations = np.zeros(n, dtype=np.int64)
    newton = np.zeros(n, dtype=bool)
    out = np.empty(n)
    live = np.arange(n)  # samples still in the Newton phase
    for _ in range(_MAX_ITER):
        if live.size == 0:
            break
        ln_next = _newton_target(gamma[live], u[live], v[live], beta)
        ok = ~np.isnan(ln_next)  # the rest diverged: bisection
        live, ln_next = live[ok], ln_next[ok]
        g_next = np.exp(ln_next)
        u[live], v[live] = bound.u_and_slope(norm_sq, acf[live], g_next)
        iterations[live] += 1
        done = np.abs(np.log(g_next) - np.log(gamma[live])) <= _LN_TOL
        gamma[live] = g_next
        out[live[done]] = g_next[done]
        newton[live[done]] = True
        live = live[~done]

    rest = np.flatnonzero(~newton)
    if rest.size:
        out[rest], steps = _bisect_ln_gamma(bound, norm_sq, acf[rest], beta,
                                            gamma_init)
        iterations[rest] += steps
    return _QamRoots(out, iterations, newton)


def _bisect_ln_gamma(bound, norm_sq: float, acf: np.ndarray, beta: float,
                     gamma_init: float):
    """Bisection on ln(gamma) per sample; returns (roots, steps taken).

    u is decreasing in gamma: each bracket [lo, hi] has u(lo) > beta > u(hi).
    """
    hi = np.full(acf.size, max(gamma_init, 1.0))
    grow = bound.u(norm_sq, acf, hi) >= beta
    while grow.any():
        hi[grow] *= 10.0
        if np.any(hi[grow] > 1e30):
            raise DivergenceError("no upper bracket for the QAM root")
        grow[grow] = bound.u(norm_sq, acf[grow], hi[grow]) >= beta
    lo = np.full(acf.size, min(gamma_init, 1e-9))
    grow = bound.u(norm_sq, acf, lo) <= beta
    while grow.any():
        lo[grow] /= 10.0
        if np.any(lo[grow] < 1e-30):
            raise DivergenceError("no lower bracket for the QAM root")
        grow[grow] = bound.u(norm_sq, acf[grow], lo[grow]) <= beta

    ln_lo, ln_hi = np.log(lo), np.log(hi)
    steps = np.zeros(acf.size, dtype=np.int64)
    live = np.flatnonzero(ln_hi - ln_lo > _LN_TOL)
    while live.size:
        mid = 0.5 * (ln_lo[live] + ln_hi[live])
        steps[live] += 1
        above = bound.u(norm_sq, acf[live], np.exp(mid)) > beta
        ln_lo[live[above]] = mid[above]
        ln_hi[live[~above]] = mid[~above]
        live = live[ln_hi[live] - ln_lo[live] > _LN_TOL]
    return np.exp(0.5 * (ln_lo + ln_hi)), steps


def min_snr_qam(order: int, estimate: ChannelEstimate, acf_value: float,
                bep_threshold: float, gamma_init: float = _GAMMA_INIT,
                details: bool = False):
    """Minimum SNR driving the M-QAM union bound to the threshold.

    Newton-Raphson from `gamma_init` (default 30 dB); on divergence or
    non-convergence, bisection on ln(gamma) over a bracket grown around
    the target. Raises InfeasibleCsiError when even infinite power cannot
    meet the threshold (the bound's C-limited floor is too high). This is
    the one-sample case of the batched solve behind min_power_schedule.

    With details=True returns QamRootInfo(gamma_min, iterations, method).
    """
    if order == 2:
        raise SchemeError("order-2 QAM is BPSK; use min_snr_psk(2, ...)")
    roots = _solve_qam(order, estimate, np.array([acf_value]), bep_threshold,
                       gamma_init)
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


@dataclass(frozen=True)
class PowerSchedule:
    """Per-instant minimum power along one rate schedule."""

    scheme: str
    samples: tuple[PowerSample, ...]
    sample_dt: float
    p_max_dbm: float


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
    if schedule.is_empty:
        return PowerSchedule(schedule.scheme, (), sample_dt,
                             scenario.p_max_dbm)
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
    clamped = p > scenario.p_max_dbm
    p_min = np.minimum(p, scenario.p_max_dbm)
    samples = tuple(map(PowerSample._make, zip(
        t.tolist(), rate.tolist(), (1 << rate).tolist(), acf.tolist(),
        gamma_db.tolist(), p_min.tolist(), clamped.tolist())))
    return PowerSchedule(schedule.scheme, samples, sample_dt,
                         scenario.p_max_dbm)


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
    ts = np.array([s.t for s in power.samples])
    eps = 1e-9 * power.sample_dt
    mask = (ts > t_a + eps) & (ts <= t_b + eps)
    if mask.sum() < 2:
        raise ValueError("window must contain at least two power samples")
    p_dbm = np.array([s.p_min_dbm for s in power.samples])[mask]
    lin = 10.0 ** (p_dbm / 10.0)  # mW
    mean_lin = float((0.5 * (lin[0] + lin[-1]) + lin[1:-1].sum())
                     / (lin.size - 1))
    base_lin = 10.0 ** (p_baseline_dbm / 10.0)
    return EnergySavings(
        savings_percent=(1.0 - mean_lin / base_lin) * 100.0,
        mean_power_dbm=10.0 * math.log10(mean_lin),
        n_samples=int(mask.sum()),
    )
