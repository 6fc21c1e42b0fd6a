"""Minimum-power policy that holds the rate schedule at the BEP threshold.

`min_power_schedule` alone picks the BEP model each sample meets, inverts
it and evaluates it at the emitted power. PSK, and QAM's BPSK region,
invert the PSK closed form (`bep_analysis.min_snr_psk`). QAM has no closed
inverse, so the union bound is driven to the threshold by
the package's one safeguarded Newton solve, `lockstep.newton_lockstep`, in
x = ln(gamma): the Newton step of f(x) = ln u(e^x) - ln(beta), which is
the multiplicative update gamma * (u/beta)^(u/v), is taken while it stays
inside a bracket that holds the root, and the bracket is bisected
otherwise. That bracket starts open, (-inf, +inf); each evaluation moves
one of its ends to the iterate. The samples of an order with more than 24
samples start next to their roots, in PSK's variable
z^2 = gamma C^2 ||h||^2 / (2 gamma (1 - C^2) + 2), mapped to gamma in
closed form: 4-QAM at QPSK's root z* (its bound is QPSK's), 8- to 64-QAM
at a Chebyshev interpolant of z^2 in C. Every other sample starts at a
closed-form lower bracket, the larger of two single-term roots: the
largest SNR at which one term of the bound alone equals beta, and the
smallest at which one term carrying the bound's whole weight does.

The bound, its slope in ln(gamma), its infinite-power floor and that start
come from the one cached, grouped `bep_analysis.UnionBound`, evaluated by
`bep_analysis.union_bound_rows` with each sample's own order. The power
trace solves all QAM samples of every rate region in one batch
(`_solve_qam`), each sample with its own bracket, iterate and iteration
count.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bep_analysis import (
    UnionBound,
    _gamma_of_z,
    _psk_z_roots,
    _z_sq,
    min_snr_psk,
    psk_bep_approx,
    union_bound_rows,
)
from .channel import ChannelEstimate, WobbleParams, temporal_acf
from .errors import DivergenceError, InfeasibleCsiError, ScheduleError
from .lockstep import LockstepRoots, newton_lockstep
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

_LN_TOL = 1e-9  # convergence tolerance on ln(gamma)
# Chebyshev nodes per order of the 8- to 64-QAM starts; an order with at
# most this many samples starts at gamma_lower
_NODES = 24


def _ln_gamma_roots(order, norm_sq: float, acf, beta: float,
                    x) -> LockstepRoots:
    """The roots in x = ln(gamma) of u = beta at every (order, C) row, by
    `newton_lockstep` from x on the open bracket (-inf, +inf)."""
    return newton_lockstep(
        lambda live, x: union_bound_rows("qam", order[live],
                                         UnionBound.u_and_slope, norm_sq,
                                         acf[live], np.exp(x)),
        beta, x, -np.inf, np.inf, _LN_TOL)


def _chebyshev_z_sq(orders, order, norm_sq: float, acf, beta: float,
                    z_sq: np.ndarray) -> None:
    """Set `z_sq` at the samples (`order`, `acf`) of each order in `orders`
    to the barycentric interpolant in C of the root's z^2 (`_z_sq`)
    through _NODES Chebyshev points of the second kind spanning that
    order's C (Berrut & Trefethen, SIAM Review 46(3), 2004). The nodes'
    roots are solved for all orders by one lockstep call from
    `gamma_lower`; if one does not converge, `z_sq` is left as it is."""
    j = np.arange(_NODES)
    weight = np.where(j % 2, -1.0, 1.0)
    weight[[0, -1]] *= 0.5
    cos = np.cos(np.pi * j / (_NODES - 1))
    samples = [np.flatnonzero(order == m) for m in orders.tolist()]
    nodes = np.array([np.clip(0.5 * (lo + hi) + 0.5 * (hi - lo) * cos, lo, hi)
                      for lo, hi in ((acf[at].min(), acf[at].max())
                                     for at in samples)])
    node_order, node_acf = np.repeat(orders, _NODES), nodes.reshape(-1)
    try:
        x = _ln_gamma_roots(node_order, norm_sq, node_acf, beta, np.log(
            union_bound_rows("qam", node_order, UnionBound.gamma_lower,
                             norm_sq, node_acf, beta)[0])).root
    except DivergenceError:
        return
    values = _z_sq(norm_sq, node_acf, np.exp(x)).reshape(nodes.shape)
    for at, c, f in zip(samples, nodes, values):
        with np.errstate(divide="ignore", invalid="ignore"):
            q = weight / (acf[at, None] - c)
            z_sq[at] = (q @ f) / q.sum(axis=1)
        hit = np.isinf(q)  # a sample on a node takes the node's value
        on = hit.any(axis=1)
        z_sq[at[on]] = f[np.argmax(hit[on], axis=1)]


def _solve_qam(order, estimate: ChannelEstimate, acf,
               bep_threshold: float) -> LockstepRoots:
    """Minimum SNR of every sample in `acf` at once, by safeguarded Newton;
    `order` is one order for all samples or one per sample.

    Each sample solves ln u(e^x) = ln(beta) in x = ln(gamma), with its own
    order's bound, by `lockstep.newton_lockstep` on the open bracket
    (-inf, +inf). The ends hold as limits: u(0) = W/2 > beta, with W the
    bound's whole weight, and u(inf) is the floor, checked below beta
    first. A sample is done when a Newton step moves it by at most 1e-9,
    or when its bracket is narrower than 1e-9; its root is that last
    iterate. Samples never mix: each keeps its own bracket, iterate, count
    and final step, and all run in lockstep, whatever their orders.

    The samples of an order with more than _NODES (24) of them start next
    to their roots, at gamma = 2 z^2 / (C^2 ||h||^2 - 2 z^2 (1 - C^2))
    (`bep_analysis._gamma_of_z`, `_z_sq` inverted) for a z^2 that is
    nearly constant in C:
    - 4-QAM's bound equals QPSK's term for term, a function of z alone,
      so z = z*, QPSK's root (`bep_analysis._psk_z_roots`), and the start
      is the root up to rounding;
    - each 8- to 64-QAM order takes z^2 from its barycentric interpolant
      in C through 24 Chebyshev nodes spanning its samples' C, the
      nodes' roots solved for all orders by one lockstep call
      (`_chebyshev_z_sq`).
    Every other sample, and any whose start is not finite, starts at the
    closed-form lower bracket `UnionBound.gamma_lower`, as a one-sample
    call does. On the case1 and case2 traces, at sample spacings of
    4e-5 and 1e-5, every sample then takes 1 evaluation, where
    `gamma_lower` starts took 2 to 6.

    Returns the roots in gamma. Raises InfeasibleCsiError naming the
    lowest order whose floor does not fall below beta at some sample, and
    that order's first such sample; the floor is evaluated at each order's
    smallest C alone unless one fails.
    """
    norm_sq, beta = estimate.norm_sq, bep_threshold
    order, acf = np.broadcast_arrays(np.asarray(order, dtype=np.int64),
                                     np.asarray(acf, dtype=np.float64))
    order, acf = order.reshape(-1), acf.reshape(-1)
    # the floor falls as C rises, so an order's smallest C fails whenever
    # any of its samples does; only then is every sample checked
    orders, counts = np.unique(order, return_counts=True)
    lowest = [acf[order == m].min() for m in orders.tolist()]
    if np.any(union_bound_rows("qam", orders, UnionBound.floor, norm_sq,
                               lowest)[0] >= beta):
        infeasible = np.flatnonzero(
            union_bound_rows("qam", order, UnionBound.floor, norm_sq,
                             acf)[0] >= beta)
        k = infeasible[np.argmin(order[infeasible])]
        raise InfeasibleCsiError(
            f"{order[k]}-QAM cannot reach {beta:g} at C={acf[k]:.6f} for "
            "any power", order=int(order[k]))
    # the root's z^2 (`_z_sq`) where an order has many samples, else NaN
    z_sq = np.full(acf.size, np.nan)
    many = orders[counts > _NODES]
    if 4 in many:  # 4-QAM's bound is QPSK's, a function of z alone
        z_sq[order == 4] = _psk_z_roots(np.array([2]),
                                        np.array([beta]))[0] ** 2
    if np.any(many > 4):
        _chebyshev_z_sq(many[many > 4], order, norm_sq, acf, beta, z_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        starts = np.log(_gamma_of_z(norm_sq, acf, z_sq))
    lower = np.flatnonzero(~np.isfinite(starts))
    if lower.size:
        starts[lower] = np.log(union_bound_rows(
            "qam", order[lower], UnionBound.gamma_lower, norm_sq, acf[lower],
            beta)[0])
    roots = _ln_gamma_roots(order, norm_sq, acf, beta, starts)
    return roots._replace(root=np.exp(roots.root))


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
    cap with a flag. The PSK closed form takes every PSK sample and QAM's
    BPSK region in one call, the UUB every other QAM sample in one batched
    root solve, each sample with its own order. The solvers cannot
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
    solved = rate > 1 if qam else np.zeros(t.size, bool)
    closed = ~solved
    gamma = np.empty(t.size)
    try:  # the closed form holds the lowest rate, so it fails first
        gamma[closed] = min_snr_psk(order[closed], estimate, acf[closed], beta)
        if solved.any():
            gamma[solved] = _solve_qam(order[solved], estimate, acf[solved],
                                       beta).root
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
