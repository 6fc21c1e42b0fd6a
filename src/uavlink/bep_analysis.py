"""Closed-form BEP machinery for imperfect CSI.

The central object is the Hamming-weighted union upper bound (UUB) on the
bit-error probability. Its pairwise terms are the exact pairwise errors of
the sub-optimum (nearest-reference) detector, so it bounds that detector;
on PSK the SO rule equals ML decision for decision, so there it also
bounds ML. The bound has one implementation, `UnionBound`: built once per
constellation and cached by (scheme, order) in `union_bound`, with the M^2
pairwise terms grouped by their distinct squared distances, and evaluated
over arrays of (C, gamma). Its value, its slope in ln(gamma) and its
infinite-power floor serve `uub`, the CSI threshold inversion and maximum
feasible modulation order here (both over arrays of (SNR, threshold)
cells, the inversion as one lockstep bisection), and the batched QAM power
solve in power_control. Around it sit the pairwise error probability and the
Gray-mapping PSK approximation.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .channel import ChannelEstimate
from .constellation import (
    SUPPORTED_ORDERS,
    Constellation,
    constellation_for,
    hamming_matrix,
)
from .errors import (
    InfeasibleRateError,
    MonotonicityError,
    SchemeError,
    require_finite,
)

__all__ = [
    "q_function",
    "q_inverse",
    "BepContext",
    "UubBound",
    "UnionBound",
    "union_bound",
    "pep",
    "uub",
    "psk_bep_approx",
    "min_acf_for_rate",
    "max_modulation_order",
]

# bisection tolerances for the threshold inversion
_C_ABS_TOL = 1e-12
_BEP_REL_TOL = 1e-8
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def q_function(x):
    """Upper-tail standard normal probability Q(x)."""
    return ndtr(-np.asarray(x, dtype=np.float64)) if np.ndim(x) else float(ndtr(-x))


def q_inverse(p: float) -> float:
    """Inverse of q_function on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_inverse domain is (0, 1), got {p}")
    return float(-ndtri(p))


@dataclass(frozen=True)
class BepContext:
    """Everything the closed-form BEP expressions need at one time instant."""

    estimate: ChannelEstimate
    acf_value: float
    snr_linear: float
    constellation: Constellation

    def __post_init__(self):
        if not 0.0 <= self.acf_value <= 1.0:
            raise ValueError("acf_value must lie in [0, 1]")
        if self.snr_linear <= 0:
            raise ValueError("snr_linear must be positive")


@dataclass(frozen=True)
class UubBound:
    """Union bound value, clamped to [0, 1], with the raw sum kept around.

    The raw double sum can exceed 1 at low SNR; that regime is flagged via
    is_loose so downstream code can tell a vacuous bound from a tight one.
    """

    value: float
    raw: float

    @property
    def is_loose(self) -> bool:
        return self.raw > 1.0

    def __float__(self) -> float:
        return self.value


def _pep_argument(gamma, acf, norm_sq, d_sq, s_sq):
    """Q-function argument of the pairwise error probability, sqrt(A), and
    the denominator of A.

    A = gamma * C^2 * ||h||^2 * |s_m - s_mhat|^2 / den with
    den = 2 * gamma * (1 - C^2) * |s_m|^2 + 2 (|s_m|^2 is the transmitted
    symbol's energy). C is taken out of the square root, so a tiny C does
    not underflow A. Broadcasts.
    """
    den = 2.0 * gamma * (1.0 - acf * acf) * s_sq + 2.0
    return acf * np.sqrt(gamma * norm_sq * d_sq / den), den


def pep(m: int, m_hat: int, ctx: BepContext) -> float:
    """Pairwise error probability of deciding s_mhat when s_m was sent.

    Indices are 0-based positions in the constellation.
    """
    pts = ctx.constellation.points
    arg, _ = _pep_argument(ctx.snr_linear, ctx.acf_value, ctx.estimate.norm_sq,
                           abs(pts[m] - pts[m_hat]) ** 2, abs(pts[m]) ** 2)
    return float(q_function(arg))


# pairwise terms evaluated per block, bounding the (points x terms)
# temporaries of a long array of (C, gamma) points
_BLOCK_TERMS = 1 << 12


class UnionBound:
    """Hamming-weighted union bound of one constellation, as grouped terms.

    The M^2 pairwise terms N[m, mhat] Q(sqrt(arg(|s_m|^2, |s_m - s_mhat|^2)))
    depend on the pair only through the two squared distances, so pairs
    whose (|s_m|^2, |s_m - s_mhat|^2) agree up to rounding are merged into
    one term carrying their summed Hamming weight (each distance is the
    group's mean). 64-QAM keeps 224 terms of 4096, 64-PSK 32. Terms of zero
    weight, the diagonal among them, are dropped.

    Every method broadcasts over arrays of C and gamma; ||h||^2 is a scalar.
    Use `union_bound(scheme, order)` for the cached instance.
    """

    def __init__(self, c: Constellation):
        pts = c.points
        d_sq = (np.abs(pts[:, None] - pts[None, :]) ** 2).ravel()
        s_sq = np.repeat(np.abs(pts) ** 2, c.order)
        n_mat = hamming_matrix(c).ravel()
        key = np.stack([np.round(s_sq, 9), np.round(d_sq, 9)], axis=1)
        _, group = np.unique(key, axis=0, return_inverse=True)
        group = group.ravel()
        size = np.bincount(group)
        weight = np.bincount(group, weights=n_mat)
        keep = weight > 0
        self.order = c.order
        self.s_sq = (np.bincount(group, weights=s_sq) / size)[keep]
        self.d_sq = (np.bincount(group, weights=d_sq) / size)[keep]
        self.weight = weight[keep] / (c.order * c.bits_per_symbol)
        for a in (self.s_sq, self.d_sq, self.weight):
            a.flags.writeable = False  # shared by every caller of the cache

    @property
    def n_terms(self) -> int:
        return self.d_sq.size

    def _map(self, terms, norm_sq, acf, gamma) -> tuple:
        """Weighted sums over the grouped terms of each output of
        `terms(norm_sq, C, gamma)`: floats for scalar C and gamma, else
        arrays of their broadcast shape, evaluated in row blocks."""
        if np.ndim(acf) == 0 and np.ndim(gamma) == 0:
            return tuple(float(np.sum(self.weight * part))
                         for part in terms(norm_sq, float(acf), float(gamma)))
        shape = np.broadcast_shapes(np.shape(acf), np.shape(gamma))
        acf, gamma = (np.broadcast_to(np.asarray(x, dtype=np.float64),
                                      shape).reshape(-1, 1)
                      for x in (acf, gamma))
        rows = max(1, _BLOCK_TERMS // self.n_terms)
        blocks = [[np.sum(self.weight * part, axis=-1)
                   for part in terms(norm_sq, acf[lo:lo + rows],
                                     gamma[lo:lo + rows])]
                  for lo in range(0, max(len(acf), 1), rows)]
        return tuple(np.concatenate(out).reshape(shape)
                     for out in zip(*blocks))

    def _u_terms(self, norm_sq, acf, gamma):
        arg, _ = _pep_argument(gamma, acf, norm_sq, self.d_sq, self.s_sq)
        return (q_function(arg),)

    def _uv_terms(self, norm_sq, acf, gamma):
        # d Q(sqrt(A)) / d ln(gamma) = -phi(sqrt(A)) sqrt(A) / den
        arg, den = _pep_argument(gamma, acf, norm_sq, self.d_sq, self.s_sq)
        return (q_function(arg),
                np.exp(-0.5 * arg * arg) * arg / (_SQRT_2PI * den))

    def _floor_terms(self, norm_sq, acf, _gamma):
        # gamma -> infinity: A -> C^2 ||h||^2 |ds|^2 / (2 (1 - C^2) |s|^2),
        # which is infinite (Q = 0) at C = 1
        with np.errstate(divide="ignore"):
            arg = acf * np.sqrt(norm_sq * self.d_sq
                                / (2.0 * (1.0 - acf * acf) * self.s_sq))
        return (q_function(arg),)

    def u(self, norm_sq: float, acf, gamma):
        """Raw union bound (may exceed 1 at low SNR)."""
        return self._map(self._u_terms, norm_sq, acf, gamma)[0]

    def u_and_slope(self, norm_sq: float, acf, gamma):
        """(u, v): the raw bound and its slope v = -du/d ln(gamma) >= 0."""
        return self._map(self._uv_terms, norm_sq, acf, gamma)

    def floor(self, norm_sq: float, acf):
        """Infinite-power limit of the bound, set by the CSI quality C."""
        return self._map(self._floor_terms, norm_sq, acf, 1.0)[0]


@functools.lru_cache(maxsize=None)
def union_bound(scheme: str, order: int) -> UnionBound:
    """The cached UnionBound of constellation_for(scheme, order)."""
    return UnionBound(constellation_for(scheme, order))


def _uub_raw(ctx: BepContext) -> float:
    c = ctx.constellation
    return union_bound(c.scheme, c.order).u(ctx.estimate.norm_sq,
                                            ctx.acf_value, ctx.snr_linear)


def uub(ctx: BepContext) -> UubBound:
    """Union upper bound on the BEP (Hamming-weighted PEP sum).

    The pairwise terms are those of the sub-optimum (nearest-reference)
    rule, which equals ML on PSK.
    """
    raw = _uub_raw(ctx)
    return UubBound(min(raw, 1.0), raw)


def psk_bep_approx(order: int, estimate: ChannelEstimate, acf_value,
                   snr_linear):
    """Gray-mapping signal-space BEP approximation for M-PSK.

    BPSK keeps the exact two-point expression; for M > 2 only the two
    nearest neighbours of each point contribute, giving
    (2/log2 M) * Q(sqrt(||h C||^2 gamma (1 - cos(2 pi/M)) / (gamma(1-C^2)+1))).
    C and gamma broadcast as arrays; scalars give a float.
    """
    if order not in SUPPORTED_ORDERS:
        raise SchemeError(f"unsupported PSK order {order}")
    g = np.asarray(snr_linear, dtype=np.float64)
    c = np.asarray(acf_value, dtype=np.float64)
    hc_sq = estimate.norm_sq * c * c
    den = g * (1.0 - c * c) + 1.0
    if order == 2:
        bep = q_function(np.sqrt(2.0 * g * hc_sq / den))
    else:
        bits = order.bit_length() - 1
        num = g * hc_sq * (1.0 - np.cos(2.0 * np.pi / order))
        bep = 2.0 / bits * q_function(np.sqrt(num / den))
    return float(bep) if np.ndim(bep) == 0 else bep


def _cells(snr_linear, bep_threshold) -> tuple:
    """(gamma, beta) broadcast to one shape of cells; scalars stay 0-d, so
    a one-cell call keeps UnionBound's scalar path."""
    return np.broadcast_arrays(np.asarray(snr_linear, dtype=np.float64),
                               np.asarray(bep_threshold, dtype=np.float64))


def _assert_monotone_in_c(bound: UnionBound, norm_sq: float, gamma,
                          n_grid: int = 33) -> None:
    """The threshold bisection needs the UUB non-increasing in C: checked
    on an n_grid-point C grid at each distinct gamma, in one bound call."""
    gamma = np.unique(gamma)
    vals = bound.u(norm_sq, np.linspace(0.0, 1.0, n_grid)[:, None], gamma)
    diffs = np.diff(vals, axis=0)
    # allow FP jitter at the flat ends of the curve
    bad = np.any(diffs > 1e-12 + 1e-9 * np.abs(vals[:-1]), axis=0)
    if np.any(bad):
        raise MonotonicityError(
            f"UUB is not non-increasing in C for order "
            f"{bound.order} at snr={gamma[bad][0]:.6g}")


def min_acf_for_rate(rate_n: int, estimate: ChannelEstimate, snr_linear,
                     scheme: str, bep_threshold):
    """Smallest ACF value C_n at which rate n still meets the threshold.

    Solves uub(C) = bep_threshold by bisection on C in [0, 1] (the
    dichotomy method). snr_linear and bep_threshold broadcast to an array
    of cells, which are bisected in lockstep: every bracket starts as
    [0, 1] and halves exactly, so all cells take the same steps. Scalars
    give a float. Raises InfeasibleRateError when even perfect CSI
    (C = 1) violates the threshold in some cell, and ValueError for a
    non-finite SNR or threshold.
    """
    require_finite(snr_linear=snr_linear, bep_threshold=bep_threshold)
    if rate_n < 1:
        raise ValueError("rate_n must be at least 1")
    bound = union_bound(scheme, 2 ** rate_n)
    norm_sq = estimate.norm_sq
    gamma, beta = _cells(snr_linear, bep_threshold)
    _assert_monotone_in_c(bound, norm_sq, gamma)

    def f(acf):
        return bound.u(norm_sq, acf, gamma) - beta

    infeasible = f(1.0) > 0.0
    if np.any(infeasible):
        raise InfeasibleRateError(
            f"rate {rate_n} ({scheme}) cannot meet {beta[infeasible][0]:g} "
            "even with perfect CSI")
    any_csi = f(0.0) <= 0.0
    lo, hi = np.zeros(gamma.shape), np.ones(gamma.shape)  # f(lo) > 0 >= f(hi)
    width = 1.0  # hi - lo in every cell, exactly
    while width > _C_ABS_TOL:
        mid = 0.5 * (lo + hi)
        up = f(mid) > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        width *= 0.5
    # where the bound is steep in C a 1e-12 bracket can still miss the
    # residual tolerance: keep halving those cells, down to float resolution
    lo_c, hi_c, gamma_c, beta_c = (np.reshape(x, -1)
                                   for x in (lo, hi, gamma, beta))
    tol = _BEP_REL_TOL * beta_c
    steep = np.flatnonzero(~any_csi
                           & (np.abs(f(hi)) > _BEP_REL_TOL * beta))
    while steep.size:
        l, h = lo_c[steep], hi_c[steep]
        mid = 0.5 * (l + h)
        if not np.all((l < mid) & (mid < h)):
            raise MonotonicityError(
                f"threshold inversion did not converge for rate {rate_n}")
        f_mid = bound.u(norm_sq, mid, gamma_c[steep]) - beta_c[steep]
        up = f_mid > 0.0
        lo_c[steep] = np.where(up, mid, l)
        hi_c[steep] = np.where(up, h, mid)
        # a cell whose hi moved is done once the residual there is met
        steep = steep[up | (-f_mid > tol[steep])]
    # hi is the feasible side
    out = np.where(any_csi, 0.0, hi_c.reshape(gamma.shape))
    return float(out) if out.ndim == 0 else out


def max_modulation_order(estimate: ChannelEstimate, snr_linear,
                         scheme: str, bep_threshold):
    """Largest supported order whose perfect-CSI UUB meets the threshold.

    Returns 0 when no order is feasible. R_max is log2 of the result.
    snr_linear and bep_threshold broadcast; scalars give an int. Raises
    ValueError for a non-finite SNR or threshold.
    """
    require_finite(snr_linear=snr_linear, bep_threshold=bep_threshold)
    gamma, beta = _cells(snr_linear, bep_threshold)
    best = np.zeros(gamma.shape, dtype=np.int64)
    for order in SUPPORTED_ORDERS:
        ok = union_bound(scheme, order).u(estimate.norm_sq, 1.0, gamma) <= beta
        best = np.where(ok, np.maximum(best, order), best)
    return int(best) if best.ndim == 0 else best
