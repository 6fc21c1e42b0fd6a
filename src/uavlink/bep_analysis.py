"""Closed-form BEP machinery for imperfect CSI.

The central object is the Hamming-weighted union upper bound (UUB) on the
bit-error probability. Its pairwise terms are the exact pairwise errors of
the sub-optimum (nearest-reference) detector, so it bounds that detector;
on PSK the SO rule equals ML decision for decision, so there it also
bounds ML. The bound has one implementation, `UnionBound`: built once per
constellation and cached by (scheme, order) in `union_bound`, with the M^2
pairwise terms grouped by their distinct squared distances, and evaluated
over arrays of (C, gamma). It serves `uub`, the maximum feasible
modulation order and the two inversions of the bound, each over arrays of
cells: the CSI threshold C_n here and the batched QAM power solve in
power_control. Both inversions start at a closed-form lower bracket, the
largest root of a single term (`UnionBound.acf_lower`, `gamma_lower`), and
are solved by one lockstep safeguarded Newton, `newton_lockstep`, on the
bound's value and slope (in C, `u_and_acf_slope`; in ln(gamma),
`u_and_slope`). Around it sit the pairwise error probability and the
Gray-mapping PSK approximation.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    DivergenceError,
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

# tolerances of the threshold inversion: bracket width in C and relative
# residual of the bound
_C_ABS_TOL = 1e-12
_BEP_REL_TOL = 1e-8
_MAX_ITER = 100  # of newton_lockstep
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


def _pep_ratio(gamma, acf, norm_sq, d_sq, s_sq):
    """(r, den): the Q-function argument of the pairwise error probability
    is sqrt(A) = C r, with den the denominator of A.

    A = gamma * C^2 * ||h||^2 * |s_m - s_mhat|^2 / den with
    den = 2 * gamma * (1 - C^2) * |s_m|^2 + 2 (|s_m|^2 is the transmitted
    symbol's energy). C is kept out of the square root, so a tiny C does
    not underflow A. Broadcasts.
    """
    den = 2.0 * gamma * (1.0 - acf * acf) * s_sq + 2.0
    return np.sqrt(gamma * norm_sq * d_sq / den), den


def pep(m: int, m_hat: int, ctx: BepContext) -> float:
    """Pairwise error probability of deciding s_mhat when s_m was sent.

    Indices are 0-based positions in the constellation.
    """
    pts = ctx.constellation.points
    r, _ = _pep_ratio(ctx.snr_linear, ctx.acf_value, ctx.estimate.norm_sq,
                      abs(pts[m] - pts[m_hat]) ** 2, abs(pts[m]) ** 2)
    return float(q_function(ctx.acf_value * r))


# pairwise terms evaluated per block, bounding the (points x terms)
# temporaries of a long array of (C, gamma) points
_BLOCK_TERMS = 1 << 14


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

    def _map(self, rows, norm_sq, a, b) -> tuple:
        """The outputs of `rows(norm_sq, a, b)`, each reduced over the
        terms: floats for scalar a and b, else arrays of their broadcast
        shape, with a and b passed as columns in blocks of rows."""
        if np.ndim(a) == 0 and np.ndim(b) == 0:
            return tuple(map(float, rows(norm_sq, float(a), float(b))))
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        a, b = (np.broadcast_to(np.asarray(x, dtype=np.float64),
                                shape).reshape(-1, 1) for x in (a, b))
        n = max(1, _BLOCK_TERMS // self.n_terms)
        blocks = [rows(norm_sq, a[lo:lo + n], b[lo:lo + n])
                  for lo in range(0, max(len(a), 1), n)]
        return tuple(np.concatenate(out).reshape(shape)
                     for out in zip(*blocks))

    def _sum(self, part):
        """Weighted sum over the terms (the last axis)."""
        return np.sum(self.weight * part, axis=-1)

    def _q_sq(self, beta):
        """Q^-1(beta / w)^2 for each term and each row's beta, 0 where
        beta / w >= 1/2 (a term at most w/2 never exceeds beta alone).
        ndtri runs once per distinct beta."""
        b, row = np.unique(beta, return_inverse=True)
        q = ndtri(np.minimum(b[:, None] / self.weight, 0.5))
        q_sq = q * q
        return q_sq[row.ravel()] if np.ndim(beta) else q_sq[0]

    def _u_rows(self, norm_sq, acf, gamma):
        r, _ = _pep_ratio(gamma, acf, norm_sq, self.d_sq, self.s_sq)
        return (self._sum(q_function(acf * r)),)

    def _uv_rows(self, norm_sq, acf, gamma):
        # d Q(C r) / d ln(gamma) = -phi(C r) C r / den
        r, den = _pep_ratio(gamma, acf, norm_sq, self.d_sq, self.s_sq)
        arg = acf * r
        return (self._sum(q_function(arg)),
                self._sum(np.exp(-0.5 * arg * arg) * arg / (_SQRT_2PI * den)))

    def _uw_rows(self, norm_sq, acf, gamma):
        # d Q(C r) / dC = -phi(C r) r (1 + 2 gamma C^2 |s|^2 / den)
        #               = -phi(C r) r (2 gamma |s|^2 + 2) / den
        r, den = _pep_ratio(gamma, acf, norm_sq, self.d_sq, self.s_sq)
        arg = acf * r
        return (self._sum(q_function(arg)),
                self._sum(np.exp(-0.5 * arg * arg) * r
                          * (2.0 * gamma * self.s_sq + 2.0)
                          / (_SQRT_2PI * den)))

    def _floor_rows(self, norm_sq, acf, _gamma):
        # gamma -> infinity: A -> C^2 ||h||^2 |ds|^2 / (2 (1 - C^2) |s|^2),
        # which is infinite (Q = 0) at C = 1
        with np.errstate(divide="ignore"):
            arg = acf * np.sqrt(norm_sq * self.d_sq
                                / (2.0 * (1.0 - acf * acf) * self.s_sq))
        return (self._sum(q_function(arg)),)

    def _acf_lower_rows(self, norm_sq, gamma, beta):
        # w Q(C r) = beta at C^2 = 2 q^2 (gamma |s|^2 + 1)
        #                          / (gamma ||h||^2 |ds|^2 + 2 q^2 gamma |s|^2)
        q_sq = self._q_sq(beta)
        c_sq = (2.0 * q_sq * (gamma * self.s_sq + 1.0)
                / (gamma * norm_sq * self.d_sq + 2.0 * q_sq * gamma * self.s_sq))
        return (np.sqrt(np.minimum(np.max(c_sq, axis=-1), 1.0)),)

    def _gamma_lower_rows(self, norm_sq, acf, beta):
        # w Q(C r) = beta at
        # gamma = 2 q^2 / (C^2 ||h||^2 |ds|^2 - 2 q^2 (1 - C^2) |s|^2),
        # for the terms that reach beta at finite power (den > 0)
        q_sq = self._q_sq(beta)
        den = (acf * acf * norm_sq * self.d_sq
               - 2.0 * q_sq * (1.0 - acf * acf) * self.s_sq)
        gamma = np.divide(2.0 * q_sq, den, out=np.zeros(den.shape),
                          where=den > 0.0)
        return (np.max(gamma, axis=-1),)

    def u(self, norm_sq: float, acf, gamma):
        """Raw union bound (may exceed 1 at low SNR)."""
        return self._map(self._u_rows, norm_sq, acf, gamma)[0]

    def u_and_slope(self, norm_sq: float, acf, gamma):
        """(u, v): the raw bound and its slope v = -du/d ln(gamma) >= 0."""
        return self._map(self._uv_rows, norm_sq, acf, gamma)

    def u_and_acf_slope(self, norm_sq: float, acf, gamma):
        """(u, w): the raw bound and its slope w = -du/dC >= 0."""
        return self._map(self._uw_rows, norm_sq, acf, gamma)

    def floor(self, norm_sq: float, acf):
        """Infinite-power limit of the bound, set by the CSI quality C."""
        return self._map(self._floor_rows, norm_sq, acf, 1.0)[0]

    def acf_lower(self, norm_sq: float, gamma, beta):
        """Largest C at which one term alone equals beta (0 if none can).

        Every term is non-negative and falls in C, so below this C the
        bound exceeds beta: a lower bracket of the threshold C, exact up to
        rounding. Clipped to 1.
        """
        return self._map(self._acf_lower_rows, norm_sq, gamma, beta)[0]

    def gamma_lower(self, norm_sq: float, acf, beta):
        """Largest gamma at which one term alone equals beta (0 if none
        can): a lower bracket of the minimum SNR, exact up to rounding, as
        for acf_lower."""
        return self._map(self._gamma_lower_rows, norm_sq, acf, beta)[0]


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


class LockstepRoots(NamedTuple):
    root: np.ndarray
    iterations: np.ndarray  # bound evaluations of each cell
    newton: np.ndarray  # True where the last step was Newton's


def newton_lockstep(uv, beta, x, lo, hi, tol: float,
                    ftol: float | None = None) -> LockstepRoots:
    """Solve u(x) = beta in every cell at once, for a bound u that falls in
    x, by safeguarded Newton on f(x) = ln u(x) - ln(beta).

    uv(cells, x) returns u and its slope -du/dx >= 0 at x for the cells
    indexed by `cells`. Each cell starts at x inside a bracket [lo, hi]
    with u(lo) > beta >= u(hi). Every iteration evaluates u once, moves lo
    or hi to x by the sign of u - beta (ln could round it to 0), and takes
    the Newton step x + f u / (-du/dx) when it is finite and inside the
    bracket, else bisects. Cells never mix: each keeps its own bracket,
    iterate and count, and all run in lockstep. A cell is done:

    - without ftol, when it takes a Newton step of at most tol or its
      bracket is narrower than tol; its root is the iterate that step (or
      the bisection) gives;
    - with ftol, when its bracket is at most tol wide and |f(hi)| <= ftol;
      its root is hi, where u <= beta. To close the bracket, a Newton step
      shorter than s = min(tol, ftol / |f'|) / 2 becomes a step of s
      toward the root, on the side that u - beta gives (the Newton step is
      0 where f = 0), so that the next evaluation lands across the root.

    Raises DivergenceError when a bracket can no longer be split, or after
    _MAX_ITER iterations.
    """
    x, lo, hi, beta = (np.array(a, dtype=np.float64) for a in
                       np.broadcast_arrays(x, lo, hi, beta))
    ln_beta = np.log(beta)
    f_hi = np.full(x.shape, -np.inf)  # f(hi), once evaluated there
    iterations = np.zeros(x.shape, dtype=np.int64)
    newton = np.zeros(x.shape, dtype=bool)
    live = np.arange(x.size)
    for _ in range(_MAX_ITER):
        if not live.size:
            return LockstepRoots(x if ftol is None else hi, iterations,
                                 newton)
        xl = x[live]
        u, v = uv(live, xl)
        iterations[live] += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.log(u) - ln_beta[live]
            step = f * u / v
            s = 0.5 * np.fmin(tol, ftol * u / v) if ftol else None
        above = u > beta[live]  # the root lies above x
        lo[live[above]] = xl[above]
        hi[live[~above]] = xl[~above]
        if ftol:
            f_hi[live[~above]] = f[~above]
            on = (hi[live] - lo[live] > tol) | (-f_hi[live] > ftol)
            live, xl, step, s, above = (a[on] for a in
                                        (live, xl, step, s, above))
            step = np.where(np.abs(step) < s, np.where(above, s, -s), step)
        lo_l, hi_l = lo[live], hi[live]
        x_new = xl + step  # a non-finite one fails the bracket test
        if ftol:  # both ends are evaluated: land strictly inside
            ok = (lo_l < x_new) & (x_new < hi_l)
        else:
            ok = (lo_l <= x_new) & (x_new <= hi_l)
        mid = 0.5 * (lo_l + hi_l)
        if not np.all(ok | ((lo_l < mid) & (mid < hi_l))):
            raise DivergenceError("root bracket can no longer be split")
        x[live] = np.where(ok, x_new, mid)
        newton[live] = ok
        if not ftol:
            live = live[~np.where(ok, np.abs(step) <= tol,
                                  hi_l - lo_l < tol)]
    raise DivergenceError(f"root not found in {_MAX_ITER} iterations")


def _assert_monotone_in_c(bound: UnionBound, norm_sq: float, gamma,
                          n_grid: int = 33) -> None:
    """The threshold solve brackets the root of a UUB non-increasing in C:
    checked on an n_grid-point C grid at each distinct gamma, in one bound
    call."""
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

    Solves uub(C) = bep_threshold on C in [0, 1] by `newton_lockstep`,
    started at the largest single-term root (`UnionBound.acf_lower`). Where
    rounding puts that start on the feasible side, the first evaluation
    makes it the upper end, and the lower end stays 0. C_n is the feasible
    end of a bracket at most 1e-12 wide, with the bound within 1e-8 of the
    threshold there. snr_linear and bep_threshold broadcast to an array of
    cells, solved in lockstep; scalars give a float. C_n = 0 where even
    C = 0 meets the threshold. Raises InfeasibleRateError when even perfect
    CSI (C = 1) violates the threshold in some cell, MonotonicityError when
    the solve cannot converge, and ValueError for a non-finite SNR or
    threshold.
    """
    require_finite(snr_linear=snr_linear, bep_threshold=bep_threshold)
    if rate_n < 1:
        raise ValueError("rate_n must be at least 1")
    bound = union_bound(scheme, 2 ** rate_n)
    norm_sq = estimate.norm_sq
    gamma, beta = _cells(snr_linear, bep_threshold)
    _assert_monotone_in_c(bound, norm_sq, gamma)
    infeasible = bound.u(norm_sq, 1.0, gamma) > beta
    if np.any(infeasible):
        raise InfeasibleRateError(
            f"rate {rate_n} ({scheme}) cannot meet {beta[infeasible][0]:g} "
            "even with perfect CSI")
    out = np.zeros(gamma.size)
    # u(C = 0) = sum(w) / 2 at every SNR
    cells = np.flatnonzero(bound.u(norm_sq, 0.0, 1.0) > beta)
    g, b = gamma.reshape(-1)[cells], beta.reshape(-1)[cells]
    try:
        out[cells] = newton_lockstep(
            lambda live, acf: bound.u_and_acf_slope(norm_sq, acf, g[live]),
            b, bound.acf_lower(norm_sq, g, b), 0.0, 1.0,
            _C_ABS_TOL, _BEP_REL_TOL).root
    except DivergenceError as exc:
        raise MonotonicityError(
            f"threshold inversion did not converge for rate {rate_n}") from exc
    out = out.reshape(gamma.shape)
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
