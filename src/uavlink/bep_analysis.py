"""Closed-form BEP machinery for imperfect CSI.

The central object is the Hamming-weighted union upper bound (UUB) on the
bit-error probability. Its pairwise terms are the exact pairwise errors of
the sub-optimum (nearest-reference) detector, so it bounds that detector;
on PSK the SO rule equals ML decision for decision, so there it also
bounds ML. The bound has one implementation, `UnionBound`: built once per
constellation and cached by (scheme, order) in `union_bound`, with the M^2
pairwise terms grouped by their distinct squared distances, and evaluated
over arrays of (C, gamma) by one path: `union_bound_rows` groups rows
that each carry their own order by order, and each method hands its
rows as columns to its row kernel (`_evaluate`). It serves the bound's
values (the CLI's `analytic-uub` rows and trace column, clamped to 1),
the maximum feasible modulation order and the two inversions of the
bound, each over rows of every order at once: the CSI
thresholds C_n of all rates of a grid here (`acf_thresholds`, whose
one-rate call is `min_acf_for_rate`) and the QAM power solve over all
rate regions in power_control. Both start at a closed-form lower bracket
built from the roots of single terms (`UnionBound.acf_lower`,
`gamma_lower`), and are solved by one lockstep safeguarded Newton,
`lockstep.newton_lockstep`, on the bound's value and slope (in C,
`u_and_acf_slope`; in ln(gamma), `u_and_slope`). The bound falls in C by
its form (`UnionBound.u`), so the C solve checks only C = 1 and raises
MonotonicityError only when it does not converge. Beside it sits the
Gray-mapping PSK approximation.
"""

import functools
import math

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
    ScheduleError,
    SchemeError,
    require_finite,
)
from .lockstep import newton_lockstep

__all__ = [
    "q_function",
    "q_inverse",
    "UnionBound",
    "union_bound",
    "union_bound_rows",
    "psk_bep_approx",
    "min_acf_for_rate",
    "max_modulation_order",
    "acf_thresholds",
]

# tolerances of the threshold inversion: bracket width in C and relative
# residual of the bound
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

    def _sum(self, part):
        """Weighted sum over the terms (the last axis)."""
        return (self.weight * part).sum(axis=-1)

    def _q_sq(self, beta, weight):
        """Q^-1(beta / w)^2 for each weight w and each row's beta, 0 where
        beta / w >= 1/2 (a term at most w/2 never exceeds beta alone).
        ndtri runs once per distinct beta."""
        b, row = np.unique(beta, return_inverse=True)
        q = ndtri(np.minimum(b[:, None] / weight, 0.5))
        return (q * q)[row.ravel()]

    # row kernels: (rows, 1) columns in, one sum over the terms per row out
    def _u_rows(self, norm_sq, acf, gamma):
        r, _ = _pep_ratio(gamma, acf, norm_sq, self.d_sq, self.s_sq)
        return (self._sum(ndtr(-acf * r)),)

    def _uv_rows(self, norm_sq, acf, gamma):
        # d Q(C r) / d ln(gamma) = -phi(C r) C r / den
        r, den = _pep_ratio(gamma, acf, norm_sq, self.d_sq, self.s_sq)
        arg = acf * r
        return (self._sum(ndtr(-arg)),
                self._sum(np.exp(-0.5 * arg * arg) * arg / (_SQRT_2PI * den)))

    def _uw_rows(self, norm_sq, acf, gamma):
        # d Q(C r) / dC = -phi(C r) r (1 + 2 gamma C^2 |s|^2 / den)
        #               = -phi(C r) r (2 gamma |s|^2 + 2) / den
        r, den = _pep_ratio(gamma, acf, norm_sq, self.d_sq, self.s_sq)
        arg = acf * r
        return (self._sum(ndtr(-arg)),
                self._sum(np.exp(-0.5 * arg * arg) * r
                          * (2.0 * gamma * self.s_sq + 2.0)
                          / (_SQRT_2PI * den)))

    def _floor_rows(self, norm_sq, acf):
        # gamma -> infinity: A -> C^2 ||h||^2 |ds|^2 / (2 (1 - C^2) |s|^2),
        # which is infinite (Q = 0) at C = 1
        with np.errstate(divide="ignore"):
            arg = acf * np.sqrt(norm_sq * self.d_sq
                                / (2.0 * (1.0 - acf * acf) * self.s_sq))
        return (self._sum(ndtr(-arg)),)

    def _acf_lower_rows(self, norm_sq, gamma, beta):
        # w Q(C r) = beta at C^2 = 2 q^2 (gamma |s|^2 + 1)
        #                          / (gamma ||h||^2 |ds|^2 + 2 q^2 gamma |s|^2)
        q_sq = self._q_sq(beta, self.weight)
        c_sq = (2.0 * q_sq * (gamma * self.s_sq + 1.0)
                / (gamma * norm_sq * self.d_sq + 2.0 * q_sq * gamma * self.s_sq))
        return (np.sqrt(np.minimum(np.max(c_sq, axis=-1), 1.0)),)

    def _gamma_lower_rows(self, norm_sq, acf, beta):
        # a term weighted w equals beta at
        # gamma = 2 q^2 / (C^2 ||h||^2 |ds|^2 - 2 q^2 (1 - C^2) |s|^2)
        # where den > 0, and exceeds it at every power elsewhere. Below the
        # largest root of a term with its own weight, that term alone
        # exceeds beta; below the smallest root of a term given the whole
        # weight W, every term's Q exceeds beta / W. Either way u > beta.
        def roots(q_sq, none):
            den = (acf * acf * norm_sq * self.d_sq
                   - 2.0 * q_sq * (1.0 - acf * acf) * self.s_sq)
            return np.divide(2.0 * q_sq, den, out=np.full(den.shape, none),
                             where=den > 0.0)
        single = roots(self._q_sq(beta, self.weight), 0.0)
        whole = roots(self._q_sq(beta, self.weight.sum()), np.inf)
        return (np.maximum(np.max(single, axis=-1), np.min(whole, axis=-1)),)

    def u(self, norm_sq: float, acf, gamma):
        """Raw union bound (may exceed 1 at low SNR).

        Non-increasing in C on [0, 1]: each term w Q(C r(C)) has w >= 0,
        and C r(C) rises with C, because the denominator
        2 gamma (1 - C^2) |s|^2 + 2 of r^2 falls as C rises, so every term
        falls.
        """
        return _evaluate(self, UnionBound._u_rows, norm_sq, acf, gamma)[0]

    def u_and_slope(self, norm_sq: float, acf, gamma):
        """(u, v): the raw bound and its slope v = -du/d ln(gamma) >= 0."""
        return _evaluate(self, UnionBound._uv_rows, norm_sq, acf, gamma)

    def u_and_acf_slope(self, norm_sq: float, acf, gamma):
        """(u, w): the raw bound and its slope w = -du/dC >= 0."""
        return _evaluate(self, UnionBound._uw_rows, norm_sq, acf, gamma)

    def floor(self, norm_sq: float, acf):
        """Infinite-power limit of the bound, set by the CSI quality C."""
        return _evaluate(self, UnionBound._floor_rows, norm_sq, acf)[0]

    def acf_lower(self, norm_sq: float, gamma, beta):
        """Largest C at which one term alone equals beta (0 if none can).

        Every term is non-negative and falls in C, so below this C the
        bound exceeds beta: a lower bracket of the threshold C, exact up to
        rounding. Clipped to 1.
        """
        return _evaluate(self, UnionBound._acf_lower_rows, norm_sq, gamma,
                         beta)[0]

    def gamma_lower(self, norm_sq: float, acf, beta):
        """A lower bracket of the minimum SNR, exact up to rounding: the
        larger of the largest gamma at which one term alone equals beta,
        and the smallest gamma at which one term carrying the bound's whole
        weight W = sum(w) equals beta. Every term falls in gamma, so below
        either root u > beta. The second is positive wherever the floor is
        below beta, and infinite where no term falls below beta / W."""
        return _evaluate(self, UnionBound._gamma_lower_rows, norm_sq, acf,
                         beta)[0]


def _evaluate(bound: UnionBound, kernel, norm_sq: float, *args) -> tuple:
    """The outputs of `kernel(bound, norm_sq, *columns)` at every point of
    the broadcast args (floats where 0-d), each arg one column of rows: in
    one call where rows x terms fit in _BLOCK_TERMS, else in blocks of
    rows. No row sees another, so blocks change no output."""
    args = [np.asarray(a, dtype=np.float64) for a in args]
    if any(a.shape != args[0].shape for a in args):
        args = np.broadcast_arrays(*args)
    shape, cols = args[0].shape, [a.reshape(-1, 1) for a in args]
    n = max(1, _BLOCK_TERMS // bound.n_terms)
    if len(cols[0]) <= n:
        outs = kernel(bound, norm_sq, *cols)
    else:
        blocks = [kernel(bound, norm_sq, *(c[lo:lo + n] for c in cols))
                  for lo in range(0, len(cols[0]), n)]
        outs = [np.concatenate(out) for out in zip(*blocks)]
    return tuple(out.reshape(shape) if shape else float(out[0])
                 for out in outs)


@functools.lru_cache(maxsize=None)
def union_bound(scheme: str, order: int) -> UnionBound:
    """The cached UnionBound of constellation_for(scheme, order)."""
    return UnionBound(constellation_for(scheme, order))


def union_bound_rows(scheme: str, order, method, norm_sq: float,
                     *args) -> tuple:
    """`method(bound, norm_sq, *args)`, for a `UnionBound` method such as
    `UnionBound.u`, over rows that each carry their own order, in one call.

    order and the array arguments broadcast to one shape of rows. The rows
    of each distinct order go to that order's cached bound together, which
    evaluates them with its own terms, blocks and row sums. A row's terms
    and sums never see another row, so every output equals the per-order
    method's to the bit. Returns one array per output of the method,
    shaped like the rows.
    """
    order, *args = np.broadcast_arrays(
        np.asarray(order, dtype=np.int64),
        *(np.asarray(a, dtype=np.float64) for a in args))
    shape = order.shape
    order, *args = (a.reshape(-1) for a in (order, *args))
    rows = np.argsort(order, kind="stable")
    # one group per distinct order; no rows still make one (empty) group,
    # so the method's own outputs say how many arrays to return
    outs = None
    for group in np.split(rows, np.flatnonzero(np.diff(order[rows])) + 1):
        m = int(order[group[0]]) if group.size else SUPPORTED_ORDERS[0]
        got = method(union_bound(scheme, m), norm_sq,
                     *(a[group] for a in args))
        got = got if isinstance(got, tuple) else (got,)
        if outs is None:
            outs = tuple(np.empty(order.size) for _ in got)
        for out, part in zip(outs, got):
            out[group] = part
    return tuple(out.reshape(shape) for out in outs)


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
    """(gamma, beta) broadcast to one shape of cells; scalars stay 0-d.
    Raises ValueError for a non-finite or negative SNR, or a non-finite
    threshold or one <= 0."""
    require_finite(snr_linear=snr_linear, bep_threshold=bep_threshold)
    gamma, beta = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64)
                                        for a in (snr_linear, bep_threshold)))
    for name, a, bad in (("snr_linear must be non-negative", gamma, gamma < 0),
                         ("bep_threshold must be positive", beta, beta <= 0)):
        if bad.any():
            raise ValueError(f"{name}, got {a[bad].flat[0]}")
    return gamma, beta


# rate n of each supported order M = 2^n; row n - 1 of every per-order
# array below
_RATES = np.arange(1, len(SUPPORTED_ORDERS) + 1)


def _perfect_csi_u(scheme: str, norm_sq: float, gamma) -> np.ndarray:
    """u(C = 1) of every rate's order (first axis, as _RATES) in every cell
    of gamma, in one call."""
    rates = np.reshape(_RATES, (-1,) + (1,) * np.ndim(gamma))
    return union_bound_rows(scheme, 1 << rates, UnionBound.u, norm_sq, 1.0,
                            gamma)[0]


def _max_rate(u_one: np.ndarray, beta) -> np.ndarray:
    """Highest rate whose u(C = 1), the first axis of u_one as _RATES,
    meets beta (0 where none does)."""
    rates = np.reshape(_RATES, (-1,) + (1,) * np.ndim(beta))
    return np.max(np.where(u_one <= beta, rates, 0), axis=0)


def _min_acf_rows(scheme: str, norm_sq: float, rate, gamma, beta,
                  u_one) -> np.ndarray:
    """C_n of every row (rate n, gamma, beta) of 1-D arrays, given u(C = 1)
    of each row, in one lockstep solve over all rows (see
    min_acf_for_rate). The bound falls in C (`UnionBound.u`), so [0, 1]
    brackets a root wherever u_one meets beta, the one check. Errors come
    in the order of a rate-by-rate solve: the lowest failing rate raises,
    its check after the solves of lower rates but before its own."""
    missed = np.flatnonzero(u_one > beta)
    failed_rate = rate[missed].min() if missed.size else np.inf
    order = 1 << rate
    orders, of_row = np.unique(order, return_inverse=True)
    # u(C = 0) = sum(w) / 2 at every SNR, as Q(0) = 1/2 exactly
    u_zero = np.array([0.5 * union_bound(scheme, m).weight.sum()
                       for m in orders.tolist()])[of_row.ravel()]
    out = np.zeros(rate.size)
    cells = np.flatnonzero((u_zero > beta) & (rate < failed_rate))
    o, g, b = order[cells], gamma[cells], beta[cells]
    try:
        out[cells] = newton_lockstep(
            lambda live, acf: union_bound_rows(scheme, o[live],
                                               UnionBound.u_and_acf_slope,
                                               norm_sq, acf, g[live]),
            b, union_bound_rows(scheme, o, UnionBound.acf_lower, norm_sq, g,
                                b)[0],
            0.0, 1.0, _C_ABS_TOL, _BEP_REL_TOL).root
    except DivergenceError as exc:
        failed = np.unique(rate[cells[exc.cells]]).tolist()
        raise MonotonicityError(
            "threshold inversion did not converge for rate "
            + ", ".join(map(str, failed))) from exc
    if missed.size:
        k = missed[np.argmin(rate[missed])]
        raise InfeasibleRateError(
            f"rate {rate[k]} ({scheme}) cannot meet {beta[k]:g} even with "
            "perfect CSI", rate=int(rate[k]))
    return out


def min_acf_for_rate(rate_n: int, estimate: ChannelEstimate, snr_linear,
                     scheme: str, bep_threshold):
    """Smallest ACF value C_n at which rate n still meets the threshold.

    Solves u(C) = bep_threshold, with u the `UnionBound` of the rate's
    order, by `newton_lockstep` on [0, 1], which
    brackets the root wherever C = 1 meets the threshold, as the bound
    falls in C by its form (`UnionBound.u`). Each cell starts at the
    largest single-term root (`UnionBound.acf_lower`). C_n is the feasible
    end of a bracket at most 1e-12 wide, with the bound within 1e-8 of the
    threshold there; C_n = 0 where even C = 0 meets the threshold.
    snr_linear and bep_threshold broadcast to an array of cells, solved in
    lockstep; scalars give a float. Raises InfeasibleRateError where C = 1
    violates the threshold in some cell, MonotonicityError when the solve
    cannot converge, and ValueError for a non-finite or negative SNR or a
    non-finite threshold or one <= 0. This is the one-rate call of the
    solve behind `acf_thresholds`.
    """
    gamma, beta = _cells(snr_linear, bep_threshold)
    if rate_n < 1:
        raise ValueError("rate_n must be at least 1")
    g, b, norm_sq = gamma.reshape(-1), beta.reshape(-1), estimate.norm_sq
    u_one = union_bound(scheme, 2 ** rate_n).u(norm_sq, 1.0, g)
    out = _min_acf_rows(scheme, norm_sq, np.full(g.size, rate_n), g, b,
                        u_one).reshape(gamma.shape)
    return float(out) if out.ndim == 0 else out


def max_modulation_order(estimate: ChannelEstimate, snr_linear,
                         scheme: str, bep_threshold):
    """Largest supported order whose perfect-CSI UUB meets the threshold.

    Returns 0 when no order is feasible. R_max is log2 of the result.
    snr_linear and bep_threshold broadcast; scalars give an int. Every
    order is evaluated in one bound call. Raises ValueError for a
    non-finite or negative SNR or a non-finite threshold or one <= 0.
    """
    gamma, beta = _cells(snr_linear, bep_threshold)
    rate = _max_rate(_perfect_csi_u(scheme, estimate.norm_sq, gamma), beta)
    best = np.where(rate > 0, 1 << rate, 0)
    return int(best) if best.ndim == 0 else best


def acf_thresholds(estimate: ChannelEstimate, snr_linear, scheme: str,
                   bep_threshold) -> tuple:
    """(r_max, cs): the highest feasible rate of every cell of broadcast
    (snr_linear, bep_threshold), flattened in C order, and C_n of every
    rate n <= r_max it reaches, as cs[n - 1] (+inf where n > r_max).

    u(C = 1) is evaluated once per (order, cell), in one call: it gives
    r_max (as `max_modulation_order`) and the feasibility of every lower
    rate, the one check the solve needs. Every (rate, cell) row is then
    solved in one `newton_lockstep` call, so a grid pays the slowest row's
    iterations, not the sum over rates, each row by its own order's bound
    exactly as a one-rate call solves it: C_n is the same to the bit.

    Raises ScheduleError where a rate below a cell's r_max cannot meet the
    threshold at C = 1, MonotonicityError where the solve cannot converge,
    and ValueError for a non-finite or negative SNR or a non-finite
    threshold or one <= 0. Where several rates fail, the error is the one a
    rate-by-rate build meets first: that of the lowest failing rate, its
    feasibility check before its solve.
    """
    norm_sq = estimate.norm_sq
    gamma, beta = (a.reshape(-1) for a in _cells(snr_linear, bep_threshold))
    u_one = _perfect_csi_u(scheme, norm_sq, gamma)
    r_max = _max_rate(u_one, beta)
    top = int(r_max.max(initial=0))
    # the (rate, cell) rows, rate-major
    rate, cell = np.nonzero(np.arange(1, top + 1)[:, None] <= r_max)
    rate += 1
    cs = np.full((top, gamma.size), np.inf)
    try:
        cs[rate - 1, cell] = _min_acf_rows(scheme, norm_sq, rate,
                                           gamma[cell], beta[cell],
                                           u_one[rate - 1, cell])
    except InfeasibleRateError as exc:
        raise ScheduleError(
            f"rate {exc.rate} infeasible although a higher rate is feasible; "
            "UUB is not monotone across orders here") from exc
    return r_max, cs
