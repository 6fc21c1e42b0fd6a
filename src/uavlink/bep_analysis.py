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
values (the CLI's `analytic-uub` rows and trace column, clamped to 1)
and the two inversions of the bound, each over rows of every order at
once: the highest feasible rate R_max and the CSI thresholds C_n of all
rates of a grid here (`acf_thresholds`) and the QAM power solve over all
rate regions in power_control. Both start at a closed-form lower bracket
built from the roots of single terms (`UnionBound.acf_lower`,
`gamma_lower`), and are solved by one lockstep safeguarded Newton,
`lockstep.newton_lockstep`, on the bound's value and slope (QAM in C,
`u_and_acf_slope`; in ln(gamma), `u_and_slope`). Every PSK term has
|s|^2 = 1, so the PSK bound is a function of one variable z, and its C_n
come from one root in z per (order, threshold), mapped to each cell in
closed form (`_psk_acf_rows`). The bound falls in C by its form
(`UnionBound.u`), so the C solve checks only C = 1 and raises
MonotonicityError only when it does not converge. Beside it sits the
Gray-mapping PSK approximation, one term table (`_PSK_TERMS`) read by its
forward form and its closed-form inverse, both over per-sample orders.
"""

import functools
import math
import sys

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
    InfeasibleCsiError,
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
    "min_snr_psk",
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


# (w, bits / 2, d) of w Q(sqrt(gamma ||h C||^2 d / (gamma (1 - C^2) + 1)))
# per supported order: BPSK exact, (1, 1, 2); M > 2 the two nearest
# neighbours, (2 / log2 M, log2 M / 2, 1 - cos(2 pi / M))
_PSK_ORDERS = np.array(SUPPORTED_ORDERS)
_PSK_TERMS = np.array([(1.0, 1.0, 2.0)] + [
    (2.0 / bits, bits / 2.0, 1.0 - math.cos(2.0 * math.pi / (1 << bits)))
    for bits in range(2, len(SUPPORTED_ORDERS) + 1)])
_PSK_TERMS.flags.writeable = False


def _psk_rows(order) -> np.ndarray:
    """The `_PSK_TERMS` row of each order; SchemeError if unsupported."""
    order = np.asarray(order)
    row = np.searchsorted(_PSK_ORDERS, order)
    bad = _PSK_ORDERS[np.minimum(row, _PSK_ORDERS.size - 1)] != order
    if bad.any():
        raise SchemeError(f"unsupported PSK order {order[bad].flat[0]}")
    return row


def psk_bep_approx(order, estimate: ChannelEstimate, acf_value, snr_linear):
    """Gray-mapping signal-space BEP approximation for M-PSK, from
    `_PSK_TERMS`. order, C and gamma broadcast as arrays, each sample with
    its own order; scalars give a float."""
    row = _psk_rows(order)
    g = np.asarray(snr_linear, dtype=np.float64)
    c = np.asarray(acf_value, dtype=np.float64)
    hc_sq = estimate.norm_sq * c * c
    den = g * (1.0 - c * c) + 1.0
    bep = _PSK_TERMS[row, 0] * q_function(np.sqrt(g * hc_sq
                                                  * _PSK_TERMS[row, 2] / den))
    return float(bep) if np.ndim(bep) == 0 else bep


def min_snr_psk(order, estimate: ChannelEstimate, acf_value,
                bep_threshold: float):
    """Closed-form minimum SNR at which `psk_bep_approx` meets the
    threshold, over broadcast order and C as psk_bep_approx takes them.

    Raises InfeasibleCsiError where no finite power reaches the threshold
    at that CSI quality (the schedule must have switched down already),
    naming the lowest failing order, as `exc.order`, and its first failing
    C; ValueError for a non-finite ACF value or threshold, and where that
    lowest failing order's beta bits / 2 lies outside (0, 1/2): at or
    above 1/2 the approximation, at most w / 2, meets the threshold at
    every SNR, and Q^-1(beta bits / 2) <= 0 gives no root.
    """
    require_finite(acf_value=acf_value, bep_threshold=bep_threshold)
    row, c = np.broadcast_arrays(_psk_rows(order),
                                 np.asarray(acf_value, dtype=np.float64))
    # Q^-1(beta bits / 2)^2 of each order present; nan, which fails that
    # order's samples, where beta bits / 2 is outside (0, 1/2)
    b = bep_threshold * _PSK_TERMS[:, 1]
    alpha_sq = np.full(b.size, np.nan)
    for k in np.flatnonzero(np.bincount(row.ravel(), minlength=b.size)):
        if 0.0 < b[k] < 0.5:
            alpha_sq[k] = q_inverse(b[k]) ** 2
    alpha_sq = alpha_sq[row]
    den = (estimate.norm_sq * c * c * _PSK_TERMS[row, 2]
           - (1.0 - c * c) * alpha_sq)
    failed = np.flatnonzero(~(den > 0.0))
    if failed.size:  # the lowest failing order's error, as if called alone
        k = failed[np.argmin(row.flat[failed])]
        m = int(_PSK_ORDERS[row.flat[k]])
        if np.isnan(alpha_sq.flat[k]):
            raise ValueError(
                f"{m}-PSK approximation cannot be inverted at bep_threshold "
                f"{bep_threshold:g}: beta log2(M) / 2 = {b[row.flat[k]]:g} "
                "lies outside (0, 1/2)")
        raise InfeasibleCsiError(f"{m}-PSK cannot reach {bep_threshold:g} at "
                                 f"C={c.flat[k]:.6f}", order=m)
    gamma = alpha_sq / den
    return float(gamma) if gamma.ndim == 0 else gamma


# rate n of each supported order M = 2^n, as a column: row n - 1 of
# every per-rate array below
_RATES = np.arange(1, len(SUPPORTED_ORDERS) + 1)[:, None]
# the relative step up from the C that a PSK root z* maps to. Near C = 1
# one ulp of C moves z by up to (||h||^2 + 2 z^2) / ||h||^2 ulps, so the
# bound summed at C_n and at z* differ by more than their rounding; without
# the step, u(C_n) exceeds beta on about a quarter of rows, by at most
# 2e-12 relative. 1e-15 already removes every excess on 380k random case1
# and case2 rows (SNR 0 to 60 dB, beta 1e-15 to 0.5).
_C_MARGIN = 1e-14


@functools.lru_cache(maxsize=None)
def _psk_bound_table() -> tuple:
    """(w, d): the grouped PSK `UnionBound` terms of every supported order,
    row n - 1 for rate n, padded with zero weights to 64-PSK's 32 terms;
    d = |s_m - s_mhat|. |s_m|^2 = 1 in every term, so the pairwise argument
    C r of a term equals d z with z^2 = gamma C^2 ||h||^2
    / (2 gamma (1 - C^2) + 2): the bound is sum(w Q(d z)), a function of z
    alone."""
    bounds = [union_bound("psk", m) for m in SUPPORTED_ORDERS]
    w, d = np.zeros((2, len(bounds), max(b.n_terms for b in bounds)))
    for k, b in enumerate(bounds):
        assert np.all(b.s_sq == 1.0), f"{b.order}-PSK has |s|^2 != 1"
        w[k, :b.n_terms], d[k, :b.n_terms] = b.weight, np.sqrt(b.d_sq)
    for a in (w, d):
        a.flags.writeable = False
    return w, d


def _psk_acf_rows(norm_sq: float, rate, gamma, beta) -> np.ndarray:
    """C_n of every PSK row (rate n, gamma, beta) of 1-D arrays with
    sum(w) / 2 > beta and u(C = 1) <= beta, from one root z* of
    sum(w Q(d z)) = beta per distinct (rate, beta) (see `_psk_bound_table`).

    The roots are solved together by `newton_lockstep` in z on [0, +inf),
    each started at the largest single-term root max(Q^-1(beta / w) / d)
    (0 where every beta / w >= 1/2) and done when its bracket is at most
    1e-12 wide and the bound at its upper end is within 1e-8 of beta. That
    upper end maps to every row in closed form,
    C^2 = 2 z^2 (1 + 1 / gamma) / (||h||^2 + 2 z^2), and C is raised by
    _C_MARGIN relative and clipped to 1, so that u(C_n) <= beta. C rises
    with z, and d ln C / d ln z = ||h||^2 / (||h||^2 + 2 z^2) <= 1, so an
    error in z moves C by at most C / z times as much. A row's C_n depends
    only on its own (rate, gamma, beta). Raises DivergenceError naming the
    rows of the roots that do not converge."""
    keys, of_row = np.unique(np.stack([rate, beta], axis=1), axis=0,
                             return_inverse=True)
    of_row = of_row.ravel()
    k, b = keys[:, 0].astype(np.int64) - 1, keys[:, 1]
    w_all, d_all = _psk_bound_table()
    w, d = w_all[k], d_all[k]
    wd = w * d / _SQRT_2PI
    # Q(d z) = beta / w at z = Q^-1(beta / w) / d, 0 where beta / w >= 1/2
    used = w > 0.0
    q = -ndtri(np.minimum(np.divide(b[:, None], w, out=np.ones(w.shape),
                                    where=used), 0.5))
    start = np.max(np.divide(q, d, out=np.zeros(w.shape), where=used), axis=1)

    def uv(live, z):
        arg = d[live] * z[:, None]
        return ((w[live] * ndtr(-arg)).sum(axis=-1),
                (wd[live] * np.exp(-0.5 * arg * arg)).sum(axis=-1))
    try:
        z = newton_lockstep(uv, b, start, 0.0, np.inf, _C_ABS_TOL,
                            _BEP_REL_TOL).root
    except DivergenceError as exc:
        raise DivergenceError(str(exc), cells=np.flatnonzero(
            np.isin(of_row, exc.cells))) from exc
    z_sq = z[of_row] ** 2
    # (1 + 1 / gamma), not (gamma + 1) / gamma: gamma (||h||^2 + 2 z^2)
    # can overflow at the largest SNR the CLI accepts
    c_sq = 2.0 * z_sq * (1.0 + 1.0 / gamma) / (norm_sq + 2.0 * z_sq)
    return np.minimum(np.sqrt(c_sq) * (1.0 + _C_MARGIN), 1.0)


def _min_acf_rows(scheme: str, norm_sq: float, rate, gamma, beta,
                  u_one) -> np.ndarray:
    """C_n of every row (rate n, gamma, beta) of 1-D arrays, given u(C = 1)
    of each row, in one solve over all rows (see acf_thresholds). The
    bound falls in C (`UnionBound.u`), so [0, 1] brackets a root wherever
    u_one meets beta, the one check. Errors come in the order of a
    rate-by-rate solve: the lowest failing rate raises, its check after the
    solves of lower rates but before its own."""
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
        if scheme == "psk":
            out[cells] = _psk_acf_rows(norm_sq, rate[cells], g, b)
        else:
            out[cells] = newton_lockstep(
                lambda live, acf: union_bound_rows(
                    scheme, o[live], UnionBound.u_and_acf_slope, norm_sq,
                    acf, g[live]),
                b, union_bound_rows(scheme, o, UnionBound.acf_lower, norm_sq,
                                    g, b)[0],
                0.0, 1.0, _C_ABS_TOL, _BEP_REL_TOL).root
    except DivergenceError as exc:
        failed = np.unique(rate[cells[exc.cells]]).tolist()
        raise MonotonicityError(
            "threshold inversion did not converge for rate "
            + ", ".join(map(str, failed))) from exc
    if missed.size:
        raise ScheduleError(
            f"rate {failed_rate} infeasible although a higher rate is "
            "feasible; UUB is not monotone across orders here")
    return out


def acf_thresholds(estimate: ChannelEstimate, snr_linear, scheme: str,
                   bep_threshold) -> tuple:
    """(r_max, cs): the highest feasible rate of every cell of broadcast
    (snr_linear, bep_threshold), flattened in C order (0 where no order
    meets the threshold even with perfect CSI; R_max of the cell), and the
    smallest ACF value C_n at which each rate n <= r_max still meets it, as
    cs[n - 1] (+inf where n > r_max).

    u(C = 1) is evaluated once per (order, cell), in one call: it gives
    r_max and the feasibility of every lower rate, the one check the solve
    needs. Every QAM (rate, cell) row then solves u(C) = bep_threshold,
    with u the `UnionBound` of the rate's order, in one `newton_lockstep`
    call on [0, 1], which brackets the root wherever C = 1 meets the
    threshold, as the bound falls in C by its form (`UnionBound.u`). Each
    row starts at the largest single-term root (`UnionBound.acf_lower`)
    and runs by its own order's bound, so a grid pays the slowest row's
    iterations, not the sum over rates. C_n is the feasible end of a
    bracket at most 1e-12 wide, with the bound within 1e-8 of the
    threshold there. PSK rows take C_n from one root per distinct (rate,
    threshold) in the variable z of which the PSK bound is a function
    (`_psk_acf_rows`), within 1e-8 of the threshold and with
    u(C_n) <= threshold. On either scheme a row's C_n does not depend on
    the other rows, and C_n = 0 where even C = 0 meets the threshold.

    Raises ScheduleError where a rate below a cell's r_max cannot meet the
    threshold at C = 1, MonotonicityError where the solve cannot converge,
    and ValueError for a non-finite or negative SNR or a non-finite
    threshold or one below sys.float_info.min, the least normal double.
    Where several rates fail, the error is the one a rate-by-rate build
    meets first: that of the lowest failing rate, its feasibility check
    before its solve.
    """
    require_finite(snr_linear=snr_linear, bep_threshold=bep_threshold)
    gamma, beta = (a.reshape(-1) for a in np.broadcast_arrays(
        *(np.asarray(a, dtype=np.float64)
          for a in (snr_linear, bep_threshold))))
    # a subnormal threshold has too few significant bits for the solve's
    # relative residual gate
    for name, a, bad in (("snr_linear must be non-negative", gamma, gamma < 0),
                         ("bep_threshold must be positive", beta, beta <= 0),
                         (f"bep_threshold must be at least {sys.float_info.min}"
                          ", the least normal double", beta,
                          beta < sys.float_info.min)):
        if bad.any():
            raise ValueError(f"{name}, got {a[bad].flat[0]}")
    norm_sq = estimate.norm_sq
    # u(C = 1) of every rate's order (first axis) in every cell
    u_one = union_bound_rows(scheme, 1 << _RATES, UnionBound.u, norm_sq, 1.0,
                             gamma)[0]
    r_max = np.max(np.where(u_one <= beta, _RATES, 0), axis=0)
    top = int(r_max.max(initial=0))
    # the (rate, cell) rows, rate-major
    rate, cell = np.nonzero(np.arange(1, top + 1)[:, None] <= r_max)
    rate += 1
    cs = np.full((top, gamma.size), np.inf)
    cs[rate - 1, cell] = _min_acf_rows(scheme, norm_sq, rate, gamma[cell],
                                       beta[cell], u_one[rate - 1, cell])
    return r_max, cs
