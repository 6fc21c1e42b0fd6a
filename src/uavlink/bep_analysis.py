"""Closed-form BEP machinery for imperfect CSI.

The central object is the Hamming-weighted union upper bound (UUB) on the
bit-error probability. Its pairwise terms are the exact pairwise errors of
the sub-optimum (nearest-reference) detector, so it bounds that detector;
on PSK the SO rule equals ML decision for decision, so there it also
bounds ML. The bound has one implementation, `UnionBound`: built once per
constellation and cached by (scheme, order) in `union_bound`, with the M^2
pairwise terms grouped by their distinct squared distances, and evaluated
over arrays of (C, gamma) by one pass (`_bound_rows`): rows sorted by order
in chunks of at most _CHUNK_VALUES values (rows x terms), each chunk in one
set of NumPy calls and one call of its special function (`_special`'s Q, Q
with exp(-x^2 / 2), or Q^-1). `union_bound_rows` runs it for rows of every
order on the scheme's cached term table (`_terms`), each `UnionBound`
method on its own bound's. It serves the bound's
values (the CLI's `analytic-uub` rows and trace column, clamped to 1)
and the two inversions of the bound, each over rows of every order at
once: the highest feasible rate R_max and the CSI thresholds C_n of all
rates of a grid here (`acf_thresholds`) and the QAM power solve over all
rate regions in power_control. Both can start at a closed-form lower
bracket built from the roots of single terms (`UnionBound.acf_lower`,
`gamma_lower`), and are solved by one lockstep safeguarded Newton,
`lockstep.newton_lockstep`, on the bound's value and slope; the power
solve starts every sample next to its root instead, from z (below).
Both schemes solve C_n in z^2 = gamma C^2 ||h||^2 / (2 gamma (1 - C^2) +
2), in which ln u is near linear where it is concave in C. Every PSK term
has |s|^2 = 1, so the PSK bound is a function of z alone: one root z* per
(order, threshold) (`_psk_z_roots`) gives the C_n of every cell in closed
form (`_psk_acf_rows`), and the power at any C (`_gamma_of_z`). QAM rows
are solved in z row by row, each on its own order's bound at C(z)
(`_qam_acf_rows`, `u_and_acf_slope` times dC/dz); the power in ln(gamma)
(`u_and_slope`). The bound falls in C by its form (`UnionBound.u`), so the
C_n solve checks only C = 1 and raises MonotonicityError only when it
does not converge. Beside it sits the Gray-mapping PSK approximation, one
term table (`_PSK_TERMS`) read by its forward form and its closed-form
inverse, both over per-sample orders.
"""

import functools
import math
import sys

import numpy as np

from ._special import q_and_exp, q_tail, q_tail_inverse
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
    q = q_tail(x)
    return q if q.ndim else float(q)


def q_inverse(p: float) -> float:
    """Inverse of q_function on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_inverse domain is (0, 1), got {p}")
    return float(q_tail_inverse(min(p, 1.0 - p))) * (1.0 if p <= 0.5 else -1.0)


# values (rows x terms) of a chunk of rows: bounds the temporaries
_CHUNK_VALUES = 1 << 13


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
        self._terms = _Terms([self])

    @property
    def n_terms(self) -> int:
        return self.d_sq.size

    def _rows(self, method, norm_sq: float, *args) -> tuple:
        # the one-order case of the pass, by the method's kernel in
        # _KERNELS; floats where the shape is 0-d
        return tuple(out if out.ndim else float(out) for out in _bound_rows(
            self._terms, *_KERNELS[method], norm_sq, None, *args))

    def u(self, norm_sq: float, acf, gamma):
        """Raw union bound (may exceed 1 at low SNR).

        Non-increasing in C on [0, 1]: each term w Q(C r(C)) has w >= 0,
        and C r(C) rises with C, because the denominator
        2 gamma (1 - C^2) |s|^2 + 2 of r^2 falls as C rises, so every term
        falls.
        """
        return self._rows(UnionBound.u, norm_sq, acf, gamma)[0]

    def u_and_slope(self, norm_sq: float, acf, gamma):
        """(u, v): the raw bound and its slope v = -du/d ln(gamma) >= 0."""
        return self._rows(UnionBound.u_and_slope, norm_sq, acf, gamma)

    def u_and_acf_slope(self, norm_sq: float, acf, gamma):
        """(u, w): the raw bound and its slope w = -du/dC >= 0."""
        return self._rows(UnionBound.u_and_acf_slope, norm_sq, acf, gamma)

    def floor(self, norm_sq: float, acf):
        """Infinite-power limit of the bound, set by the CSI quality C."""
        return self._rows(UnionBound.floor, norm_sq, acf)[0]

    def acf_lower(self, norm_sq: float, gamma, beta):
        """Largest C at which one term alone equals beta (0 if none can).

        Every term is non-negative and falls in C, so below this C the
        bound exceeds beta: a lower bracket of the threshold C, exact up to
        rounding. Clipped to 1.
        """
        return self._rows(UnionBound.acf_lower, norm_sq, gamma, beta)[0]

    def gamma_lower(self, norm_sq: float, acf, beta):
        """A lower bracket of the minimum SNR, exact up to rounding: the
        larger of the largest gamma at which one term alone equals beta,
        and the smallest gamma at which one term carrying the bound's whole
        weight W = sum(w) equals beta. Every term falls in gamma, so below
        either root u > beta. The second is positive wherever the floor is
        below beta, and infinite where no term falls below beta / W."""
        return self._rows(UnionBound.gamma_lower, norm_sq, acf, beta)[0]


class _Terms:
    """Orders' grouped terms end to end, read-only: s^2, d^2, w, each
    order's first term and count, and the level of each w and each W."""

    def __init__(self, bounds):
        self.orders = np.array([b.order for b in bounds])
        self.count = np.array([b.n_terms for b in bounds])
        self.start = np.cumsum(self.count) - self.count
        self.s_sq, self.d_sq, self.weight = (
            np.concatenate([getattr(b, name) for b in bounds])
            for name in ("s_sq", "d_sq", "weight"))
        self.levels, level = np.unique(np.concatenate(
            [self.weight, [b.weight.sum() for b in bounds]]),
            return_inverse=True)
        self.level, self.whole_level = np.split(level, [self.weight.size])
        for a in vars(self).values():
            a.flags.writeable = False


class _Chunk:
    """Rows (ascending order index k, n terms each) against their terms:
    one order's as (rows, 1) columns against its (terms,) arrays, several
    orders' laid out flat, each row as its order's terms, with `runs`."""

    def __init__(self, terms: _Terms, k, n):
        self.terms, self.k, self.flat = terms, k, k[0] != k[-1]
        if not self.flat:
            first = int(terms.start[k[0]])
            self.term = slice(first, first + int(n[0]))
        else:
            self.first = np.cumsum(n)  # each row's first value
            self.first -= n
            self.row = np.repeat(np.arange(k.size), n)  # each value's row
            self.term = np.repeat(terms.start.take(k) - self.first, n)
            self.term += np.arange(self.term.size)  # each value's term
            edges = (np.flatnonzero(k[1:] != k[:-1]) + 1).tolist()
            self.runs = [(a, b, int(self.first[a]), int(n[a])) for a, b
                         in zip([0] + edges, edges + [k.size])]
        self.s_sq, self.d_sq = terms.s_sq[self.term], terms.d_sq[self.term]

    def rows(self, x):  # a quantity of each row, against its values
        return x.take(self.row) if self.flat else x[:, None]

    def sum(self, part):
        """Each row's sum of part weighted in place, as one order sums."""
        part *= self.terms.weight[self.term]
        if not self.flat:
            return part.sum(axis=-1)
        out = np.empty(self.k.size)
        for a, b, v, n in self.runs:
            part[v:v + (b - a) * n].reshape(b - a, n).sum(axis=-1,
                                                          out=out[a:b])
        return out

    def reduce(self, ufunc, part):  # np.maximum or np.minimum, by row
        return (ufunc.reduceat(part, self.first) if self.flat
                else ufunc.reduce(part, axis=-1))

    def q_sq(self, beta):
        """(Q^-1(beta / w)^2 at every value, Q^-1(beta / W)^2 of every row),
        0 where beta / w >= 1/2, once per distinct (beta, weight level)."""
        b, of_row = np.unique(beta, return_inverse=True)
        q = q_tail_inverse(np.minimum(b[:, None] / self.terms.levels, 0.5))
        q *= q
        return (q[self.rows(of_row), self.terms.level[self.term]],
                q[of_row, self.terms.whole_level.take(self.k)])


def _bound_rows(terms: _Terms, kernel, n_out: int, norm_sq: float, order,
                *args) -> list:
    """n_out outputs of `kernel(chunk, norm_sq, *columns)` at the rows of
    broadcast order (None: the table's one) and args, shaped like them, in
    chunks of whole rows sorted by order, neither of which changes a value."""
    args = [np.asarray(a, dtype=np.float64) for a in args]
    if order is not None:
        args.append(np.asarray(order, dtype=np.int64))
    if any(a.shape != args[0].shape for a in args):
        args = np.broadcast_arrays(*args)
    shape, args = args[0].shape, [a.reshape(-1) for a in args]
    k, rows = np.zeros(args[0].size, dtype=np.intp), None
    if order is not None:
        order = args.pop()
        k = np.searchsorted(terms.orders, order)
        bad = terms.orders.take(k, mode="clip") != order
        if bad.any():
            raise SchemeError(f"unsupported modulation order {order[bad][0]}")
        if k.size > 1 and (k[1:] < k[:-1]).any():
            rows = np.argsort(k, kind="stable")
            k, args = k.take(rows), [a.take(rows) for a in args]
    outs = [np.empty(k.size) for _ in range(n_out)]
    n = terms.count.take(k)
    ends, lo = np.cumsum(n), 0
    while lo < k.size:  # the most rows from lo that fit, at least one
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] - n[lo] + _CHUNK_VALUES, side="right")))
        got = kernel(_Chunk(terms, k[lo:hi], n[lo:hi]), norm_sq,
                     *(a[lo:hi] for a in args))
        for out, part in zip(outs, got):
            out[lo:hi] = part
        lo = hi
    if rows is not None:
        for out in outs:
            out[rows] = out.copy()
    return [out.reshape(shape) for out in outs]


# row kernels: a chunk and its rows' columns in, one output per row out,
# one special-function call, and one order's (rows, 1) x (terms,)
# operation order, so that every value is that evaluation's to the bit
def _pep_ratio(ch: _Chunk, norm_sq: float, acf, gamma):
    """(r, den) at every value: the Q-function argument of the pairwise
    error probability is sqrt(A) = C r, with den the denominator of A.

    A = gamma * C^2 * ||h||^2 * |s_m - s_mhat|^2 / den with
    den = 2 * gamma * (1 - C^2) * |s_m|^2 + 2 (|s_m|^2 is the transmitted
    symbol's energy). C is kept out of the square root, so a tiny C does
    not underflow A.
    """
    den = ch.rows(2.0 * gamma * (1.0 - acf * acf)) * ch.s_sq
    den += 2.0
    r = ch.rows(gamma * norm_sq) * ch.d_sq
    r /= den
    return np.sqrt(r, out=r), den


def _u_rows(ch, norm_sq, acf, gamma):
    r, _ = _pep_ratio(ch, norm_sq, acf, gamma)
    r *= ch.rows(acf)
    return (ch.sum(q_tail(r)),)


def _uv_rows(ch, norm_sq, acf, gamma):
    # d Q(C r) / d ln(gamma) = -phi(C r) C r / den
    arg, den = _pep_ratio(ch, norm_sq, acf, gamma)
    arg *= ch.rows(acf)
    q, e = q_and_exp(arg)
    e *= arg
    e /= den * _SQRT_2PI
    return ch.sum(q), ch.sum(e)


def _uw_rows(ch, norm_sq, acf, gamma):
    # d Q(C r) / dC = -phi(C r) r (1 + 2 gamma C^2 |s|^2 / den)
    #               = -phi(C r) r (2 gamma |s|^2 + 2) / den
    r, den = _pep_ratio(ch, norm_sq, acf, gamma)
    q, e = q_and_exp(ch.rows(acf) * r)
    e *= r
    e *= ch.rows(2.0 * gamma) * ch.s_sq + 2.0
    e /= den * _SQRT_2PI
    return ch.sum(q), ch.sum(e)


def _floor_rows(ch, norm_sq, acf):
    # gamma -> infinity: A -> C^2 ||h||^2 |ds|^2 / (2 (1 - C^2) |s|^2),
    # which is infinite (Q = 0) at C = 1
    with np.errstate(divide="ignore"):
        arg = ch.rows(acf) * np.sqrt(norm_sq * ch.d_sq / (
            ch.rows(2.0 * (1.0 - acf * acf)) * ch.s_sq))
    return (ch.sum(q_tail(arg)),)


def _acf_lower_rows(ch, norm_sq, gamma, beta):
    # w Q(C r) = beta at C^2 = 2 q^2 (gamma |s|^2 + 1)
    #                          / (gamma ||h||^2 |ds|^2 + 2 q^2 gamma |s|^2)
    q_sq, g = ch.q_sq(beta)[0], ch.rows(gamma)
    c_sq = (2.0 * q_sq * (g * ch.s_sq + 1.0)
            / (ch.rows(gamma * norm_sq) * ch.d_sq + 2.0 * q_sq * g * ch.s_sq))
    return (np.sqrt(np.minimum(ch.reduce(np.maximum, c_sq), 1.0)),)


def _gamma_lower_rows(ch, norm_sq, acf, beta):
    # a term weighted w equals beta at
    # gamma = 2 q^2 / (C^2 ||h||^2 |ds|^2 - 2 q^2 (1 - C^2) |s|^2)
    # where den > 0, and exceeds it at every power elsewhere. Below the
    # largest root of a term with its own weight, that term alone
    # exceeds beta; below the smallest root of a term given the whole
    # weight W, every term's Q exceeds beta / W. Either way u > beta.
    def roots(q_sq, none):
        den = (ch.rows(acf * acf * norm_sq) * ch.d_sq
               - 2.0 * q_sq * ch.rows(1.0 - acf * acf) * ch.s_sq)
        return np.divide(2.0 * q_sq, den, out=np.full(den.shape, none),
                         where=den > 0.0)
    single, whole = ch.q_sq(beta)
    return (np.maximum(ch.reduce(np.maximum, roots(single, 0.0)),
                       ch.reduce(np.minimum, roots(ch.rows(whole), np.inf))),)


@functools.lru_cache(maxsize=None)
def union_bound(scheme: str, order: int) -> UnionBound:
    """The cached UnionBound of constellation_for(scheme, order)."""
    return UnionBound(constellation_for(scheme, order))


@functools.lru_cache(maxsize=None)
def _terms(scheme: str) -> _Terms:
    """The cached grouped terms of every supported order of the scheme."""
    return _Terms([union_bound(scheme, m) for m in SUPPORTED_ORDERS])


# the row kernel of each UnionBound method, and its outputs: the one
# table that the method and union_bound_rows both read
_KERNELS = {UnionBound.u: (_u_rows, 1), UnionBound.floor: (_floor_rows, 1),
            UnionBound.u_and_slope: (_uv_rows, 2),
            UnionBound.u_and_acf_slope: (_uw_rows, 2),
            UnionBound.acf_lower: (_acf_lower_rows, 1),
            UnionBound.gamma_lower: (_gamma_lower_rows, 1)}


def union_bound_rows(scheme: str, order, method, norm_sq: float,
                     *args) -> tuple:
    """`method(bound, norm_sq, *args)`, for a `UnionBound` method such as
    `UnionBound.u`, over rows that each carry their own order, in one call.

    order and the array arguments broadcast to one shape of rows, run on
    the scheme's cached term table (`_terms`), so every output equals the
    per-order method's to the bit: one array per output, shaped like the
    rows. The kernel is the method's in _KERNELS, which its `UnionBound`
    method reads too.
    """
    return tuple(_bound_rows(_terms(scheme), *_KERNELS[method], norm_sq,
                             order, *args))


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
    valid = ((np.bincount(row.ravel(), minlength=b.size) > 0)
             & (0.0 < b) & (b < 0.5))
    alpha_sq[valid] = q_tail_inverse(b[valid]) ** 2
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


def _z_sq(norm_sq: float, acf, gamma):
    """z^2 = gamma C^2 ||h||^2 / (2 gamma (1 - C^2) + 2), divided through by
    gamma so that it cannot overflow."""
    return acf * acf * norm_sq / (2.0 * (1.0 - acf * acf) + 2.0 / gamma)


def _acf_of_z(norm_sq: float, z_sq, gamma):
    """C of z^2 (`_z_sq` inverted), clipped to 1:
    C^2 = 2 z^2 (1 + 1 / gamma) / (||h||^2 + 2 z^2). (1 + 1 / gamma), not
    (gamma + 1) / gamma: gamma (||h||^2 + 2 z^2) can overflow at the
    largest SNR the CLI accepts."""
    c_sq = 2.0 * z_sq * (1.0 + 1.0 / gamma) / (norm_sq + 2.0 * z_sq)
    return np.minimum(np.sqrt(c_sq), 1.0)


def _gamma_of_z(norm_sq: float, acf, z_sq):
    """gamma of z^2 at C (`_z_sq` inverted in gamma):
    gamma = 2 z^2 / (C^2 ||h||^2 - 2 z^2 (1 - C^2)), not positive or not
    finite where that denominator is not positive."""
    c_sq = acf * acf
    return 2.0 * z_sq / (c_sq * norm_sq - 2.0 * z_sq * (1.0 - c_sq))


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


def _psk_z_roots(rate, beta) -> np.ndarray:
    """The root z* of sum(w Q(d z)) = beta (see `_psk_bound_table`) of each
    (rate n, beta) pair of 1-D integer and float arrays, with
    sum(w) / 2 > beta; pairs are solved alone, so a repeated pair costs its
    own row.

    The roots are solved together by `newton_lockstep` in z on [0, +inf),
    each started at the largest single-term root max(Q^-1(beta / w) / d)
    (0 where every beta / w >= 1/2) and done when its bracket is at most
    1e-12 wide and the bound at its upper end, returned, is within 1e-8 of
    beta. Raises DivergenceError naming the pairs that do not converge."""
    w_all, d_all = _psk_bound_table()
    # every root's terms, root by root, without the table's zero-weight
    # padding; `first` is where each root's terms start
    of_root, term = np.nonzero(w_all[rate - 1] > 0.0)
    first = np.flatnonzero(np.diff(of_root, prepend=-1))
    w, d = w_all[rate[of_root] - 1, term], d_all[rate[of_root] - 1, term]
    wd = w * d / _SQRT_2PI
    # Q(d z) = beta / w at z = Q^-1(beta / w) / d, 0 where beta / w >= 1/2
    start = np.maximum.reduceat(
        q_tail_inverse(np.minimum(beta[of_root] / w, 0.5)) / d, first)

    def uv(live, z):
        # every root's terms at once, those of settled roots at z = 0
        z_all = np.zeros(beta.size)
        z_all[live] = z
        q, e = q_and_exp(d * z_all[of_root])
        return (np.add.reduceat(w * q, first)[live],
                np.add.reduceat(wd * e, first)[live])
    return newton_lockstep(uv, beta, start, 0.0, np.inf, _C_ABS_TOL,
                           _BEP_REL_TOL).root


def _psk_acf_rows(norm_sq: float, rate, gamma, beta) -> np.ndarray:
    """C_n of every PSK row (rate n, gamma, beta) of 1-D arrays with
    sum(w) / 2 > beta and u(C = 1) <= beta, from one root z* of
    sum(w Q(d z)) = beta per distinct (rate, beta) (`_psk_z_roots`).

    That root maps to every row in closed form (`_acf_of_z`), and C is
    raised by _C_MARGIN relative and clipped to 1, so that u(C_n) <= beta.
    C rises with z, and d ln C / d ln z = ||h||^2 / (||h||^2 + 2 z^2) <= 1,
    so an error in z moves C by at most C / z times as much. A row's C_n
    depends only on its own (rate, gamma, beta). Raises DivergenceError
    naming the rows of the roots that do not converge."""
    keys, of_row = np.unique(np.stack([rate, beta], axis=1), axis=0,
                             return_inverse=True)
    of_row = of_row.ravel()
    try:
        z = _psk_z_roots(keys[:, 0].astype(np.int64), keys[:, 1])
    except DivergenceError as exc:
        raise DivergenceError(str(exc), cells=np.flatnonzero(
            np.isin(of_row, exc.cells))) from exc
    return np.minimum(_acf_of_z(norm_sq, z[of_row] ** 2, gamma)
                      * (1.0 + _C_MARGIN), 1.0)


def _qam_acf_rows(norm_sq: float, order, gamma, beta) -> np.ndarray:
    """C_n of every QAM row (order, gamma, beta) of 1-D arrays with
    sum(w) / 2 > beta and u(C = 1) <= beta, each row on its own order's
    bound, in one `newton_lockstep` call in PSK's variable z (see
    `_psk_bound_table`).

    QAM terms have unequal |s|^2, so the bound is no function of z alone,
    but ln u is near linear in z where it is concave in C, and a Newton
    step from a far start no longer overshoots to near C = 1. Each row
    runs in z on [0, z(C = 1)] from `acf_lower` mapped into z, evaluates
    u and -du/dC at C(z) (`_acf_of_z`) and takes -du/dz = -du/dC dC/dz,
    with the stopping rule of the PSK roots: its z bracket at most 1e-12
    wide and |ln u - ln beta| <= 1e-8 at the upper end. C_n is that upper
    end mapped to C by the same call, the very C at which u <= beta was
    evaluated. A row's C_n depends only on its own (order, gamma, beta).
    Raises DivergenceError naming the rows that do not converge."""
    def uv(live, z):
        g, z_sq = gamma[live], z * z
        u, w = union_bound_rows("qam", order[live], UnionBound.u_and_acf_slope,
                                norm_sq, _acf_of_z(norm_sq, z_sq, g), g)
        # dC/dz = (C / z) ||h||^2 / s, C / z = sqrt(2 (1 + 1 / gamma) / s)
        s = norm_sq + 2.0 * z_sq
        return u, w * np.sqrt(2.0 * (1.0 + 1.0 / g) / s) * (norm_sq / s)
    start = union_bound_rows("qam", order, UnionBound.acf_lower, norm_sq,
                             gamma, beta)[0]
    z = newton_lockstep(uv, beta, np.sqrt(_z_sq(norm_sq, start, gamma)), 0.0,
                        np.sqrt(_z_sq(norm_sq, 1.0, gamma)), _C_ABS_TOL,
                        _BEP_REL_TOL).root
    return _acf_of_z(norm_sq, z * z, gamma)


def _min_acf_rows(scheme: str, norm_sq: float, rate, gamma, beta,
                  u_one) -> np.ndarray:
    """C_n of every row (rate n, gamma, beta) of 1-D arrays, given u(C = 1)
    of each row, in one solve in z over all rows (`_psk_acf_rows`,
    `_qam_acf_rows`; see acf_thresholds). The bound falls in C
    (`UnionBound.u`), so C in [0, 1] brackets a root wherever u_one meets
    beta, the one check. Errors come in the order of a
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
            out[cells] = _qam_acf_rows(norm_sq, o, g, b)
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
    needs. Both schemes then solve u = bep_threshold in the variable
    z^2 = gamma C^2 ||h||^2 / (2 gamma (1 - C^2) + 2), which rises with C,
    so [0, z(C = 1)] brackets the root wherever C = 1 meets the threshold,
    as the bound falls in C by its form (`UnionBound.u`). Every QAM
    (rate, cell) row runs in one `newton_lockstep` call with u the
    `UnionBound` of the rate's order (`_qam_acf_rows`), from the largest
    single-term root (`UnionBound.acf_lower`) mapped into z, so a grid
    pays the slowest row's iterations, not the sum over rates: at most 6
    on the benchmark's `rate-opt` grids and the fixtures' schedules,
    where the solve in C took up to 12. PSK rows take C_n from one root
    per distinct (rate, threshold) of the PSK bound, a function of z
    alone (`_psk_acf_rows`). On both, a root is done when its z bracket
    is at most 1e-12 wide and the bound at the upper end is within 1e-8
    of the threshold. A QAM C_n is that end mapped to C, the C at which
    the bound was evaluated, so there u(C_n) <= threshold within 1e-8
    relative. A PSK C_n is z* mapped to C and raised by _C_MARGIN (1e-14)
    relative: u(C_n) <= threshold always holds, but where the bound is
    steep near C = 1 the step can move u by more than 1e-8 (case1 at
    34 dB and the least normal threshold: rate 4 reads
    ln(u / threshold) = -3.3e-8). A z bracket of 1e-12 spans at most
    1e-12 sqrt(2 (1 + 1 / gamma) / ||h||^2) in C. On either scheme a
    row's C_n does not depend on the other rows, and C_n = 0 where even
    C = 0 meets the threshold.

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
