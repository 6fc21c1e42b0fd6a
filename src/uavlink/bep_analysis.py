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
rate regions in power_control. Both are solved by one lockstep
safeguarded Newton, `lockstep.newton_lockstep`, on the bound's value and
slope, and every solve starts from one closed form in
z^2 = gamma C^2 ||h||^2 / (2 gamma (1 - C^2) + 2), once per distinct
(order, threshold) of a call (`_z_start`). Both schemes solve C_n in z,
in which ln u is near linear where it is concave in C. Every PSK term
has |s|^2 = 1, so the PSK bound is a function of z alone: one root z*
per (order, threshold) (`_psk_z_roots`) gives the C_n of every cell in
closed form (`_psk_acf_rows`), and the power at any C (`_gamma_of_z`).
QAM rows are solved in z row by row, each on its own order's bound at
C(z) (`_qam_acf_rows`, `u_and_acf_slope` times dC/dz); the power in
ln(gamma) (`u_and_slope`). The bound falls in C by its form
(`UnionBound.u`), so the C_n solve checks only C = 1 and raises
MonotonicityError only when it does not converge. Beside it sits the
Gray-mapping PSK approximation, one term table (`_PSK_TERMS`) read by its
forward form and its closed-form inverse, both over per-sample orders.
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


class _Terms:
    """Orders' grouped terms end to end, read-only: s^2, d^2, w, and each
    order's first term and count."""

    def __init__(self, bounds):
        self.orders = np.array([b.order for b in bounds])
        self.count = np.array([b.n_terms for b in bounds])
        self.start = np.cumsum(self.count) - self.count
        self.s_sq, self.d_sq, self.weight = (
            np.concatenate([getattr(b, name) for b in bounds])
            for name in ("s_sq", "d_sq", "weight"))
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

    def max(self, part):  # each row's largest value
        return (np.maximum.reduceat(part, self.first) if self.flat
                else part.max(axis=-1))


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


def _z_start_rows(ch, _, beta):
    # each term's two roots, or the whole weight's (see `_z_start`)
    d = np.sqrt(ch.d_sq)
    z = q_tail_inverse(np.minimum(ch.rows(beta) / ch.terms.weight[ch.term],
                                  0.5))
    z /= d
    z_s, z_inf_sq = ch.max(z), ch.max(z * z * ch.s_sq)
    if not z_s.all():
        whole = q_tail_inverse(np.minimum(beta / ch.sum(np.ones(d.shape)),
                                          0.5)) / ch.max(d)
        z_inf_sq = np.where(z_s > 0.0, z_inf_sq,
                            whole * whole * -ch.max(-ch.s_sq))
        z_s = np.where(z_s > 0.0, z_s, whole)
    with np.errstate(invalid="ignore"):  # 0 / 0 where beta >= W / 2
        return z_s, z_inf_sq / (z_s * z_s)


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
            UnionBound.u_and_acf_slope: (_uw_rows, 2)}


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


def _acf_of_z(norm_sq: float, z_sq, gamma, s_sq=1.0):
    """C of z^2 (`_z_sq` inverted), clipped to 1:
    C^2 = 2 z^2 (s^2 + 1 / gamma) / (||h||^2 + 2 z^2 s^2), s^2 = 1; at
    s^2 = s_sq, the C at which a term's argument is d z (`_z_start`).
    (1 + 1 / gamma), not (gamma + 1) / gamma: gamma (||h||^2 + 2 z^2) can
    overflow at the largest SNR the CLI accepts."""
    c_sq = 2.0 * z_sq * (s_sq + 1.0 / gamma) / (norm_sq + 2.0 * z_sq * s_sq)
    return np.minimum(np.sqrt(c_sq), 1.0)


def _gamma_of_z(norm_sq: float, acf, z_sq, s_sq=1.0):
    """gamma of z^2 at C (`_z_sq` inverted in gamma):
    gamma = 2 z^2 / (C^2 ||h||^2 - 2 z^2 (1 - C^2) s^2), s^2 = 1 (at
    s_sq, as `_acf_of_z`), not positive or not finite where that
    denominator is not positive."""
    c_sq = acf * acf
    return 2.0 * z_sq / (c_sq * norm_sq - 2.0 * z_sq * (1.0 - c_sq) * s_sq)


def _pairs(key, beta) -> tuple:
    """(keys, betas, of_row): the distinct (key, beta) pairs of 1-D integer
    and float rows, ascending by key and then beta, and each row's pair,
    from one 1-D np.unique call of each column."""
    keys, of_key = np.unique(key, return_inverse=True)
    betas, of_beta = np.unique(beta, return_inverse=True)
    pair, of_row = np.unique(of_key * betas.size + of_beta,
                             return_inverse=True)
    return keys[pair // betas.size], betas[pair % betas.size], of_row


def _z_start(scheme: str, order, beta) -> tuple:
    """(z_s, s^2), the start of every inversion of the scheme's bound, at
    each row (order, beta) of broadcast arrays. With t = gamma (1 - C^2)
    and z^2 = gamma C^2 ||h||^2 / (2 t + 2), a term's argument is
    d z sqrt((t + 1) / (t |s|^2 + 1)), d^2 = |ds|^2: a term of weight w
    alone equals beta at z = Q^-1(beta / w) / d at C = 1 and at that
    times |s| as t grows. z_s is the largest first root over the order's
    terms, z_inf the largest second one, s^2 = z_inf^2 / z_s^2; a start
    is the root of d z sqrt((t + 1) / (t s^2 + 1)) = d z_s at a row's
    gamma (`_acf_of_z`) or a sample's C (`_gamma_of_z`). Where no term
    alone reaches beta (every beta / w >= 1/2), z_s is Q^-1(beta / W) /
    d_max, the whole weight W on the farthest term, and z_inf is z_s
    times the least |s|; z_s > 0 wherever W / 2 > beta. On PSK s^2 = 1,
    the bound is sum(w Q(d z)) and z_s a lower bracket of its root z*; on
    QAM a start lies near the root. z_inf, the floor's largest
    single-term root in sqrt(rho / 2), rho = C^2 ||h||^2 / (1 - C^2), is
    below the floor's root, so every start is a finite power where the
    floor is below beta."""
    return tuple(_bound_rows(_terms(scheme), _z_start_rows, 2, None, order,
                             beta))


def _psk_z_roots(rate, beta) -> np.ndarray:
    """The root z* of sum(w Q(d z)) = beta (see `_z_start`) of each
    (rate n, beta) pair of 1-D integer and float arrays, with
    sum(w) / 2 > beta; pairs are solved alone, so a repeated pair costs its
    own row.

    The roots are solved together by `newton_lockstep` in z on [0, +inf),
    each started at its z_s (`_z_start`) and done when its bracket is at
    most 1e-12 wide and the bound at its upper end, returned, is within
    1e-8 of beta. Raises DivergenceError naming the pairs that do not
    converge."""
    terms = _terms("psk")
    # every root's terms, root by root (row n - 1 of the table for rate
    # n); `first` is where each root's terms start
    n = terms.count[rate - 1]
    of_root = np.repeat(np.arange(rate.size), n)
    first = np.cumsum(n) - n
    term = (terms.start[rate - 1] - first)[of_root] + np.arange(of_root.size)
    w, d = terms.weight[term], np.sqrt(terms.d_sq[term])
    wd = w * d / _SQRT_2PI

    def uv(live, z):
        # every root's terms at once, those of settled roots at z = 0
        z_all = np.zeros(beta.size)
        z_all[live] = z
        q, e = q_and_exp(d * z_all[of_root])
        return (np.add.reduceat(w * q, first)[live],
                np.add.reduceat(wd * e, first)[live])
    return newton_lockstep(uv, beta, _z_start("psk", 1 << rate, beta)[0], 0.0,
                           np.inf, _C_ABS_TOL, _BEP_REL_TOL).root


def _psk_acf_rows(norm_sq: float, rate, gamma, beta) -> np.ndarray:
    """C_n of every PSK row (rate n, gamma, beta) of 1-D arrays with
    sum(w) / 2 > beta and u(C = 1) <= beta, from one root z* of
    sum(w Q(d z)) = beta per distinct (rate, beta) (`_pairs`,
    `_psk_z_roots`).

    That root maps to every row in closed form (`_acf_of_z`), and C is
    raised by _C_MARGIN relative and clipped to 1, so that u(C_n) <= beta.
    C rises with z, and d ln C / d ln z = ||h||^2 / (||h||^2 + 2 z^2) <= 1,
    so an error in z moves C by at most C / z times as much. A row's C_n
    depends only on its own (rate, gamma, beta). Raises DivergenceError
    naming the rows of the roots that do not converge."""
    rates, betas, of_row = _pairs(rate, beta)
    try:
        z = _psk_z_roots(rates, betas)
    except DivergenceError as exc:
        raise DivergenceError(str(exc), cells=np.flatnonzero(
            np.isin(of_row, exc.cells))) from exc
    return np.minimum(_acf_of_z(norm_sq, z[of_row] ** 2, gamma)
                      * (1.0 + _C_MARGIN), 1.0)


def _acf_slope_in_z(norm_sq: float, z_sq, gamma):
    """dC/dz of `_acf_of_z`, unclipped: (C / z) ||h||^2 / s, with
    s = ||h||^2 + 2 z^2 and C / z = sqrt(2 (1 + 1 / gamma) / s)."""
    s = norm_sq + 2.0 * z_sq
    return np.sqrt(2.0 * (1.0 + 1.0 / gamma) / s) * (norm_sq / s)


def _qam_acf_rows(norm_sq: float, order, gamma, beta) -> np.ndarray:
    """C_n of every QAM row (order, gamma, beta) of 1-D arrays with
    sum(w) / 2 > beta and u(C = 1) <= beta, each row on its own order's
    bound, in one `newton_lockstep` call in PSK's variable z (see
    `_z_start`).

    QAM terms have unequal |s|^2, so the bound is no function of z alone,
    but ln u is near linear in z where it is concave in C, and a Newton
    step from a far start no longer overshoots to near C = 1. Each row
    runs in z on [0, z(C = 1)] from its (order, beta)'s start
    (`_z_start`) at its gamma, evaluates u and -du/dC at C(z)
    (`_acf_of_z`) and takes -du/dz = -du/dC dC/dz, with the stopping rule
    of the PSK roots: its z bracket at most tol wide and
    |ln u - ln beta| <= 1e-8 at the upper end. tol is 1e-12, or the
    z-width of one ulp of C at the iterate where wider (it grows with z,
    so taken at a start far below the root it would be too narrow): near
    C = 1 a narrower step leaves C, and so u, unchanged, and the bracket
    would close only by crawling. C_n is that upper end mapped to C by
    the same call, the very C at which u <= beta was evaluated. A row's
    C_n depends only on its own (order, gamma, beta). Raises
    DivergenceError naming the rows that do not converge."""
    def uv(live, z):
        g, z_sq = gamma[live], z * z
        u, w = union_bound_rows("qam", order[live], UnionBound.u_and_acf_slope,
                                norm_sq, _acf_of_z(norm_sq, z_sq, g), g)
        return u, w * _acf_slope_in_z(norm_sq, z_sq, g)
    def tol(live, z):
        g, z_sq = gamma[live], z * z
        return np.maximum(np.spacing(_acf_of_z(norm_sq, z_sq, g))
                          / _acf_slope_in_z(norm_sq, z_sq, g), _C_ABS_TOL)
    orders, betas, of_row = _pairs(order, beta)
    z_s, s_sq = (a[of_row] for a in _z_start("qam", orders, betas))
    start = np.sqrt(_z_sq(norm_sq, _acf_of_z(norm_sq, z_s * z_s, gamma, s_sq),
                          gamma))
    z_one = np.sqrt(_z_sq(norm_sq, 1.0, gamma))
    z = newton_lockstep(uv, beta, start, 0.0, z_one, tol, _BEP_REL_TOL).root
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
    `UnionBound` of the rate's order (`_qam_acf_rows`), from the start of
    `_z_start` at its gamma, so a grid pays the slowest row's iterations,
    not the sum over rates: at most 6 on the benchmark's `rate-opt` grids
    and the fixtures' schedules, where the solve in C took up to 12. PSK
    rows take C_n from one root per distinct (rate, threshold) of the PSK
    bound, a function of z alone, from z_s (`_psk_acf_rows`). On both, a
    root is done when its z bracket is at most 1e-12 wide (on QAM, or one
    ulp of C wide in z where that is wider) and the bound at the upper
    end is within 1e-8 of the threshold. A QAM C_n is that end mapped to
    C, the C at which the bound was evaluated, so there
    u(C_n) <= threshold within 1e-8 relative. A PSK C_n is z* mapped to C
    and raised by _C_MARGIN (1e-14) relative: u(C_n) <= threshold always
    holds, but where the bound is
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
