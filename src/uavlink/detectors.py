"""ML and sub-optimum detection plus the Monte Carlo BEP estimator.

Under outdated CSI the received vector given symbol s_k is
y ~ CN(a_k h, sigma_k^2 I_N), with a_k = sqrt(gamma) C s_k and
sigma_k^2 = gamma (1 - C^2) |s_k|^2 + 1. The maximum-likelihood metric is
therefore N ln(sigma_k^2) + ||y - a_k h||^2 / sigma_k^2; the sub-optimum
(SO) detector drops the variance weighting and picks the nearest
reference.

Every reference is a multiple of h. Writing y = u h + y_perp with
z = h^H y and u = z / ||h||^2 gives

    ||y - a_k h||^2 = ||y_perp||^2 + ||h||^2 |u - a_k|^2,

so both rules depend on y only through z and ||y_perp||^2, and one real
(n, M) metric serves both: off_k + (||y_perp||^2 + ||h||^2 |u - a_k|^2)
inv_k, with off_k = N ln sigma_k^2, inv_k = 1 / sigma_k^2 for ML and
off = 0, inv = 1 for SO. Where all sigma_k^2 are equal (PSK, 4-QAM, C = 1
or gamma = 0), ML's metric is a monotone map of SO's, and a Monte Carlo
call decides ML as SO (_reduced). Rounding can tie full ML metrics that
SO tells apart, and the full metric takes the lower index where SO takes a
point of the same rounded minimum; seen only where gamma C^2 < 1e-18.

Detection evaluates only the references that can win, and decides exactly
as the full metric does, ties (lowest index) included:

- Slicing, for SO on a grid (QAM 4/8/16/64). |u - a_k|^2 is the sum of a
  real and an imaginary square, so the nearest grid point is the nearest
  level on each axis, found by rounding. Rounded sums can still tie or
  swap where an axis's margin is tiny: at a boundary halfway between two
  levels, or far off the grid, where the other axis's square absorbs the
  difference. A row keeps its slice only when its distance to the nearest
  boundary exceeds 0.5e-9 level spacings times 1 + its squared distance to
  the chosen point (both in spacings).
- Folding, for ML on QAM and SO on the 32-QAM cross. The QAM tables are
  exactly sign-symmetric: a_k = sqrt(gamma) C s_k of the integer-built
  points negates exactly, and sigma_k^2 depends on |s_k|^2 alone. So the
  metric of (|Re u|, |Im u|) against a first-quadrant reference equals, bit
  for bit, that of u against the reference's mirror image in u's quadrant,
  and since rounding is monotone, no reference in another quadrant scores
  below its first-quadrant image. The metric runs on the M/4 first-quadrant
  references and the winner is mapped into u's quadrant. A row keeps the
  fold only when the first-quadrant minimum is unique and both mirror
  images of the winner across one axis score strictly worse, which also
  sends every u on an axis to the full metric.

The rows a reduction does not keep take the full metric. So do whole
tables: the symmetry and the grid are checked on the table's own values,
so PSK, whose rounded points are not exactly mirror-symmetric, and C = 0 or
gamma = 0, which make every a_k zero, keep the full metric, as do single
vectors (ml_detect, so_detect, ML's included), where it is the cheapest.

The Monte Carlo estimator draws those two statistics, not N-antenna
vectors: given s_m, z ~ CN(a_m ||h||^2, sigma_m^2 ||h||^2) and,
independently, ||y_perp||^2 ~ sigma_m^2 Gamma(N - 1). Each batch of 8192
symbols has its own generator, SeedSequence(seed, spawn_key=(b,)), and
draws in a fixed order: the symbol indices, then the real and the
imaginary parts of z's noise (one (2, n) normal block), then, if a table
keeps ML weights, the n gamma variates. None of these depends on
(gamma, C) or on the rule, so one set of draws per batch serves every
point of a call: each synthesises z = a[m] ||h||^2 + sqrt(sigma_m^2
||h||^2 / 2) (n0 + j n1) and ||y_perp||^2 = sigma_m^2 Gamma from them,
once per (gamma, C), where equal tables share one decision. A point's
estimate is its one-point call's, bit for bit, for any thread count.
"""

import enum
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelEstimate
from .constellation import POPCOUNT, Constellation
from .errors import require_finite

__all__ = [
    "DetectorKind",
    "BepEstimate",
    "backend_name",
    "effective_variance",
    "ml_detect",
    "so_detect",
    "monte_carlo_bep",
]

_BATCH = 8192  # fixed batch size; part of the determinism contract
_BLOCK_TERMS = 1 << 15  # metric entries per block: keeps it cache-sized


class DetectorKind(enum.Enum):
    ML = "ml"
    SO = "so"


@dataclass(frozen=True)
class BepEstimate:
    """Monte Carlo BEP with its binomial standard error."""

    bep: float
    bit_errors: int
    bits_simulated: int
    std_error: float


def backend_name() -> str:
    """Name of the detection engine, recorded in every CSV sidecar."""
    return "numpy"


def effective_variance(snr_linear: float, acf_value: float,
                       point: complex) -> float:
    """Per-point effective noise variance gamma (1 - C^2) |s_k|^2 + 1."""
    return snr_linear * (1.0 - acf_value ** 2) * abs(point) ** 2 + 1.0


class _Grid(NamedTuple):
    """Slicer data for references that fill an evenly spaced rectangular
    grid, with one level spacing on both axes, in level order: reference
    i n_i + j sits on real level i and imaginary level j."""

    lo_r: float  # lowest real level
    lo_i: float  # lowest imaginary level
    inv_step: float  # 1 / level spacing
    n_r: int  # number of real levels
    n_i: int  # number of imaginary levels


class _Fold(NamedTuple):
    """Quadrant-fold data for a table that is exactly sign-symmetric."""

    ar: np.ndarray  # (M/4,) real parts of the first-quadrant references
    ai: np.ndarray  # (M/4,) their imaginary parts
    off: np.ndarray | None  # (M/4,) their metric offsets; None for SO
    inv: np.ndarray | None  # (M/4,) their metric weights; None for SO
    # (M,) the reference that first-quadrant reference j becomes in quadrant
    # s = [Re < 0] + 2 [Im < 0], at s M/4 + j
    index: np.ndarray


class _Tables(NamedTuple):
    a: np.ndarray  # (M,) reference coefficients sqrt(gamma) C s_k
    sig2: np.ndarray  # (M,) effective variances sigma_k^2
    off: np.ndarray | None  # (M,) metric offsets; None for SO (zero)
    inv: np.ndarray | None  # (M,) metric weights; None for SO (one)
    grid: _Grid | None = None  # see _reduced
    fold: _Fold | None = None  # see _reduced


def _tables(estimate: ChannelEstimate, acf_value: float, snr_linear: float,
            c: Constellation, detector: DetectorKind) -> _Tables:
    energy = (np.ones(c.order) if c.scheme == "psk"
              else np.abs(c.points) ** 2)
    sig2 = snr_linear * (1.0 - acf_value ** 2) * energy + 1.0
    a = np.sqrt(snr_linear) * acf_value * c.points
    if detector is DetectorKind.SO:
        return _Tables(a, sig2, None, None)
    return _Tables(a, sig2, estimate.h.size * np.log(sig2), 1.0 / sig2)


def _reduced(tab: _Tables) -> _Tables:
    """`tab` with the slicer and fold data its references admit, made SO's
    if it is ML with one offset and one weight. Built once per Monte Carlo
    call, whose batches repay it; single vectors take the full table."""
    if tab.inv is not None and np.ptp(tab.off) == np.ptp(tab.inv) == 0.0:
        tab = tab._replace(off=None, inv=None)
    return tab._replace(grid=_grid_of(tab.a),
                        fold=_fold_of(tab.a, tab.off, tab.inv))


def _grid_of(a: np.ndarray) -> _Grid | None:
    """Slicer data when `a` holds each point of an evenly spaced grid once,
    in level order, with two or more levels per axis and one spacing; else
    None. Plain Python on at most a few dozen points: NumPy's sorting and
    search code would fault in pages of its library for no gain."""
    pts = a.tolist()
    lr, li = sorted({p.real for p in pts}), sorted({p.imag for p in pts})
    if len(lr) < 2 or len(li) < 2 or len(lr) * len(li) != len(pts):
        return None
    step = lr[1] - lr[0]
    if not math.isfinite(1.0 / step):
        return None
    for levels in (lr, li):
        if not all(abs(v - (levels[0] + step * i)) <= 1e-12 * step
                   for i, v in enumerate(levels)):
            return None
    at_r = {v: i for i, v in enumerate(lr)}
    at_i = {v: j for j, v in enumerate(li)}
    if [at_r[p.real] * len(li) + at_i[p.imag] for p in pts] != list(
            range(len(pts))):
        return None
    return _Grid(lr[0], li[0], 1.0 / step, len(lr), len(li))


def _fold_of(a: np.ndarray, off: np.ndarray | None,
             inv: np.ndarray | None) -> _Fold | None:
    """Fold data when the distinct references lie strictly inside the
    quadrants, two or more in each, with mirror images across the axes that
    are references of bit-equal coordinates, offsets and weights; else
    None. Plain Python, as in _grid_of."""
    pts = a.tolist()
    at = {(p.real, p.imag): k for k, p in enumerate(pts)}
    q = [k for k, p in enumerate(pts) if p.real > 0.0 and p.imag > 0.0]
    if len(q) < 2 or 4 * len(q) != len(pts) or len(at) != len(pts):
        return None
    index = [at.get((sr * pts[k].real, si * pts[k].imag))
             for sr, si in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0))
             for k in q]
    if None in index:
        return None
    m4 = len(q)
    fold_off = fold_inv = None
    if off is not None:
        offs, invs = off.tolist(), inv.tolist()
        if not all(offs[k] == offs[q[i % m4]] and invs[k] == invs[q[i % m4]]
                   for i, k in enumerate(index)):
            return None
        fold_off = np.array([offs[k] for k in q])
        fold_inv = np.array([invs[k] for k in q])
    return _Fold(np.array([pts[k].real for k in q]),
                 np.array([pts[k].imag for k in q]), fold_off, fold_inv,
                 np.array(index, dtype=np.int64))


class _Scratch:
    """Named work arrays, each kept and reused across calls that ask for it.

    A Monte Carlo batch needs about 1.5 MB of temporaries. Allocated fresh,
    they are freed at the end of every batch, the allocator hands the memory
    back to the system, and the next batch faults it in again: about 70 page
    faults per 4-QAM batch, whose cost swings with the load on the host.
    Each thread running batches therefore keeps one _Scratch (see
    _thread_scratch), and after its first batch the engine's arrays
    allocate nothing but the symbol indices. Every buffer is written in
    full before it is read, so no value passes from one batch, or one
    caller, to the next. A buffer is raw bytes that any dtype may take, so
    detection keeps its work arrays in buffers that are spent by then: the
    normal block's and _synthesise's, other than z and ||y_perp||^2, and
    the metric blocks'. The batch's complex noise, gamma variates and sent
    labels, and a point's z and ||y_perp||^2, outlive every decision made
    on them.
    """

    def __init__(self):
        self._bufs = {}

    def get(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A C-contiguous array of `shape` and `dtype` over the bytes of
        `name`'s buffer; its contents are left from the last use of
        `name`."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            buf = self._bufs[name] = np.empty(size, dtype=np.uint8)
        return buf[:size].view(dtype).reshape(shape)


class _Fresh:
    """A _Scratch that hands out new arrays: for callers whose results
    must outlive the next call, and for single vectors."""

    @staticmethod
    def get(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        return np.empty(shape, dtype=dtype)


_FRESH = _Fresh()
_LOCAL = threading.local()


def _thread_scratch() -> _Scratch:
    """The calling thread's _Scratch, made on its first use."""
    scratch = getattr(_LOCAL, "scratch", None)
    if scratch is None:
        scratch = _LOCAL.scratch = _Scratch()
    return scratch


@functools.lru_cache(maxsize=None)
def _pool(threads: int) -> ThreadPoolExecutor:
    """The process's executor of `threads` workers, kept for its life, so
    that each worker keeps its _Scratch from one call to the next."""
    return ThreadPoolExecutor(max_workers=threads,
                              thread_name_prefix="uavlink-mc")


def _decide(z: np.ndarray, perp, norm_sq: float, tab: _Tables,
            scratch: _Scratch | _Fresh | None = None) -> np.ndarray:
    """Index of the metric-minimising point per symbol (ties: lowest).

    ML minimises off_k + (perp + ||h||^2 |u - a_k|^2) inv_k with
    u = z/||h||^2. For SO (off = 0, inv = 1) perp and the factor ||h||^2
    are common to every k, so it minimises |u - a_k|^2 and ignores `perp`,
    which may then be None. With the data of _reduced, SO on a grid is
    sliced (_slice) and any other sign-symmetric table folded (_fold);
    every other table, like every row a reduction cannot decide exactly,
    takes the full metric.
    With a `scratch`, the work arrays and the returned indices are its
    buffers, and the normal block's and _synthesise's buffers other than z
    and ||y_perp||^2 are overwritten; without one they are fresh.
    """
    if scratch is None:
        scratch = _FRESH
    n = z.size
    u = np.divide(z, norm_sq, out=scratch.get("u", (n,), np.complex128))
    ur, ui = u.real, u.imag
    out = scratch.get("decided", (n,), np.int64)
    a, off, inv = tab.a, tab.off, tab.inv
    if inv is None and tab.grid is not None:
        exact = _slice(ur, ui, tab.grid, out, scratch)
    elif tab.fold is not None:
        exact = _fold(ur, ui, perp, norm_sq, tab.fold, out, scratch)
    else:
        _argmin(ur, ui, perp, norm_sq, a.real, a.imag, off, inv, out,
                scratch)
        return out
    if not exact.all():
        rows = np.flatnonzero(~exact)
        full = np.empty(rows.size, dtype=np.int64)
        _argmin(ur[rows], ui[rows], None if perp is None else perp[rows],
                norm_sq, a.real, a.imag, off, inv, full, _FRESH)
        out[rows] = full
    return out


@functools.cache
def _index_weights(m: int) -> np.ndarray:
    """(index, 1) per reference, as the two lines of a (2, m) array."""
    weights = np.vstack([np.arange(m, dtype=np.float64), np.ones(m)])
    weights.flags.writeable = False
    return weights


def _argmin(ur: np.ndarray, ui: np.ndarray, perp, norm_sq: float,
            ar: np.ndarray, ai: np.ndarray, off, inv, out: np.ndarray,
            scratch, unique: np.ndarray | None = None) -> np.ndarray:
    """Per row, the index of the smallest metric against the references
    ar + j ai into `out` (ties: lowest), and into `unique` whether no other
    reference attains it; returns the smallest metrics. ML when `inv` is
    not None.

    The metric is laid out (M, rows), one reference per line, so every
    operation runs along the rows, where an argmin along the references
    would be slow. Works in row blocks of at most _BLOCK_TERMS entries. A
    block takes its minimum from one reduction, and the index and the
    number of references attaining it from one product of the indicator of
    the minimum with (index, 1) per reference, exact in floating point.
    """
    n, m = ur.size, ar.size
    step = max(1, _BLOCK_TERMS // m)
    ar, ai = ar[:, None], ai[:, None]
    if inv is not None:
        off, inv = off[:, None], inv[:, None]
    low = scratch.get("scale", (n,))  # _synthesise's scale is spent
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        metric = scratch.get("metric", (m, hi - lo))
        im = scratch.get("im", (m, hi - lo))
        np.subtract(ur[lo:hi], ar, out=metric)
        metric *= metric
        np.subtract(ui[lo:hi], ai, out=im)
        im *= im
        metric += im
        if inv is not None:
            metric *= norm_sq
            metric += perp[lo:hi]
            metric *= inv
            metric += off
        np.minimum.reduce(metric, axis=0, out=low[lo:hi])
        hit = np.equal(metric, low[lo:hi], out=im)
        # the metric is spent: its first two lines take the products
        at, count = np.einsum("ij,jk->ik", _index_weights(m), hit,
                              out=metric[:2])
        np.copyto(out[lo:hi], at, casting="unsafe")
        if unique is not None:
            np.equal(count, 1.0, out=unique[lo:hi])
        # a NaN row attains no minimum and gets 0, as argmin gives it
        if count.max() > 1.0:
            # the first reference at the minimum
            rows = np.flatnonzero(count > 1.0)
            out[lo + rows] = hit[:, rows].argmax(axis=0)
    return low


# A sliced row is exact when its distance to the nearest decision boundary,
# in level spacings, exceeds this factor times (1 + its squared distance to
# the chosen point): 1e-9 of a cell's half-width next to the grid, and a
# relative gap of 1e-9 between the chosen point's metric and any other's
# far from it.
_SLICE_MARGIN = 0.5e-9


@np.errstate(over="ignore")  # a square that overflows fails the margin
def _slice(ur: np.ndarray, ui: np.ndarray, grid: _Grid, out: np.ndarray,
           scratch) -> np.ndarray:
    """SO decisions by rounding u to the nearest level on each axis, into
    `out`; returns the mask of the rows this decides exactly."""
    n = ur.size
    # the work arrays reuse the buffers of _argmin's metric blocks
    t, e, dist, sq = scratch.get("metric", (4, n))
    near = scratch.get("im", (2, n))  # nearest level per axis
    for axis, (u, lo, levels) in enumerate(((ur, grid.lo_r, grid.n_r),
                                            (ui, grid.lo_i, grid.n_i))):
        # per axis: the distance to the nearest boundary and the squared
        # distance to the nearest level, the second axis's into e and t
        d, d2 = (dist, sq) if axis == 0 else (e, t)
        np.subtract(u, lo, out=t)
        t *= grid.inv_step  # position in level spacings
        # fmin/fmax, unlike clip, turn NaN into a valid level; the margin
        # test sends such rows to the full metric
        k = np.rint(t, out=near[axis])
        np.fmin(k, levels - 1, out=k)
        np.fmax(k, 0.0, out=k)
        # boundaries sit halfway between levels, from 0.5 to levels - 1.5
        np.floor(t, out=d)
        d += 0.5
        np.clip(d, 0.5, levels - 1.5, out=d)
        np.subtract(t, d, out=d)
        np.abs(d, out=d)
        np.subtract(t, k, out=d2)
        d2 *= d2
    np.minimum(dist, e, out=dist)
    sq += t
    sq += 1.0
    sq *= _SLICE_MARGIN
    exact = np.greater(dist, sq, out=scratch.get("sig2", (n,), np.bool_))
    cell = near[0]
    cell *= grid.n_i
    cell += near[1]
    np.copyto(out, cell, casting="unsafe")
    return exact


def _fold(ur: np.ndarray, ui: np.ndarray, perp, norm_sq: float, fold: _Fold,
          out: np.ndarray, scratch) -> np.ndarray:
    """Decisions from the metric of (|Re u|, |Im u|) against the
    first-quadrant references, mapped back into u's quadrant, into `out`;
    returns the mask of the rows this decides exactly."""
    n, m4, off, inv = ur.size, fold.ar.size, fold.off, fold.inv
    # the normal block and the point's w are spent; _argmin takes "scale"
    fr, fi = scratch.get("noise", (2, n))
    np.abs(ur, out=fr)
    np.abs(ui, out=fi)
    exact = scratch.get("sig2", (n,), np.bool_)
    own = _argmin(fr, fi, perp, norm_sq, fold.ar, fold.ai, off, inv, out,
                  scratch, exact)
    # the smaller metric of the winner's two mirror images across one axis,
    # in the operation order of _argmin: the rest of the metric after the
    # sum of squares is monotone, so it keeps the smaller one smaller. The
    # work arrays reuse the buffers of _argmin's metric blocks.
    qr, dr = scratch.get("metric", (2, n))
    qi, di = scratch.get("im", (2, n))
    np.take(fold.ar, out, out=qr, mode="clip")
    np.take(fold.ai, out, out=qi, mode="clip")
    np.subtract(fr, qr, out=dr)
    dr *= dr
    np.add(fr, qr, out=qr)
    qr *= qr
    np.subtract(fi, qi, out=di)
    di *= di
    np.add(fi, qi, out=qi)
    qi *= qi
    np.add(qr, di, out=qr)
    np.add(dr, qi, out=qi)
    across = np.minimum(qr, qi, out=qr)
    if inv is not None:
        across *= norm_sq
        across += perp
        across *= np.take(inv, out, out=fr, mode="clip")
        across += np.take(off, out, out=fi, mode="clip")
    sign = scratch.get("w", (n,), np.bool_)
    exact &= np.greater(across, own, out=sign)
    # the winner's entry in fold.index: (2 [Im < 0] + [Re < 0]) M/4 + j
    at = fr.view(np.int64)  # fr is spent
    np.copyto(at, np.signbit(ui, out=sign))
    at += at
    np.add(at, np.signbit(ur, out=sign), out=at)
    at *= m4
    at += out
    np.take(fold.index, at, out=out, mode="clip")
    return exact


def _check_point(acf_value: float, snr_linear: float) -> None:
    if not 0.0 <= acf_value <= 1.0:
        raise ValueError("acf_value must lie in [0, 1]")
    if snr_linear < 0.0:
        raise ValueError(f"snr_linear must be non-negative, got {snr_linear}")


def _detect_one(y: np.ndarray, estimate: ChannelEstimate, acf_value: float,
                snr_linear: float, c: Constellation,
                detector: DetectorKind) -> int:
    """Decision for one received vector, through its two statistics."""
    y = np.asarray(y, dtype=np.complex128)
    h, norm_sq = estimate.h, estimate.norm_sq
    if y.size != h.size:
        raise ValueError(f"y has {y.size} entries; the channel estimate has "
                         f"{h.size}")
    require_finite(y=y, snr_linear=snr_linear)
    _check_point(acf_value, snr_linear)
    z = np.vdot(h, y)
    perp = None  # SO ignores it
    if detector is DetectorKind.ML:
        y_perp = y - (z / norm_sq) * h
        perp = np.array([np.vdot(y_perp, y_perp).real])
    tab = _tables(estimate, acf_value, snr_linear, c, detector)
    return int(_decide(np.array([z]), perp, norm_sq, tab)[0])


def ml_detect(y: np.ndarray, estimate: ChannelEstimate, acf_value: float,
              snr_linear: float, c: Constellation) -> int:
    """Index of the ML decision for one received vector (ties: lowest)."""
    return _detect_one(y, estimate, acf_value, snr_linear, c, DetectorKind.ML)


def so_detect(y: np.ndarray, estimate: ChannelEstimate, acf_value: float,
              snr_linear: float, c: Constellation) -> int:
    """Index of the sub-optimum (nearest-reference) decision."""
    return _detect_one(y, estimate, acf_value, snr_linear, c, DetectorKind.SO)


class _Draws(NamedTuple):
    """One batch's raw draws, common to every point of a Monte Carlo call."""

    tx: np.ndarray  # (n,) symbol indices
    noise: np.ndarray  # (n,) unit complex noise n0 + j n1 of z
    gamma: np.ndarray | None  # (n,) Gamma(N - 1) variates, or None


def _draw(rng: np.random.Generator, n: int, order: int, n_rx: int,
          with_gamma: bool,
          scratch: _Scratch | _Fresh | None = None) -> _Draws:
    """The raw draws of n transmissions, in the draw order of the
    determinism contract: symbol indices, one (2, n) normal block, then the
    gamma variates (only if with_gamma), last, so that they move no other
    draw. None of them depends on (gamma, C) or on the rule. With a `scratch`, the
    noise and gamma variates are its buffers."""
    if scratch is None:
        scratch = _FRESH
    tx = rng.integers(0, order, size=n)
    normals = rng.standard_normal(out=scratch.get("noise", (2, n)))
    noise = np.multiply(1j, normals[1],
                        out=scratch.get("unit_noise", (n,), np.complex128))
    np.add(normals[0], noise, out=noise)
    gamma = None
    if with_gamma:
        gamma = rng.standard_gamma(n_rx - 1, out=scratch.get("gamma", (n,)))
    return _Draws(tx, noise, gamma)


def _synthesise(draws: _Draws, norm_sq: float, tab: _Tables, with_perp: bool,
                scratch: _Scratch | _Fresh | None = None):
    """z = h^H y and ||y_perp||^2 (None unless with_perp) of one point from
    a batch's draws: z = a[tx] ||h||^2 + sqrt(||h||^2 sigma^2[tx] / 2) noise
    and ||y_perp||^2 = gamma sigma^2[tx]. The per-reference factors are
    formed on the table and then taken per symbol; each is the same
    operation on the same values as when formed per symbol. With a
    `scratch`, z and ||y_perp||^2 are its buffers."""
    if scratch is None:
        scratch = _FRESH
    tx, n = draws.tx, draws.tx.size
    # mode="clip" takes without the temporary copy of mode="raise"; every
    # index is in range, so the values are the same
    scale = np.take(np.sqrt(0.5 * norm_sq * tab.sig2), tx,
                    out=scratch.get("scale", (n,)), mode="clip")
    z = np.take(tab.a * norm_sq, tx,
                out=scratch.get("z", (n,), np.complex128), mode="clip")
    z += np.multiply(scale, draws.noise,
                     out=scratch.get("w", (n,), np.complex128))
    perp = None
    if with_perp:
        perp = np.take(tab.sig2, tx, out=scratch.get("perp", (n,)),
                       mode="clip")
        perp *= draws.gamma
    return z, perp


def _run_batch(batch_index: int, n_batch: int, estimate: ChannelEstimate,
               groups: tuple, c: Constellation, seed: int) -> list:
    """Simulate one batch at every point of a call; return the bit-error
    count of each table of `groups`, in order.

    Each group holds the distinct tables evaluated at one (gamma, C), which
    share a and sigma^2: the group synthesises its statistics once, and
    each of its tables decides on them. The generator is derived from
    (seed, batch_index) alone, so the counts are independent of which
    thread runs the batch. The work arrays are the calling thread's
    scratch buffers.
    """
    scratch = _thread_scratch()
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
    # a group needs ||y_perp||^2 when one of its tables keeps ML weights
    perps = [any(tab.inv is not None for tab in group) for group in groups]
    draws = _draw(rng, n_batch, c.order, estimate.h.size, any(perps),
                  scratch)
    sent = np.take(c.labels, draws.tx, out=scratch.get("sent", (n_batch,),
                                                       np.int64), mode="clip")
    got = scratch.get("got", (n_batch,), np.int64)
    errors = []
    for group, with_perp in zip(groups, perps):
        z, perp = _synthesise(draws, estimate.norm_sq, group[0], with_perp,
                              scratch)
        for tab in group:
            detected = _decide(z, perp, estimate.norm_sq, tab, scratch)
            np.take(c.labels, detected, out=got, mode="clip")
            np.bitwise_xor(sent, got, out=got)
            # the decisions are spent: their buffer takes the bit counts
            errors.append(int(np.take(POPCOUNT, got, out=detected,
                                      mode="clip").sum()))
    return errors


def monte_carlo_bep(estimate: ChannelEstimate, acf_value, snr_linear,
                    c: Constellation, detector, n_symbols: int, seed: int,
                    threads: int = 1) -> BepEstimate | list[BepEstimate]:
    """Simulated BEP at one (gamma, C) operating point, or at several.

    Each trial draws a uniform symbol and the two detection statistics it
    produces through an independently evolved channel and noise, then
    detects. Bit errors are counted against the Gray labels.

    `acf_value`, `snr_linear` and `detector` (a DetectorKind or its value,
    or an array of them) broadcast against one another, and each entry of
    the result is one point. With all three scalar the result is one
    BepEstimate; otherwise it is a list of BepEstimates, one per point, in
    C order. Every batch draws its symbols, noise and (see _reduced) gamma
    variates once, and every point synthesises its statistics from them,
    so each point's estimate equals, to the bit, that of its one-point
    call. Results depend only on (seed, n_symbols), never on `threads`.
    Raises ValueError for a non-finite or negative SNR, an ACF outside
    [0, 1] or an unknown detector.
    """
    acf, snr, kinds = np.broadcast_arrays(
        np.asarray(acf_value, dtype=np.float64),
        np.asarray(snr_linear, dtype=np.float64),
        np.asarray(detector, dtype=object))
    require_finite(snr_linear=snr)
    if n_symbols < 1:
        raise ValueError("n_symbols must be at least 1")
    # Python floats, as a one-point caller passes them, so that the tables'
    # scalar arithmetic is Python's
    points = [(a, g, DetectorKind(kind)) for a, g, kind in zip(
        acf.ravel().tolist(), snr.ravel().tolist(), kinds.ravel().tolist())]
    if not points:
        return []
    # (C, gamma) -> {keeps ML weights: (its table, its points' positions)}
    shared = {}
    for i, (a, g, kind) in enumerate(points):
        _check_point(a, g)
        tab = _reduced(_tables(estimate, a, g, c, kind))
        shared.setdefault((a, g), {}).setdefault(tab.inv is not None,
                                                 (tab, []))[1].append(i)
    groups = tuple(tuple(tab for tab, _ in group.values())
                   for group in shared.values())
    slots = [members for group in shared.values()
             for _, members in group.values()]
    sizes = [_BATCH] * (n_symbols // _BATCH)
    if n_symbols % _BATCH:
        sizes.append(n_symbols % _BATCH)

    def job(b: int) -> list:
        return _run_batch(b, sizes[b], estimate, groups, c, seed)

    if threads > 1 and len(sizes) > 1:
        counts = list(_pool(threads).map(job, range(len(sizes))))
    else:
        counts = [job(b) for b in range(len(sizes))]

    bits = n_symbols * c.bits_per_symbol
    out = [None] * len(points)
    for members, errors in zip(slots, zip(*counts)):
        errors = sum(errors)
        bep = errors / bits
        std_error = float(np.sqrt(bep * (1.0 - bep) / bits))
        for slot in members:
            out[slot] = BepEstimate(bep, errors, bits, std_error)
    return out[0] if acf.ndim == 0 else out
