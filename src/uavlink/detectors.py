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
  level on each axis, found by rounding; on the 2 x 2 grid of 4-QAM (both
  rules, see _reduced) it is the level on u's side of the grid's centre,
  read from the signs of u less the centre. Rounded sums can still tie or
  swap where an axis's margin is tiny: at a boundary halfway between two
  levels, or far off the grid, where the other axis's square absorbs the
  difference. A row keeps its slice only when its distance to the nearest
  boundary exceeds 0.5e-9 level spacings times 1 + its squared distance to
  the chosen point (both in spacings).
- Folding, for ML on QAM 16/64 and SO on the 32-QAM cross. These tables
  are exactly sign-symmetric (a_k = sqrt(gamma) C s_k of the
  integer-built points negates exactly, and sigma_k^2 depends on |s_k|^2
  alone) and symmetric under swapping Re and Im. The metric runs on the
  references on or below the first quadrant's diagonal (3 of 16 on
  16-QAM, 10 of 64 on 64-QAM) against u folded into that octant, which is
  bit-exact, and the winner is mapped back into u's octant. One margin
  test certifies the winner against every other reference (see _fold); it
  sends every u on an axis or a diagonal to the full metric. 8-QAM, which
  is not transpose-symmetric, keeps the full metric under ML.

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
once per (gamma, C), where equal tables share one decision. A table's bit
errors are one sum over the flattened Hamming matrix, taken at m M + j
for sent m and decided j. A point's estimate is its one-point call's, bit
for bit, for any thread count.
"""

import enum
import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelEstimate
from .constellation import Constellation, hamming_matrix
from .errors import require_finite

__all__ = [
    "DetectorKind",
    "BepEstimate",
    "backend_name",
    "ml_detect",
    "so_detect",
    "monte_carlo_bep",
]

_BATCH = 8192  # fixed batch size; part of the determinism contract
_BLOCK_TERMS = 1 << 15  # metric entries per block: keeps it cache-sized
# views a _Scratch keeps: bounds them where batch sizes vary call by call
_MAX_VIEWS = 256


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


class _Grid(NamedTuple):
    """Slicer data for references that fill an evenly spaced rectangular
    grid, with one level spacing on both axes, in level order: reference
    i n_i + j sits on real level i and imaginary level j."""

    lo_r: float  # lowest real level
    lo_i: float  # lowest imaginary level
    step: float  # level spacing
    inv_step: float  # 1 / level spacing
    n_r: int  # number of real levels
    n_i: int  # number of imaginary levels


class _Fold(NamedTuple):
    """Fold data for a table that is exactly symmetric under sign flips
    and under swapping Re and Im; see _fold."""

    lr: np.ndarray  # (Lr, 1) the real levels of the folded references
    li: np.ndarray  # (Li, 1) their imaginary levels
    # (j, lo, hi): the folded references lr[lo:hi] + j li[j], in order
    runs: tuple
    # (m, 8): at [j, s], the reference that folded reference j becomes
    # under u's symmetry s = [Re u < 0] + 2 [Im u < 0] + 4 [|Re u| < |Im u|]
    index: np.ndarray
    gap: float  # the margin bound's weight on x - y
    low: float  # its weight on y
    off: np.ndarray | None = None  # (m,) metric offsets; None for SO
    inv: np.ndarray | None = None  # (m,) metric weights; None for SO
    w_min: float = 1.0  # the smallest metric weight

    @property
    def size(self) -> int:
        return self.index.shape[0]

    def squares(self, x: np.ndarray, y: np.ndarray, metric: np.ndarray,
                scratch) -> None:
        """|(x, y) - a_k|^2 into line k of `metric`, from per-axis level
        terms: (x - l)^2 per real and (y - l)^2 per imaginary level, then
        one addition per reference."""
        terms = scratch.get("im", (self.lr.size + self.li.size, x.size))
        dx, dy = terms[:self.lr.size], terms[self.lr.size:]
        np.subtract(x, self.lr, out=dx)
        dx *= dx
        np.subtract(y, self.li, out=dy)
        dy *= dy
        row = 0
        for j, lo, hi in self.runs:
            np.add(dx[lo:hi], dy[j], out=metric[row:row + hi - lo])
            row += hi - lo


class _Tables(NamedTuple):
    a: np.ndarray  # (M,) reference coefficients sqrt(gamma) C s_k
    sig2: np.ndarray  # (M,) effective variances sigma_k^2
    off: np.ndarray | None  # (M,) metric offsets; None for SO (zero)
    inv: np.ndarray | None  # (M,) metric weights; None for SO (one)
    grid: _Grid | None = None  # see _reduced
    fold: _Fold | None = None  # see _reduced

    @property
    def size(self) -> int:
        return self.a.size

    def squares(self, ur: np.ndarray, ui: np.ndarray, metric: np.ndarray,
                scratch) -> None:
        """|u - a_k|^2 into line k of `metric`."""
        im = scratch.get("im", metric.shape)
        np.subtract(ur, self.a.real[:, None], out=metric)
        metric *= metric
        np.subtract(ui, self.a.imag[:, None], out=im)
        im *= im
        metric += im


def _tables(estimate: ChannelEstimate, acf_value: float, snr_linear: float,
            c: Constellation, detector: DetectorKind) -> _Tables:
    energy = (np.ones(c.order) if c.scheme == "psk"
              else np.abs(c.points) ** 2)
    sig2 = snr_linear * (1.0 - acf_value ** 2) * energy + 1.0
    a = np.sqrt(snr_linear) * acf_value * c.points
    if detector is DetectorKind.SO:
        return _Tables(a, sig2, None, None)
    return _Tables(a, sig2, estimate.h.size * np.log(sig2), 1.0 / sig2)


def _reduced(tab: _Tables, layout: tuple | None = None) -> _Tables:
    """`tab` with the slicer and fold data its references admit, made SO's
    if it is ML with one offset and one weight. `layout` is (_grid_of,
    _fold_of) of tab.a, which every table at one (gamma, C) shares; only
    ML's offsets and weights are checked per table. Built once per Monte
    Carlo call, whose batches repay it; single vectors take the full
    table."""
    if tab.inv is not None and np.ptp(tab.off) == np.ptp(tab.inv) == 0.0:
        tab = tab._replace(off=None, inv=None)
    grid, fold = layout or (_grid_of(tab.a), _fold_of(tab.a))
    if fold is not None and tab.inv is not None:
        fold = _weighted(fold, tab.off, tab.inv)
    return tab._replace(grid=grid, fold=fold)


def _grid_of(a: np.ndarray) -> _Grid | None:
    """Slicer data when `a` holds each point of an evenly spaced grid once,
    in level order, with two or more levels per axis and one spacing of at
    least 2^-400; else None. Plain Python on at most a few dozen points:
    NumPy's sorting and search code would fault in pages of its library for
    no gain."""
    re, im = a.real.tolist(), a.imag.tolist()
    lr, li = sorted(set(re)), sorted(set(im))
    if len(lr) < 2 or len(li) < 2 or len(lr) * len(li) != len(re):
        return None
    step = lr[1] - lr[0]
    # finer, squared distances near the grid can underflow, and the full
    # metric then ties points that the slicer tells apart
    if step < 2.0 ** -400:
        return None
    for levels in (lr, li):
        if not all(abs(v - (levels[0] + step * i)) <= 1e-12 * step
                   for i, v in enumerate(levels)):
            return None
    at_r = {v: i for i, v in enumerate(lr)}
    at_i = {v: j for j, v in enumerate(li)}
    if [at_r[r] * len(li) + at_i[i] for r, i in zip(re, im)] != list(
            range(len(re))):
        return None
    return _Grid(lr[0], li[0], step, 1.0 / step, len(lr), len(li))


def _fold_of(a: np.ndarray) -> _Fold | None:
    """SO's fold data when the distinct references lie strictly inside the
    quadrants, with mirror images across the axes and transposes (Re and
    Im swapped) that are references of bit-equal coordinates, and two or
    more references folded; else None. Plain Python, as in _grid_of."""
    pts = list(zip(a.real.tolist(), a.imag.tolist()))
    at = {p: k for k, p in enumerate(pts)}
    q = [(r, i) for r, i in pts if r > 0.0 and i > 0.0]
    if 4 * len(q) != len(pts) or len(at) != len(pts):
        return None
    if not all((i, r) in at for r, i in q):
        return None
    q = [(r, i) for r, i in q if r >= i]
    if len(q) < 2:
        return None
    # by imaginary, then real level, so that each imaginary level's
    # references are runs of consecutive real levels
    q.sort(key=lambda p: (p[1], p[0]))
    # the images of r + j i under u's symmetries s (see _Fold.index)
    images = [((r, i), (-r, i), (r, -i), (-r, -i),
               (i, r), (-i, r), (i, -r), (-i, -r)) for r, i in q]
    index = [[at.get(p) for p in row] for row in images]
    if any(None in row for row in index):
        return None
    lr, li = sorted({r for r, _ in q}), sorted({i for _, i in q})
    at_r = {v: k for k, v in enumerate(lr)}
    at_i = {v: j for j, v in enumerate(li)}
    runs = []
    for r, i in q:
        k, j = at_r[r], at_i[i]
        if runs and runs[-1][0] == j and runs[-1][2] == k:
            runs[-1][2] = k + 1
        else:
            runs.append([j, k, k + 1])
    gap = 2.0 * min((r - i for r, i in q if r > i), default=math.inf)
    return _Fold(np.array(lr)[:, None], np.array(li)[:, None],
                 tuple(map(tuple, runs)), np.array(index, dtype=np.int64),
                 gap, 4.0 * li[0])


def _weighted(fold: _Fold, off: np.ndarray, inv: np.ndarray) -> _Fold | None:
    """`fold` with ML's offsets and weights, when every image of a folded
    reference carries its bit-equal offset and weight; else None."""
    offs, invs = off[fold.index], inv[fold.index]
    if not ((offs == offs[:, :1]).all() and (invs == invs[:, :1]).all()):
        return None
    return fold._replace(off=offs[:, 0].copy(), inv=invs[:, 0].copy(),
                         w_min=float(invs.min()))


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
    normal block's and _synthesise's, other than z (which then holds u)
    and ||y_perp||^2, and the metric blocks'. The batch's complex noise,
    gamma variates and sent symbols' Hamming-matrix offsets, and a point's
    u and ||y_perp||^2, outlive every decision made on them.
    """

    def __init__(self):
        self._bufs = {}
        # (name, shape, dtype) -> its view of the current buffer; a batch
        # asks for about a hundred, and a cached one costs a tenth as much
        self._views = {}

    def get(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A C-contiguous array of `shape` and `dtype` over the bytes of
        `name`'s buffer; its contents are left from the last use of
        `name`."""
        key = (name, shape, dtype)
        view = self._views.get(key)
        if view is None:
            dtype = np.dtype(dtype)
            size = math.prod(shape) * dtype.itemsize
            buf = self._bufs.get(name)
            if buf is None or buf.size < size:
                buf = self._bufs[name] = np.empty(size, dtype=np.uint8)
                self._views = {k: v for k, v in self._views.items()
                               if k[0] != name}
            if len(self._views) >= _MAX_VIEWS:
                self._views.clear()
            view = self._views[key] = buf[:size].view(dtype).reshape(shape)
        return view


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
def _pool(threads: int) -> "ThreadPoolExecutor":
    """The process's executor of `threads` workers, kept for its life, so
    that each worker keeps its _Scratch from one call to the next.
    concurrent.futures is imported here, by the first Monte Carlo run, not
    with the package."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=threads,
                              thread_name_prefix="uavlink-mc")


def _decide(u: np.ndarray, perp, norm_sq: float, tab: _Tables,
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
    buffers, and the normal block's and _synthesise's buffers other than u
    and ||y_perp||^2 are overwritten; without one they are fresh.
    """
    if scratch is None:
        scratch = _FRESH
    ur, ui = u.real, u.imag
    out = scratch.get("decided", (u.size,), np.int64)
    if tab.inv is None and tab.grid is not None:
        exact = _slice(u, tab.grid, out, scratch)
    elif tab.fold is not None:
        exact = _fold(ur, ui, perp, norm_sq, tab.fold, out, scratch)
    else:
        _argmin(ur, ui, perp, norm_sq, tab, out, scratch)
        return out
    if not exact.all():
        rows = np.flatnonzero(~exact)
        full = np.empty(rows.size, dtype=np.int64)
        _argmin(ur[rows], ui[rows], None if perp is None else perp[rows],
                norm_sq, tab, full, _FRESH)
        out[rows] = full
    return out


@functools.cache
def _index_weights(m: int) -> np.ndarray:
    """(index, 1) per reference, as the two lines of a (2, m) array."""
    weights = np.vstack([np.arange(m, dtype=np.float64), np.ones(m)])
    weights.flags.writeable = False
    return weights


def _argmin(ur: np.ndarray, ui: np.ndarray, perp, norm_sq: float,
            refs: _Tables | _Fold, out: np.ndarray, scratch,
            unique: np.ndarray | None = None) -> np.ndarray:
    """Per row, the index of the smallest metric against the references of
    `refs` (a table, or a fold's folded references) into `out` (ties:
    lowest), and into `unique` whether no other reference attains it;
    returns the smallest metrics. ML when refs.inv is not None.

    The metric is laid out (M, rows), one reference per line, so every
    operation runs along the rows, where an argmin along the references
    would be slow. Works in row blocks of at most _BLOCK_TERMS entries. A
    block takes its minimum from one reduction, and the index and the
    number of references attaining it from one product of the indicator of
    the minimum with (index, 1) per reference, exact in floating point.
    """
    n, m, off, inv = ur.size, refs.size, refs.off, refs.inv
    step = max(1, _BLOCK_TERMS // m)
    if inv is not None:
        off, inv = off[:, None], inv[:, None]
    low = scratch.get("scale", (n,))  # _synthesise's scale is spent
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        metric = scratch.get("metric", (m, hi - lo))
        refs.squares(ur[lo:hi], ui[lo:hi], metric, scratch)
        if inv is not None:
            metric *= norm_sq
            metric += perp[lo:hi]
            metric *= inv
            metric += off
        np.minimum.reduce(metric, axis=0, out=low[lo:hi])
        hit = np.equal(metric, low[lo:hi],
                       out=scratch.get("im", (m, hi - lo)))
        # the metric is spent: its first two lines take the products
        at, count = np.matmul(_index_weights(m), hit, out=metric[:2])
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
def _slice(u: np.ndarray, grid: _Grid, out: np.ndarray,
           scratch) -> np.ndarray:
    """SO decisions by rounding u to the nearest level on each axis, into
    `out`; returns the mask of the rows this decides exactly. On a 2 x 2
    grid the nearest level is the one on u's side of the centre, and the
    signs decide (_slice_signs)."""
    if grid.n_r == grid.n_i == 2:
        return _slice_signs(u, grid, out, scratch)
    n, ur, ui = u.size, u.real, u.imag
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


# the 2 x 2 grid's reference at [p_r + 256 p_i], the little-endian uint16 of
# the flags (p_r, p_i) of u lying above the centre on each axis
_SIGNS = np.zeros(258, dtype=np.int64)
_SIGNS[[1, 256, 257]] = 2, 1, 3


def _slice_signs(u: np.ndarray, grid: _Grid, out: np.ndarray,
                 scratch) -> np.ndarray:
    """_slice on a 2 x 2 grid, with its margin. With w = u less the grid's
    centre, |w| per axis is the distance to that axis's one boundary, and
    |w| - step / 2 the distance to the level on w's side, so a row is exact
    when min |w| > _SLICE_MARGIN (step + sum of (|w| - step / 2)^2 / step).
    A row at the centre line, NaN or overflowing fails it."""
    n, half = u.size, 0.5 * grid.step
    mid = complex(grid.lo_r + half, grid.lo_i + half)
    if mid or not u.flags.c_contiguous:
        # _synthesise's w is spent
        u = np.subtract(u, mid, out=scratch.get("w", (n,), np.complex128))
    w = u.view(np.float64).reshape(n, 2)  # per row, Re and Im of w
    above = np.greater(w, 0.0, out=scratch.get("im", (n, 2), np.bool_))
    np.take(_SIGNS, above.view("<u2")[:, 0], out=out, mode="clip")
    # the margin, in the buffer of _argmin's metric blocks
    work = scratch.get("metric", (4, n))
    a, dist, sq = work[:2].reshape(n, 2), work[2], work[3]
    np.abs(w, out=a)
    np.minimum(a[:, 0], a[:, 1], out=dist)
    a -= half
    a *= a
    np.add(a[:, 0], a[:, 1], out=sq)
    sq *= _SLICE_MARGIN / grid.step
    sq += _SLICE_MARGIN * grid.step
    return np.greater(dist, sq, out=scratch.get("sig2", (n,), np.bool_))


# A folded row is exact when the bound derived in _fold exceeds this factor
# times the row's metric, plus _UNDERFLOW (1 + ||h||^2): both far above the
# rounding errors they cover
_FOLD_MARGIN = 1e-9
_UNDERFLOW = 2.0 ** -1000


# a bound that overflows is still a bound; a NaN one (inf - inf on an
# infinite row) fails the margin
@np.errstate(over="ignore", invalid="ignore")
def _fold(ur: np.ndarray, ui: np.ndarray, perp, norm_sq: float, fold: _Fold,
          out: np.ndarray, scratch) -> np.ndarray:
    """Decisions from the metric of the folded u against the folded
    references, mapped back by u's symmetry, into `out`; returns the mask
    of the rows this decides exactly.

    u folds to (x, y) = (max, min) of (|Re u|, |Im u|); the folded
    references are the first-quadrant ones on or below the diagonal,
    p >= q for a reference p + j q. Against a folded reference, the metric
    of (x, y) is, bit for bit, u's against that reference's image under
    u's symmetry, so the folded minimum is the minimum over those images.
    Every other reference is another image (+-p, +-q) or (+-q, +-p) of a
    folded p + j q, and its exact squared distance exceeds
    (x - p)^2 + (y - q)^2 by a sum of non-negative terms: 4 x p or 4 y q
    per sign flip, 2 (x - y)(p - q) for a swap. With x >= y and p >= q
    each term is at least `low` y = 4 l y or `gap` (x - y) = 2 D (x - y),
    l the smallest folded imaginary level and D the smallest p - q > 0 (a
    reference on the diagonal is its own transpose). All images of one
    reference share its offset and weight, so such an image's exact metric
    exceeds the folded one's by at least that bound times ||h||^2 w_min
    (SO, whose metric is the squared distance: times 1). A rounded metric
    sums non-negative terms, so it lies within a few rounding units
    (2^-53) of its exact value, relative, plus at most a few
    2^-1074 (1 + ||h||^2) where a term underflows. So where the folded
    minimum is unique and the bound exceeds _FOLD_MARGIN times that
    minimum plus _UNDERFLOW (1 + ||h||^2), every image of every reference
    rounds to a metric above the winner's, and the fold decides as the
    full metric does; every other row takes the full metric.
    """
    n = ur.size
    ax, ay = scratch.get("noise", (2, n))  # the normal block is spent
    np.abs(ur, out=ax)
    np.abs(ui, out=ay)
    x, y = scratch.get("w", (2, n))  # _synthesise's w is spent
    np.maximum(ax, ay, out=x)
    np.minimum(ax, ay, out=y)
    exact = scratch.get("sig2", (n,), np.bool_)
    own = _argmin(x, y, perp, norm_sq, fold, out, scratch, exact)
    # the margin test, in the spent buffers of _argmin's metric blocks
    bound, t = scratch.get("metric", (2, n))
    weight = 1.0 if fold.inv is None else norm_sq * fold.w_min
    np.subtract(x, y, out=bound)
    bound *= fold.gap * weight
    np.multiply(y, fold.low * weight, out=t)
    np.minimum(bound, t, out=bound)
    np.multiply(own, _FOLD_MARGIN, out=t)
    t += _UNDERFLOW * (1.0 + norm_sq)
    code, flag = scratch.get("code", (2, n), np.int8)
    flag = flag.view(np.bool_)
    exact &= np.greater(bound, t, out=flag)
    # u's symmetry, from its highest bit down
    np.less(ax, ay, out=code.view(np.bool_))
    code += code
    code += np.signbit(ui, out=flag)
    code += code
    code += np.signbit(ur, out=flag)
    at = ax.view(np.int64)  # ax is spent
    np.multiply(out, fold.index.shape[1], out=at)
    at += code
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
    return int(_decide(np.divide(np.array([z]), norm_sq), perp, norm_sq,
                       tab)[0])


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


def _draw(rng: "np.random.Generator", n: int, order: int, n_rx: int,
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
    operation on the same values as when formed per symbol. Where the noise
    scale is one value (PSK, 4-QAM, C = 1 or gamma = 0), that scalar scales
    the noise: the complex product takes the same operands as with its
    gathered copies. With a `scratch`, z and ||y_perp||^2 are its
    buffers."""
    if scratch is None:
        scratch = _FRESH
    tx, n = draws.tx, draws.tx.size
    scale = np.sqrt(0.5 * norm_sq * tab.sig2)
    values = scale.tolist()
    if min(values) == max(values):
        scale = values[0]
    else:
        # mode="clip" takes without the temporary copy of mode="raise";
        # every index is in range, so the values are the same
        scale = np.take(scale, tx, out=scratch.get("scale", (n,)),
                        mode="clip")
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
    share a and sigma^2: the group synthesises its statistics and forms
    u = z/||h||^2 once, and each of its tables decides on them. The
    generator is derived from (seed, batch_index) alone, so the counts are
    independent of which thread runs the batch. The work arrays are the
    calling thread's scratch buffers.
    """
    scratch = _thread_scratch()
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
    # a group needs ||y_perp||^2 when one of its tables keeps ML weights
    perps = [any(tab.inv is not None for tab in group) for group in groups]
    draws = _draw(rng, n_batch, c.order, estimate.h.size, any(perps),
                  scratch)
    # the bit errors of sending k and deciding j are entry k M + j of the
    # flattened Hamming matrix
    hamming = hamming_matrix(c).ravel()
    sent = np.multiply(draws.tx, c.order,
                       out=scratch.get("sent", (n_batch,), np.int64))
    at = scratch.get("at", (n_batch,), np.int64)
    errors = []
    for group, with_perp in zip(groups, perps):
        z, perp = _synthesise(draws, estimate.norm_sq, group[0], with_perp,
                              scratch)
        u = np.divide(z, estimate.norm_sq, out=z)
        for tab in group:
            detected = _decide(u, perp, estimate.norm_sq, tab, scratch)
            np.add(sent, detected, out=at)
            # the decisions are spent: their buffer takes the bit counts
            errors.append(int(np.take(hamming, at, out=detected,
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
    # (C, gamma) -> {keeps ML weights: (its table, its points' positions)},
    # and the layout (_reduced) that the tables at (C, gamma) share
    shared, layouts = {}, {}
    for i, (a, g, kind) in enumerate(points):
        _check_point(a, g)
        tab = _tables(estimate, a, g, c, kind)
        if (a, g) not in layouts:
            layouts[a, g] = (_grid_of(tab.a), _fold_of(tab.a))
        tab = _reduced(tab, layouts[a, g])
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
