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
off = 0, inv = 1 for SO. PSK uses |s_k|^2 = 1 exactly, so its offsets and
weights are common to every point and ML equals SO decision for decision.

The Monte Carlo estimator draws those two statistics, not N-antenna
vectors: given s_m, z ~ CN(a_m ||h||^2, sigma_m^2 ||h||^2) and,
independently, ||y_perp||^2 ~ sigma_m^2 Gamma(N - 1). Each batch of 8192
symbols has its own generator, SeedSequence(seed, spawn_key=(b,)), and
draws in a fixed order: the symbol indices, then the real and the
imaginary parts of z's noise (one (2, n) normal block), then, for ML only,
the n gamma variates. Results are bit-identical for any thread count.
"""

import enum
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


class _Tables(NamedTuple):
    a: np.ndarray  # (M,) reference coefficients sqrt(gamma) C s_k
    sig2: np.ndarray  # (M,) effective variances sigma_k^2
    off: np.ndarray | None  # (M,) metric offsets; None for SO (zero)
    inv: np.ndarray | None  # (M,) metric weights; None for SO (one)


def _tables(estimate: ChannelEstimate, acf_value: float, snr_linear: float,
            c: Constellation, detector: DetectorKind) -> _Tables:
    energy = (np.ones(c.order) if c.scheme == "psk"
              else np.abs(c.points) ** 2)
    sig2 = snr_linear * (1.0 - acf_value ** 2) * energy + 1.0
    a = np.sqrt(snr_linear) * acf_value * c.points
    if detector is DetectorKind.SO:
        return _Tables(a, sig2, None, None)
    return _Tables(a, sig2, estimate.h.size * np.log(sig2), 1.0 / sig2)


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
    caller, to the next.
    """

    def __init__(self):
        self._bufs = {}

    def get(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A C-contiguous array of `shape` and `dtype`; its contents are
        left from the last use of `name`."""
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._bufs[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


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


def _decide(z: np.ndarray, perp, norm_sq: float, tab: _Tables,
            scratch: _Scratch | _Fresh | None = None) -> np.ndarray:
    """Index of the metric-minimising point per symbol (ties: lowest).

    ML minimises off_k + (perp + ||h||^2 |u - a_k|^2) inv_k with
    u = z/||h||^2. For SO (off = 0, inv = 1) perp and the factor ||h||^2
    are common to every k, so it minimises |u - a_k|^2 and ignores `perp`,
    which may then be None. Works in row blocks of at most _BLOCK_TERMS
    entries. With a `scratch`, the work arrays and the returned indices are
    its buffers; without one they are fresh.
    """
    if scratch is None:
        scratch = _FRESH
    n, m = z.size, tab.a.size
    u = np.divide(z, norm_sq, out=scratch.get("u", (n,), np.complex128))
    ur, ui = u.real, u.imag
    ar, ai = tab.a.real, tab.a.imag
    out = scratch.get("decided", (n,), np.int64)
    step = max(1, _BLOCK_TERMS // m)
    metric_buf = scratch.get("metric", (min(step, n), m))
    im_buf = scratch.get("im", (min(step, n), m))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        metric, im = metric_buf[:hi - lo], im_buf[:hi - lo]
        np.subtract.outer(ur[lo:hi], ar, out=metric)
        metric *= metric
        np.subtract.outer(ui[lo:hi], ai, out=im)
        im *= im
        metric += im
        if tab.inv is not None:
            metric *= norm_sq
            metric += perp[lo:hi, None]
            metric *= tab.inv
            metric += tab.off
        metric.argmin(axis=1, out=out[lo:hi])
    return out


def _detect_one(y: np.ndarray, estimate: ChannelEstimate, acf_value: float,
                snr_linear: float, c: Constellation,
                detector: DetectorKind) -> int:
    """Decision for one received vector, through its two statistics."""
    y = np.asarray(y, dtype=np.complex128)
    h, norm_sq = estimate.h, estimate.norm_sq
    z = np.vdot(h, y)
    y_perp = y - (z / norm_sq) * h
    perp = np.vdot(y_perp, y_perp).real
    tab = _tables(estimate, acf_value, snr_linear, c, detector)
    return int(_decide(np.array([z]), np.array([perp]), norm_sq, tab)[0])


def ml_detect(y: np.ndarray, estimate: ChannelEstimate, acf_value: float,
              snr_linear: float, c: Constellation) -> int:
    """Index of the ML decision for one received vector (ties: lowest)."""
    return _detect_one(y, estimate, acf_value, snr_linear, c, DetectorKind.ML)


def so_detect(y: np.ndarray, estimate: ChannelEstimate, acf_value: float,
              snr_linear: float, c: Constellation) -> int:
    """Index of the sub-optimum (nearest-reference) decision."""
    return _detect_one(y, estimate, acf_value, snr_linear, c, DetectorKind.SO)


def _draw(rng: np.random.Generator, n: int, estimate: ChannelEstimate,
          tab: _Tables, with_perp: bool,
          scratch: _Scratch | _Fresh | None = None):
    """Symbol indices, z = h^H y and ||y_perp||^2 (None unless with_perp)
    for n transmissions, in the draw order of the determinism contract.
    With a `scratch`, z and ||y_perp||^2 are its buffers."""
    if scratch is None:
        scratch = _FRESH
    norm_sq = estimate.norm_sq
    tx = rng.integers(0, tab.a.size, size=n)
    noise = rng.standard_normal(out=scratch.get("noise", (2, n)))
    # mode="clip" takes without the temporary copy of mode="raise"; every
    # index is in range, so the values are the same
    sig2 = np.take(tab.sig2, tx, out=scratch.get("sig2", (n,)), mode="clip")
    scale = np.multiply(0.5 * norm_sq, sig2, out=scratch.get("scale", (n,)))
    np.sqrt(scale, out=scale)
    # z = a[tx] ||h||^2 + scale (noise[0] + 1j noise[1]), operation by
    # operation
    z = np.take(tab.a, tx, out=scratch.get("z", (n,), np.complex128),
                mode="clip")
    z *= norm_sq
    w = np.multiply(1j, noise[1], out=scratch.get("w", (n,), np.complex128))
    np.add(noise[0], w, out=w)
    np.multiply(scale, w, out=w)
    z += w
    perp = None
    if with_perp:
        perp = rng.standard_gamma(estimate.h.size - 1,
                                  out=scratch.get("perp", (n,)))
        perp *= sig2
    return tx, z, perp


def _run_batch(batch_index: int, n_batch: int, estimate: ChannelEstimate,
               tab: _Tables, c: Constellation, seed: int) -> int:
    """Simulate one batch and return its bit-error count.

    The generator is derived from (seed, batch_index) alone, so the count
    is independent of which thread runs the batch. The work arrays are the
    calling thread's scratch buffers.
    """
    scratch = _thread_scratch()
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
    tx, z, perp = _draw(rng, n_batch, estimate, tab,
                        with_perp=tab.inv is not None, scratch=scratch)
    detected = _decide(z, perp, estimate.norm_sq, tab, scratch)
    sent = np.take(c.labels, tx, out=scratch.get("sent", (n_batch,),
                                                 np.int64), mode="clip")
    got = np.take(c.labels, detected, out=scratch.get("got", (n_batch,),
                                                      np.int64), mode="clip")
    np.bitwise_xor(sent, got, out=sent)
    return int(np.take(POPCOUNT, sent, out=got, mode="clip").sum())


def monte_carlo_bep(estimate: ChannelEstimate, acf_value: float,
                    snr_linear: float, c: Constellation,
                    detector: DetectorKind, n_symbols: int, seed: int,
                    threads: int = 1) -> BepEstimate:
    """Simulated BEP at one (gamma, C) operating point.

    Each trial draws a uniform symbol and the two detection statistics it
    produces through an independently evolved channel and noise, then
    detects. Bit errors are counted against the Gray labels. Results depend
    only on (seed, n_symbols), never on `threads`. Raises ValueError for a
    non-finite SNR.
    """
    require_finite(snr_linear=snr_linear)
    if n_symbols < 1:
        raise ValueError("n_symbols must be at least 1")
    if not 0.0 <= acf_value <= 1.0:
        raise ValueError("acf_value must lie in [0, 1]")
    sizes = [_BATCH] * (n_symbols // _BATCH)
    if n_symbols % _BATCH:
        sizes.append(n_symbols % _BATCH)
    tab = _tables(estimate, acf_value, snr_linear, c, detector)

    def job(b: int) -> int:
        return _run_batch(b, sizes[b], estimate, tab, c, seed)

    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            errors = sum(pool.map(job, range(len(sizes))))
    else:
        errors = sum(job(b) for b in range(len(sizes)))

    bits = n_symbols * c.bits_per_symbol
    bep = errors / bits
    std_error = float(np.sqrt(bep * (1.0 - bep) / bits))
    return BepEstimate(bep, errors, bits, std_error)
