"""ML and sub-optimum detection plus the Monte Carlo BEP estimator.

The maximum-likelihood metric under imperfect CSI is
ln(sigma_e,k^2) + ||y - sqrt(gamma) h C s_k||^2 / sigma_e,k^2 with
sigma_e,k^2 = gamma (1 - C^2) |s_k|^2 + 1; the sub-optimum detector drops
the variance weighting. For PSK the two coincide decision-for-decision
because |s_k| is constant.

The Monte Carlo estimator is batched and seeded so that results are
bit-identical for any thread count.
"""

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._kernels import detect_symbols
from .channel import ChannelEstimate
from .constellation import POPCOUNT, Constellation

__all__ = [
    "DetectorKind",
    "BepEstimate",
    "effective_variance",
    "ml_detect",
    "so_detect",
    "monte_carlo_bep",
]

_BATCH = 8192  # fixed batch size; part of the determinism contract


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


def effective_variance(snr_linear: float, acf_value: float,
                       point: complex) -> float:
    """Per-point effective noise variance gamma (1 - C^2) |s_k|^2 + 1."""
    return snr_linear * (1.0 - acf_value ** 2) * abs(point) ** 2 + 1.0


def _metric_tables(estimate: ChannelEstimate, acf_value: float,
                   snr_linear: float, c: Constellation,
                   detector: DetectorKind):
    """Reference vectors and metric weights shared by both backends."""
    ref = np.sqrt(snr_linear) * acf_value * np.outer(c.points, estimate.h)
    ref = np.ascontiguousarray(ref, dtype=np.complex128)
    if detector is DetectorKind.ML:
        sig2 = (snr_linear * (1.0 - acf_value ** 2) * np.abs(c.points) ** 2
                + 1.0)
        ln_sig2 = np.log(sig2)
    else:
        # identity weights: the SO metric is the ML metric with
        # ln(sigma^2) = 0 and division by exactly 1.0
        sig2 = np.ones(c.order)
        ln_sig2 = np.zeros(c.order)
    return ref, ln_sig2, sig2


def _detect_batch(y: np.ndarray, estimate: ChannelEstimate, acf_value: float,
                  snr_linear: float, c: Constellation,
                  detector: DetectorKind) -> np.ndarray:
    ref, ln_sig2, sig2 = _metric_tables(estimate, acf_value, snr_linear, c,
                                        detector)
    y = np.ascontiguousarray(y, dtype=np.complex128)
    return detect_symbols(y, ref, ln_sig2, sig2)


def ml_detect(y: np.ndarray, estimate: ChannelEstimate, acf_value: float,
              snr_linear: float, c: Constellation) -> int:
    """Index of the ML decision for one received vector (ties: lowest)."""
    idx = _detect_batch(np.asarray(y)[None, :], estimate, acf_value,
                        snr_linear, c, DetectorKind.ML)
    return int(idx[0])


def so_detect(y: np.ndarray, estimate: ChannelEstimate, acf_value: float,
              snr_linear: float, c: Constellation) -> int:
    """Index of the sub-optimum (nearest-reference) decision."""
    idx = _detect_batch(np.asarray(y)[None, :], estimate, acf_value,
                        snr_linear, c, DetectorKind.SO)
    return int(idx[0])


def _run_batch(batch_index: int, n_batch: int, estimate: ChannelEstimate,
               acf_value: float, snr_linear: float, c: Constellation,
               detector: DetectorKind, seed: int) -> int:
    """Simulate one batch and return its bit-error count.

    The generator is derived from (seed, batch_index) alone, so the count
    is independent of which thread runs the batch. Draw order is fixed:
    symbol indices, then the channel innovation, then the noise.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
    n_rx = estimate.h.size
    tx = rng.integers(0, c.order, size=n_batch)
    h_rd = (rng.standard_normal((n_batch, n_rx))
            + 1j * rng.standard_normal((n_batch, n_rx))) * np.sqrt(0.5)
    noise = (rng.standard_normal((n_batch, n_rx))
             + 1j * rng.standard_normal((n_batch, n_rx))) * np.sqrt(0.5)
    h_t = estimate.h[None, :] * acf_value + h_rd * np.sqrt(1.0 - acf_value ** 2)
    y = np.sqrt(snr_linear) * h_t * c.points[tx, None] + noise
    detected = _detect_batch(y, estimate, acf_value, snr_linear, c, detector)
    diff = c.labels[tx] ^ c.labels[detected]
    return int(POPCOUNT[diff].sum())


def monte_carlo_bep(estimate: ChannelEstimate, acf_value: float,
                    snr_linear: float, c: Constellation,
                    detector: DetectorKind, n_symbols: int, seed: int,
                    threads: int = 1) -> BepEstimate:
    """Simulated BEP at one (gamma, C) operating point.

    Each trial draws a uniform symbol, evolves the channel with an
    independent innovation, synthesizes the received vector and detects.
    Bit errors are counted against the Gray labels. Results depend only on
    (seed, n_symbols), never on `threads`.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be at least 1")
    if not 0.0 <= acf_value <= 1.0:
        raise ValueError("acf_value must lie in [0, 1]")
    sizes = [_BATCH] * (n_symbols // _BATCH)
    if n_symbols % _BATCH:
        sizes.append(n_symbols % _BATCH)

    def job(b: int) -> int:
        return _run_batch(b, sizes[b], estimate, acf_value, snr_linear, c,
                          detector, seed)

    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            errors = sum(pool.map(job, range(len(sizes))))
    else:
        errors = sum(job(b) for b in range(len(sizes)))

    bits = n_symbols * c.bits_per_symbol
    bep = errors / bits
    std_error = float(np.sqrt(bep * (1.0 - bep) / bits))
    return BepEstimate(bep, errors, bits, std_error)
