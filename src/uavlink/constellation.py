"""Gray-coded PSK and QAM constellations and the pairwise Hamming matrix.

PSK points sit on the unit circle with a binary-reflected Gray labeling
around the ring. QAM uses the square grid for orders 4/16/64 and the usual
rectangular (8) / cross (32) shapes, normalized to unit average energy.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SchemeError

__all__ = [
    "SUPPORTED_ORDERS",
    "Constellation",
    "make_psk",
    "make_qam",
    "constellation_for",
    "hamming_matrix",
]

SUPPORTED_ORDERS = (2, 4, 8, 16, 32, 64)

# popcount of every 6-bit label (and label XOR); labels fit in 6 bits
POPCOUNT = np.array([bin(v).count("1") for v in range(64)], dtype=np.int64)


def _gray(n: int) -> int:
    return n ^ (n >> 1)


@dataclass(frozen=True)
class Constellation:
    """An M-point constellation with integer Gray labels.

    points[k] is the complex symbol transmitted for label labels[k]; the
    label is the log2(M)-bit pattern carried by that symbol.
    """

    scheme: str
    order: int
    points: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    def bit_labels(self) -> list[str]:
        """Labels as zero-padded bit strings, for CSV export and debugging."""
        width = self.bits_per_symbol
        return [format(int(v), f"0{width}b") for v in self.labels]


def _check_order(order: int) -> None:
    if order not in SUPPORTED_ORDERS:
        raise SchemeError(f"unsupported modulation order {order}")


def make_psk(order: int) -> Constellation:
    """M-PSK on the unit circle, Gray-labeled around the ring."""
    _check_order(order)
    k = np.arange(order)
    points = np.exp(2j * np.pi * k / order)
    labels = np.array([_gray(int(i)) for i in range(order)], dtype=np.int64)
    return Constellation("psk", order, points, labels)


def _square_qam(order: int) -> tuple[np.ndarray, np.ndarray]:
    bits = order.bit_length() - 1
    half = bits // 2
    nx = ny = 1 << half
    xs = 2 * np.arange(nx) - nx + 1
    ys = 2 * np.arange(ny) - ny + 1
    points, labels = [], []
    for i in range(nx):
        for j in range(ny):
            points.append(xs[i] + 1j * ys[j])
            labels.append((_gray(i) << half) | _gray(j))
    return np.array(points), np.array(labels, dtype=np.int64)


def _rect_qam8() -> tuple[np.ndarray, np.ndarray]:
    # 4x2 grid; per-axis Gray is an exact Gray labeling here
    xs = np.array([-3, -1, 1, 3])
    ys = np.array([-1, 1])
    points, labels = [], []
    for i in range(4):
        for j in range(2):
            points.append(xs[i] + 1j * ys[j])
            labels.append((_gray(i) << 1) | _gray(j))
    return np.array(points), np.array(labels, dtype=np.int64)


def _cross_qam32() -> tuple[np.ndarray, np.ndarray]:
    # Start from a Gray-labeled 8x4 rectangle and fold the outer |x|=7
    # columns onto the |y|=5 wings of the cross. The fold keeps each moved
    # point adjacent to the column it came from, which preserves most
    # single-bit transitions; a perfect Gray map does not exist on the cross.
    xs = np.array([-7, -5, -3, -1, 1, 3, 5, 7])
    ys = np.array([-3, -1, 1, 3])
    points, labels = [], []
    for i in range(8):
        for j in range(4):
            x, y = int(xs[i]), int(ys[j])
            if abs(x) == 7:
                sx = 1 if x > 0 else -1
                sy = 1 if y > 0 else -1
                x = sx * (1 if abs(y) == 3 else 3)
                y = sy * 5
            points.append(x + 1j * y)
            labels.append((_gray(i) << 2) | _gray(j))
    return np.array(points), np.array(labels, dtype=np.int64)


def make_qam(order: int) -> Constellation:
    """M-QAM with unit average energy and (quasi-)Gray labels.

    Orders 4/16/64 are square grids with per-axis binary-reflected Gray
    labels; 8 is the 4x2 rectangle; 32 is the cross constellation with a
    folded quasi-Gray labeling (see _cross_qam32). Order 2 is not a QAM
    shape; rate-1 transmission falls back to BPSK via constellation_for.
    """
    _check_order(order)
    if order == 2:
        raise SchemeError("order-2 QAM is not defined; use BPSK (make_psk(2))")
    if order in (4, 16, 64):
        points, labels = _square_qam(order)
    elif order == 8:
        points, labels = _rect_qam8()
    else:
        points, labels = _cross_qam32()
    points = points / np.sqrt(np.mean(np.abs(points) ** 2))
    return Constellation("qam", order, points, labels)


def constellation_for(scheme: str, order: int) -> Constellation:
    """Dispatch on scheme name; rate-1 "QAM" is BPSK by convention."""
    scheme = scheme.lower()
    if scheme == "psk":
        return make_psk(order)
    if scheme == "qam":
        if order == 2:
            return make_psk(2)
        return make_qam(order)
    raise SchemeError(f"unknown scheme {scheme!r}")


def hamming_matrix(c: Constellation) -> np.ndarray:
    """M x M matrix of label bit differences N[m, m_hat]."""
    return POPCOUNT[c.labels[:, None] ^ c.labels[None, :]]
