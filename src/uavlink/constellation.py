"""Gray-coded PSK and QAM constellations and the pairwise Hamming matrix.

PSK points sit on the unit circle with a binary-reflected Gray labeling
around the ring. QAM uses the square grid for orders 4/16/64 and the usual
rectangular (8) / cross (32) shapes, normalized to unit average energy.
Every QAM order comes from one grid builder, `_qam_grid`: an nx x ny grid
of odd levels with per-axis Gray labels, which 32-QAM folds into the
cross.
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


# (nx, ny) of each QAM order's grid of odd levels: the square for 4/16/64,
# the 4x2 rectangle for 8, and for 32 the 8x4 rectangle folded into the cross
_QAM_GRID = {4: (2, 2), 8: (4, 2), 16: (4, 4), 32: (8, 4), 64: (8, 8)}


def _qam_grid(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer QAM points and labels: the nx x ny grid of odd levels, real
    level major, with per-axis binary-reflected Gray labels. Per-axis Gray
    is an exact Gray labeling on the grid shapes.

    32-QAM folds the outer |x| = 7 columns of its 8x4 rectangle onto the
    |y| = 5 wings of the cross. The fold keeps each moved point adjacent to
    the column it came from, which preserves most single-bit transitions; a
    perfect Gray map does not exist on the cross.
    """
    nx, ny = _QAM_GRID[order]
    i, j = np.divmod(np.arange(order), ny)
    x, y = 2 * i - nx + 1, 2 * j - ny + 1
    if order == 32:
        edge = np.abs(x) == 7
        x[edge] = np.sign(x[edge]) * np.where(np.abs(y[edge]) == 3, 1, 3)
        y[edge] = np.sign(y[edge]) * 5
    labels = (_gray(i) << (ny.bit_length() - 1)) | _gray(j)
    return x + 1j * y, labels


def make_qam(order: int) -> Constellation:
    """M-QAM with unit average energy and (quasi-)Gray labels.

    Orders 4/16/64 are square grids with per-axis binary-reflected Gray
    labels; 8 is the 4x2 rectangle; 32 is the cross constellation with a
    folded quasi-Gray labeling (see _qam_grid). Order 2 is not a QAM
    shape; rate-1 transmission falls back to BPSK via constellation_for.
    """
    _check_order(order)
    if order == 2:
        raise SchemeError("order-2 QAM is not defined; use BPSK (make_psk(2))")
    points, labels = _qam_grid(order)
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
