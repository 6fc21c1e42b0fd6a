"""Constellation shapes, energy normalization, and Gray labelings."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavlink import (
    SUPPORTED_ORDERS,
    constellation_for,
    hamming_matrix,
    make_psk,
    make_qam,
)
from uavlink.errors import SchemeError

QAM_ORDERS = (4, 8, 16, 32, 64)


def _min_distance_pairs(points: np.ndarray):
    d = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(d, np.inf)
    dmin = d.min()
    pairs = np.argwhere(np.isclose(d, dmin, rtol=1e-9))
    return pairs[pairs[:, 0] < pairs[:, 1]]


def _hamming(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


# --- the three QAM builders the one grid builder replaced, as the oracle --

def _gray(n: int) -> int:
    return n ^ (n >> 1)


def _square_qam(order: int):
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


def _rect_qam8():
    xs = np.array([-3, -1, 1, 3])
    ys = np.array([-1, 1])
    points, labels = [], []
    for i in range(4):
        for j in range(2):
            points.append(xs[i] + 1j * ys[j])
            labels.append((_gray(i) << 1) | _gray(j))
    return np.array(points), np.array(labels, dtype=np.int64)


def _cross_qam32():
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


def _oracle_qam(order: int):
    points, labels = (_rect_qam8() if order == 8 else _cross_qam32()
                      if order == 32 else _square_qam(order))
    return points / np.sqrt(np.mean(np.abs(points) ** 2)), labels


class TestShapes:
    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_psk_on_unit_circle(self, order):
        c = make_psk(order)
        np.testing.assert_allclose(np.abs(c.points), 1.0, rtol=1e-14)
        assert len(set(np.round(c.points, 12))) == order

    @pytest.mark.parametrize("order", QAM_ORDERS)
    def test_qam_unit_average_energy(self, order):
        c = make_qam(order)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, rel=1e-13)

    def test_qam32_is_the_cross(self):
        # 6x6 lattice minus the four corners, scaled by 1/sqrt(20)
        c = make_qam(32)
        lattice = sorted(
            (round(p.real * np.sqrt(20.0), 6), round(p.imag * np.sqrt(20.0), 6))
            for p in c.points)
        expected = sorted(
            [(float(x), float(y)) for x in (-5, -3, -1, 1, 3, 5)
             for y in (-3, -1, 1, 3)]
            + [(float(x), float(y)) for x in (-3, -1, 1, 3) for y in (-5, 5)])
        assert lattice == expected

    def test_qam8_is_the_4x2_rectangle(self):
        c = make_qam(8)
        xs = sorted(round(p.real * np.sqrt(6.0), 6) for p in c.points)
        assert xs == [-3.0, -3.0, -1.0, -1.0, 1.0, 1.0, 3.0, 3.0]

    def test_order2_qam_rejected(self):
        with pytest.raises(SchemeError):
            make_qam(2)

    def test_rate1_qam_falls_back_to_bpsk(self):
        c = constellation_for("qam", 2)
        assert c.scheme == "psk" and c.order == 2

    @pytest.mark.parametrize("order", [3, 5, 128, 0, -4])
    def test_unsupported_orders(self, order):
        with pytest.raises(SchemeError):
            make_psk(order)

    def test_unknown_scheme(self):
        with pytest.raises(SchemeError):
            constellation_for("ofdm", 4)


class TestOneGridBuilder:
    @pytest.mark.parametrize("order", QAM_ORDERS)
    def test_equals_the_per_shape_builders(self, order):
        c = make_qam(order)
        points, labels = _oracle_qam(order)
        assert c.points.dtype == points.dtype
        assert c.points.tobytes() == points.tobytes()
        assert c.labels.dtype == labels.dtype
        assert c.labels.tolist() == labels.tolist()


class TestLabels:
    @pytest.mark.parametrize("scheme,order", [("psk", o) for o in SUPPORTED_ORDERS]
                             + [("qam", o) for o in QAM_ORDERS])
    def test_labels_are_a_permutation(self, scheme, order):
        c = constellation_for(scheme, order)
        assert sorted(c.labels.tolist()) == list(range(order))

    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_psk_ring_gray(self, order):
        """Adjacent ring positions (including the wrap) differ in one bit."""
        c = make_psk(order)
        for k in range(order):
            assert _hamming(int(c.labels[k]),
                            int(c.labels[(k + 1) % order])) == 1

    @pytest.mark.parametrize("order", (4, 8, 16, 64))
    def test_grid_neighbours_gray(self, order):
        """Min-distance pairs of the grid shapes differ in exactly one bit."""
        c = make_qam(order)
        for i, j in _min_distance_pairs(c.points):
            assert _hamming(int(c.labels[i]), int(c.labels[j])) == 1

    def test_qam32_quasi_gray(self):
        # a perfect Gray map does not exist on the cross; the folded map
        # keeps 48 of the 52 nearest-neighbour pairs at Hamming distance 1
        c = make_qam(32)
        pairs = _min_distance_pairs(c.points)
        hd = [_hamming(int(c.labels[i]), int(c.labels[j])) for i, j in pairs]
        assert len(hd) == 52
        assert sum(1 for v in hd if v == 1) == 48

    def test_bit_labels_width(self):
        c = make_qam(16)
        strs = c.bit_labels()
        assert all(len(s) == 4 for s in strs)
        assert sorted(int(s, 2) for s in strs) == list(range(16))


class TestHammingMatrix:
    @given(order=st.sampled_from(SUPPORTED_ORDERS))
    def test_matrix_properties(self, order):
        c = make_psk(order)
        n = hamming_matrix(c)
        assert n.shape == (order, order)
        np.testing.assert_array_equal(n, n.T)
        np.testing.assert_array_equal(np.diag(n), 0)
        # total bit differences over all ordered pairs: M^2/2 per bit plane
        assert n.sum() == order ** 2 // 2 * c.bits_per_symbol

    def test_matches_scalar_popcount(self):
        c = make_qam(8)
        n = hamming_matrix(c)
        for i in range(8):
            for j in range(8):
                assert n[i, j] == _hamming(int(c.labels[i]), int(c.labels[j]))
