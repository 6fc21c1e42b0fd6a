"""Detection rules and the Monte Carlo BEP estimator.

The key contracts: both rules equal a brute-force minimisation over full
received vectors, ML and sub-optimum decisions coincide for constant
modulus constellations, ML makes no more symbol errors than SO, results
are a pure function of (seed, n_symbols), and the estimator agrees with
the exact BPSK and SO error rates within binomial error bars.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import uavlink
from uavlink import (
    SUPPORTED_ORDERS,
    BepEstimate,
    ChannelEstimate,
    DetectorKind,
    constellation_for,
    effective_variance,
    evolve_channel,
    ml_detect,
    monte_carlo_bep,
    psk_bep_approx,
    received_signal,
    so_detect,
)
from uavlink import detectors
from uavlink.constellation import POPCOUNT
from uavlink.fixtures import load_fixture

from exact_so import exact_so_bep


@pytest.fixture(scope="module")
def estimate():
    return load_fixture("case1").estimate


class TestDecisionRules:
    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32])
    def test_psk_ml_equals_so(self, estimate, order):
        # constant |s_k| makes the variance weighting a common offset
        c = constellation_for("psk", order)
        rng = np.random.default_rng(7)
        n_rx = estimate.h.size
        for gamma, acf in [(1.0, 0.9), (40.0, 0.99), (277.0, 0.75)]:
            y = (rng.standard_normal((2000, n_rx))
                 + 1j * rng.standard_normal((2000, n_rx))) * 3.0
            for row in y[:50]:
                assert ml_detect(row, estimate, acf, gamma, c) == \
                    so_detect(row, estimate, acf, gamma, c)
            # and the bit-error counts over the whole block agree
            ml = monte_carlo_bep(estimate, acf, gamma, c, DetectorKind.ML,
                                 2000, seed=11)
            so = monte_carlo_bep(estimate, acf, gamma, c, DetectorKind.SO,
                                 2000, seed=11)
            assert ml.bit_errors == so.bit_errors

    @pytest.mark.parametrize("scheme,order", [("psk", 8), ("qam", 16),
                                              ("qam", 32)])
    def test_noiseless_perfect_csi_recovers_symbol(self, estimate, scheme,
                                                   order):
        c = constellation_for(scheme, order)
        gamma = 50.0
        for m in range(order):
            y = np.sqrt(gamma) * c.points[m] * estimate.h
            assert ml_detect(y, estimate, 1.0, gamma, c) == m
            assert so_detect(y, estimate, 1.0, gamma, c) == m

    def test_qam_detectors_can_differ(self, estimate):
        # the N ln(sigma^2) offset and the 1/sigma^2 weighting matter once
        # symbol energies differ; at low SNR with stale CSI the two rules
        # disagree on some vectors
        c = constellation_for("qam", 16)
        rng = np.random.default_rng(3)
        n_rx = estimate.h.size
        y = (rng.standard_normal((4000, n_rx))
             + 1j * rng.standard_normal((4000, n_rx))) * 2.0
        disagreements = sum(
            ml_detect(row, estimate, 0.9, 1.0, c)
            != so_detect(row, estimate, 0.9, 1.0, c) for row in y[:400])
        assert disagreements > 0

    @given(scheme_order=st.sampled_from(
               [(s, o) for s in ("psk", "qam") for o in SUPPORTED_ORDERS]),
           n_rx=st.integers(1, 8),
           acf=st.floats(0.0, 1.0),
           log_gamma=st.floats(-2.0, 3.0),
           log_scale=st.floats(-3.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, scheme_order, n_rx, acf, log_gamma,
                                 log_scale, seed):
        # argmin_k c_k + ||y - a_k h||^2 / sigma_k^2 on the full vector:
        # c_k = N ln sigma_k^2 for ML, c = 0 and sigma = 1 for SO
        c = constellation_for(*scheme_order)
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)
        est = ChannelEstimate(h, 1e-3)
        gamma = 10.0 ** log_gamma
        refs = np.sqrt(gamma) * acf * c.points[:, None] * h[None, :]
        y = (refs[rng.integers(0, c.order)] + 10.0 ** log_scale
             * (rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)))
        dist = np.sum(np.abs(y[None, :] - refs) ** 2, axis=1)
        sig2 = gamma * (1.0 - acf ** 2) * np.abs(c.points) ** 2 + 1.0
        for rule, metric in ((ml_detect, n_rx * np.log(sig2) + dist / sig2),
                             (so_detect, dist)):
            best, second = np.sort(metric)[:2]
            # skip near-ties: rounding may pick either there
            assume(second - best > 1e-9 * max(abs(best), abs(second)))
            assert rule(y, est, acf, gamma, c) == int(np.argmin(metric))

    @pytest.mark.filterwarnings("error")
    def test_single_vector_input_guards(self, estimate):
        c = constellation_for("qam", 16)
        y = np.ones(estimate.h.size)
        for rule in (ml_detect, so_detect):
            for acf in (-0.1, 1.0001, np.nan):
                with pytest.raises(ValueError, match="acf_value"):
                    rule(y, estimate, acf, 10.0, c)
            with pytest.raises(ValueError, match="snr_linear"):
                rule(y, estimate, 0.9, -1.0, c)
            with pytest.raises(ValueError, match=f"{estimate.h.size + 1} "
                                                 "entries"):
                rule(np.ones(estimate.h.size + 1), estimate, 0.9, 10.0, c)


def _statistics(rng, n, est, tab, with_perp):
    """Symbol indices, u = z/||h||^2 and ||y_perp||^2 (None unless
    with_perp) of n transmissions at one point, drawn and synthesised as a
    batch does."""
    draws = detectors._draw(rng, n, tab.a.size, est.h.size, with_perp)
    z, perp = detectors._synthesise(draws, est.norm_sq, tab, with_perp)
    return draws.tx, z / est.norm_sq, perp


def _full_metric(u, perp, norm_sq, tab):
    """The oracle of every reduced path: the (n, M) metric over all M
    references, one row per symbol, whose argmin (ties: lowest) is the
    decision."""
    metric = u.real[:, None] - tab.a.real
    metric *= metric
    im = u.imag[:, None] - tab.a.imag
    im *= im
    metric += im
    if tab.inv is not None:
        metric *= norm_sq
        metric += perp[:, None]
        metric *= tab.inv
        metric += tab.off
    return metric


def _edge_rows(tab):
    """u = 0 and on either axis, each with both signs of zero; on every
    boundary halfway between two levels of the references' real or
    imaginary parts; on either diagonal at every real level and boundary;
    and a third of the way between two levels on one axis but so far out
    on the other that its square absorbs the difference."""
    lr, li = np.unique(tab.a.real), np.unique(tab.a.imag)
    mr, mi = (lr[:-1] + lr[1:]) / 2.0, (li[:-1] + li[1:]) / 2.0
    tr, ti = (2.0 * lr[:-1] + lr[1:]) / 3.0, (2.0 * li[:-1] + li[1:]) / 3.0
    far = 1e9 * np.abs(tab.a).max()
    zeros = (0.0, -0.0)
    rows = [complex(x, y) for x in zeros for y in zeros]
    rows += [complex(x, y) for x in lr for y in zeros]
    rows += [complex(x, y) for x in zeros for y in li]
    rows += [complex(x, y) for x in mr for y in np.concatenate([li, mi])]
    rows += [complex(x, y) for x in lr for y in mi]
    rows += [complex(x, y) for x in np.concatenate([lr, mr])
             for y in (x, -x)]
    rows += [complex(x, y) for x in tr for y in (far, -far)]
    rows += [complex(x, y) for x in (far, -far) for y in ti]
    return np.array(rows)


def _sign_rows(half):
    """u around the centre 0 of a 2 x 2 grid whose levels lie `half` either
    side of it: at the centre and on both axes, each with both signs of
    zero; on both diagonals; near them; with an infinite or NaN component;
    and at |u| about 1e154, where the squares and their sums overflow."""
    near = (0.0, -0.0, half, -half, 0.3 * half, -0.3 * half, 2.5 * half,
            -2.5 * half, 1e-12 * half)
    far = (np.inf, -np.inf, np.nan, 1e154, -1.3e154, 2e154)
    pairs = [(x, y) for x in near for y in near]
    pairs += [(x, y) for x in far for y in near + far]
    pairs += [(x, y) for x in near for y in far]
    u = np.empty(len(pairs), dtype=np.complex128)
    u.real, u.imag = np.array(pairs).T
    return u


class TestReducedDetection:
    """Slicing and folding decide exactly as the full metric does."""

    @pytest.mark.parametrize("order", [4, 8, 16, 32, 64])
    def test_qam_tables_are_reduced(self, estimate, order):
        # 4-QAM is one point per quadrant: its tables are SO's, sliced. The
        # square grids and the cross fold onto the references on or below
        # the first quadrant's diagonal, whose eight sign and transpose
        # images cover all M references (one on the diagonal is its own
        # transpose). The 4 x 2 rectangle of 8-QAM is not symmetric under
        # swapping Re and Im: it is not folded, so its ML table keeps the
        # full metric (its SO table is sliced)
        folded = {16: (3, 8), 32: (5, 8), 64: (10, 8)}
        c = constellation_for("qam", order)
        for kind in DetectorKind:
            tab = detectors._reduced(
                detectors._tables(estimate, 0.9, 10.0, c, kind))
            assert (tab.inv is None) == (kind is DetectorKind.SO
                                         or order == 4)
            assert (tab.fold is None) == (order in (4, 8))
            assert (tab.grid is None) == (order == 32)
            if order in folded:
                assert tab.fold.index.shape == folded[order]
                assert set(tab.fold.index.ravel().tolist()) == set(
                    range(order))
            # C = 0 makes every reference zero: nothing to slice or fold
            tab = detectors._reduced(
                detectors._tables(estimate, 0.0, 10.0, c, kind))
            assert tab.grid is None and tab.fold is None

    def test_one_layout_per_operating_point(self, estimate, monkeypatch):
        # ML and SO at one (gamma, C) share their references, so a Monte
        # Carlo call derives the grid and the fold once per (gamma, C)
        calls = []
        for name in ("_grid_of", "_fold_of"):
            def counting(a, f=getattr(detectors, name), name=name):
                calls.append(name)
                return f(a)
            monkeypatch.setattr(detectors, name, counting)
        c = constellation_for("qam", 64)
        monte_carlo_bep(estimate, [[0.95], [0.8]], 30.0, c,
                        list(DetectorKind), 100, seed=1)
        assert sorted(calls) == ["_fold_of"] * 2 + ["_grid_of"] * 2

    @given(order_kind=st.sampled_from([(16, DetectorKind.ML),
                                       (32, DetectorKind.ML),
                                       (64, DetectorKind.ML),
                                       (32, DetectorKind.SO)]),
           n_rx=st.integers(1, 16),
           acf=st.floats(0.0, 1.0),
           log_gamma=st.floats(-3.0, 3.0),
           rows=st.sampled_from(["drawn", "diagonal", "axis"]),
           n=st.integers(1, 700),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(order_kind=(32, DetectorKind.ML), n_rx=8, acf=0.9,
             log_gamma=1.5, rows="diagonal", n=700, seed=0)
    @example(order_kind=(32, DetectorKind.SO), n_rx=1, acf=0.9,
             log_gamma=1.5, rows="diagonal", n=700, seed=0)
    @example(order_kind=(16, DetectorKind.ML), n_rx=8, acf=0.9,
             log_gamma=1.0, rows="axis", n=700, seed=0)
    @example(order_kind=(64, DetectorKind.ML), n_rx=2, acf=0.5,
             log_gamma=-1.0, rows="axis", n=700, seed=1)
    @settings(max_examples=200, deadline=None)
    def test_octant_fold_decides_as_the_full_table(self, order_kind, n_rx,
                                                   acf, log_gamma, rows, n,
                                                   seed):
        # on a drawn batch, or on its rows moved onto the diagonal
        # |Re u| = |Im u| or onto either axis, where a transpose or a sign
        # image of the winner ties it: the fold's decision is the full
        # table's on every row, ties (lowest index) included
        order, kind = order_kind
        c = constellation_for("qam", order)
        rng = np.random.default_rng(seed)
        est = ChannelEstimate(rng.standard_normal(n_rx)
                              + 1j * rng.standard_normal(n_rx), 1e-3)
        full = detectors._tables(est, acf, 10.0 ** log_gamma, c, kind)
        tab = detectors._reduced(full)
        if acf >= 1e-6:
            assert tab.fold is not None
        _, u, perp = _statistics(rng, n, est, full, True)
        x, y = u.real.copy(), u.imag.copy()
        if rows == "diagonal":
            y = np.copysign(x, y)
        elif rows == "axis":
            x[::2] = 0.0
            y[1::2] = 0.0
        u.real, u.imag = x, y
        if kind is DetectorKind.SO:
            perp = None
        want = detectors._decide(u, perp, est.norm_sq, full)
        got = detectors._decide(u, perp, est.norm_sq, tab,
                                detectors._Scratch())
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("scheme,order", [("psk", o) for o in
                                              SUPPORTED_ORDERS])
    def test_other_tables_keep_the_full_metric(self, estimate, scheme,
                                               order):
        # the full SO metric: the ML tables of PSK are SO's
        c = constellation_for(scheme, order)
        for kind in DetectorKind:
            tab = detectors._reduced(
                detectors._tables(estimate, 0.9, 10.0, c, kind))
            assert tab.grid is None and tab.fold is None
            assert tab.off is None and tab.inv is None

    @given(scheme_order=st.sampled_from([("psk", o) for o in SUPPORTED_ORDERS]
                                        + [("qam", 4)]),
           n_rx=st.integers(1, 16),
           acf=st.floats(0.0, 1.0),
           gamma=st.floats(0.0, 1.0) | st.floats(1.0, 1e3),
           n=st.integers(1, 700),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(scheme_order=("psk", 64), n_rx=16, acf=2.220446049250313e-16,
             gamma=0.5, n=700, seed=0)  # rounding ties the full ML metric
    @settings(max_examples=200, deadline=None)
    def test_constant_modulus_ml_decides_as_so(self, scheme_order, n_rx, acf,
                                               gamma, n, seed):
        # every sigma_k^2 is equal, so the ML metric is a monotone map of
        # SO's, and the reduced ML table is the SO table. Its decision
        # attains the full ML metric's minimum on every row, so it is the
        # full ML decision wherever that minimum is unique; a tie, which
        # rounding makes where gamma C^2 is tiny, may break either way
        c = constellation_for(*scheme_order)
        rng = np.random.default_rng(seed)
        est = ChannelEstimate(rng.standard_normal(n_rx)
                              + 1j * rng.standard_normal(n_rx), 1e-3)
        ml = detectors._tables(est, acf, gamma, c, DetectorKind.ML)
        shared = detectors._reduced(ml)
        so = detectors._reduced(detectors._tables(est, acf, gamma, c,
                                                  DetectorKind.SO))
        assert shared.off is None and shared.inv is None
        assert np.array_equal(shared.a, so.a) and shared.grid == so.grid
        _, u, perp = _statistics(rng, n, est, ml, True)
        want = detectors._decide(u, perp, est.norm_sq, ml)
        got = detectors._decide(u, None, est.norm_sq, shared,
                                detectors._Scratch())
        metric = _full_metric(u, perp, est.norm_sq, ml)
        low = metric.min(axis=1)
        assert np.array_equal(metric[np.arange(u.size), got], low)
        unique = (metric == low[:, None]).sum(axis=1) == 1
        assert np.array_equal(got[unique], want[unique])

    @given(scheme_order=st.sampled_from(
               [(s, o) for s in ("psk", "qam") for o in SUPPORTED_ORDERS]),
           n_rx=st.integers(1, 8),
           log2_h=st.integers(-3, 3),
           acf=st.floats(0.0, 1.0),
           log_gamma=st.floats(-2.0, 3.0),
           n=st.integers(1, 700),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(scheme_order=("qam", 64), n_rx=4, log2_h=0, acf=0.0,
             log_gamma=1.0, n=64, seed=0)  # C = 0
    @example(scheme_order=("qam", 32), n_rx=1, log2_h=1, acf=1.0,
             log_gamma=3.0, n=8, seed=1)  # perfect CSI, one antenna
    @example(scheme_order=("qam", 16), n_rx=2, log2_h=-1, acf=0.5,
             log_gamma=-2.0, n=300, seed=2)
    @settings(max_examples=200, deadline=None)
    def test_matches_full_metric(self, scheme_order, n_rx, log2_h, acf,
                                 log_gamma, n, seed):
        # a drawn batch plus the edge rows
        c = constellation_for(*scheme_order)
        h = np.zeros(n_rx, dtype=np.complex128)
        h[0] = 2.0 ** log2_h
        est = ChannelEstimate(h, 1e-3)
        assert est.norm_sq == 4.0 ** log2_h
        gamma = 10.0 ** log_gamma
        rng = np.random.default_rng(seed)
        for kind in DetectorKind:
            tab = detectors._reduced(detectors._tables(est, acf, gamma, c,
                                                       kind))
            _, u, perp = _statistics(rng, n, est, tab, True)
            edge = _edge_rows(tab)
            u = np.concatenate([u, edge])
            perp = np.concatenate([perp, rng.exponential(n_rx, edge.size)])
            if kind is DetectorKind.SO:
                perp = None
            want = _full_metric(u, perp, est.norm_sq, tab).argmin(axis=1)
            got = detectors._decide(u, perp, est.norm_sq, tab)
            assert got.tolist() == want.tolist()
            got = detectors._decide(u, perp, est.norm_sq, tab,
                                    detectors._Scratch())
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("scheme,order", [(s, o) for s in ("psk", "qam")
                                              for o in SUPPORTED_ORDERS])
    @pytest.mark.parametrize("acf", [0.0, 0.9])
    def test_edge_rows_take_the_lowest_full_choice(self, scheme, order, acf):
        # u = 0 ties the four inner QAM points, and C = 0 ties every SO
        # reference; both must give the lowest index, as the full metric
        c = constellation_for(scheme, order)
        est = ChannelEstimate(np.array([2.0, 0.0]), 1e-3)
        for kind in DetectorKind:
            tab = detectors._reduced(detectors._tables(est, acf, 40.0, c,
                                                       kind))
            u = _edge_rows(tab)
            perp = np.full(u.size, 1.5)
            if kind is DetectorKind.SO:
                perp = None
            want = _full_metric(u, perp, est.norm_sq, tab).argmin(axis=1)
            assert detectors._decide(u, perp, est.norm_sq,
                                     tab).tolist() == want.tolist()
            if kind is DetectorKind.SO and (acf == 0.0 or scheme == "qam"):
                assert want[0] == int(np.argmin(np.abs(tab.a)))


    @pytest.mark.parametrize("acf,gamma", [(0.9, 30.0), (1.0, 1e-6),
                                           (0.2, 1e4)])
    def test_four_qam_signs_decide_as_the_full_metric(self, estimate, acf,
                                                      gamma):
        # both rules' 4-QAM tables are SO's 2 x 2 grid, decided by the
        # signs of u; on every edge row the decision is the full metric's,
        # and u = 0, which ties all four points, takes the lowest index
        c = constellation_for("qam", 4)
        tabs = [detectors._reduced(detectors._tables(estimate, acf, gamma, c,
                                                     kind))
                for kind in DetectorKind]
        u = _sign_rows(tabs[0].a.real.max())
        for tab in tabs:
            assert tab.inv is None and tab.grid[-2:] == (2, 2)
            # the full metric overflows on the far rows, as the oracle does
            with np.errstate(over="ignore"):
                want = _full_metric(u, None, estimate.norm_sq,
                                    tab).argmin(axis=1)
                for scratch in (None, detectors._Scratch()):
                    got = detectors._decide(u, None, estimate.norm_sq, tab,
                                            scratch)
                    assert got.tolist() == want.tolist()
            # u = 0 (either zero's sign), then the points (half, half) and
            # (-half, -half) on the diagonal
            assert want[:2].tolist() == [0, 0]
            assert want[2 * 9 + 2] == 3 and want[3 * 9 + 3] == 0

    def test_signs_off_the_origin_and_on_strided_rows(self):
        # a 2 x 2 grid centred off 0, and rows that are not contiguous
        a = np.array([0.5 + 0.25j, 0.5 + 1.25j, 1.5 + 0.25j, 1.5 + 1.25j])
        tab = detectors._reduced(detectors._Tables(a, np.ones(4), None, None))
        assert tab.grid[-2:] == (2, 2)
        u = _sign_rows(0.5) + (1.0 + 0.75j)
        with np.errstate(over="ignore"):
            want = _full_metric(u, None, 1.0, tab).argmin(axis=1)
            for rows in (u, np.repeat(u, 2)[::2]):
                for scratch in (None, detectors._Scratch()):
                    got = detectors._decide(rows, None, 1.0, tab, scratch)
                    assert got.tolist() == want.tolist()
        c = constellation_for("qam", 4)
        centred = detectors._reduced(detectors._tables(
            ChannelEstimate(np.ones(2), 1e-3), 0.9, 30.0, c, DetectorKind.SO))
        u = _sign_rows(centred.a.real.max())
        with np.errstate(over="ignore"):
            want = _full_metric(u, None, 2.0, centred).argmin(axis=1)
            got = detectors._decide(np.repeat(u, 2)[::2], None, 2.0, centred,
                                    detectors._Scratch())
        assert got.tolist() == want.tolist()


class TestMetricKernel:
    """The one (n, M) metric behind ml_detect, so_detect and the MC."""

    def test_backend_name(self):
        assert uavlink.backend_name() == "numpy"

    def test_output_dtype_shape_range(self, estimate):
        c = constellation_for("qam", 32)
        tab = detectors._tables(estimate, 0.9, 4.0, c, DetectorKind.ML)
        rng = np.random.default_rng(0)
        u = (rng.standard_normal(777) + 1j * rng.standard_normal(777)) * 9.0
        out = detectors._decide(u, rng.exponential(8.0, 777),
                                estimate.norm_sq, tab)
        assert out.shape == (777,)
        assert out.dtype == np.int64
        assert out.min() >= 0 and out.max() < c.order

    def test_ties_break_to_lowest_index(self):
        # u = 0 against symmetric BPSK references: every metric is equal
        tab = detectors._Tables(np.array([1.0 + 0.0j, -1.0 + 0.0j]),
                                np.ones(2), np.zeros(2), np.ones(2))
        u, perp = np.zeros(3, dtype=np.complex128), np.ones(3)
        assert np.array_equal(detectors._decide(u, perp, 2.0, tab),
                              np.zeros(3, dtype=np.int64))
        so = tab._replace(off=None, inv=None)
        assert np.array_equal(detectors._decide(u, None, 2.0, so),
                              np.zeros(3, dtype=np.int64))

    def test_exact_reference_detected(self, estimate):
        c = constellation_for("psk", 8)
        for kind in DetectorKind:
            tab = detectors._tables(estimate, 1.0, 9.0, c, kind)
            out = detectors._decide(tab.a, np.zeros(8), estimate.norm_sq,
                                    tab)
            assert np.array_equal(out, np.arange(8, dtype=np.int64))

    def test_blocks_do_not_change_decisions(self, estimate, monkeypatch):
        c = constellation_for("qam", 64)
        tab = detectors._reduced(
            detectors._tables(estimate, 0.8, 30.0, c, DetectorKind.ML))
        rng = np.random.default_rng(4)
        tx, u, perp = _statistics(rng, 5000, estimate, tab, True)
        whole = detectors._decide(u, perp, estimate.norm_sq, tab)
        monkeypatch.setattr(detectors, "_BLOCK_TERMS", 7 * c.order)
        assert np.array_equal(
            detectors._decide(u, perp, estimate.norm_sq, tab), whole)

    @pytest.mark.parametrize("scheme,order", [("psk", 8), ("qam", 4),
                                              ("qam", 64)])
    def test_scratch_batches_match_fresh_arrays(self, estimate, scheme,
                                                order):
        # batches in the thread's reused buffers, a short one after a full
        # one included, count the errors that fresh arrays give
        c = constellation_for(scheme, order)
        for kind in DetectorKind:
            tab = detectors._reduced(
                detectors._tables(estimate, 0.9, 30.0, c, kind))
            for b, n in ((0, 8192), (1, 777)):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=5, spawn_key=(b,)))
                tx, u, perp = _statistics(rng, n, estimate, tab,
                                          kind is DetectorKind.ML)
                got = detectors._decide(u, perp, estimate.norm_sq, tab)
                want = int(POPCOUNT[c.labels[tx] ^ c.labels[got]].sum())
                assert detectors._run_batch(b, n, estimate, ((tab,),), c,
                                            5) == [want]

    @pytest.mark.parametrize("scheme,order", [(s, o) for s in ("psk", "qam")
                                              for o in SUPPORTED_ORDERS])
    def test_batch_counts_are_label_popcounts(self, estimate, scheme, order):
        # each table's count, read from the Hamming matrix, is the popcount
        # of sent XOR decided labels, recomputed from the batch's draws and
        # each table's decisions in fresh arrays; two (gamma, C) groups of
        # ML and SO, a full batch and a partial one
        c = constellation_for(scheme, order)
        groups = tuple(
            tuple(detectors._reduced(detectors._tables(estimate, acf, gamma,
                                                       c, kind))
                  for kind in DetectorKind)
            for acf, gamma in ((0.9, 0.3), (0.6, 0.05)))
        with_gamma = any(tab.inv is not None for group in groups
                         for tab in group)
        for b, n in ((0, 8192), (1, 777)):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=5, spawn_key=(b,)))
            draws = detectors._draw(rng, n, order, estimate.h.size,
                                    with_gamma)
            want = []
            for group in groups:
                z, perp = detectors._synthesise(draws, estimate.norm_sq,
                                                group[0], with_gamma)
                u = z / estimate.norm_sq
                for tab in group:
                    got = detectors._decide(u, perp, estimate.norm_sq, tab)
                    want.append(int(POPCOUNT[c.labels[draws.tx]
                                             ^ c.labels[got]].sum()))
            assert min(want) > 0
            assert detectors._run_batch(b, n, estimate, groups, c,
                                        5) == want

    @pytest.mark.parametrize("scheme,order,acf,gamma,one", [
        ("psk", 8, 0.9, 30.0, True),
        ("psk", 2, 0.5, 1e3, True),
        ("qam", 4, 0.9, 30.0, True),
        ("qam", 16, 1.0, 30.0, True),  # C = 1
        ("qam", 64, 0.9, 0.0, True),  # gamma = 0
        ("qam", 16, 0.9, 30.0, False),
    ])
    def test_one_scale_synthesises_the_gathered_bits(self, estimate, scheme,
                                                     order, acf, gamma, one):
        # where every symbol's noise scale is one value, the scalar scales
        # the noise; z has the bits of the scale gathered per symbol
        c = constellation_for(scheme, order)
        tab = detectors._tables(estimate, acf, gamma, c, DetectorKind.ML)
        scale = np.sqrt(0.5 * estimate.norm_sq * tab.sig2)
        assert (np.ptp(scale) == 0.0) == one
        draws = detectors._draw(np.random.default_rng(9), 8192, order,
                                estimate.h.size, True)
        want = (np.take(tab.a * estimate.norm_sq, draws.tx)
                + np.take(scale, draws.tx) * draws.noise)
        perp = np.take(tab.sig2, draws.tx) * draws.gamma
        for scratch in (None, detectors._Scratch()):
            z, got = detectors._synthesise(draws, estimate.norm_sq, tab, True,
                                           scratch)
            assert z.tobytes() == want.tobytes()
            assert got.tobytes() == perp.tobytes()

    def test_batches_reuse_their_buffers(self, estimate):
        # the full metric, the fold (ML; SO on the 32-QAM cross) and the
        # slicer (SO on 16- and 64-QAM)
        for order, kind in ((4, DetectorKind.ML), (16, DetectorKind.ML),
                            (16, DetectorKind.SO), (32, DetectorKind.SO),
                            (64, DetectorKind.ML), (64, DetectorKind.SO)):
            c = constellation_for("qam", order)
            tab = detectors._reduced(
                detectors._tables(estimate, 0.9, 30.0, c, kind))
            detectors._run_batch(0, 8192, estimate, ((tab,),), c, 1)
            before = dict(detectors._thread_scratch()._bufs)
            detectors._run_batch(1, 8192, estimate, ((tab,),), c, 1)
            after = detectors._thread_scratch()._bufs
            assert after.keys() == before.keys()
            assert all(after[k] is before[k] for k in before)
        # and a batch over several points: ML and SO sharing one (gamma, C),
        # and a second (gamma, C)
        tab = [detectors._reduced(detectors._tables(estimate, acf, 30.0, c,
                                                    kind))
               for acf in (0.9, 0.8) for kind in DetectorKind]
        groups = ((tab[0], tab[1]), (tab[2], tab[3]))
        detectors._run_batch(0, 8192, estimate, groups, c, 1)
        before = dict(detectors._thread_scratch()._bufs)
        detectors._run_batch(1, 8192, estimate, groups, c, 1)
        after = detectors._thread_scratch()._bufs
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)


class TestEffectiveVariance:
    def test_formula(self):
        assert effective_variance(10.0, 0.8, 1.5 + 0.0j) == pytest.approx(
            10.0 * (1.0 - 0.64) * 2.25 + 1.0, rel=1e-15)

    def test_perfect_csi_is_unit(self):
        assert effective_variance(1e4, 1.0, 3.0 + 4.0j) == 1.0


class TestMonteCarlo:
    def test_seed_determinism(self, estimate):
        c = constellation_for("qam", 16)
        a = monte_carlo_bep(estimate, 0.95, 8.0, c, DetectorKind.ML,
                            20000, seed=42)
        b = monte_carlo_bep(estimate, 0.95, 8.0, c, DetectorKind.ML,
                            20000, seed=42)
        assert a == b
        other = monte_carlo_bep(estimate, 0.95, 8.0, c, DetectorKind.ML,
                                20000, seed=43)
        assert other.bit_errors != a.bit_errors

    @pytest.mark.parametrize("threads", [2, 4, 7])
    def test_thread_count_invariance(self, estimate, threads):
        c = constellation_for("psk", 8)
        base = monte_carlo_bep(estimate, 0.9, 3.0, c, DetectorKind.ML,
                               3 * 8192 + 100, seed=9, threads=1)
        multi = monte_carlo_bep(estimate, 0.9, 3.0, c, DetectorKind.ML,
                                3 * 8192 + 100, seed=9, threads=threads)
        assert base == multi

    def test_threaded_calls_share_their_workers(self, estimate, monkeypatch):
        # one executor per thread count lives as long as the process, so a
        # second call runs on the first call's workers and their scratch
        run_batch, used = detectors._run_batch, []

        def recording(*args):
            used.append(threading.current_thread())
            time.sleep(0.05)  # hold the worker, so that both take batches
            return run_batch(*args)

        monkeypatch.setattr(detectors, "_run_batch", recording)
        c = constellation_for("qam", 4)
        calls = []
        for _ in range(2):
            used.clear()
            calls.append(monte_carlo_bep(estimate, 0.9, 5.0, c,
                                         DetectorKind.SO, 4 * 8192, seed=3,
                                         threads=2))
            calls.append(set(used))
        first, first_threads, second, second_threads = calls
        assert first == second
        assert len(first_threads) == 2
        assert second_threads == first_threads
        assert threading.current_thread() not in first_threads

    @pytest.mark.parametrize("n", [1, 100, 8192, 8193, 20000])
    def test_partial_batches_account_every_symbol(self, estimate, n):
        c = constellation_for("psk", 4)
        out = monte_carlo_bep(estimate, 0.99, 5.0, c, DetectorKind.SO,
                              n, seed=1)
        assert out.bits_simulated == 2 * n
        assert 0 <= out.bit_errors <= out.bits_simulated

    def test_estimate_consistency(self, estimate):
        c = constellation_for("qam", 16)
        out = monte_carlo_bep(estimate, 0.9, 2.0, c, DetectorKind.ML,
                              30000, seed=2)
        assert isinstance(out, BepEstimate)
        assert out.bep == out.bit_errors / out.bits_simulated
        p = out.bep
        assert out.std_error == pytest.approx(
            np.sqrt(p * (1.0 - p) / out.bits_simulated), rel=1e-12)

    def test_bpsk_matches_closed_form(self, estimate):
        # exact BEP for BPSK with perfect CSI; binomial 3 sigma gate
        c = constellation_for("psk", 2)
        gamma = 1.0
        out = monte_carlo_bep(estimate, 1.0, gamma, c, DetectorKind.ML,
                              200000, seed=5)
        want = psk_bep_approx(2, estimate, 1.0, gamma)
        sigma = np.sqrt(want * (1.0 - want) / out.bits_simulated)
        assert abs(out.bep - want) < 3.0 * sigma

    def test_high_noise_near_half(self, estimate):
        # with C = 0 the receiver sees an uninformative reference
        c = constellation_for("psk", 2)
        out = monte_carlo_bep(estimate, 0.0, 100.0, c, DetectorKind.SO,
                              50000, seed=6)
        assert abs(out.bep - 0.5) < 0.02

    def test_statistics_match_full_vector_model(self, estimate):
        # the engine's (z, ||y_perp||^2) draws against the same statistics
        # of full vectors from channel.evolve_channel/received_signal;
        # two-sample KS per component for one 16-QAM outer point
        c = constellation_for("qam", 16)
        acf, gamma, m = 0.8, 10.0, int(np.argmax(np.abs(c.points)))
        h, norm_sq = estimate.h, estimate.norm_sq
        rng = np.random.default_rng(31)
        full = []
        for _ in range(3000):
            state = evolve_channel(estimate, acf, rng)
            y = received_signal(state, c.points[m], gamma, rng)
            z = np.vdot(h, y)
            y_perp = y - (z / norm_sq) * h
            full.append((z.real, z.imag, np.vdot(y_perp, y_perp).real))
        tab = detectors._tables(estimate, acf, gamma, c, DetectorKind.ML)
        tx, u, perp = _statistics(np.random.default_rng(32), 4 * 8192,
                                  estimate, tab, True)
        z = u * norm_sq
        drawn = np.stack([z.real, z.imag, perp], axis=1)[tx == m]
        p_values = [ks_2samp(col, ref).pvalue
                    for col, ref in zip(drawn.T, np.array(full).T)]
        print("KS p-values (Re z, Im z, |y_perp|^2): "
              + ", ".join(f"{p:.3g}" for p in p_values))
        assert min(p_values) > 1e-3

    @pytest.mark.parametrize("order", [16, 64])
    def test_ml_no_worse_than_so(self, estimate, order):
        # ML maximises the likelihood, so at stale CSI its symbol error
        # rate may not exceed SO's; both rules see the same draws, and the
        # gate is three paired standard errors
        c = constellation_for("qam", order)
        n = 12 * 8192
        ml = detectors._tables(estimate, 0.9, 100.0, c, DetectorKind.ML)
        so = ml._replace(off=None, inv=None)
        tx, u, perp = _statistics(np.random.default_rng(21), n,
                                  estimate, ml, True)
        err_ml = detectors._decide(u, perp, estimate.norm_sq, ml) != tx
        err_so = detectors._decide(u, None, estimate.norm_sq, so) != tx
        se_pair = (err_ml.astype(float) - err_so).std() / np.sqrt(n)
        ser_ml, ser_so = err_ml.mean(), err_so.mean()
        print(f"{order}-QAM C=0.9 20 dB: SER ML {ser_ml:.4f} SO {ser_so:.4f} "
              f"(paired se {se_pair:.1e})")
        assert ser_ml <= ser_so + 3.0 * se_pair

    @pytest.mark.parametrize("scheme,order,snr_db,acf", [
        ("psk", 2, -4.0, 0.9),
        ("psk", 8, 10.0, 0.95),
        ("qam", 16, 15.0, 0.9),
        ("qam", 64, 20.0, 0.97),
    ])
    def test_so_matches_exact_bep(self, estimate, scheme, order, snr_db,
                                  acf):
        # the SO rule has an exact BEP; binomial 3 sigma gate
        c = constellation_for(scheme, order)
        gamma = 10.0 ** (snr_db / 10.0)
        out = monte_carlo_bep(estimate, acf, gamma, c, DetectorKind.SO,
                              20 * 8192, seed=3)
        want = exact_so_bep(estimate, acf, gamma, c)
        sigma = np.sqrt(want * (1.0 - want) / out.bits_simulated)
        print(f"{scheme}{order} {snr_db:g} dB C={acf}: MC {out.bep:.4e} "
              f"exact {want:.4e} z={(out.bep - want) / sigma:+.2f}")
        assert abs(out.bep - want) < 3.0 * sigma

    @given(scheme_order=st.sampled_from(
               [(s, o) for s in ("psk", "qam") for o in SUPPORTED_ORDERS]),
           points=st.lists(st.tuples(
               st.one_of(st.sampled_from([0.0, 0.9, 1.0]),
                         st.floats(0.0, 1.0)),
               st.one_of(st.sampled_from([1.0, 30.0]),
                         st.floats(1e-2, 1e3)),
               st.sampled_from(DetectorKind)), min_size=1, max_size=4),
           full=st.integers(1, 2),
           partial=st.integers(1, 600),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(scheme_order=("qam", 32),
             points=[(0.9, 30.0, DetectorKind.ML),
                     (0.9, 30.0, DetectorKind.SO),
                     (0.0, 1.0, DetectorKind.SO)],
             full=2, partial=5, seed=0)  # the cross: folded ML and SO
    @example(scheme_order=("psk", 8),
             points=[(1.0, 1.0, DetectorKind.SO),
                     (0.95, 30.0, DetectorKind.ML),
                     (1.0, 1.0, DetectorKind.ML)],
             full=2, partial=600, seed=1)
    @settings(max_examples=25, deadline=None)
    def test_each_point_equals_its_one_point_call(
            self, estimate, scheme_order, points, full, partial, seed):
        # one call draws every batch once for all its points; each point's
        # estimate is its one-point call's, to the bit, at any thread count
        c = constellation_for(*scheme_order)
        n = full * 8192 + partial
        acf, gamma, kinds = zip(*points)
        want = [monte_carlo_bep(estimate, a, g, c, k, n, seed)
                for a, g, k in points]
        assert all(isinstance(w, BepEstimate) for w in want)
        for threads in (1, 2, 3):
            assert monte_carlo_bep(estimate, acf, gamma, c, kinds, n, seed,
                                   threads=threads) == want

    def test_points_broadcast(self, estimate):
        c = constellation_for("qam", 16)
        acf = [0.8, 0.95]
        grid = monte_carlo_bep(estimate, np.array(acf)[:, None], [2.0, 9.0],
                               c, DetectorKind.ML, 300, seed=4)
        want = [monte_carlo_bep(estimate, a, g, c, DetectorKind.ML, 300,
                                seed=4) for a in acf for g in (2.0, 9.0)]
        assert grid == want
        assert monte_carlo_bep(estimate, [0.9], 5.0, c, DetectorKind.SO,
                               300, seed=4) == [monte_carlo_bep(
                                   estimate, 0.9, 5.0, c, DetectorKind.SO,
                                   300, seed=4)]
        assert monte_carlo_bep(estimate, [], 5.0, c, DetectorKind.SO, 300,
                               seed=4) == []

    @pytest.mark.filterwarnings("error")
    def test_input_validation(self, estimate):
        c = constellation_for("psk", 4)
        with pytest.raises(ValueError):
            monte_carlo_bep(estimate, 0.9, 1.0, c, DetectorKind.ML, 0, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_bep(estimate, 1.0001, 1.0, c, DetectorKind.ML,
                            100, seed=1)
        # one bad point rejects the whole call
        with pytest.raises(ValueError, match="acf_value"):
            monte_carlo_bep(estimate, [0.9, np.nan], 1.0, c, DetectorKind.ML,
                            100, seed=1)
        with pytest.raises(ValueError, match="snr_linear"):
            monte_carlo_bep(estimate, 0.9, [1.0, np.inf], c, DetectorKind.SO,
                            100, seed=1)
        # a negative SNR would make NaN tables and a BEP of about 0.5
        with pytest.raises(ValueError, match="snr_linear"):
            monte_carlo_bep(estimate, 0.9, [1.0, -1e-3], c, DetectorKind.ML,
                            100, seed=1)
        with pytest.raises(ValueError, match="bogus"):
            monte_carlo_bep(estimate, 0.9, 1.0, c, ["so", "bogus"], 100,
                            seed=1)

    def test_detector_values_name_the_rules(self, estimate):
        # "ml" and "so" select their rules; on 16-QAM the two differ
        c = constellation_for("qam", 16)
        want = monte_carlo_bep(estimate, 0.8, 3.0, c,
                               [DetectorKind.ML, DetectorKind.SO], 3000,
                               seed=2)
        assert want[0] != want[1]
        assert monte_carlo_bep(estimate, 0.8, 3.0, c, ["ml", "so"], 3000,
                               seed=2) == want
        assert monte_carlo_bep(estimate, 0.8, 3.0, c, "so", 3000,
                               seed=2) == want[1]

    def test_constant_modulus_calls_draw_no_gamma(self, estimate,
                                                  monkeypatch):
        # a call whose tables all drop their ML weights draws no gamma
        # variates, its indices and noise are bytewise those of a call that
        # draws them, and ML and SO at one (gamma, C) decide once per batch
        draw, decide, draws, decisions = (detectors._draw, detectors._decide,
                                          [], [])

        def recording_draw(rng, n, order, n_rx, with_gamma, scratch=None):
            out = draw(rng, n, order, n_rx, with_gamma, scratch)
            draws.append((with_gamma, out.tx.copy(), out.noise.copy()))
            return out

        def recording_decide(*args):
            decisions.append(args[3])
            return decide(*args)

        monkeypatch.setattr(detectors, "_draw", recording_draw)
        monkeypatch.setattr(detectors, "_decide", recording_decide)
        n, kinds = 2 * 8192 + 100, [[DetectorKind.ML], [DetectorKind.SO]]
        for scheme, order in (("psk", 4), ("psk", 8), ("qam", 4),
                              ("qam", 16)):
            c = constellation_for(scheme, order)
            draws.clear()
            decisions.clear()
            out = monte_carlo_bep(estimate, [0.95, 0.8], 30.0, c, kinds, n,
                                  seed=8)
            with_gamma = order == 16  # 16-QAM ML keeps its weights
            assert [d[0] for d in draws] == [with_gamma] * 3
            assert len(decisions) == 3 * (4 if with_gamma else 2)
            for b, (_, tx, noise) in enumerate(draws):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=8, spawn_key=(b,)))
                full = draw(rng, tx.size, order, estimate.h.size, True)
                assert full.tx.tobytes() == tx.tobytes()
                assert full.noise.tobytes() == noise.tobytes()
            if not with_gamma:
                assert out[:2] == out[2:]
