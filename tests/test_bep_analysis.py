"""Closed-form BEP expressions: Q function, pairwise bound, UUB, inversions.

Reference values were frozen from runs of this implementation after being
cross-checked against direct numerical evaluation (mpmath erfc for the Q
function, brute-force pair sums for the union bound).
"""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from uavlink import (
    ChannelEstimate,
    UnionBound,
    acf_thresholds,
    build_rate_schedules,
    constellation_for,
    min_snr_psk,
    psk_bep_approx,
    q_function,
    q_inverse,
    sweep_rave_max,
    union_bound,
)
from uavlink import bep_analysis
from uavlink._special import q_and_exp, q_tail, q_tail_inverse
from uavlink.bep_analysis import (
    _BEP_REL_TOL,
    _C_ABS_TOL,
    _CHUNK_VALUES,
    _C_MARGIN,
    _acf_of_z,
    _gamma_of_z,
    _psk_acf_rows,
    _psk_bound_table,
    _psk_z_roots,
    union_bound_rows,
)
from uavlink.constellation import SUPPORTED_ORDERS, hamming_matrix
from uavlink.errors import (
    DivergenceError,
    InfeasibleCsiError,
    MonotonicityError,
    SchemeError,
)
from uavlink.fixtures import load_fixture
from uavlink.lockstep import _MAX_ITER, newton_lockstep
from uavlink.scenario import average_snr_db

GAMMA_MAX = 277.1359929049  # linear SNR at the 35 dBm transmit cap, case1


@pytest.fixture(scope="module")
def estimate():
    return load_fixture("case1").estimate


class TestQFunction:
    @given(st.floats(-8.0, 8.0))
    def test_matches_erfc(self, x):
        assert q_function(x) == pytest.approx(0.5 * erfc(x / np.sqrt(2.0)),
                                              rel=1e-13, abs=1e-300)

    def test_known_points(self):
        assert q_function(0.0) == pytest.approx(0.5, rel=1e-15)
        assert q_function(np.inf) == 0.0
        # Q(-x) = 1 - Q(x)
        assert q_function(-1.3) + q_function(1.3) == pytest.approx(1.0, rel=1e-15)

    def test_array_matches_scalar(self):
        xs = np.array([-2.0, 0.0, 0.5, 4.0])
        out = q_function(xs)
        assert out.shape == xs.shape
        for xi, oi in zip(xs, out):
            assert oi == q_function(float(xi))

    @given(st.floats(1e-10, 1.0 - 1e-10))
    @settings(max_examples=200)
    def test_inverse_roundtrip(self, p):
        assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_inverse_domain(self, p):
        with pytest.raises(ValueError):
            q_inverse(p)


def _ungrouped_terms(c, norm_sq, acf, gamma):
    """Hamming weights, |s_m - s_mhat|^2, |s_m|^2 and the squared pairwise
    arguments over all M x M pairs."""
    pts = c.points
    d_sq = np.abs(pts[:, None] - pts[None, :]) ** 2
    s_sq = np.abs(pts[:, None]) ** 2
    num = gamma * acf * acf * norm_sq * d_sq
    den = 2.0 * gamma * (1.0 - acf * acf) * s_sq + 2.0
    return hamming_matrix(c), d_sq, s_sq, num / den


def _pep(c, norm_sq, acf, gamma):
    """Pairwise error probabilities of every (m, mhat) pair, from the
    ungrouped oracle above."""
    return q_function(np.sqrt(_ungrouped_terms(c, norm_sq, acf, gamma)[3]))


class TestPairwise:
    def test_perfect_csi_reduction(self, estimate):
        # at C = 1 the estimation noise vanishes: PEP = Q(sqrt(g*||h||^2*d^2/2))
        c = constellation_for("qam", 16)
        pep = _pep(c, estimate.norm_sq, 1.0, 12.0)
        for m, m_hat in [(0, 1), (3, 9), (15, 0)]:
            d_sq = abs(c.points[m] - c.points[m_hat]) ** 2
            want = q_function(np.sqrt(12.0 * estimate.norm_sq * d_sq / 2.0))
            assert pep[m, m_hat] == pytest.approx(want, rel=1e-14)

    def test_psk_symmetry(self, estimate):
        # equal symbol energies make the PSK pairwise matrix symmetric
        c = constellation_for("psk", 8)
        pep = _pep(c, estimate.norm_sq, 0.93, 40.0)
        for m in range(8):
            for m_hat in range(m + 1, 8):
                assert pep[m, m_hat] == pytest.approx(pep[m_hat, m],
                                                      rel=1e-14)

    def test_decreasing_in_snr(self, estimate):
        c = constellation_for("qam", 16)
        vals = [_pep(c, estimate.norm_sq, 0.95, g)[0, 1]
                for g in (1.0, 5.0, 25.0, 125.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestUub:
    def test_bpsk_equals_closed_form(self, estimate):
        # for BPSK the union bound is exact and matches the M=2 expression
        bound = union_bound("psk", 2)
        for g, acf in [(1.0, 1.0), (5.0, 0.75), (GAMMA_MAX, 0.9)]:
            want = psk_bep_approx(2, estimate, acf, g)
            assert bound.u(estimate.norm_sq, acf, g) == pytest.approx(
                want, rel=1e-13)

    def test_loose_at_low_snr(self, estimate):
        # the raw sum exceeds 1 here; the CLI clamps it to 1
        raw = union_bound("qam", 64).u(estimate.norm_sq, 0.9, 0.1)
        assert raw > 1.0
        assert raw == pytest.approx(7.273810176552, rel=1e-10)

    def test_tight_bound_below_one(self, estimate):
        raw = union_bound("psk", 4).u(estimate.norm_sq, 0.99, GAMMA_MAX)
        assert raw < 1e-6


def _tail_rel(u):
    """Relative tolerance between two float64 evaluations of a UUB value u:
    1e-13, plus the Q tail's amplification of argument rounding. Q(x)
    turns a relative rounding of x into x^2 ~ 2|ln u| times that, so tail
    values differ by ~1e-15 |ln u| (5.7e-13 seen at u ~ 1e-300)."""
    return 1e-13 + (1e-15 * abs(math.log(u)) if u > 0 else 0.0)


class TestUnionBound:
    """The grouped bound against ungrouped M x M reference sums."""

    @given(scheme_order=st.sampled_from(
               [(s, o) for s in ("psk", "qam") for o in SUPPORTED_ORDERS]),
           h=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                      min_size=1, max_size=8),
           acf=st.floats(0.0, 1.0),
           log_gamma=st.floats(-3.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_ungrouped_sum(self, scheme_order, h, acf, log_gamma):
        mpmath = pytest.importorskip("mpmath")
        h = np.array([complex(re, im) for re, im in h])
        assume(np.sum(np.abs(h) ** 2) > 1e-6)
        est = ChannelEstimate(h, 1e-3)
        c = constellation_for(*scheme_order)
        bound = union_bound(*scheme_order)
        gamma = 10.0 ** log_gamma
        norm = c.order * c.bits_per_symbol

        # u: float sum over every pair; values below 1e-300 are
        # near-subnormal and carry fewer digits
        n_mat, d_sq, s_sq, arg_sq = _ungrouped_terms(c, est.norm_sq, acf,
                                                     gamma)
        want = np.sum(n_mat * q_function(np.sqrt(arg_sq))) / norm
        got, slope = bound.u_and_slope(est.norm_sq, acf, gamma)
        assert got == pytest.approx(want, rel=_tail_rel(want), abs=1e-300)
        assert bound.u(est.norm_sq, acf, gamma) == got

        # v: central difference in ln(gamma) of the same sum, at 30 digits
        # more than the cancellation u(g e^-eps) - u(g e^eps) costs
        mp = mpmath.mp.clone()
        if got > 0 and slope > 0:
            mp.dps = 30 + max(0, int(math.log10(got) - math.log10(slope)))
        else:
            mp.dps = 30
        pairs = [(int(n_mat[m, k]), mp.mpf(float(d_sq[m, k])),
                  mp.mpf(float(s_sq[m, 0])))
                 for m in range(c.order) for k in range(c.order)
                 if n_mat[m, k]]
        a2, b = mp.mpf(acf) ** 2 * mp.mpf(est.norm_sq), 1 - mp.mpf(acf) ** 2

        def u_mp(g):
            return mp.fsum(n * mp.erfc(mp.sqrt(g * a2 * d / (2 * g * b * s + 2)
                                               / 2))
                           for n, d, s in pairs) / (2 * norm)

        eps, g = mp.mpf("1e-10"), mp.mpf(gamma)
        fd = float((u_mp(g * mp.exp(-eps)) - u_mp(g * mp.exp(eps)))
                   / (2 * eps))
        assert slope == pytest.approx(fd, rel=1e-7, abs=1e-300)

        # floor: the C-limited limit of every pairwise argument
        with np.errstate(divide="ignore", invalid="ignore"):
            lim = acf * acf * est.norm_sq * d_sq / (2.0 * (1.0 - acf * acf)
                                                    * s_sq)
        q_lim = np.where(n_mat > 0, q_function(np.sqrt(lim)), 0.0)
        want = np.sum(n_mat * q_lim) / norm
        assert bound.floor(est.norm_sq, acf) == pytest.approx(
            want, rel=_tail_rel(want), abs=1e-300)

    @given(scheme=st.sampled_from(["psk", "qam"]),
           order=st.sampled_from(SUPPORTED_ORDERS),
           log_gamma=st.floats(-3.0, 8.0),
           log_norm_sq=st.floats(-3.0, 3.0),
           acf=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    @example(scheme="qam", order=64, log_gamma=8.0, log_norm_sq=3.0,
             acf=[0.999999, 1.0])
    @settings(max_examples=200, deadline=None)
    def test_non_increasing_in_acf(self, scheme, order, log_gamma,
                                   log_norm_sq, acf):
        # the C-threshold solve checks only C = 1, relying on this: every
        # term w Q(C r(C)) has w >= 0 and C r(C) rising, as r's denominator
        # 2 gamma (1 - C^2) |s|^2 + 2 falls with C. Rounding is allowed
        # 1e-12 absolute plus 1e-9 relative
        lo, hi = sorted(acf)
        bound, gamma = union_bound(scheme, order), 10.0 ** log_gamma
        norm_sq = 10.0 ** log_norm_sq
        u_lo, u_hi = bound.u(norm_sq, np.array([lo, hi]), gamma)
        assert u_hi <= u_lo + 1e-12 + 1e-9 * u_lo
        assert bound.u_and_acf_slope(norm_sq, lo, gamma)[1] >= 0.0

    @pytest.mark.parametrize("scheme,order,terms", [
        ("qam", 16, 22), ("qam", 64, 224), ("psk", 64, 32)])
    def test_grouped_term_count(self, scheme, order, terms):
        bound = union_bound(scheme, order)
        assert isinstance(bound, UnionBound)
        assert bound.n_terms == terms
        assert union_bound(scheme, order) is bound  # cached
        # the summed weights are all the off-diagonal Hamming weight
        c = constellation_for(scheme, order)
        assert bound.weight.sum() * order * c.bits_per_symbol == \
            pytest.approx(hamming_matrix(c).sum(), rel=1e-14)

    def test_broadcasts_and_blocks(self, estimate):
        # a long array is evaluated in blocks; each point equals its own
        # scalar evaluation
        bound = union_bound("qam", 64)
        acf = np.linspace(0.9, 1.0, 3001)
        gamma = np.geomspace(1.0, 1e4, 3001)
        u, v = bound.u_and_slope(estimate.norm_sq, acf, gamma)
        assert u.shape == v.shape == acf.shape
        for k in (0, 1234, 3000):
            su, sv = bound.u_and_slope(estimate.norm_sq, acf[k], gamma[k])
            assert (u[k], v[k]) == (su, sv)
        grid = bound.u(estimate.norm_sq, acf[:4, None], gamma[None, :5])
        assert grid.shape == (4, 5)


# the reference: each method's arithmetic on one order's (rows, 1)
# columns against its (terms,) arrays, written out from the bound's s_sq,
# d_sq and weight and `_special`'s functions, in blocks of rows x terms up
# to _BLOCK values, cut apart independently of the package's chunks
_BLOCK = 1 << 14


def _sum(bound, part):
    part *= bound.weight
    return part.sum(axis=-1)


def _pep_ratio(bound, norm_sq, acf, gamma):
    den = 2.0 * gamma * (1.0 - acf * acf) * bound.s_sq
    den += 2.0
    r = gamma * norm_sq * bound.d_sq
    r /= den
    return np.sqrt(r, out=r), den


def _q_sq(bound, beta):
    # Q^-1(beta / w)^2 of each row for each weight w and, last, for the
    # whole weight W, once per distinct (beta, weight)
    levels, level = np.unique(np.append(bound.weight, bound.weight.sum()),
                              return_inverse=True)
    b, row = np.unique(beta, return_inverse=True)
    q = q_tail_inverse(np.minimum(b[:, None] / levels, 0.5))
    return (q * q)[row.ravel()][:, level.ravel()]


def _u_rows(bound, norm_sq, acf, gamma):
    r, _ = _pep_ratio(bound, norm_sq, acf, gamma)
    return (_sum(bound, q_tail(acf * r)),)


def _uv_rows(bound, norm_sq, acf, gamma):
    r, den = _pep_ratio(bound, norm_sq, acf, gamma)
    arg = acf * r
    q, e = q_and_exp(arg)
    e *= arg
    den *= math.sqrt(2.0 * math.pi)
    e /= den
    return _sum(bound, q), _sum(bound, e)


def _uw_rows(bound, norm_sq, acf, gamma):
    r, den = _pep_ratio(bound, norm_sq, acf, gamma)
    q, e = q_and_exp(acf * r)
    e *= r
    g = 2.0 * gamma * bound.s_sq
    g += 2.0
    e *= g
    den *= math.sqrt(2.0 * math.pi)
    e /= den
    return _sum(bound, q), _sum(bound, e)


def _floor_rows(bound, norm_sq, acf):
    with np.errstate(divide="ignore"):
        arg = acf * np.sqrt(norm_sq * bound.d_sq
                            / (2.0 * (1.0 - acf * acf) * bound.s_sq))
    return (_sum(bound, q_tail(arg)),)


def _acf_lower_rows(bound, norm_sq, gamma, beta):
    q_sq = _q_sq(bound, beta)[..., :-1]
    c_sq = (2.0 * q_sq * (gamma * bound.s_sq + 1.0)
            / (gamma * norm_sq * bound.d_sq + 2.0 * q_sq * gamma * bound.s_sq))
    return (np.sqrt(np.minimum(np.max(c_sq, axis=-1), 1.0)),)


def _gamma_lower_rows(bound, norm_sq, acf, beta):
    def roots(q_sq, none):
        den = (acf * acf * norm_sq * bound.d_sq
               - 2.0 * q_sq * (1.0 - acf * acf) * bound.s_sq)
        return np.divide(2.0 * q_sq, den, out=np.full(den.shape, none),
                         where=den > 0.0)
    q_sq = _q_sq(bound, beta)
    single = roots(q_sq[..., :-1], 0.0)
    whole = roots(q_sq[..., -1:], np.inf)
    return (np.maximum(np.max(single, axis=-1), np.min(whole, axis=-1)),)


# the multi-order evaluation, method by method, with its reference and
# the arrays each takes
_ROW_METHODS = [
    (UnionBound.u, _u_rows, ("acf", "gamma")),
    (UnionBound.u_and_slope, _uv_rows, ("acf", "gamma")),
    (UnionBound.u_and_acf_slope, _uw_rows, ("acf", "gamma")),
    (UnionBound.floor, _floor_rows, ("acf",)),
    (UnionBound.acf_lower, _acf_lower_rows, ("gamma", "beta")),
    (UnionBound.gamma_lower, _gamma_lower_rows, ("acf", "beta")),
]


def _per_order(bound, ref, norm_sq, *args):
    """One order's bound evaluated independently of the package: the
    method's arithmetic spelled out on (rows, 1) columns against the
    bound's (terms,) arrays, in blocks of _BLOCK // n_terms rows (one empty
    block for no rows), the sums taken as part *= weight;
    part.sum(axis=-1), the blocks concatenated. Floats where the shape is
    0-d."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    cols = [np.broadcast_to(np.asarray(a, dtype=np.float64),
                            shape).reshape(-1, 1) for a in args]
    n = max(1, _BLOCK // bound.n_terms)
    blocks = [ref(bound, norm_sq, *(c[lo:lo + n] for c in cols))
              for lo in range(0, max(len(cols[0]), 1), n)]
    outs = tuple(np.concatenate(out).reshape(shape) for out in zip(*blocks))
    return tuple(map(float, outs)) if shape == () else outs


_ROW = st.tuples(st.sampled_from(SUPPORTED_ORDERS), st.floats(0.0, 1.0),
                 st.floats(-3.0, 6.0), st.floats(-8.0, math.log10(0.3)))


class TestUnionBoundRows:
    """Rows of mixed orders in one call against each row's own order's
    UnionBound, called on that row alone."""

    def test_block_size_of_64_qam(self):
        # the rows below cross the package's chunks of the largest bound
        # (36 rows) and the reference's blocks (73 rows)
        bound = union_bound("qam", 64)
        assert _CHUNK_VALUES // bound.n_terms == 36
        assert _BLOCK // bound.n_terms == 73

    def test_blocks_bound_the_temporaries(self, estimate):
        # an evaluation over 60 blocks keeps the (rows x terms)
        # temporaries of about one block alive at a time, not of every
        # block: a finished chunk holds none of them
        bound = union_bound("qam", 64)
        n = 60 * (_BLOCK // bound.n_terms)
        acf, gamma = np.linspace(0.5, 0.99, n), np.full(n, 100.0)
        block = 8 * _BLOCK  # bytes of one block's float array
        for run in (
                lambda: union_bound_rows("qam", np.full(n, 64),
                                         UnionBound.u_and_acf_slope,
                                         estimate.norm_sq, acf, gamma),
                lambda: bound.u(estimate.norm_sq, acf, gamma)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 24 * block, peak / block

    @given(scheme=st.sampled_from(["psk", "qam"]),
           head=st.lists(_ROW, min_size=1, max_size=6),
           n_more=st.sampled_from([0, 35, 36, 37, 72, 73, 74, 146, 147, 200]),
           n_low=st.sampled_from([0, 8191, 16383]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(scheme="qam", head=[(64, 0.0, 0.0, -5.0), (2, 0.0, 6.0, -1.0)],
             n_more=73, n_low=0, seed=0)
    @example(scheme="psk", head=[(64, 1.0, 6.0, -8.0), (16, 1.0, -3.0, -1.0)],
             n_more=146, n_low=0, seed=1)
    @example(scheme="qam", head=[(64, 0.5, 2.0, -5.0), (2, 0.5, 2.0, -5.0)],
             n_more=37, n_low=8191, seed=2)
    @example(scheme="psk", head=[(32, 0.9, 3.0, -6.0)], n_more=200,
             n_low=16383, seed=3)
    @settings(max_examples=30, deadline=None)
    def test_each_row_equals_its_own_order(self, estimate, scheme, head,
                                           n_more, n_low, seed):
        # n_low one-term rows (order 2) come first in the sorted rows, so
        # that the rows after them straddle the 8,192- and 16,384-value
        # chunk ends; n_more rows follow the head, most of one order so
        # that a chunk boundary falls inside its group, the rest a random
        # mix
        rng = np.random.default_rng(seed)
        tail_orders = np.where(rng.random(n_more) < 0.7, 64,
                               rng.choice(SUPPORTED_ORDERS, n_more))
        n_all = n_low + len(head) + n_more
        cols = {
            "order": np.concatenate([np.full(n_low, 2), [r[0] for r in head],
                                     tail_orders]),
            "acf": np.concatenate([rng.uniform(0.0, 1.0, n_low),
                                   [r[1] for r in head],
                                   rng.uniform(0.0, 1.0, n_more)]),
            "gamma": 10.0 ** np.concatenate([rng.uniform(-3.0, 6.0, n_low),
                                             [r[2] for r in head],
                                             rng.uniform(-3.0, 6.0, n_more)]),
            "beta": 10.0 ** np.concatenate([rng.uniform(-8.0, -0.6, n_low),
                                            [r[3] for r in head],
                                            rng.uniform(-8.0, -0.6, n_more)]),
        }
        norm_sq = estimate.norm_sq
        for method, ref, names in _ROW_METHODS:
            got = union_bound_rows(scheme, cols["order"], method, norm_sq,
                                   *(cols[k] for k in names))
            assert [a.shape for a in got] == [(n_all,)] * len(got)
            # the low rows, all of one order, in one reference call
            want = _per_order(union_bound(scheme, 2), ref, norm_sq,
                              *(cols[k][:n_low] for k in names))
            assert all(np.array_equal(a[:n_low], b)
                       for a, b in zip(got, want)), method
            for i in range(n_low, n_all):
                want = _per_order(union_bound(scheme, int(cols["order"][i])),
                                  ref, norm_sq,
                                  *(float(cols[k][i]) for k in names))
                assert tuple(out[i] for out in got) == want, (method, i)

    @pytest.mark.parametrize("n_rows", [0, 1, 35, 36, 37, 72, 73, 74, 200])
    @pytest.mark.parametrize("method,ref,names", _ROW_METHODS)
    def test_one_order_equals_its_blocks(self, estimate, method, ref,
                                         names, n_rows):
        # a method called on its own and a one-order union_bound_rows call
        # against the always-blocked reference: 0-d, empty, one-chunk and
        # multi-chunk (36 rows per 64-QAM chunk, 73 per reference block)
        rng = np.random.default_rng(n_rows)
        cols = {"acf": rng.uniform(0.0, 1.0, n_rows),
                "gamma": 10.0 ** rng.uniform(-3.0, 6.0, n_rows),
                "beta": 10.0 ** rng.uniform(-8.0, -0.6, n_rows)}
        bound, norm_sq = union_bound("qam", 64), estimate.norm_sq
        args = [cols[k] for k in names]
        want = _per_order(bound, ref, norm_sq, *args)
        got = method(bound, norm_sq, *args)
        got = got if isinstance(got, tuple) else (got,)
        assert [a.shape for a in got] == [(n_rows,)] * len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        rows = union_bound_rows("qam", np.full(n_rows, 64), method, norm_sq,
                                *args)
        assert all(np.array_equal(a, b) for a, b in zip(rows, want))
        if n_rows:  # the first row as scalars: floats, and 0-d arrays
            scalars = [float(a[0]) for a in args]
            one = method(bound, norm_sq, *scalars)
            one = one if isinstance(one, tuple) else (one,)
            assert all(type(v) is float for v in one)
            assert one == _per_order(bound, ref, norm_sq, *scalars)
            rows = union_bound_rows("qam", 64, method, norm_sq, *scalars)
            assert [a.shape for a in rows] == [()] * len(one)
            assert tuple(map(float, rows)) == one

    def test_broadcasts_and_keeps_the_shape(self, estimate):
        order = np.array([[4], [64]])
        u, w = union_bound_rows("qam", order, UnionBound.u_and_acf_slope,
                                estimate.norm_sq, np.array([0.9, 0.99, 1.0]),
                                100.0)
        assert u.shape == w.shape == (2, 3)
        assert u[1, 2] == union_bound("qam", 64).u(estimate.norm_sq, 1.0,
                                                   100.0)
        # no rows still give one array per output of the method
        for method, n_out in [(UnionBound.u_and_slope, 2), (UnionBound.u, 1)]:
            empty = union_bound_rows("psk", np.zeros(0, int), method,
                                     estimate.norm_sq, 0.5, np.zeros(0))
            assert [a.shape for a in empty] == [(0,)] * n_out

    @pytest.mark.parametrize("scheme", ["psk", "qam"])
    def test_u_at_zero_csi_is_half_the_weight(self, estimate, scheme):
        # Q(0) = 1/2 exactly, so u(C = 0) = sum(w) / 2 to the bit, at any
        # SNR: the closed form the threshold solve uses
        gamma = np.geomspace(1e-3, 1e6, 7)
        for order in SUPPORTED_ORDERS:
            bound = union_bound(scheme, order)
            assert np.all(bound.u(estimate.norm_sq, 0.0, gamma)
                          == 0.5 * bound.weight.sum())


class TestPskApprox:
    @pytest.mark.parametrize("order", [8, 16, 32])
    def test_equals_nearest_neighbour_subsum(self, estimate, order):
        # Gray ring: only the two unit-Hamming neighbours at d_min survive
        c = constellation_for("psk", order)
        pep = _pep(c, estimate.norm_sq, 0.97, 50.0)
        pts = c.points
        dist = np.abs(pts[:, None] - pts[None, :])
        d_min = dist[dist > 0].min()
        n_mat = hamming_matrix(c)
        sub = sum(n_mat[m, m_hat] * pep[m, m_hat]
                  for m in range(order) for m_hat in range(order)
                  if m != m_hat and abs(dist[m, m_hat] - d_min) < 1e-12)
        sub /= order * c.bits_per_symbol
        assert psk_bep_approx(order, estimate, 0.97, 50.0) == pytest.approx(
            sub, rel=1e-13)

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_never_exceeds_uub(self, estimate, order):
        bound = union_bound("psk", order)
        for g in (2.0, 20.0, 200.0):
            for acf in (0.8, 0.95, 1.0):
                full = bound.u(estimate.norm_sq, acf, g)
                assert psk_bep_approx(order, estimate, acf, g) <= full * (1 + 1e-12)

    def test_unsupported_order(self, estimate):
        with pytest.raises(SchemeError):
            psk_bep_approx(6, estimate, 0.9, 10.0)


def _psk_forward(order, norm_sq, acf, gamma):
    """The per-order forward approximation the term table replaced: BPSK's
    own branch and its own w and 1 - cos(2 pi / M) for every other order."""
    den = gamma * (1.0 - acf * acf) + 1.0
    hc_sq = norm_sq * acf * acf
    if order == 2:
        return q_function(math.sqrt(2.0 * gamma * hc_sq / den))
    bits = order.bit_length() - 1
    num = gamma * hc_sq * (1.0 - math.cos(2.0 * math.pi / order))
    return 2.0 / bits * q_function(math.sqrt(num / den))


def _psk_inverse(order, norm_sq, acf, beta):
    """The per-order inverse the term table replaced (None if infeasible)."""
    hc_sq = norm_sq * acf * acf
    if order == 2:
        alpha_sq = q_inverse(beta) ** 2
        den = 2.0 * hc_sq - (1.0 - acf * acf) * alpha_sq
    else:
        bits = order.bit_length() - 1
        alpha_sq = q_inverse(beta * bits / 2.0) ** 2
        den = (hc_sq * (1.0 - math.cos(2.0 * math.pi / order))
               - (1.0 - acf * acf) * alpha_sq)
    return alpha_sq / den if den > 0.0 else None


class TestPskTable:
    # one (w, bits / 2, d) row per order serves the forward form and its
    # inverse, over per-sample orders
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_mixed_orders_equal_per_order_calls(self, estimate, seed, n):
        rng = np.random.default_rng(seed)
        order = rng.permutation(np.resize(np.array(SUPPORTED_ORDERS), n))
        acf = 1.0 - 10.0 ** rng.uniform(-8.0, -0.5, n)
        gamma = 10.0 ** rng.uniform(-1.0, 5.0, n)
        norm_sq = estimate.norm_sq
        got = psk_bep_approx(order, estimate, acf, gamma)
        assert got.shape == (n,)
        assert got.tolist() == [
            psk_bep_approx(m, estimate, c, g)
            for m, c, g in zip(order.tolist(), acf.tolist(), gamma.tolist())]
        assert got.tolist() == [
            _psk_forward(m, norm_sq, c, g)
            for m, c, g in zip(order.tolist(), acf.tolist(), gamma.tolist())]
        # feasible samples only: C above each order's threshold C
        acf = 1.0 - 10.0 ** rng.uniform(-8.0, -5.0, n)
        roots = min_snr_psk(order, estimate, acf, 1e-5)
        assert roots.shape == (n,)
        assert roots.tolist() == [
            min_snr_psk(m, estimate, c, 1e-5)
            for m, c in zip(order.tolist(), acf.tolist())]
        assert roots.tolist() == [_psk_inverse(m, norm_sq, c, 1e-5)
                                  for m, c in zip(order.tolist(),
                                                  acf.tolist())]

    def test_order_axes_broadcast(self, estimate):
        # a 2-D order array keeps its axes; a scalar order or C broadcasts
        order = np.array([[2, 4, 8], [16, 32, 64]])
        acf = np.array([[0.9999, 0.99999, 0.999999]])
        got = psk_bep_approx(order, estimate, acf.T[:2], 300.0)
        assert got.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            assert got[i, j] == psk_bep_approx(int(order[i, j]), estimate,
                                               acf[0, i], 300.0)
        roots = min_snr_psk(order, estimate, acf, 1e-5)
        assert roots.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            assert roots[i, j] == min_snr_psk(int(order[i, j]), estimate,
                                              acf[0, j], 1e-5)
        assert psk_bep_approx(8, estimate, acf[0], 300.0).tolist() == [
            psk_bep_approx(8, estimate, c, 300.0) for c in acf[0].tolist()]
        assert min_snr_psk(order[1], estimate, 0.99999, 1e-5).tolist() == [
            min_snr_psk(m, estimate, 0.99999, 1e-5) for m in (16, 32, 64)]
        assert isinstance(min_snr_psk(4, estimate, 0.999, 1e-5), float)
        assert isinstance(psk_bep_approx(4, estimate, 0.999, 30.0), float)
        for empty in (psk_bep_approx(np.array([], np.int64), estimate,
                                     np.array([]), np.array([])),
                      min_snr_psk(np.array([], np.int64), estimate,
                                  np.array([]), 1e-5),
                      min_snr_psk(8, estimate, np.array([]), 1e-5)):
            assert empty.shape == (0,)

    @pytest.mark.parametrize("order", [[4, 6, 8], [2, 128], [0], 3])
    def test_unsupported_order_anywhere(self, estimate, order):
        acf = np.full(np.shape(order), 0.999)
        with pytest.raises(SchemeError, match="unsupported PSK order"):
            psk_bep_approx(np.array(order), estimate, acf, 30.0)
        with pytest.raises(SchemeError, match="unsupported PSK order"):
            min_snr_psk(np.array(order), estimate, acf, 1e-5)

    def test_infeasible_names_lowest_order_and_its_first_c(self, estimate):
        # 16-PSK fails first in sample order, but 4-PSK is the lowest order
        # that fails, first at C = 0.3 and again at C = 0.2
        order = np.array([16, 4, 2, 4, 16, 4])
        acf = np.array([0.5, 0.99, 0.9, 0.3, 0.6, 0.2])
        assert _psk_inverse(2, estimate.norm_sq, 0.9, 1e-5) is not None
        assert _psk_inverse(4, estimate.norm_sq, 0.99, 1e-5) is not None
        with pytest.raises(InfeasibleCsiError,
                           match=r"^4-PSK cannot reach 1e-05 at C=0\.300000$"
                           ) as info:
            min_snr_psk(order, estimate, acf, 1e-5)
        assert info.value.order == 4
        with pytest.raises(InfeasibleCsiError, match="C=0.500000") as info:
            min_snr_psk(16, estimate, acf[[1, 0, 4]], 1e-5)
        assert info.value.order == 16

    def test_threshold_outside_an_orders_domain(self, estimate):
        # at beta = 0.4, Q^-1(beta bits / 2) is undefined for 32- and
        # 64-PSK; a lower order that fails still fails first, as it would
        # called alone
        with pytest.raises(InfeasibleCsiError, match="^4-PSK") as info:
            min_snr_psk(np.array([64, 4, 32]), estimate,
                        np.array([0.99, 0.05, 0.99]), 0.4)
        assert info.value.order == 4
        with pytest.raises(ValueError, match=r"^32-PSK approximation cannot "
                           r"be inverted at bep_threshold 0\.4: beta log2\(M\)"
                           r" / 2 = 1 lies outside \(0, 1/2\)$"):
            min_snr_psk(np.array([64, 4, 32]), estimate,
                        np.array([0.99, 0.99, 0.99]), 0.4)
        assert min_snr_psk(4, estimate, 0.99, 0.4) == _psk_inverse(
            4, estimate.norm_sq, 0.99, 0.4)

    @pytest.mark.parametrize("order,beta", [
        (2, 0.5), (4, 0.5), (8, 1.0 / 3.0), (16, 0.25), (32, 0.2), (64, 0.2),
        (64, 0.3), (64, 1.0 / 6.0), (8, 0.0), (8, -1e-3)])
    def test_no_root_where_the_approximation_meets_beta_at_zero_snr(
            self, estimate, order, beta):
        # w Q(x) <= w / 2 = 1 / log2(M) at every SNR: from beta bits / 2 =
        # 1/2 up the threshold holds at zero SNR, where Q^-1(beta bits / 2)
        # <= 0 would give gamma = 0 or a spurious positive root
        half_bits = (order.bit_length() - 1) / 2.0 if order > 2 else 1.0
        b = beta * half_bits
        assert not 0.0 < b < 0.5
        for c in (0.5, 0.99, 1.0):
            with pytest.raises(ValueError, match=re.escape(
                    f"{order}-PSK approximation cannot be inverted at "
                    f"bep_threshold {beta:g}:")):
                min_snr_psk(order, estimate, c, beta)
        if b >= 0.5:
            assert psk_bep_approx(order, estimate, 0.99, 0.0) <= beta
        # inside the domain the root is finite and positive
        g = min_snr_psk(order, estimate, 0.99, 0.49 / half_bits)
        assert 0.0 < g < np.inf


def _sinh_bound(x0, beta):
    """uv of u(x) = beta exp(-sinh(x - x0)) in each cell, which falls in x
    and equals beta exactly at x0, and the list of its cell counts."""
    calls = []

    def uv(cells, x):
        calls.append(cells.size)
        z = x - x0[cells]
        u = beta[cells] * np.exp(-np.sinh(z))
        return u, np.cosh(z) * u
    return uv, calls


class TestNewtonLockstep:
    X0 = np.array([-2.0, 0.5, 3.0, 1.0])
    BETA = np.array([1e-6, 1e-3, 0.2, 1e-5])
    # starts below the root, above it, far above it, and on it
    START = X0 + np.array([-3.0, 2.5, 6.0, 0.0])

    def test_newton_step_stops_on_an_open_bracket(self):
        uv, calls = _sinh_bound(self.X0, self.BETA)
        roots = newton_lockstep(uv, self.BETA, self.START, -np.inf, np.inf,
                                1e-12)
        assert np.all(np.abs(roots.root - self.X0) <= 1e-12)
        assert roots.newton.all()
        assert roots.iterations[3] == 1  # f = 0: a zero Newton step
        assert roots.iterations.max() <= 12
        # cells leave the lockstep as they converge
        assert calls[0] == 4 and calls[-1] < 4
        assert sum(calls) == roots.iterations.sum()

    def test_narrow_bracket_stops_a_bisection(self):
        # no slope: every Newton step is infinite, so each step bisects
        uv, _ = _sinh_bound(self.X0, self.BETA)
        roots = newton_lockstep(
            lambda cells, x: (uv(cells, x)[0], np.zeros(cells.size)),
            self.BETA, self.X0 - 0.5, self.X0 - 1.0, self.X0 + 1.0, 1e-6)
        assert np.all(np.abs(roots.root - self.X0) <= 1e-6)
        assert not roots.newton.any()
        assert np.all(roots.iterations >= 20)

    def test_ftol_returns_the_feasible_end(self):
        uv, _ = _sinh_bound(self.X0, self.BETA)
        tol = 1e-12
        roots = newton_lockstep(uv, self.BETA, self.START, -np.inf, np.inf,
                                tol, 1e-8)
        u, _ = uv(np.arange(4), roots.root)
        assert np.all(u <= self.BETA)
        assert np.all((roots.root >= self.X0) & (roots.root - self.X0 <= tol))
        assert roots.root[3] == self.X0[3]

    def test_ftol_closes_a_bracket_one_ulp_wide(self):
        # roots where a double's spacing exceeds tol: the closing step is
        # one ulp, not a step that rounds to none, and a bracket with no
        # float inside it ends the cell
        x0 = np.array([1e4 + 0.3, 2e4 + 0.7])
        beta = np.array([1e-3, 0.2])
        uv, _ = _sinh_bound(x0, beta)
        assert np.all(np.spacing(x0) > 1e-12)
        for start in (x0 - 1e-3, x0 + 2.0):
            roots = newton_lockstep(uv, beta, start, -np.inf, np.inf,
                                    1e-12, 1e-10)
            assert np.all(np.abs(roots.root - x0) <= np.spacing(x0))
            assert np.all(uv(np.arange(2), roots.root)[0] <= beta)

    def test_steps_onto_the_other_end_bisect(self):
        # u jumps across beta at 0.5 and every Newton step has length 1:
        # 0 -> 1 -> 0 would cycle, so the step back onto the known end
        # bisects instead, down to the jump
        def jump(cells, x):
            u = np.where(x < 0.5, 2e-3, 5e-4)
            return u, u * math.log(2.0)
        roots = newton_lockstep(jump, 1e-3, np.zeros(1), -np.inf, np.inf,
                                1e-9)
        assert abs(roots.root[0] - 0.5) <= 1e-9
        assert not roots.newton[0]

    def test_narrow_bracket_ends_even_unsplit(self):
        # a bracket one ulp wide cannot be split, but it is narrower than
        # tol: the cell is done, not diverged
        a = 23.6
        hi = np.nextafter(a, np.inf)
        roots = newton_lockstep(
            lambda cells, x: (np.full(cells.size, 2e-3),
                              np.full(cells.size, 1e-9)),
            1e-3, np.full(1, a), a, hi, 1e-9)
        assert roots.root[0] in (a, hi)
        assert roots.iterations[0] == 1 and not roots.newton[0]

    def test_non_finite_step_against_an_infinite_end(self):
        # a flat u above beta sends the Newton step to +inf, where the
        # upper end still is: there is nothing to bisect
        calls = []

        def flat(cells, x):
            calls.append(cells.size)
            return np.full(cells.size, 2e-3), np.zeros(cells.size)
        with pytest.raises(DivergenceError, match="can no longer be split"):
            newton_lockstep(flat, 1e-3, np.zeros(1), -np.inf, np.inf, 1e-9)
        assert calls == [1]

    def test_divergence_names_the_failed_cells(self):
        # cell 1's u stays above beta on its whole bracket: its upper end is
        # never evaluated, so it bisects up to 1 until its bracket can no
        # longer be split, long after the other cells have converged
        x0, beta = np.array([0.3, 0.5, 0.6]), np.array([1e-3, 1e-4, 1e-5])
        sinh, _ = _sinh_bound(x0, beta)

        def uv(cells, x):
            u, v = sinh(cells, x)
            stuck = cells == 1
            return (np.where(stuck, beta[cells] * (2.0 - 0.5 * x), u),
                    np.where(stuck, 0.5 * beta[cells], v))
        with pytest.raises(DivergenceError,
                           match="can no longer be split") as info:
            newton_lockstep(uv, beta, np.full(3, 0.5), 0.0, 1.0, 1e-12, 1e-8)
        assert info.value.cells.tolist() == [1]

    def test_gives_up_after_max_iter(self):
        # a slope so steep that every Newton step rounds away, with tol 0
        calls = []

        def steep(cells, x):
            calls.append(cells.size)
            return np.full(cells.size, 2e-3), np.full(cells.size, 1e300)
        with pytest.raises(DivergenceError, match=f"in {_MAX_ITER} ") as info:
            newton_lockstep(steep, 1e-3, np.full(1, 0.5), 0.0, 1.0, 0.0)
        assert len(calls) == _MAX_ITER
        assert info.value.cells.tolist() == [0]


def _c_n(rate, estimate, gamma, scheme, beta):
    """C_n of `rate` in every cell of broadcast (gamma, beta), flattened,
    from the grid solve (+inf where the rate exceeds a cell's r_max)."""
    return acf_thresholds(estimate, gamma, scheme, beta)[1][rate - 1]


class TestAcfThresholds:
    def test_residual_at_root(self, estimate):
        beta = 1e-5
        for rate, scheme in [(2, "psk"), (3, "psk"), (4, "qam"), (5, "qam")]:
            c_n = _c_n(rate, estimate, GAMMA_MAX, scheme, beta)[0]
            val = union_bound(scheme, 2 ** rate).u(estimate.norm_sq, c_n,
                                                   GAMMA_MAX)
            assert abs(val - beta) <= 1e-8 * beta

    def test_steep_bound_meets_residual(self, estimate):
        # 64-PSK, 4 dB above the cap SNR, beta = 1e-7: one 1e-12 step in C
        # moves the bound by 1.7e-8 relative, more than the residual
        # tolerance, so the bisection must go on below the 1e-12 bracket
        g, beta = GAMMA_MAX * 10.0 ** 0.4, 1e-7
        c_n = _c_n(6, estimate, g, "psk", beta)[0]
        val = union_bound("psk", 64).u(estimate.norm_sq, c_n, g)
        assert val <= beta
        assert abs(val - beta) <= 1e-8 * beta

    def test_steep_cell_in_a_batch(self, estimate):
        # the steep cell above, bisected in lockstep with easy cells: it
        # still runs past the 1e-12 bracket to meet the residual gate, and
        # the easy cells come out as their one-cell inversions
        g = GAMMA_MAX * 10.0 ** 0.4
        gamma = np.array([g, g, 4.0 * GAMMA_MAX, g])
        beta = np.array([1e-3, 1e-7, 1e-5, 1e-5])
        c_n = _c_n(6, estimate, gamma, "psk", beta)
        val = union_bound("psk", 64).u(estimate.norm_sq, c_n[1], g)
        assert val <= 1e-7
        assert abs(val - 1e-7) <= 1e-8 * 1e-7
        for k in (0, 2, 3):
            assert c_n[k] == _c_n(6, estimate, float(gamma[k]), "psk",
                                  float(beta[k]))[0]
        assert c_n[1] == _c_n(6, estimate, g, "psk", 1e-7)[0]

    def test_frozen_thresholds(self, estimate):
        # regression pins at the transmit-cap SNR, threshold 1e-5
        assert _c_n(3, estimate, GAMMA_MAX, "psk", 1e-5)[0] == \
            pytest.approx(0.941010882791, abs=5e-12)
        assert _c_n(4, estimate, GAMMA_MAX, "qam", 1e-5)[0] == \
            pytest.approx(0.971457189776, abs=5e-12)

    def test_increasing_in_rate(self, estimate):
        vals = [_c_n(n, estimate, GAMMA_MAX, "psk", 1e-5)[0]
                for n in range(1, 6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_infeasible_even_with_perfect_csi(self, estimate):
        # 8-PSK at 5 dB cannot reach 1e-5 regardless of CSI quality: rate 3
        # lies above the cell's r_max and gets no threshold
        r_max, cs = acf_thresholds(estimate, 10 ** 0.5, "psk", 1e-5)
        assert r_max[0] < 3 and len(cs) < 3

    def test_zero_when_any_csi_works(self, estimate):
        # the C = 0 bound is exactly M/4 (every pairwise argument collapses
        # to Q(0)), so a threshold above 0.5 admits BPSK at any CSI quality
        assert _c_n(1, estimate, GAMMA_MAX, "psk", 0.51)[0] == 0.0


def _c_lockstep(scheme, order, norm_sq, gamma, beta):
    """The C-threshold solve the z solves replaced: u(C) = beta in C on
    [0, 1] by one lockstep from `acf_lower`, C_n the bracket's feasible
    end, over 1-D rows of one order with sum(w) / 2 > beta >= u(C = 1)."""
    bound = union_bound(scheme, order)
    return newton_lockstep(
        lambda live, acf: bound.u_and_acf_slope(norm_sq, acf, gamma[live]),
        beta, bound.acf_lower(norm_sq, gamma, beta), 0.0, 1.0, _C_ABS_TOL,
        _BEP_REL_TOL).root


def _top_snr_db(estimate):
    """The largest run.snr_db the CLI accepts on this channel."""
    return 10.0 * (math.log10(sys.float_info.max / 2.0 ** 16) - max(
        abs(math.log10(estimate.norm_sq)), math.log10(estimate.h.size)))


class TestThresholdsInZ:
    # both schemes solve C_n in z^2 = gamma C^2 ||h||^2
    # / (2 gamma (1 - C^2) + 2): PSK from one root z* of sum(w Q(d z))
    # = beta per (order, beta), mapped to each cell in closed form, QAM
    # each row on its own order's bound
    @given(fixture=st.sampled_from(["case1", "case2"]),
           scheme=st.sampled_from(["psk", "qam"]),
           snr_db=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4),
           beta=st.lists(st.one_of(
               st.floats(-9.0, -1.0).map(lambda v: 10.0 ** v),
               # sum(w) / 2 is 1/2 for BPSK and 1 for QPSK: C_n = 0 at and
               # above it, and every single-term PSK root is 0 between
               st.sampled_from([0.5, 0.7, 1.0, 1.5])),
               min_size=1, max_size=3),
           extreme=st.booleans())
    @settings(max_examples=60, deadline=None)
    @example(fixture="case1", scheme="psk", snr_db=[33.3058],
             beta=[1.7745320644449593e-08], extreme=False)
    @example(fixture="case1", scheme="qam", snr_db=[20.0],
             beta=[1e-5, 0.3], extreme=True)
    @example(fixture="case2", scheme="qam", snr_db=[0.0, 38.0],
             beta=[1e-2], extreme=True)
    def test_matches_the_c_lockstep(self, fixture, scheme, snr_db, beta,
                                    extreme):
        # extreme QAM draws add the largest SNR the CLI accepts and the
        # least normal threshold. PSK C_n miss the residual gate there:
        # their margin moves the bound by more than 1e-8
        est = load_fixture(fixture).estimate
        norm_sq = est.norm_sq
        if extreme and scheme == "qam":
            snr_db = snr_db + [_top_snr_db(est)]
            beta = beta + [sys.float_info.min]
        g, b = (a.ravel() for a in np.broadcast_arrays(
            10.0 ** (np.array(snr_db)[:, None] / 10.0), np.array(beta)))
        r_max, cs = acf_thresholds(est, g, scheme, b)
        # r_max is the highest rate that meets beta at C = 1
        feasible = np.array([union_bound(scheme, 1 << n).u(norm_sq, 1.0, g)
                             <= b for n in range(1, 7)])
        assert r_max.tolist() == [max(np.flatnonzero(f) + 1, default=0)
                                  for f in feasible.T]
        for n in range(1, cs.shape[0] + 1):
            rows = np.flatnonzero(r_max >= n)
            c_n = cs[n - 1, rows]
            assert np.all(np.isinf(np.delete(cs[n - 1], rows)))
            bound = union_bound(scheme, 1 << n)
            zero = 0.5 * bound.weight.sum() <= b[rows]
            assert np.all(c_n[zero] == 0.0)
            solved = rows[~zero]
            if not solved.size:
                continue
            c_n = c_n[~zero]
            want = _c_lockstep(scheme, 1 << n, norm_sq, g[solved], b[solved])
            assert np.abs(c_n - want).max() <= 2e-12
            u = bound.u(norm_sq, c_n, g[solved])
            assert np.all(u <= b[solved])
            assert np.abs(np.log(u) - np.log(b[solved])).max() <= 1e-8
            # a cell's C_n is the same to the bit alone as in the grid
            for k, c in zip(solved.tolist(), c_n.tolist()):
                assert acf_thresholds(est, g[k], scheme, b[k])[1][n - 1, 0] \
                    == c

    @pytest.mark.parametrize("cells", [
        # the benchmark's rate-opt halves: case1, 0-18 and 20-38 dB
        ("case1", np.arange(0.0, 20.0, 2.0), [1e-2, 1e-3, 1e-5, 1e-6]),
        ("case1", np.arange(20.0, 40.0, 2.0), [1e-2, 1e-3, 1e-5, 1e-6]),
        # the fixtures' schedules, at the cap power and their threshold
        ("case1", None, None),
        ("case2", None, None),
    ], ids=["grid-0-18db", "grid-20-38db", "case1", "case2"])
    def test_qam_lockstep_converges_fast(self, monkeypatch, cells):
        # every QAM row reaches its C_n in at most 6 lockstep steps; in C
        # the far starts overshot to near C = 1 and took up to 12
        fixture, snr_db, beta = cells
        fx = load_fixture(fixture)
        if snr_db is None:
            snr_db = [average_snr_db(fx.scenario.p_max_dbm, fx.scenario)]
            beta = [fx.scenario.bep_threshold]
        steps = []
        solve = bep_analysis.newton_lockstep

        def counted(*args):
            out = solve(*args)
            steps.append(int(out.iterations.max(initial=0)))
            return out
        monkeypatch.setattr(bep_analysis, "newton_lockstep", counted)
        acf_thresholds(fx.estimate, 10.0 ** (np.array(snr_db)[:, None] / 10.0),
                       "qam", np.array(beta))
        assert len(steps) == 1 and 0 < steps[0] <= 6


class TestPskRootTable:
    # PSK C_n come from one root z* of sum(w Q(d z)) = beta per
    # (order, beta), mapped to each cell in closed form
    def test_every_term_has_unit_symbol_energy(self):
        w, d = _psk_bound_table()
        for k, m in enumerate(SUPPORTED_ORDERS):
            bound = union_bound("psk", m)
            assert np.all(bound.s_sq == 1.0)
            assert w[k].tolist() == bound.weight.tolist() + [0.0] * (
                w.shape[1] - bound.n_terms)
            assert d[k, :bound.n_terms].tolist() == np.sqrt(
                bound.d_sq).tolist()
        assert w.shape == (len(SUPPORTED_ORDERS), 32)

    @given(rate=st.lists(st.integers(1, 6), min_size=1, max_size=6),
           log_beta=st.floats(-9.0, -1.0),
           snr_db=st.floats(0.0, 40.0))
    @settings(max_examples=40, deadline=None)
    def test_z_roots_are_the_roots_the_thresholds_map(self, estimate, rate,
                                                      log_beta, snr_db):
        # `_psk_z_roots` is the root `_psk_acf_rows` maps to C_n, and the
        # QPSK root is 4-QAM's too: mapped to gamma at a C it puts the
        # 4-QAM bound at beta
        rate = np.array(rate)
        beta = np.full(rate.size, 10.0 ** log_beta)
        gamma = np.full(rate.size, 10.0 ** (snr_db / 10.0))
        norm_sq = estimate.norm_sq
        z = _psk_z_roots(rate, beta)
        want = np.minimum(_acf_of_z(norm_sq, z * z, gamma)
                          * (1.0 + _C_MARGIN), 1.0)
        assert _psk_acf_rows(norm_sq, rate, gamma, beta).tolist() == \
            want.tolist()
        z4 = _psk_z_roots(np.array([2]), beta[:1])[0]
        for acf in (0.9, 0.99, 0.999):
            g = _gamma_of_z(norm_sq, acf, z4 * z4)
            if g > 0.0:
                u = union_bound("qam", 4).u(norm_sq, acf, g)
                assert abs(math.log(u / beta[0])) <= 1e-8

    def test_unconverged_root_names_its_rates(self, estimate, monkeypatch):
        # every root at beta = 1e-5 fails: the error names the rates of
        # its rows, and the roots at 1e-3 do not mask it
        r_max = acf_thresholds(estimate, GAMMA_MAX, "psk", 1e-5)[0][0]
        solve = bep_analysis.newton_lockstep

        def failing(uv, beta, *args):
            out = solve(uv, beta, *args)
            if np.any(beta == 1e-5):
                raise DivergenceError("stuck",
                                      cells=np.flatnonzero(beta == 1e-5))
            return out
        monkeypatch.setattr(bep_analysis, "newton_lockstep", failing)
        with pytest.raises(MonotonicityError, match=(
                "did not converge for rate "
                + ", ".join(map(str, range(1, r_max + 1))) + "$")):
            acf_thresholds(estimate, GAMMA_MAX, "psk",
                           np.array([1e-3, 1e-5]))
        acf_thresholds(estimate, GAMMA_MAX, "psk", 1e-3)


def _max_order(estimate, gamma, scheme, beta):
    """The largest order 2^r_max of every cell (0 where none is
    feasible)."""
    r_max = acf_thresholds(estimate, gamma, scheme, beta)[0]
    return np.where(r_max > 0, 1 << r_max, 0)


class TestMaxRate:
    # perfect-CSI feasibility frontier for the case1 channel, beta = 1e-5
    TABLE = [
        (0.0, 0, 0),
        (5.0, 4, 4),
        (10.0, 8, 8),
        (15.0, 16, 32),
        (20.0, 16, 64),
        (24.4269, 32, 64),
    ]

    @pytest.mark.parametrize("snr_db,psk_order,qam_order", TABLE)
    def test_frozen_frontier(self, estimate, snr_db, psk_order, qam_order):
        g = 10.0 ** (snr_db / 10.0)
        assert _max_order(estimate, g, "psk", 1e-5).tolist() == [psk_order]
        assert _max_order(estimate, g, "qam", 1e-5).tolist() == [qam_order]

    def test_monotone_in_snr(self, estimate):
        orders = [_max_order(estimate, 10 ** (db / 10), "qam", 1e-5)[0]
                  for db in np.linspace(0, 25, 11)]
        assert all(a <= b for a, b in zip(orders, orders[1:]))


# each inversion of the bound, and the schedule builds over it, on one
# SNR (linear; sweep_rave_max takes dB, so only its threshold applies)
# and one threshold
_INVERSIONS = {
    "acf_thresholds-psk": lambda fx, g, b: acf_thresholds(
        fx.estimate, g, "psk", b),
    "acf_thresholds": lambda fx, g, b: acf_thresholds(
        fx.estimate, g, "qam", b),
    "build_rate_schedules": lambda fx, g, b: build_rate_schedules(
        fx.estimate, g, "qam", b, fx.wobble, fx.scenario.t_estimate),
}


class TestInversionDomain:
    @pytest.fixture(scope="class")
    def fx(self):
        return load_fixture("case1")

    @pytest.mark.parametrize("call", sorted(_INVERSIONS))
    @pytest.mark.parametrize("gamma,beta,message", [
        (-5.0, 1e-5, "snr_linear must be non-negative, got -5.0"),
        (np.array([GAMMA_MAX, -1e-9]), 1e-5, "snr_linear must be non-neg"),
        (GAMMA_MAX, 0.0, "bep_threshold must be positive, got 0.0"),
        (GAMMA_MAX, -1.0, "bep_threshold must be positive, got -1.0"),
        (GAMMA_MAX, np.array([1e-5, -1e-3]), "bep_threshold must be pos"),
        (GAMMA_MAX, 1e-310, "bep_threshold must be at least "
         "2.2250738585072014e-308, the least normal double, got 1e-310"),
        (GAMMA_MAX, np.array([1e-5, 5e-324]), "least normal double, got "
         "5e-324"),
    ], ids=["snr-5", "snr-array", "beta0", "beta-1", "beta-array",
            "beta-subnormal", "beta-subnormal-array"])
    def test_rejects_negative_snr_and_threshold(self, fx, call, gamma, beta,
                                                message):
        with pytest.raises(ValueError, match=message):
            _INVERSIONS[call](fx, gamma, beta)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_sweep_rejects_threshold(self, fx, beta):
        with pytest.raises(ValueError, match="bep_threshold must be pos"):
            sweep_rave_max(fx.estimate, [10.0, 20.0], [1e-5, beta], "qam",
                           fx.wobble, fx.scenario.t_estimate)

    @pytest.mark.parametrize("snr_db", [20.0, 300.0, 3000.0])
    def test_least_normal_thresholds_solve(self, fx, snr_db):
        # the solve's 1e-8 relative residual gate holds down to the least
        # normal double, below which the threshold is rejected
        for beta in (2.3e-308, sys.float_info.min):
            r_max, cs = acf_thresholds(fx.estimate, 10.0 ** (snr_db / 10.0),
                                       "qam", beta)
            assert r_max[0] > 0 and np.isfinite(cs).all()

    def test_zero_snr_is_accepted(self, fx):
        # gamma = 0 collapses every pairwise argument to Q(0) = 1/2: no
        # order meets 1e-5, and a threshold above u = 1/2 admits BPSK at
        # any CSI quality
        assert _max_order(fx.estimate, 0.0, "psk", 1e-5).tolist() == [0]
        assert _c_n(1, fx.estimate, 0.0, "psk", 0.51)[0] == 0.0
