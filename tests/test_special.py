"""The NumPy special functions of `uavlink._special` against mpmath, which
shares no code with them: Q and Q^-1 of the union bound, and the scaled
Bessel I0 of the wobble ACF with the ratio I1/I0 of its slope. Each must
be elementwise to the bit, quiet at 0, +-inf and NaN (the suite turns a
RuntimeWarning into an error), and Q non-increasing across the nodes of
its table."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavlink import UnionBound, q_function, q_inverse, union_bound
from uavlink._special import (
    _Q_PER_UNIT,
    i0e,
    q_and_exp,
    q_tail,
    q_tail_inverse,
)

MP = mp.mp.clone()
MP.dps = 40


def _q_mp(x):
    return MP.erfc(MP.mpf(x) / MP.sqrt(2)) / 2


def _q_tol(q: float) -> float:
    """TestUnionBound's allowance: 1e-13 relative, plus 1e-15 |ln Q| for
    the Q tail's amplification of argument rounding."""
    return 1e-13 + 1e-15 * abs(math.log(q))


@given(x=st.floats(0.0, 40.0))
@example(x=0.0)
@example(x=2.0 - 2.0 ** -40)  # either side of the table's method switch
@example(x=2.0)
@example(x=37.6)
@example(x=38.5)
@settings(max_examples=300, deadline=None)
def test_q_matches_mpmath(x):
    want = _q_mp(x)
    got = float(q_tail(x))
    # below the least normal double Q has too few digits for a relative
    # bound
    if want < 1e-300:
        assert abs(got - float(want)) <= 1e-300
    else:
        assert abs(got - want) <= _q_tol(float(want)) * want


@given(x=st.floats(-40.0, 40.0))
@example(x=-0.0)
@example(x=-1e-300)
@settings(max_examples=200, deadline=None)
def test_q_function_takes_both_signs(x):
    want = _q_mp(x)
    got = q_function(x)
    assert type(got) is float
    if want < 1e-300:
        assert abs(got - float(want)) <= 1e-300
    else:
        assert abs(got - want) <= _q_tol(float(want)) * want


def _q_inverse_mp(p: float, start: float):
    """The root of Q(x) = p, by Newton from a start within 1e-10 of it."""
    x, p = MP.mpf(start), MP.mpf(p)
    for _ in range(6):
        x += (_q_mp(x) - p) / (MP.exp(-x * x / 2) / MP.sqrt(2 * MP.pi))
    return x


@given(log_p=st.floats(-300.0, math.log10(0.5)))
@example(log_p=math.log10(0.5))
@example(log_p=-300.0)
@example(log_p=math.log10(0.075))  # either side of AS241's central fit
@example(log_p=math.log10(0.0749))
@settings(max_examples=300, deadline=None)
def test_q_inverse_matches_mpmath(log_p):
    p = min(10.0 ** log_p, 0.5)
    got = float(q_tail_inverse(p))
    if p == 0.5:
        assert got == 0.0
        return
    want = _q_inverse_mp(p, got)
    assert abs(got - want) <= 1e-14 * abs(want)
    assert q_inverse(p) == got


@given(x=st.one_of(st.floats(0.0, 50.0), st.floats(50.0, 1e4)))
@example(x=0.0)
@example(x=40.0)
@example(x=40.0 + 2.0 ** -40)
@example(x=700.0)
@example(x=750.0)  # np.i0 overflows beyond about 709.8
@example(x=1e4)
@settings(max_examples=300, deadline=None)
def test_i0e_matches_mpmath(x):
    want = MP.besseli(0, MP.mpf(x)) * MP.exp(-MP.mpf(x))
    got = float(i0e(x))
    assert abs(got - want) <= 2e-15 * want
    assert float(i0e(-x)) == got


@given(x=st.one_of(st.floats(0.0, 50.0), st.floats(50.0, 1e4)))
@example(x=0.0)
@example(x=1.0 / 256.0)  # halfway between the table's first two nodes
@example(x=0.01)
@example(x=40.0)
@example(x=40.0 + 2.0 ** -40)
@example(x=1e4)
@settings(max_examples=300, deadline=None)
def test_i0e_ratio_matches_mpmath(x):
    # I1/I0 is the log-derivative of i0e's own polynomials: within 2e-13
    # absolute on the table, where the derivative of a degree-5 Taylor
    # polynomial 1/256 from its node is off by about 1.1e-13, and within
    # 1e-15 relative on the Hankel sum beyond 40
    want = MP.besseli(1, MP.mpf(x)) / MP.besseli(0, MP.mpf(x))
    value, got = (float(a) for a in i0e(x, ratio=True))
    assert value == float(i0e(x))
    assert abs(got - want) <= (1e-15 * want if x > 40.0 else 2e-13)
    assert float(i0e(-x, ratio=True)[1]) == got


def test_q_falls_across_the_table_nodes():
    # the nearest node changes at the midpoints (k + 1/2) h of the node
    # spacing h: there, and on a grid finer than the nodes, Q must not
    # rise while it is a normal double (to x = 37.5; below, it has too few
    # digits to fall over a step of 1e-12)
    mid = (np.arange(37 * _Q_PER_UNIT) + 0.5) / _Q_PER_UNIT
    for d in (1e-12, 1e-9):
        lo, at, hi = q_tail(mid - d), q_tail(mid), q_tail(mid + d)
        assert np.all(lo >= at) and np.all(at >= hi)
    q = q_tail(np.linspace(0.0, 37.5, 400_001))
    assert np.all(np.diff(q) <= 0.0)
    assert np.all(q_tail(np.linspace(37.5, 45.0, 1001)) <= q[-1])


@pytest.mark.parametrize("kernel,lo,hi", [
    (q_tail, 0.0, 45.0),
    (lambda x: q_and_exp(x)[0], 0.0, 45.0),
    (lambda x: q_and_exp(x)[1], 0.0, 45.0),
    (q_tail_inverse, 1e-300, 0.5),
    (i0e, -60.0, 60.0),
    (lambda x: i0e(x, ratio=True)[1], -60.0, 60.0),
])
def test_one_element_equals_its_place_in_a_large_array(kernel, lo, hi):
    # SIMD loops, blocks and branches must give every element the bits it
    # gets alone, at any offset in an array of any shape
    rng = np.random.default_rng(7)
    x = rng.uniform(lo, hi, 100_000)
    x[::97] = rng.uniform(lo, min(hi, 1.0), x[::97].size)
    big = kernel(x)
    assert np.array_equal(kernel(x.reshape(400, 250)).ravel(), big)
    for i in np.concatenate([np.arange(20), rng.integers(0, x.size, 300)]):
        assert np.array_equal(kernel(x[i:i + 1]), big[i:i + 1])
        assert kernel(float(x[i])) == big[i]


def test_quiet_and_exact_at_the_special_values():
    # each call would raise under the suite's error::RuntimeWarning
    x = np.array([0.0, np.inf, np.nan, 1e300])
    q, e = q_and_exp(x)
    np.testing.assert_array_equal(q, [0.5, 0.0, np.nan, 0.0])
    np.testing.assert_array_equal(e, [1.0, 0.0, np.nan, 0.0])
    np.testing.assert_array_equal(q_tail(x), q)
    assert q_function(-np.inf) == 1.0 and q_function(np.inf) == 0.0
    assert math.isnan(q_function(np.nan))
    np.testing.assert_array_equal(
        i0e(np.array([0.0, np.inf, -np.inf, np.nan])), [1.0, 0.0, 0.0, np.nan])
    value, ratio = i0e(np.array([0.0, np.inf, -np.inf, np.nan]), ratio=True)
    np.testing.assert_array_equal(value, [1.0, 0.0, 0.0, np.nan])
    assert abs(ratio[0]) <= 1e-15
    np.testing.assert_array_equal(ratio[1:], [1.0, 1.0, np.nan])
    mixed = i0e(np.array([np.nan, 100.0, 0.5]))
    assert math.isnan(mixed[0])
    assert mixed[1] == i0e(100.0) and mixed[2] == i0e(0.5)
    np.testing.assert_array_equal(
        q_tail_inverse(np.array([0.5, np.nan])), [0.0, np.nan])
    assert q_tail_inverse(1e-310) > 37.0  # subnormal, still finite


def test_q_takes_negative_arguments():
    # Q(-x) = 1 - Q(x) inside the kernel, so a negative C in the union
    # bound gets its exact terms, as scipy's ndtr gave them
    x = np.array([-0.5, -3.0, -1e-300, -40.0, -np.inf, 0.5, np.nan, -0.0])
    q = q_tail(x)
    np.testing.assert_array_equal(q[:5], 1.0 - q_tail(-x[:5]))
    assert q[5] == q_tail(0.5) and math.isnan(q[6]) and q[7] == 0.5
    np.testing.assert_array_equal(q_and_exp(x)[0], q)
    np.testing.assert_array_equal(q_and_exp(x)[1][:6], q_and_exp(-x[:6])[1])
    for v in (-0.5, -3.0, -37.0):
        assert abs(float(q_tail(v)) - _q_mp(v)) <= 1e-15 * _q_mp(v)
    # one negative element does not change its neighbours' bits
    rng = np.random.default_rng(5)
    y = rng.uniform(0.0, 40.0, 1000)
    mixed = y.copy()
    mixed[::10] *= -1.0
    np.testing.assert_array_equal(q_tail(mixed)[1::10], q_tail(y)[1::10])


@pytest.mark.parametrize("order", [4, 16, 64])
def test_union_bound_at_a_negative_acf(order):
    # w Q(C r) summed with C < 0, against scipy's ndtr on the same terms
    from scipy.special import ndtr
    b = union_bound("qam", order)
    for acf, gamma in ((-0.5, 10.0), (-0.9, 300.0), (-1e-3, 1.0)):
        den = 2.0 * gamma * (1.0 - acf * acf) * b.s_sq + 2.0
        r = np.sqrt(gamma * 2.0 * b.d_sq / den)
        want = float((b.weight * ndtr(-acf * r)).sum())
        got = b.u(2.0, acf, gamma)
        assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("scheme", ["psk", "qam"])
def test_floor_at_perfect_csi_is_zero(scheme):
    # the floor is u at gamma = inf: C = 1 makes every pairwise argument
    # infinite there, Q(inf) = 0 and both slopes 0, quietly
    for order in (2, 16, 64):
        bound = union_bound(scheme, order)
        assert bound.u(2.0, 1.0, np.inf) == 0.0
        assert bound.u_and_slope(2.0, 1.0, np.inf) == (0.0, 0.0)
        assert bound.u_and_acf_slope(2.0, 1.0, np.inf) == (0.0, 0.0)
    assert UnionBound.u(union_bound(scheme, 4), 2.0, np.array([1.0, 0.5]),
                        np.inf)[0] == 0.0
