"""The three special functions the model needs, in NumPy: the Gaussian tail
Q of the union bound, its inverse, and the scaled Bessel I0 of the wobble
ACF.

Each is elementwise (a value depends only on its own element, never on the
array it sits in) and quiet (no floating-point warning at 0, +-inf or NaN;
NaN gives NaN). Q and I0 are each read from one table built at import,
which holds a Taylor polynomial per node, so that any number of values
costs one row gather and one Horner pass:

- Q(x) = Q(x_k) exp(p(x - x_k)) for x >= 0 at the nearest node x_k = k/128
  of [0, 37.6], with p the degree-4 Taylor polynomial of ln Q at x_k
  (within 1.4e-15 relative of mpmath where Q is normal), and
  Q(x) = 1 - Q(-x) below 0. Nodes k/256 would give 1.1e-15 from a table
  twice the size.
  ln Q = -x^2 / 2 + ln M - ln sqrt(2 pi), M the Mills ratio:
  M = int_0^inf exp(-x t - t^2 / 2) dt,
  whose n-th log-derivative is (-1)^n times the n-th cumulant of t under
  that weight. M comes from `math.erfc` below 2 and from its continued
  fraction 1 / (x + 1 / (x + 2 / (x + ...))) above; the moments J_n of t
  from J_1 = 1 - x M and J_(n+1) = n J_(n-1) - x J_n. Q(x_k) =
  M exp(-x_k^2 / 2) / sqrt(2 pi) with an exact exponent, so a value's only
  roundings are its own few. Q is 0 beyond 37.6, where it is subnormal.
- Q^-1 is Wichura's AS241 (Applied Statistics 37, 1988, 477-484), the
  algorithm of `statistics.NormalDist.inv_cdf`: three rational fits, each
  element reading its own fit's coefficients.
- i0e(x) = exp(-|x|) I0(x) is the degree-5 Taylor polynomial at the nearest
  node x_k = k/128 of [0, 40], whose coefficients
  (1/pi) int_0^pi exp(x_k (cos t - 1)) (cos t - 1)^n dt / n! the trapezoid
  rule on 49 angles gives to rounding (the integrand is periodic and has
  one sign); beyond 40 it is the Hankel expansion
  (2 pi x)^-1/2 sum ((2k - 1)!!)^2 / (k! (8 x)^k), 16 terms. Within
  1e-15 relative of mpmath on [0, 1e4]. The ratio I1/I0 = 1 + d ln i0e / dx,
  which the ACF's slope needs, comes from the derivatives of the same
  polynomial and sum: within 2e-13 absolute on the table (the derivative
  of a degree-5 Taylor polynomial half a node from its node) and 1e-15
  relative beyond 40.
"""

import math

import numpy as np

__all__ = ["q_and_exp", "q_tail", "q_tail_inverse", "i0e"]

_I0E_PER_UNIT, _I0E_LAST = 128, 40.0
# Q and exp(-x^2 / 2) are taken as 0 beyond this x, where they are below
# 1.1e-309 and 1.1e-307: np.exp leaves its fast path for results near the
# least normal double (about exp(-707)), and subnormal Q values would slow
# every product that reads them, as the union bound's weighted sums do
_EXP_LAST = 37.6
# the Q table's nodes end at the first one beyond _EXP_LAST, whose row is
# 0; _Q_TOP is its index
_Q_PER_UNIT = 128
_Q_TOP = float(math.ceil(_EXP_LAST * _Q_PER_UNIT))


def _taylor_rows(derivs, per_unit: int) -> np.ndarray:
    """Rows f(x_k), f'(x_k) h, ..., f^(n)(x_k) h^n / n! over the nodes x_k,
    h = 1 / per_unit, from the node arrays f^(n)(x_k), n = 0, 1, ..."""
    rows = np.stack([d / (per_unit ** n * math.factorial(n))
                     for n, d in enumerate(derivs)])
    rows.flags.writeable = False
    return rows


def _mills_fraction(x: np.ndarray, terms: int) -> np.ndarray:
    """M(x) = 1 / (x + 1 / (x + 2 / (x + ...))), to `terms` levels."""
    f = x.copy()
    for n in range(terms, 0, -1):
        np.divide(n, f, out=f)
        f += x
    return 1.0 / f


def _q_rows() -> np.ndarray:
    x = np.arange(_Q_TOP + 1.0) / _Q_PER_UNIT
    m = np.empty(x.size)
    near, mid, far = x < 2.0, (x >= 2.0) & (x < 4.0), x >= 4.0
    m[near] = [math.erfc(v / math.sqrt(2.0)) for v in x[near].tolist()]
    m[near] *= math.sqrt(0.5 * math.pi) * np.exp(0.5 * x[near] ** 2)
    # converged to an ulp from x = 2 and from x = 4 up
    m[mid] = _mills_fraction(x[mid], 110)
    m[far] = _mills_fraction(x[far], 40)
    j = [np.ones(x.size), 1.0 / m - x]  # moments J_n / J_0 of t
    for n in range(1, 4):
        j.append(n * j[n - 1] - x * j[n])
    k2 = j[2] - j[1] ** 2
    k3 = j[3] - 3.0 * j[2] * j[1] + 2.0 * j[1] ** 3
    k4 = (j[4] - 4.0 * j[3] * j[1] - 3.0 * j[2] ** 2
          + 12.0 * j[2] * j[1] ** 2 - 6.0 * j[1] ** 4)
    q0 = m * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    q0[-1] = 0.0  # beyond _EXP_LAST, and so beyond the table
    return _taylor_rows([q0, -1.0 / m, k2 - 1.0, -k3, k4], _Q_PER_UNIT)


def _i0e_rows() -> np.ndarray:
    x = np.arange(round(_I0E_LAST * _I0E_PER_UNIT) + 1) / _I0E_PER_UNIT
    # the trapezoid rule's error is of the order of I_96(x) / I_0(x),
    # below 1e-30 to x = 40
    c = np.cos(np.linspace(0.0, math.pi, 49)) - 1.0
    w = np.full(c.size, 1.0 / (c.size - 1))
    w[[0, -1]] *= 0.5
    e = np.exp(np.multiply.outer(x, c)) * w
    return _taylor_rows([e @ c ** n for n in range(6)], _I0E_PER_UNIT)


_Q_ROWS = _q_rows()
_I0E_ROWS = _i0e_rows()
# the Hankel expansion's coefficients, highest power of 1 / x first
_I0E_FAR = np.cumprod([1.0] + [(2 * k - 1) ** 2 / (8.0 * k)
                               for k in range(1, 16)])[::-1].copy()
# and of its derivative S'(v), for the ratio I1 / I0
_I0E_FAR_SLOPE = np.polyder(_I0E_FAR)
for _a in (_I0E_FAR, _I0E_FAR_SLOPE):
    _a.flags.writeable = False


def _lookup(rows: np.ndarray, per_unit: int, x: np.ndarray) -> tuple:
    """(s, c) at each x >= 0: the offset s from the nearest node in node
    spacings and that node's coefficients c, one row of c per coefficient.
    Beyond the table, the last node at s = 0; s is NaN for NaN."""
    last = float(rows.shape[1] - 1)  # a float scalar resolves faster
    t = x * float(per_unit)
    k = np.fmin(t, last)  # NaN reads the last node; its s stays NaN
    np.rint(k, out=k)
    s = np.minimum(t, last)
    s -= k
    return s, rows.take(k.astype(np.intp), axis=1)


def q_tail(x) -> np.ndarray:
    """Q(x), elementwise over an array of any shape."""
    return _q(x, 1)[0]


def q_and_exp(x) -> np.ndarray:
    """Q(x) and exp(-x^2 / 2) stacked on a new first axis, both 0 beyond
    _EXP_LAST."""
    return _q(x, 2)


def _q(x, rows: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shape, x = x.shape, x.reshape(-1)
    t = x * float(_Q_PER_UNIT)  # in node spacings
    if np.minimum.reduce(t, initial=0.0) >= 0.0:  # no x < 0 and no NaN
        out = _q_table(x, t, rows)
    else:  # Q(-x) = 1 - Q(x), exp(-x^2 / 2) is even, NaN gives NaN
        nan = np.isnan(x)
        a = np.where(nan, 0.0, np.abs(x))
        out = _q_table(a, a * float(_Q_PER_UNIT), rows)
        np.subtract(1.0, out[0], out=out[0], where=x < 0.0)
        out[:, nan] = np.nan
    return out.reshape((rows,) + shape)


def _q_table(x: np.ndarray, t: np.ndarray, rows: int) -> np.ndarray:
    """Q(x) and, in a second row, exp(-x^2 / 2), for a 1-D x >= 0 without
    NaN and t = x in node spacings (overwritten): at the nearest node x_k,
    Q(x_k) exp(p(s)) with s the offset from it."""
    np.minimum(t, _Q_TOP, out=t)  # beyond the table, its last node
    k = np.rint(t)
    c = _Q_ROWS.take(k.astype(np.intp), axis=1)
    s = np.subtract(t, k, out=t)
    # ln(Q / c0) and -x^2 / 2 side by side, for one np.exp call
    out = np.empty((rows, x.size))
    q = np.multiply(c[4], s, out=out[0])
    q += c[3]
    q *= s
    q += c[2]
    q *= s
    q += c[1]
    q *= s
    if rows == 2:
        e = np.minimum(x, _EXP_LAST, out=out[1])
        e *= e
        e *= -0.5
    np.exp(out, out=out)
    q *= c[0]
    if rows == 2:
        e *= x <= _EXP_LAST
    return out


# AS241's coefficients, as printed: fit (central, near tail, far tail) x
# (numerator A, denominator B) x power, lowest first
_AS241 = np.array([
    [[3.387132872796366608, 133.14166789178437745, 1971.5909503065514427,
      13731.693765509461125, 45921.953931549871457, 67265.770927008700853,
      33430.575583588128105, 2509.0809287301226727],
     [1.0, 42.313330701600911252, 687.1870074920579083,
      5394.1960214247511077, 21213.794301586595867, 39307.89580009271061,
      28729.085735721942674, 5226.495278852854561]],
    [[1.42343711074968357734, 4.6303378461565452959, 5.7694972214606914055,
      3.64784832476320460504, 1.27045825245236838258,
      0.24178072517745061177, 0.0227238449892691845833,
      7.7454501427834140764e-4],
     [1.0, 2.05319162663775882187, 1.6763848301838038494,
      0.68976733498510000455, 0.14810397642748007459,
      0.0151986665636164571966, 5.475938084995344946e-4,
      1.05075007164441684324e-9]],
    [[6.6579046435011037772, 5.4637849111641143699, 1.7848265399172913358,
      0.29656057182850489123, 0.026532189526576123093,
      0.0012426609473880784386, 2.71155556874348757815e-5,
      2.01033439929228813265e-7],
     [1.0, 0.59983220655588793769, 0.13692988092273580531,
      0.0148753612908506148525, 7.868691311456132591e-4,
      1.8463183175100546818e-5, 1.4215117583164458887e-7,
      2.04426310338993978564e-15]]])
_AS241 = np.ascontiguousarray(_AS241.transpose(2, 1, 0))  # power, A/B, fit
_AS241.flags.writeable = False
_AS241_SHIFT = np.array([0.0, 1.6, 5.0])


def q_tail_inverse(p) -> np.ndarray:
    """Q^-1(p) for p in (0, 1/2] (or NaN) by AS241, within 7e-16 relative
    of mpmath down to p = 1e-300, elementwise over an array of any shape."""
    p = np.asarray(p, dtype=np.float64)
    if not p.ndim:
        return q_tail_inverse(p.reshape(1)).reshape(())
    q = 0.5 - p  # exact; Q^-1(p) = q A(v) / B(v) where q <= 0.425
    r = np.log(p)
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    tail = q > 0.425
    fit = tail.astype(np.intp)
    fit += r > 5.0
    v = np.where(tail, r, 0.180625 - q * q)
    v -= _AS241_SHIFT.take(fit)
    c = _AS241.take(fit, axis=-1)
    acc = c[7] * v
    for cn in c[6:0:-1]:
        acc += cn
        acc *= v
    acc += c[0]
    out = acc[0] / acc[1]
    out *= np.where(tail, 1.0, q)
    return out


def i0e(x, ratio: bool = False):
    """exp(-|x|) I0(x), elementwise over an array of any shape; with
    ratio=True, (that, I1(|x|) / I0(|x|)). The ratio is the log-derivative
    d ln I0 / dx = 1 + d ln i0e / dx of the same polynomial and, beyond 40,
    of the same Hankel sum S(v), v = 1 / x: 1 - v / 2 - v^2 S'(v) / S(v)."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    if not x.ndim:
        out = i0e(x.reshape(1), ratio)
        return (tuple(a.reshape(()) for a in out) if ratio
                else out.reshape(()))
    s, c = _lookup(_I0E_ROWS, _I0E_PER_UNIT, x)
    out = c[5] * s
    for cn in c[4:0:-1]:
        out += cn
        out *= s
    out += c[0]
    if ratio:  # 1 + p'(s) per_unit / p(s), p'(s) = sum(n c_n s^(n - 1))
        r = 5.0 * c[5] * s
        for n in (4, 3, 2):
            r += n * c[n]
            r *= s
        r += c[1]
        r *= float(_I0E_PER_UNIT)
        r /= out
        r += 1.0
    if np.fmax.reduce(x, axis=None, initial=0.0) > _I0E_LAST:  # NaN skipped
        far = x > _I0E_LAST
        v = 1.0 / x[far]
        acc = np.full(v.size, _I0E_FAR[0])
        for a in _I0E_FAR[1:]:
            acc *= v
            acc += a
        out[far] = acc * np.sqrt(v / (2.0 * math.pi))
        if ratio:
            slope = np.full(v.size, _I0E_FAR_SLOPE[0])
            for a in _I0E_FAR_SLOPE[1:]:
                slope *= v
                slope += a
            slope *= v * v
            slope /= acc
            r[far] = 1.0 - 0.5 * v - slope
    return (out, r) if ratio else out
