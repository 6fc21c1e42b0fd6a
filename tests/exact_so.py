"""Exact BEP of the sub-optimum (nearest-reference) detector, for tests.

The SO decision depends on the received vector only through z = h^H y, so
its error probability has a closed form per constellation: a phase-density
quadrature over the decision wedges for M-PSK, and per-axis normal
probabilities over the Voronoi rectangles for rectangular QAM.
"""

import math

import numpy as np
from scipy.special import ndtr

from uavlink import hamming_matrix


def _psk_phase_density(phi, rho):
    """Density of arg(1 + n), n ~ CN(0, 1/rho), written with
    exp(-rho sin^2 phi) in place of exp(-rho) exp(rho cos^2 phi) so that it
    cannot overflow at high rho."""
    cos = np.cos(phi)
    return (math.exp(-rho) + math.sqrt(math.pi * rho) * cos
            * np.exp(-rho * np.sin(phi) ** 2)
            * 2.0 * ndtr(math.sqrt(2.0 * rho) * cos)) / (2.0 * math.pi)


def _psk_transition_probs(order, rho, nodes):
    """P(decide s_{m+j} | s_m) for j = 0..M-1: the phase density integrated
    over decision wedge j by Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = math.pi / order
    probs = np.empty(order)
    for j in range(order):
        lo, hi = 2.0 * half * j - half, 2.0 * half * j + half
        phi = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        probs[j] = 0.5 * (hi - lo) * np.dot(w, _psk_phase_density(phi, rho))
    return probs


def _interval_prob(lo, hi, mean, sd):
    """P(lo < N(mean, sd^2) < hi), taken from the nearer tail so that small
    probabilities keep their relative precision."""
    a, b = (lo - mean) / sd, (hi - mean) / sd
    return np.where(a >= 0.0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))


def exact_so_bep(est, acf, snr, c, nodes=64):
    """Exact BEP of the sub-optimum (nearest-reference) detector.

    The SO decision depends on y only through z = h^H y: it picks the
    point nearest to u = z / (sqrt(gamma) C ||h||^2) = s_m + CN(0, 1/rho_m),
    rho_m = gamma C^2 ||h||^2 / sigma_m^2 with sigma_m^2 the transmitted
    point's effective variance. M-PSK integrates the phase density of u over
    the decision wedges; rectangular QAM multiplies per-axis normal
    probabilities over the Voronoi rectangles. Transition probabilities are
    weighted by the Hamming matrix, as in the union bound.
    """
    pts = c.points
    sig2 = snr * (1.0 - acf ** 2) * np.abs(pts) ** 2 + 1.0
    rho = snr * acf ** 2 * est.norm_sq / sig2
    m_idx = np.arange(c.order)
    if c.scheme == "psk":
        probs = _psk_transition_probs(c.order, float(rho[0]), nodes)
        trans = probs[(m_idx[None, :] - m_idx[:, None]) % c.order]
    else:
        xs = np.unique(np.round(pts.real, 12))
        ys = np.unique(np.round(pts.imag, 12))
        assert xs.size * ys.size == c.order, "QAM grid is not rectangular"
        ix = np.searchsorted(xs, np.round(pts.real, 12))
        iy = np.searchsorted(ys, np.round(pts.imag, 12))

        def cells(v):
            mid = 0.5 * (v[1:] + v[:-1])
            return np.r_[-np.inf, mid], np.r_[mid, np.inf]

        (xlo, xhi), (ylo, yhi) = cells(xs), cells(ys)
        sd = np.sqrt(0.5 / rho)
        trans = np.array([
            _interval_prob(xlo, xhi, pts[m].real, sd[m])[ix]
            * _interval_prob(ylo, yhi, pts[m].imag, sd[m])[iy]
            for m in m_idx])
    np.fill_diagonal(trans, 0.0)
    return float(np.sum(hamming_matrix(c) * trans)
                 / (c.order * c.bits_per_symbol))
