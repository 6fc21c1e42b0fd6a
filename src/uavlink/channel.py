"""Wobble-induced temporal autocorrelation and imperfect-CSI channel model.

The UAV's mechanical vibration decorrelates the channel between the
estimation instant and the transmission instant. The decorrelation is
captured by a scalar temporal ACF C(dt) applied to the whole antenna
vector; the innovation is circularly-symmetric complex Gaussian. The rate
schedule needs C strictly decreasing over its span, which
`check_acf_monotone` proves from bounds on the ACF's slope.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import i0e

from .errors import (
    InfeasibleTargetError,
    MonotonicityError,
    NumericOverflowError,
    require_finite,
)
from .lockstep import newton_lockstep
from .scenario import SPEED_OF_LIGHT

__all__ = [
    "WobbleParams",
    "ChannelEstimate",
    "ChannelState",
    "default_sigma_v_sq",
    "temporal_acf",
    "acf_inverse",
    "check_acf_monotone",
    "evolve_channel",
    "received_signal",
]

# tolerances of acf_inverse: final bracket width on the lag, in seconds, and
# |ln C - ln target| at the returned lag
_ACF_T_TOL = 1e-12
_ACF_LN_TOL = 1e-10

# check_acf_monotone's certificate: the intervals its middle stretch starts
# with, and the most intervals it examines before it gives up
_CERT_START = 16
_CERT_CAP = 1 << 14

# Abramowitz & Stegun 9.8.1-9.8.4, highest power first: I0(x) and I1(x)/x
# in (x/3.75)^2 for |x| <= 3.75; sqrt(x) e^-x I0(x) and sqrt(x) e^-x I1(x)
# in 3.75/x for x >= 3.75
_I0_SMALL = (0.0045813, 0.0360768, 0.2659732, 1.2067492, 3.0899424,
             3.5156229, 1.0)
_I1_SMALL = (0.00032411, 0.00301532, 0.02658733, 0.15084934, 0.51498869,
             0.87890594, 0.5)
_I0_LARGE = (0.00392377, -0.01647633, 0.02635537, -0.02057706, 0.00916281,
             -0.00157565, 0.00225319, 0.01328592, 0.39894228)
_I1_LARGE = (-0.00420059, 0.01787654, -0.02895312, 0.02282967, -0.01031555,
             0.00163801, -0.00362018, -0.03988024, 0.39894228)


def default_sigma_v_sq(omega_v: float, mu: float) -> float:
    """Velocity variance tied to the vibration envelope.

    sigma_v^2 = (0.005)^2 (omega_v^2 + mu^2) / mu, i.e. a 5 mm displacement
    scale converted to a velocity variance for the given vibration profile.
    """
    return 0.005 ** 2 * (omega_v * omega_v + mu * mu) / mu


def _require_positive(**values) -> None:
    """Raise ValueError naming the first value that is not positive and
    finite."""
    for name, value in values.items():
        if not 0 < value < math.inf:  # nor nan
            raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class WobbleParams:
    """Parameters of the wobble ACF.

    Attributes:
        omega_c: carrier angular frequency, rad/s (2*pi*f).
        omega_v: mechanical vibration angular frequency, rad/s.
        mu: velocity-envelope decay rate, 1/s.
        sigma_v_sq: vibration velocity variance, (m/s)^2.
    """

    omega_c: float
    omega_v: float
    mu: float
    sigma_v_sq: float

    def __post_init__(self):
        _require_positive(omega_c=self.omega_c, omega_v=self.omega_v,
                          mu=self.mu, sigma_v_sq=self.sigma_v_sq)

    @classmethod
    def for_carrier(cls, carrier_freq: float, omega_v: float, mu: float,
                    sigma_v_sq: float | None = None) -> "WobbleParams":
        """Build params from a carrier frequency in Hz; sigma_v_sq defaults
        to the displacement-scale formula in default_sigma_v_sq, derived
        once omega_v and mu are checked (a derived value that overflows is
        refused as sigma_v_sq)."""
        if sigma_v_sq is None:
            _require_positive(omega_v=omega_v, mu=mu)
            sigma_v_sq = default_sigma_v_sq(omega_v, mu)
        return cls(2.0 * np.pi * carrier_freq, omega_v, mu, sigma_v_sq)


@dataclass(frozen=True)
class ChannelEstimate:
    """Channel vector estimated at t_estimate (perfect at that instant)."""

    h: np.ndarray
    t_estimate: float
    norm_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.complex128)
        object.__setattr__(self, "h", h)
        if h.ndim != 1 or h.size == 0:
            raise ValueError("h must be a non-empty 1-D complex vector")
        if not np.isfinite(h).all():
            raise ValueError("h entries must be finite")
        # ||h||^2, summed once: every closed-form BEP expression reads it.
        # Finite entries can still overflow it
        with np.errstate(over="ignore"):
            norm_sq = float(np.sum(np.abs(h) ** 2))
        if not math.isfinite(norm_sq):
            raise ValueError("||h||^2 overflows; scale h down")
        if norm_sq == 0.0:
            raise ValueError("h must not be the zero vector")
        object.__setattr__(self, "norm_sq", norm_sq)


@dataclass(frozen=True)
class ChannelState:
    """Actual channel at some t > t_estimate, with the ACF that produced it."""

    h_t: np.ndarray
    acf_value: float


def _acf_scales(params: WobbleParams) -> tuple[float, float, float]:
    """The ACF's constants: w = omega_v^2 + mu^2, the exponent scale K1 and
    the gain of the Bessel argument,
    x(t) = gain (mu sin(omega_v t) - omega_v cos(omega_v t)
    + omega_v e^(-mu t)) / (w omega_v)."""
    wv, mu, koc = params.omega_v, params.mu, params.omega_c / SPEED_OF_LIGHT
    wm = wv * wv + mu * mu
    return (wm, 0.5 * params.sigma_v_sq * (koc / wm) ** 2,
            0.5 * params.sigma_v_sq * koc ** 2)


def _acf(params: WobbleParams, t: np.ndarray, slope: bool = False):
    """C(t) at non-negative lags t; with slope=True, (C, d ln C/dt).

    C = exp(a) * I0(x) with a = -K1 * bracket(t). The bracket and x are
    computed once here, for the value and its slope alike:
    d ln C/dt = a'(t) + x'(t) * I1(x)/I0(x), where
    a'(t) = -K1 w (mu + e^(-mu t) (omega_v sin(omega_v t) - mu cos(omega_v t)))
    and x'(t) = (gain / w) (mu cos(omega_v t) + omega_v sin(omega_v t)
    - mu e^(-mu t)). Raises NumericOverflowError for a non-finite C.
    """
    wv, mu = params.omega_v, params.mu
    wm, k1, gain = _acf_scales(params)
    # non-finite intermediates for pathological parameters are caught by the
    # finiteness check below, so the FP warnings carry no information
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-mu * t)
        sin_t, cos_t = np.sin(wv * t), np.cos(wv * t)
        bracket = (mu * t * wm - 2.0 * mu * wv * sin_t * decay
                   + (mu * mu - wv * wv) * cos_t * decay
                   - mu * mu + wv * wv)
        a = -k1 * bracket
        x = gain * (mu * sin_t - wv * cos_t + wv * decay) / (wm * wv)
        ax = np.abs(x)
        # exp(a) * I0(x) = exp(a + |x|) * i0e(|x|)
        out = np.exp(a + ax) * i0e(ax)
    if not np.all(np.isfinite(out)):
        raise NumericOverflowError(
            "temporal ACF overflowed; wobble parameters are pathological")
    if not slope:
        return out
    return out, (-k1 * wm * (mu + decay * (wv * sin_t - mu * cos_t))
                 + gain / wm * (mu * cos_t + wv * sin_t - mu * decay)
                 * _bessel_ratio(x))


def _bessel_ratio(x: np.ndarray) -> np.ndarray:
    """I1(x)/I0(x), within 1.1e-6 relative for every x and 4e-9 for
    |x| <= 0.2, from the polynomial fits of Abramowitz & Stegun 9.8.1-9.8.4:
    in (x/3.75)^2 up to |x| = 3.75 and in 3.75/|x| beyond."""
    ax = np.abs(x)
    t_sq = (np.minimum(ax, 3.75) / 3.75) ** 2
    ratio = x * np.polyval(_I1_SMALL, t_sq) / np.polyval(_I0_SMALL, t_sq)
    large = ax > 3.75
    if large.any():
        s = 3.75 / ax[large]
        ratio[large] = (np.sign(x[large]) * np.polyval(_I1_LARGE, s)
                        / np.polyval(_I0_LARGE, s))
    return ratio


def temporal_acf(params: WobbleParams, dt):
    """Temporal ACF C(dt) of the wobbling channel.

    C(dt) = exp(-K1 * bracket(dt)) * I0(x(dt)) where the Bessel factor is
    J0 of an imaginary argument, which equals the modified Bessel I0 and is
    real. Evaluated in the log domain with the scaled i0e to stay finite
    for large arguments. Accepts a scalar or an array of lags.

    Returns a value in (0, 1]; C(0) = 1 exactly.
    """
    t = np.asarray(dt, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("dt must be non-negative")
    out = _acf(params, t)
    return float(out) if np.isscalar(dt) or np.ndim(dt) == 0 else out


def acf_inverse(params: WobbleParams, target):
    """Lag at which the ACF falls to `target`, by safeguarded Newton.

    Solves ln C(t) = ln(target) with `lockstep.newton_lockstep` on the open
    bracket [0, +inf), whose ends hold as limits: C(0) = 1 > target and
    C(inf) = 0. C'(0) = 0, so each element starts at the larger of two
    closed-form roots: t_a of the long-lag asymptote
    ln C ~ -K1 (mu w t + omega_v^2 - mu^2) and t_q of the small-lag
    ln C ~ -K1 w^2 t^2 / 2, where w = omega_v^2 + mu^2. The Newton slope is
    d ln C/dt from the terms of the value itself. An element is done when
    its bracket is at most 1e-12 s wide (or, at lags of hours, holds no
    float inside it) and |ln C - ln target| <= 1e-10 at the bracket's upper
    end, which is returned: there C <= target and |C - target| <= 1e-10.
    target broadcasts, every element is solved in lockstep, and a scalar
    gives a float; target 1 gives lag 0.

    Raises InfeasibleTargetError for a target above 1 or at most 0 (C is
    positive at every finite lag), ValueError for a non-finite target, and
    DivergenceError when the solve fails, as it may on an ACF that is not
    monotone.
    """
    require_finite(target=target)
    target = np.asarray(target, dtype=np.float64)
    outside = (target > 1.0) | (target <= 0.0)
    if np.any(outside):
        raise InfeasibleTargetError(
            f"the ACF takes values in (0, 1] only (target "
            f"{target[outside].flat[0]})")
    out = np.zeros(target.size)
    idx = np.flatnonzero(target < 1.0)  # target 1 maps to lag 0
    if idx.size:
        goal = target.reshape(-1)[idx]
        wv, mu = params.omega_v, params.mu
        wm, k1, _ = _acf_scales(params)
        ln_c = np.log(goal)
        t_a = (-ln_c / k1 - (wv * wv - mu * mu)) / (mu * wm)
        t_q = np.sqrt(-2.0 * ln_c / k1) / wm

        def uv(live, t):
            acf, dlog = _acf(params, t, slope=True)
            return acf, -acf * dlog
        out[idx] = newton_lockstep(uv, goal, np.maximum(t_a, t_q), 0.0,
                                   np.inf, _ACF_T_TOL, _ACF_LN_TOL).root
    out = out.reshape(target.shape)
    return float(out) if out.ndim == 0 else out


def _ratio_bound(x):
    """Upper bound on |I1(x)/I0(x)| from an upper bound on |x|:
    min(|x|/2, |x| / (1/2 + sqrt(x^2 + 1/4))), the second from Amos
    (1974). Increasing in |x| and below 1."""
    ax = np.abs(x)
    return np.minimum(0.5 * ax, ax / (0.5 + np.sqrt(ax * ax + 0.25)))


def _slope_margin(params: WobbleParams, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """A lower bound on P - |b| |R| over each interval [lo, hi].

    In `_acf`'s terms, d ln C/dt = K1 w (-P + b R) with
    P = mu + e^(-mu t) (omega_v sin(omega_v t) - mu cos(omega_v t)),
    R = mu cos(omega_v t) + omega_v sin(omega_v t) - mu e^(-mu t) and
    b = I1/I0(x); a positive margin proves the slope negative on the
    interval. P' = w e^(-mu t) cos(omega_v t), so P is least at an end or at
    the interval's first trough omega_v t = 3 pi/2 + 2 pi k, where
    P = mu - omega_v e^(-mu t) (later troughs lie higher). |R| and |x| are
    bounded from their ends by their Lipschitz constants,
    |R'| <= L = omega_v sqrt(w) + mu^2 and |x'| = (gain / w) |R|. The
    bounds are padded for the rounding of each term, which grows with the
    phase omega_v t. No Bessel function is evaluated.
    """
    wv, mu = params.omega_v, params.mu
    wm, _, gain = _acf_scales(params)
    root_w = math.sqrt(wm)
    n = lo.size
    t = np.concatenate([lo, hi])
    decay = np.exp(-mu * t)
    sin_t, cos_t = np.sin(wv * t), np.cos(wv * t)
    p = mu + decay * (wv * sin_t - mu * cos_t)
    r = np.abs(mu * cos_t + wv * sin_t - mu * decay)
    x = np.abs(mu * sin_t - wv * cos_t + wv * decay) * (gain / (wm * wv))
    trough = (1.5 * np.pi + 2.0 * np.pi
              * np.ceil((wv * lo - 1.5 * np.pi) / (2.0 * np.pi))) / wv
    p_min = np.minimum(p[:n], p[n:])
    p_min = np.where(trough <= hi,
                     np.minimum(p_min, mu - wv * np.exp(-mu * trough)), p_min)
    width = hi - lo
    ulps = 16.0 * np.finfo(float).eps * (1.0 + wv * hi)
    r_max = (0.5 * (r[:n] + r[n:] + (wv * root_w + mu * mu) * width)
             + ulps * (root_w + mu))
    x_max = (0.5 * (x[:n] + x[n:] + gain / wm * r_max * width)
             + ulps * gain * (root_w + wv) / (wm * wv))
    return p_min - ulps * (root_w + mu) - _ratio_bound(x_max) * r_max


def check_acf_monotone(params: WobbleParams, span: float) -> None:
    """Prove the ACF strictly decreasing on [0, span], or raise
    MonotonicityError.

    The rate schedule maps each threshold C_n to a unique time t_n, which
    requires a monotone ACF on the scheduling span. The slope is
    d ln C/dt = K1 w (-P + b R) (`_slope_margin`), negative wherever
    P > |b| |R|, with |b| = |I1/I0(x)| <= `_ratio_bound`(|x|). That is
    shown on (0, span] in three parts:

    - the head (0, tau]: P >= t w e^(-mu tau) cos(omega_v tau),
      |R| <= L t and |x| <= gain L t^2 / (2 w), with L = omega_v sqrt(w)
      + mu^2; tau = min(w / (2 L sqrt(gain)), pi / (3 omega_v), 1 / mu)
      leaves P above twice |b| |R| (its first term is inf where the gain
      underflows to 0);
    - the tail [a, span]: P >= mu - e^(-mu a) sqrt(w),
      |R| <= sqrt(w) + mu and |x| <= gain (sqrt(w) + omega_v)
      / (w omega_v), which holds from the a that halves the gap left by
      those bounds, where there is one;
    - the middle [tau, min(a, span)], cut into 16 intervals, each failing
      one bisected, until every interval has a positive `_slope_margin`.

    Raises MonotonicityError when the middle needs more than 16384
    intervals: the ACF may rise on the span, or fall too narrowly to
    certify.
    """
    wv, mu = params.omega_v, params.mu
    wm, _, gain = _acf_scales(params)
    root_w = math.sqrt(wm)
    # the NaN bounds of pathological parameters fail every interval up to
    # the cap, so the FP warnings carry no information
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        head = min(0.5 * wm / ((wv * root_w + mu * mu) * np.sqrt(gain)),
                   math.pi / (3.0 * wv), 1.0 / mu)
        gap = (mu - _ratio_bound(gain * (root_w + wv) / (wm * wv))
               * (root_w + mu)) / root_w
        tail = math.log(2.0 / gap) / mu if gap > 0.0 else math.inf
        if head >= span or head >= tail:
            return
        edges = np.linspace(head, min(span, tail), _CERT_START + 1)
        lo, hi = edges[:-1], edges[1:]
        examined = 0
        while lo.size:
            examined += lo.size
            if examined > _CERT_CAP:
                raise MonotonicityError(
                    f"temporal ACF could not be certified strictly "
                    f"decreasing on [0, {span}] for these wobble parameters")
            bad = ~(_slope_margin(params, lo, hi) > 0.0)
            mid = 0.5 * (lo[bad] + hi[bad])
            lo, hi = (np.concatenate([lo[bad], mid]),
                      np.concatenate([mid, hi[bad]]))


def evolve_channel(estimate: ChannelEstimate, acf_value: float,
                   rng: np.random.Generator) -> ChannelState:
    """Actual channel h(t) = h(T_e)*C + h_rd*sqrt(1 - C^2).

    h_rd is drawn entrywise CN(0, 1) from `rng`, so the result is
    deterministic given the generator state.
    """
    if not 0.0 <= acf_value <= 1.0:
        raise ValueError("acf_value must lie in [0, 1]")
    n = estimate.h.size
    h_rd = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    h_t = estimate.h * acf_value + h_rd * np.sqrt(1.0 - acf_value ** 2)
    return ChannelState(h_t, acf_value)


def received_signal(state: ChannelState, symbol: complex, snr_linear: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Received vector y = sqrt(gamma) * h(t) * s + n with CN(0,1) noise."""
    if snr_linear <= 0:
        raise ValueError("snr_linear must be positive")
    n = state.h_t.size
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    return np.sqrt(snr_linear) * state.h_t * symbol + noise
