"""Wobble-induced temporal autocorrelation and imperfect-CSI channel model.

The UAV's mechanical vibration decorrelates the channel between the
estimation instant and the transmission instant. The decorrelation is
captured by a scalar temporal ACF C(dt) applied to the whole antenna
vector; the innovation is circularly-symmetric complex Gaussian.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import i0e

from .errors import (
    InfeasibleTargetError,
    MonotonicityError,
    NumericOverflowError,
    require_finite,
)
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

_ACF_INV_TOL = 1e-10  # absolute tolerance on the ACF value at the root


def default_sigma_v_sq(omega_v: float, mu: float) -> float:
    """Velocity variance tied to the vibration envelope.

    sigma_v^2 = (0.005)^2 (omega_v^2 + mu^2) / mu, i.e. a 5 mm displacement
    scale converted to a velocity variance for the given vibration profile.
    """
    return 0.005 ** 2 * (omega_v ** 2 + mu ** 2) / mu


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
        for name in ("omega_c", "omega_v", "mu", "sigma_v_sq"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def for_carrier(cls, carrier_freq: float, omega_v: float, mu: float,
                    sigma_v_sq: float | None = None) -> "WobbleParams":
        """Build params from a carrier frequency in Hz; sigma_v_sq defaults
        to the displacement-scale formula in default_sigma_v_sq."""
        if sigma_v_sq is None:
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
        if not np.all(np.isfinite(h.view(np.float64))):
            raise ValueError("h entries must be finite")
        if np.linalg.norm(h) == 0:
            raise ValueError("h must not be the zero vector")
        # ||h||^2, summed once: every closed-form BEP expression reads it
        object.__setattr__(self, "norm_sq", float(np.sum(np.abs(h) ** 2)))


@dataclass(frozen=True)
class ChannelState:
    """Actual channel at some t > t_estimate, with the ACF that produced it."""

    h_t: np.ndarray
    acf_value: float


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
    wv, mu, koc = params.omega_v, params.mu, params.omega_c / SPEED_OF_LIGHT
    wm = wv * wv + mu * mu
    # non-finite intermediates for pathological parameters are caught by the
    # finiteness check below, so the FP warnings carry no information
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = 0.5 * params.sigma_v_sq * (koc / wm) ** 2
        decay = np.exp(-mu * t)
        bracket = (mu * t * wm - 2.0 * mu * wv * np.sin(wv * t) * decay
                   + (mu * mu - wv * wv) * np.cos(wv * t) * decay
                   - mu * mu + wv * wv)
        a = -k1 * bracket
        x = (0.5 * params.sigma_v_sq * koc ** 2
             * (mu * np.sin(wv * t) - wv * np.cos(wv * t) + wv * decay)
             / (wm * wv))
        ax = np.abs(x)
        # exp(a) * I0(x) = exp(a + |x|) * i0e(|x|)
        out = np.exp(a + ax) * i0e(ax)
    if not np.all(np.isfinite(out)):
        raise NumericOverflowError(
            "temporal ACF overflowed; wobble parameters are pathological")
    return float(out) if np.isscalar(dt) or np.ndim(dt) == 0 else out


def acf_inverse(params: WobbleParams, target, dt_max):
    """Lag at which the ACF crosses `target`, by bisection on [0, dt_max].

    target and dt_max broadcast; each element is bisected on its own
    bracket, all elements in lockstep, and scalars give a float. Requires
    temporal_acf(dt_max) <= target <= 1. Each returned dt is the first
    midpoint with |temporal_acf(dt) - target| <= 1e-10. A non-finite
    target or dt_max raises ValueError.
    """
    require_finite(target=target, dt_max=dt_max)
    target, dt_max = np.broadcast_arrays(np.asarray(target, dtype=np.float64),
                                         np.asarray(dt_max, dtype=np.float64))
    above = target > 1.0
    if np.any(above):
        raise InfeasibleTargetError(
            f"ACF never exceeds 1 (target {target[above][0]})")
    # the elements still bisecting: flat index, target and bracket
    idx = np.flatnonzero(target != 1.0)  # target 1 maps to lag 0
    goal = np.reshape(target, -1)[idx]
    lo, hi = np.zeros(idx.size), np.reshape(dt_max, -1)[idx]
    short = temporal_acf(params, hi) > goal
    if np.any(short):
        raise InfeasibleTargetError(
            f"ACF stays above {goal[short][0]} on [0, {hi[short][0]}]; "
            "increase dt_max")
    out = np.zeros(target.size)
    for _ in range(200):
        if not idx.size:
            break
        mid = 0.5 * (lo + hi)
        val = temporal_acf(params, mid)
        met = np.abs(val - goal) <= _ACF_INV_TOL
        out[idx[met]] = mid[met]
        up, go_on = val > goal, ~met
        lo, hi = np.where(up, mid, lo)[go_on], np.where(up, hi, mid)[go_on]
        idx, goal = idx[go_on], goal[go_on]
    # such intervals are ~1e-60 * dt_max wide; the value criterion must
    # have been met long ago for any monotone ACF
    out[idx] = 0.5 * (lo + hi)
    out = out.reshape(target.shape)
    return float(out) if out.ndim == 0 else out


def check_acf_monotone(params: WobbleParams, dt_max: float,
                       n_points: int = 10_000) -> None:
    """Reject parameter sets whose ACF is not strictly decreasing.

    The rate schedule maps each threshold C_n to a unique time t_n, which
    requires a monotone ACF on the scheduling span. Checked on a dense grid.
    """
    grid = np.linspace(0.0, dt_max, n_points)
    vals = temporal_acf(params, grid)
    if not np.all(np.diff(vals) < 0):
        raise MonotonicityError(
            f"temporal ACF is not strictly decreasing on [0, {dt_max}] "
            "for these wobble parameters")


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
