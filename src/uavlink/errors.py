"""Exception types shared across the package, and the input guard of the
public inversions."""

import math

import numpy as np


class UavlinkError(Exception):
    """Base class for all uavlink errors."""


class SchemeError(UavlinkError, ValueError):
    """Operation applied to the wrong modulation scheme or order."""


class InfeasibleCsiError(UavlinkError):
    """No finite transmit power meets the BEP threshold at this ACF value.

    `order` is the modulation order it names, where the raiser knows it.
    """

    def __init__(self, message: str, order: int | None = None):
        super().__init__(message)
        self.order = order


class InfeasibleTargetError(UavlinkError, ValueError):
    """ACF inversion target lies outside the attainable range."""


class NumericOverflowError(UavlinkError, ArithmeticError):
    """A closed-form evaluation produced a non-finite intermediate."""


class DivergenceError(UavlinkError, ArithmeticError):
    """An iterative root finder produced a non-finite or invalid update.

    `cells` holds the indices of the cells that failed, where the solver
    runs over an array of them.
    """

    def __init__(self, message: str, cells=None):
        super().__init__(message)
        self.cells = cells


class MonotonicityError(UavlinkError):
    """A quantity required to be monotone for root bracketing is not."""


class ScheduleError(UavlinkError):
    """A rate/power schedule is internally inconsistent."""


class ConfigError(UavlinkError, ValueError):
    """A run configuration file is missing or malformed."""


def require_finite(**values) -> None:
    """Raise ValueError naming the first argument that holds a NaN or an
    infinity; each value is a scalar or an array."""
    for name, value in values.items():
        if isinstance(value, float) and math.isfinite(value):
            continue  # a plain float, checked without NumPy's overhead
        finite = np.isfinite(value)
        if not finite.all():
            raise ValueError(f"{name} must be finite, got "
                             f"{np.asarray(value)[~finite].flat[0]}")
