"""Small shared numerical helpers."""
import math

import numpy as np

from ._splines import cumulative_simpson
from .errors import RangeError

# The symmetric deadband of a radicand, in the profile right-hand side and
# the closed forms alike: a value at or below -RADICAND_CLAMP is negative,
# and one within it of zero is zero, so that an identically-degenerate
# radicand (a fixed point of the family) does not pick up float noise.
RADICAND_CLAMP = 1e-12


def cumulative_simpson_anchored(y, x, anchor_index=0):
    """Cumulative integral of samples y over grid x, zero at x[anchor_index].

    Composite Simpson (local parabolas on interior intervals); classic
    composite-Simpson values at even offsets from the grid start.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError("y and x must be 1-d arrays of equal length")
    if len(y) < 3:
        # degenerate: trapezoid
        out = np.concatenate([[0.0], np.cumsum(np.diff(x) * 0.5 * (y[1:] + y[:-1]))])
    else:
        out = cumulative_simpson(y, x)
    return out - out[anchor_index]


# math functions that also take arrays, with math's rounding and failures
# element by element: numpy's own sqrt, sin and cos round as math's do; its
# exp, log, sinh, cosh, hypot and arctan2 do not, so those call math once
# per element.

def sqrt(x):
    """math.sqrt(x); elementwise for an array."""
    if not isinstance(x, np.ndarray):
        return math.sqrt(x)
    if np.count_nonzero(x < 0.0):
        raise ValueError("math domain error")
    return np.sqrt(x)


def _finite_domain(scalar, vectorized):
    def fn(x):
        if not isinstance(x, np.ndarray):
            return scalar(x)
        if np.count_nonzero(np.isinf(x)):
            raise ValueError("math domain error")
        return vectorized(x)
    fn.__doc__ = f"math.{scalar.__name__}(x); elementwise for an array."
    return fn


def _per_element(scalar, nin=1):
    ufunc = np.frompyfunc(scalar, nin, 1)

    def fn(*args):
        if not any(isinstance(x, np.ndarray) for x in args):
            return scalar(*args)
        return ufunc(*args).astype(float)
    fn.__doc__ = (f"math.{scalar.__name__}; elementwise (broadcast) when an "
                  "argument is an array.")
    return fn


sin = _finite_domain(math.sin, np.sin)
cos = _finite_domain(math.cos, np.cos)
exp = _per_element(math.exp)
log = _per_element(math.log)
sinh = _per_element(math.sinh)
cosh = _per_element(math.cosh)
hypot = _per_element(math.hypot, 2)
atan2 = _per_element(math.atan2, 2)


def square(x):
    """x ** 2; elementwise for an array, with the same rounding.

    numpy squares an array by multiplication, which differs from libm's
    pow(x, 2) in the last bit for some x; np.float_power calls pow, as
    Python's float power does.
    """
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x ** 2


def distinct_values(x, other):
    """Sorted distinct values of the array x, and for every element of x
    broadcast against the array ``other`` the index of its value among
    them (an index array of the broadcast shape).  The values are taken
    before the broadcast, so each is found once however large ``other``
    is."""
    values, index = np.unique(x, return_inverse=True)
    shape = np.broadcast_shapes(np.shape(x), np.shape(other))
    return values, np.broadcast_to(index.reshape(np.shape(x)), shape)


def require_s_in_range(s, s_range, label):
    """Raise RangeError naming the first element of the array s (C order)
    outside s_range, widened by 1e-12 at both ends."""
    lo, hi = s_range
    outside = ~((lo - 1e-12 <= s) & (s <= hi + 1e-12))
    if np.any(outside):
        raise RangeError(f"s = {s[outside][0]:.6g} outside {label} {s_range}")


def relative_step(x, h):
    """Central-difference step scaled as h * max(1, |x|); elementwise for
    an array."""
    if isinstance(x, np.ndarray):
        return h * np.maximum(1.0, np.abs(x))
    return h * max(1.0, abs(x))


def central_gradient2(f, x1, x2, h):
    """Central-difference gradient of f(x1, x2) with relative steps."""
    h1 = relative_step(x1, h)
    h2 = relative_step(x2, h)
    d1 = (f(x1 + h1, x2) - f(x1 - h1, x2)) / (2.0 * h1)
    d2 = (f(x1, x2 + h2) - f(x1, x2 - h2)) / (2.0 * h2)
    return d1, d2


def unwrap_angles(phi):
    """Continuous branch of a sampled angle sequence."""
    return np.unwrap(np.asarray(phi, dtype=float))
