"""Small shared numerical helpers."""
import numpy as np
from scipy.integrate import cumulative_simpson

from .errors import RangeError


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
        out = cumulative_simpson(y, x=x, initial=0.0)
    return out - out[anchor_index]


def distinct_values(x):
    """Sorted distinct values of the array x, and for every element of x
    the index of its value among them (an index array of x's shape)."""
    values, index = np.unique(x, return_inverse=True)
    return values, index.reshape(np.shape(x))


def require_s_in_range(s, s_range, label):
    """Raise RangeError naming the first element of the array s (C order)
    outside s_range, widened by 1e-12 at both ends."""
    lo, hi = s_range
    outside = ~((lo - 1e-12 <= s) & (s <= hi + 1e-12))
    if np.any(outside):
        raise RangeError(f"s = {s[outside][0]:.6g} outside {label} {s_range}")


def relative_step(x, h):
    """Central-difference step scaled as h * max(1, |x|)."""
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
