"""Cubic Hermite splines, PCHIP and cumulative Simpson on numpy alone.

Each routine does the float operations of scipy 1.17's
``CubicHermiteSpline``, ``PchipInterpolator`` and ``cumulative_simpson``
(x given) in the same order, so it gives the same bits; only the 1-d float
path that bourgen uses is kept.  Importing scipy.interpolate costs more
than half a second of every bourgen process, which this module saves.
"""
import numpy as np


def _checked(x, y, dydx=None):
    """x, y (and dydx) as float arrays, with scipy's ValueErrors for
    input that does not describe a function on a strictly increasing grid."""
    x = np.array(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if dydx is not None:
        dydx = np.asarray(dydx, dtype=float)
        if y.shape != dydx.shape:
            raise ValueError("The shapes of `y` and `dydx` must be identical.")
    if x.ndim != 1:
        raise ValueError("`x` must be 1-dimensional.")
    if x.shape[0] < 2:
        raise ValueError("`x` must contain at least 2 elements.")
    if y.shape != x.shape:
        raise ValueError("`y` must be 1-dimensional, with the length of "
                         "`x`.")
    if not np.all(np.isfinite(x)):
        raise ValueError("`x` must contain only finite values.")
    if not np.all(np.isfinite(y)):
        raise ValueError("`y` must contain only finite values.")
    if dydx is not None and not np.all(np.isfinite(dydx)):
        raise ValueError("`dydx` must contain only finite values.")
    if np.any(np.diff(x) <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    return x, y, dydx


class HermiteSpline:
    """The C1 piecewise cubic through the values y and slopes dydx on the
    breakpoints x.  Calls take a float or an array and return an array of
    its shape (0-d for a float); values outside [x[0], x[-1]] come from the
    end pieces, and NaN gives NaN."""

    def __init__(self, x, y, dydx):
        x, y, dydx = _checked(x, y, dydx)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        self._set(x, np.stack((t / dx, (slope - dydx[:-1]) / dx - t,
                               dydx[:-1], y[:-1])))

    def _set(self, x, c):
        # c[k, i] multiplies (v - x[i]) ** (K - 1 - k) on piece i
        self.x = x
        self.c = c
        self._inner = x[1:-1]

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        # the piece i with x[i] <= v < x[i+1], clipped to [0, n - 2]: the
        # same index as clip(searchsorted(x, v, "right") - 1, 0, n - 2)
        i = np.searchsorted(self._inner, v, "right")
        c = self.c[:, i]
        # scipy's C loop is silent where v is +-inf (0 * inf) or so large
        # that the powers overflow; the values are its NaN or inf
        with np.errstate(over="ignore", invalid="ignore"):
            s = v - self.x[i]
            # power accumulation, as scipy's evaluate_poly1 does it (not
            # Horner); res is a fresh array, so it is summed in place
            res = 0.0 + c[-1]
            z = s
            for k in range(len(c) - 2, -1, -1):
                res += c[k] * z
                if k:
                    z = z * s
        return np.asarray(res)

    def derivative(self):
        """The derivative, a piecewise polynomial of one degree less."""
        d = HermiteSpline.__new__(HermiteSpline)
        d._set(self.x, self.c[:-1]
               * np.arange(len(self.c) - 1, 0, -1.0)[:, None])
        return d


def _pchip_end_slope(h0, h1, m0, m1):
    # one-sided three-point estimate, kept shape-preserving
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3. * abs(m0):
        return 3. * m0
    return d


def pchip(x, y):
    """The monotone (PCHIP) cubic through y on the breakpoints x, as a
    HermiteSpline with the Fritsch-Butland slopes of scipy's
    PchipInterpolator."""
    x, y, _ = _checked(x, y)
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    if len(y) == 2:
        return HermiteSpline(x, y, np.array([mk[0], mk[0]]))
    smk = np.sign(mk)
    condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    # a zero slope divides by zero here; condition drops those entries
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
    dk = np.zeros_like(y)
    dk[1:-1][~condition] = 1.0 / whmean[~condition]
    dk[0] = _pchip_end_slope(hk[0], hk[1], mk[0], mk[1])
    dk[-1] = _pchip_end_slope(hk[-1], hk[-2], mk[-1], mk[-2])
    return HermiteSpline(x, y, dk)


def _simpson_pieces(y, dx):
    # integrals over the first interval of each sample triple, from the
    # parabola through it (Cartwright's eqn 8, as scipy writes it)
    x21 = dx[:-1]
    x32 = dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def cumulative_simpson(y, x):
    """Cumulative composite-Simpson integral of the 1-d samples y over the
    strictly increasing grid x (at least 3 samples), starting at 0:
    scipy's cumulative_simpson(y, x=x, initial=0.0)."""
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")
    h1 = _simpson_pieces(y, dx)
    h2 = _simpson_pieces(y[::-1], dx[::-1])[::-1]
    pieces = np.empty(len(y) - 1)
    pieces[:-1:2] = h1[::2]
    pieces[1::2] = h2[::2]
    # the last interval has only a triple to its left
    pieces[-1] = h2[-1]
    out = np.cumsum(pieces)
    out += 0.0
    return np.concatenate(([0.0], out))
