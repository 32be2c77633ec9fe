"""Correctness checks made apart from bourgen.

Nothing here imports bourgen: every expected value is computed from the
inputs the benchmark generated (the generatrix formula, the space
parameters, the curve formula), so a fault in the program cannot hide in
its own check.
"""
import hashlib
import math

import numpy as np

# Max |E - 1|, |F|, |G - U^2| of a written OBJ grid, measured by 4th-order
# central differences on its 41 x 41 vertices.  The truncation error of
# the stencil is h^4 |X^(5)| / 30; with grid steps of at most 0.1 in s and
# 0.025 in t it stays below 1e-4 on every member of the workloads
# (largest seen 6e-5, next to the square-root branch point of the cut
# members), while a wrong ambient metric is off by O(1): the BCV metric
# with the sign of tau flipped reads 43.
OBJ_TOL = 5e-4
# Max |U(s) - sqrt(1 + (s + sinh u0)^2)| of an extracted generatrix: the
# quadrature and monotone-cubic interpolation errors are O(du^4) and
# O(du^3) on 2001 samples, about 1e-6 (largest seen 6.8e-7).
NATURAL_TOL = 1e-5
# Relative difference of the traced-frame right-hand side from its closed
# form: theta is exact along the rays of this chart up to the Newton
# tolerance (1e-12) and the gradients are central differences with step
# 1e-6, whose rounding error is about 1e-10 (largest seen 2.4e-10).
RHS_TOL = 1e-7
# Residual of the traced-frame inversion in omega and theta (Newton stops
# at 1e-12 relative; the traced theta is accurate to about 1e-10).
INVERT_TOL = 1e-8


def digest(paths):
    """SHA-256 of the concatenated bytes of the files, in the given order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def read_obj_grid(path, s_count=41, t_count=41):
    """The (s_count, t_count, 3) vertex grid of an OBJ written row-major in s."""
    lines = path.read_text().splitlines()
    verts = [ln.split()[1:4] for ln in lines if ln.startswith("v ")]
    if len(verts) != s_count * t_count:
        raise ValueError(f"{path.name}: {len(verts)} vertices, expected "
                         f"{s_count * t_count}")
    return np.array(verts, dtype=float).reshape(s_count, t_count, 3)


def _d4(X, h, axis):
    """4th-order central difference along axis, at the grid points two or
    more steps away from every edge."""
    n = X.shape[axis]
    f = lambda k: np.take(X, np.arange(k, n - 4 + k), axis=axis)
    D = (f(0) - 8.0 * f(1) + 8.0 * f(3) - f(4)) / (12.0 * h)
    other = 1 - axis
    return np.take(D, np.arange(2, X.shape[other] - 2), axis=other)


def _pairing(space, P, u, v):
    """Ambient metric g_P(u, v) in the cartesian mesh coordinates."""
    if space["kind"] != "bcv_helicoidal":
        return np.einsum("...i,...i->...", u, v)
    kappa, tau = space["kappa"], space["tau"]
    x, y = P[..., 0], P[..., 1]
    lam = 1.0 / (1.0 + kappa * (x * x + y * y) / 4.0)
    wu = u[..., 2] + tau * lam * (y * u[..., 0] - x * u[..., 1])
    wv = v[..., 2] + tau * lam * (y * v[..., 0] - x * v[..., 1])
    return lam * lam * (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]) + wu * wv


def obj_isometry_dev(path, space, U, s_range, t_range):
    """Max deviation of the OBJ surface's first form from ds^2 + U(s)^2 dt^2.

    ``U`` is a numpy function of s; ``space`` the space dict of the config.
    """
    X = read_obj_grid(path)
    ns, nt, _ = X.shape
    hs = (s_range[1] - s_range[0]) / (ns - 1)
    ht = (t_range[1] - t_range[0]) / (nt - 1)
    Xs = _d4(X, hs, 0)
    Xt = _d4(X, ht, 1)
    P = X[2:-2, 2:-2]
    s = np.linspace(s_range[0], s_range[1], ns)[2:-2, None]
    E = _pairing(space, P, Xs, Xs)
    F = _pairing(space, P, Xs, Xt)
    G = _pairing(space, P, Xt, Xt)
    return float(max(np.max(np.abs(E - 1.0)), np.max(np.abs(F)),
                     np.max(np.abs(G - U(s) ** 2))))


def natural_dev(csv_path, u0):
    """Max |U(s) - sqrt(1 + (s + sinh u0)^2)| over an extracted generatrix.

    For the meridian (u, cosh u, u, 0.2 u) of the rotational chart the
    arc length from u0 is s = sinh u - sinh u0 and U = cosh u.
    """
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    s, U = data[:, 0], data[:, 1]
    return float(np.max(np.abs(U - np.sqrt(1.0 + (s + math.sinh(u0)) ** 2))))


def traced_rhs_closed_form(s, theta, m, c, theta_shift):
    """theta'(s) on the flat helicoidal chart (a = 1) for the invariant
    theta = x2/x1 + theta_shift and U = sqrt(s^2 + c)."""
    U = math.sqrt(s * s + c)
    dU = s / U
    w = m * U
    go = (w * w - 1.0) / (w * w)
    gt = w * w * (1.0 + (theta - theta_shift) ** 2) ** 2 / (w * w - 1.0)
    return math.sqrt(gt) * math.sqrt(go - (m * dU) ** 2) / math.sqrt(go)


def traced_invert_dev(x1, x2, w, theta, theta_shift):
    """Residual of an inverted point: omega = sqrt(x1^2 + x2^2 + 1) and
    theta = x2/x1 + theta_shift."""
    return max(abs(math.sqrt(x1 * x1 + x2 * x2 + 1.0) - w),
               abs(x2 / x1 + theta_shift - theta))
