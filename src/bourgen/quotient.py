"""Orbit-space geometry: quotient metric, orthogonal invariant pairs, and
inversion of the (x1,x2) -> (omega,theta) map.

The quotient metric on the space of orbits is the inverse of the upper 2x2
block of the inverse ambient metric.  A transverse invariant theta is
either supplied analytically or traced numerically: theta is constant
along the integral curves of the horizontal projection of grad(omega)
(the characteristics of the defining first-order PDE), and takes
arc-length Cauchy data on a curve transversal to them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .chart import DEFAULT_FD_STEP, AdaptedChart3, InvariantFunction, as_invariant
from .errors import (
    DegenerateGradientError,
    DomainError,
    NewtonDivergenceError,
    RankDeficiencyError,
    RectExitError,
    SingularMetricError,
    TransversalityError,
)


# ---------------------------------------------------------------------------
# quotient metric
# ---------------------------------------------------------------------------

def _inverse_block2(chart, x1, x2):
    """Upper 2x2 block (b11, b12, b22) of the inverse metric, by cofactors
    (fast path), and the g33 it used, as (b11, b12, b22, g33)."""
    g11 = chart.g11(x1, x2)
    g12 = chart.g12(x1, x2)
    g13 = chart.g13(x1, x2)
    g22 = chart.g22(x1, x2)
    g23 = chart.g23(x1, x2)
    g33 = chart.g33(x1, x2)
    det = (g11 * (g22 * g33 - g23 * g23)
           - g12 * (g12 * g33 - g23 * g13)
           + g13 * (g12 * g23 - g22 * g13))
    if not 0.0 < det < math.inf:
        raise SingularMetricError(
            f"{chart.label}: metric determinant {det:.3e} at "
            f"({x1!r}, {x2!r}) is not positive")
    b11 = (g22 * g33 - g23 * g23) / det
    b12 = -(g12 * g33 - g13 * g23) / det
    b22 = (g11 * g33 - g13 * g13) / det
    return b11, b12, b22, g33


def _volume(chart, x1, x2):
    """``chart.volume_at((x1, x2))`` for floats x1, x2, with its errors;
    math.sqrt rounds as np.sqrt does."""
    if not chart.domain(x1, x2):
        raise DomainError(f"{chart.label}: point {(x1, x2)!r} outside chart domain")
    g33 = chart.g33(x1, x2)
    if g33 <= 0.0:
        raise SingularMetricError(
            f"{chart.label}: g33 = {g33:.3e} at {(x1, x2)!r} is not positive")
    return math.sqrt(g33)


@dataclass(frozen=True)
class QuotientMetric2:
    """Quotient metric coefficients on the orbit space, as functions of
    the invariant coordinates (x1, x2)."""

    q11: Callable[[float, float], float]
    q12: Callable[[float, float], float]
    q22: Callable[[float, float], float]

    def matrix_at(self, p):
        x1, x2 = p
        q11 = self.q11(x1, x2)
        q12 = self.q12(x1, x2)
        q22 = self.q22(x1, x2)
        return np.array([[q11, q12], [q12, q22]])


def quotient_metric(chart):
    """Quotient metric of the orbit space: the inverse of the upper 2x2
    block of the inverse ambient metric."""

    def q11(x1, x2):
        b11, b12, b22, _ = _inverse_block2(chart, x1, x2)
        return b22 / (b11 * b22 - b12 * b12)

    def q12(x1, x2):
        b11, b12, b22, _ = _inverse_block2(chart, x1, x2)
        return -b12 / (b11 * b22 - b12 * b12)

    def q22(x1, x2):
        b11, b12, b22, _ = _inverse_block2(chart, x1, x2)
        return b11 / (b11 * b22 - b12 * b12)

    return QuotientMetric2(q11=q11, q12=q12, q22=q22)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientFrame:
    """Orthogonal invariant pair (omega, theta) with gradient norms in the
    (omega, theta) coordinates and the inverse chart map.

    ``rect`` is the declared (omega, theta) rectangle on which the pair is
    a valid coordinate system; it also bounds profile integrations.
    ``branch_sign`` orients the profile branches: gradient norms are
    absolute values, so screw charts with negative pitch set -1 here to
    keep the branch labels aligned with the closed-form quadratures
    (epsilon = +1 always means increasing screw angle).
    ``theta_free`` marks a built-in frame whose gradient norms depend on
    omega alone; only ``spaces.builtin_frame`` sets it.  Such a frame's
    callables, chart and invariant gradients also take arrays, so the flag
    is what ``elementwise`` tests.  Other frames (the ratio gauge, and
    ``build_frame``'s Newton and characteristic frames) are evaluated one
    point at a time.
    ``inverse_jacobian``, when set, gives d(x1, x2)/d(omega, theta) at a
    point (w, t) directly, and ``invert_jacobian`` returns it in place of
    the inverse of the finite-difference forward Jacobian; the
    characteristic frame sets it, so that its members never difference
    the traced theta.
    """

    chart: AdaptedChart3
    omega: InvariantFunction
    theta: InvariantFunction
    grad_omega_sq: Callable[[float, float], float]
    grad_theta_sq: Callable[[float, float], float]
    invert: Callable[[float, float], tuple]
    rect: tuple
    label: str = "frame"
    branch_sign: int = 1
    theta_free: bool = False
    inverse_jacobian: Optional[Callable[[float, float], np.ndarray]] = None

    def elementwise(self, fn, a, b):
        """fn(a, b) at every element of the broadcast arrays a, b, for fn a
        callable of this frame or of its chart.

        One call for a theta-free frame; otherwise one call per element,
        with the results stacked into arrays of the broadcast shape (a
        tuple result becomes a tuple of arrays, an array result gains the
        leading shape).
        """
        if self.theta_free:
            return fn(a, b)
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                                   np.asarray(b, dtype=float))
        rows = [fn(x, y) for x, y in zip(a.ravel(), b.ravel())]
        if rows and isinstance(rows[0], tuple):
            return tuple(np.array(col, dtype=float).reshape(a.shape)
                         for col in zip(*rows))
        out = np.array(rows, dtype=float)
        return out.reshape(a.shape + out.shape[1:])

    def contains(self, w, t):
        """Whether (w, t) lies in the rectangle; elementwise for arrays."""
        (w0, w1), (t0, t1) = self.rect
        return (w0 <= w) & (w <= w1) & (t0 <= t) & (t <= t1)

    def require_in_rect(self, w, t):
        if not self.contains(w, t):
            raise RectExitError(
                f"{self.label}: (omega, theta) = ({w:.6g}, {t:.6g}) outside "
                f"declared rectangle {self.rect}")

    def forward_jacobian(self, x1, x2, step=DEFAULT_FD_STEP):
        """d(omega, theta)/d(x1, x2) at a point of the orbit space (for
        arrays of points, an array of 2x2 matrices)."""
        dw = self.omega.gradient_at(x1, x2, step)
        dt = self.theta.gradient_at(x1, x2, step)
        rows = np.broadcast_arrays(*dw, *dt)
        return np.stack(rows, axis=-1).reshape(rows[0].shape + (2, 2))

    def invert_jacobian(self, w, t, step=DEFAULT_FD_STEP):
        """d(x1, x2)/d(omega, theta) at (w, t): the frame's
        ``inverse_jacobian`` when it has one (``step`` is then unused),
        otherwise via the forward gradients (for arrays, one matrix per
        point)."""
        if self.inverse_jacobian is not None:
            return self.inverse_jacobian(w, t)
        x1, x2 = self.invert(w, t)
        fj = self.forward_jacobian(x1, x2, step)
        a, b, c, d = fj[..., 0, 0], fj[..., 0, 1], fj[..., 1, 0], fj[..., 1, 1]
        det = a * d - b * c
        singular = np.abs(det) < 1e-14
        if np.any(singular):
            k = np.argmax(singular)
            w, t = (np.broadcast_to(v, det.shape).flat[k] for v in (w, t))
            raise RankDeficiencyError(
                f"{self.label}: forward Jacobian singular at ({w:.6g}, {t:.6g})")
        inverse = np.stack([np.stack([d, -b], axis=-1),
                            np.stack([-c, a], axis=-1)], axis=-2)
        return inverse / det[..., None, None]


def newton_invert(forward, jacobian, target, seed, tol=1e-12, maxiter=50,
                  trace=None):
    """Damped Newton for forward(x) = target, x and target 2-vectors.

    ``forward`` maps (x1, x2) -> (omega, theta); ``jacobian`` returns the
    2x2 forward Jacobian.  Returns the solution; raises
    NewtonDivergenceError with the last residual on failure.  When
    ``trace`` is a list, the max-norm residual after each iteration is
    appended to it (used to observe quadratic convergence).
    """
    x = np.array(seed, dtype=float)
    target = np.asarray(target, dtype=float)
    scale = max(1.0, abs(target[0]), abs(target[1]))
    r = np.asarray(forward(x[0], x[1])) - target
    for _ in range(maxiter):
        err = np.max(np.abs(r))
        if err <= tol * scale:
            return x[0], x[1]
        J = np.asarray(jacobian(x[0], x[1]), dtype=float)
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        if abs(det) < 1e-300:
            raise NewtonDivergenceError(
                f"singular Jacobian during inversion at x={tuple(x)!r}",
                residual=err)
        step = np.array([J[1, 1] * r[0] - J[0, 1] * r[1],
                         -J[1, 0] * r[0] + J[0, 0] * r[1]]) / det
        lam = 1.0
        for _ in range(8):
            x_new = x - lam * step
            try:
                r_new = np.asarray(forward(x_new[0], x_new[1])) - target
            except (DomainError, ValueError, FloatingPointError):
                lam *= 0.5
                continue
            if np.max(np.abs(r_new)) < err or lam < 1e-2:
                break
            lam *= 0.5
        else:
            x_new = x - lam * step
            r_new = np.asarray(forward(x_new[0], x_new[1])) - target
        x, r = x_new, r_new
        if trace is not None:
            trace.append(float(np.max(np.abs(r))))
    err = float(np.max(np.abs(r)))
    if err <= tol * scale:
        return x[0], x[1]
    raise NewtonDivergenceError(
        f"chart inversion did not converge to {tuple(target)!r}; "
        f"last residual {err:.3e}", residual=err)


def build_frame(chart, theta, rect, *, seed_box, seed_counts=(25, 25),
                fd_step=DEFAULT_FD_STEP, newton_tol=1e-12, newton_maxiter=50,
                jacobian_floor=1e-8, label=None):
    """Construct a QuotientFrame from an invariant theta on a chart.

    For a ``TracedInvariant`` theta the frame is the characteristic frame
    of ``_characteristic_frame``: ``seed_box``, ``seed_counts`` and the
    ``newton_*`` options are accepted but not used.

    For any other theta, ``seed_box`` = ((x1_lo, x1_hi), (x2_lo, x2_hi))
    samples the orbit space: the seed grid provides Newton starting points
    and the rank check of the forward map.  Gradient norms are computed
    through the pairing of the chart and re-expressed as functions of
    (omega, theta) via the inverse map.
    """
    from .chart import invariant_pairing  # local import to avoid cycle noise

    label = label or f"{chart.label}/frame"
    if isinstance(theta, TracedInvariant):
        return _characteristic_frame(chart, theta, rect, fd_step=fd_step,
                                     jacobian_floor=jacobian_floor,
                                     label=label)
    omega = chart.volume_fn()
    theta = as_invariant(theta, name="theta")

    (x1_lo, x1_hi), (x2_lo, x2_hi) = seed_box
    xs = np.linspace(x1_lo, x1_hi, seed_counts[0])
    ys = np.linspace(x2_lo, x2_hi, seed_counts[1])
    seeds = []
    (w_lo, w_hi), (t_lo, t_hi) = rect
    pad_w = 0.25 * (w_hi - w_lo)
    pad_t = 0.25 * (t_hi - t_lo)
    for x1 in xs:
        for x2 in ys:
            if not chart.domain(x1, x2):
                continue
            try:
                w = omega(x1, x2)
                t = theta(x1, x2)
            except DomainError:
                continue  # e.g. outside a traced invariant's swept region
            if not np.isfinite(w) or not np.isfinite(t):
                continue
            seeds.append((w, t, x1, x2))
            if w_lo - pad_w <= w <= w_hi + pad_w and t_lo - pad_t <= t <= t_hi + pad_t:
                dw = np.array(omega.gradient_at(x1, x2, fd_step))
                dt = np.array(theta.gradient_at(x1, x2, fd_step))
                det = dw[0] * dt[1] - dw[1] * dt[0]
                norm = max(np.hypot(*dw) * np.hypot(*dt), 1e-300)
                if abs(det) < jacobian_floor * norm:
                    raise RankDeficiencyError(
                        f"(omega, theta) Jacobian nearly singular at "
                        f"({x1:.6g}, {x2:.6g}): |det|/scale = {abs(det)/norm:.3e}")
    if not seeds:
        raise DomainError("seed_box contains no domain points")
    seed_arr = np.array(seeds)  # columns: w, t, x1, x2

    def forward(x1, x2):
        return omega(x1, x2), theta(x1, x2)

    def fwd_jac(x1, x2):
        return np.array([omega.gradient_at(x1, x2, fd_step),
                         theta.gradient_at(x1, x2, fd_step)])

    # one-entry memo of the latest inversion, ((w, t), point) in a single
    # tuple: the profile right-hand side asks for both gradient norms at
    # the same (w, t)
    last = ((None, None), None)

    def invert(w, t):
        nonlocal last
        key, point = last
        if key == (w, t):
            return point
        d2 = (seed_arr[:, 0] - w) ** 2 + (seed_arr[:, 1] - t) ** 2
        seed = seed_arr[int(np.argmin(d2)), 2:]
        point = newton_invert(forward, fwd_jac, (w, t), seed,
                              tol=newton_tol, maxiter=newton_maxiter)
        last = ((w, t), point)
        return point

    def grad_omega_sq(w, t):
        p = invert(w, t)
        return invariant_pairing(chart, omega, omega, p, step=fd_step)

    def grad_theta_sq(w, t):
        p = invert(w, t)
        return invariant_pairing(chart, theta, theta, p, step=fd_step)

    return QuotientFrame(
        chart=chart, omega=omega, theta=theta,
        grad_omega_sq=grad_omega_sq, grad_theta_sq=grad_theta_sq,
        invert=invert, rect=rect, label=label)


def _characteristic_frame(chart, traced, rect, *, fd_step, jacobian_floor,
                          label):
    """QuotientFrame of a traced theta, built on the characteristics.

    theta is constant along a characteristic and omega strictly monotone,
    so the point (w, t) is one trace from the Cauchy point at arc length t
    to the level omega = w (``TracedInvariant.level_point``), with a
    one-entry memo.

    The gradient norms and the inverse Jacobian come from one stencil of
    level traces at (w, t), also memoised for one entry, since a
    right-hand side asks for both norms at the same point.  With
    h = 1e-6 max(1, |t|), the stencil traces lo at t - h and hi at t + h;
    dx/dtheta at fixed omega is v = (hi - lo) / 2h, and the stencil's
    point is p = (lo + hi) / 2, the level trace at t up to O(h^2).  Within
    h of an end of the arc range the stencil is one-sided, of second
    order, from the level trace at t and two more at t +- h, t +- 2h.
    |grad omega|^2 is the chart's pairing at p.  In the orthogonal pair
    the quotient metric is dw^2 / |grad omega|^2 + dt^2 / |grad theta|^2,
    so |grad theta|^2 = 1 / q(v, v); a q(v, v) that collapses below
    jacobian_floor^2 raises RankDeficiencyError.  The inverse Jacobian has
    the columns dx/domega = a / (a . d omega) at p, with a the trace field,
    and dx/dtheta = v; columns within jacobian_floor of parallel raise
    RankDeficiencyError.
    """
    from .chart import invariant_pairing

    omega = chart.volume_fn()
    q = quotient_metric(chart)
    length = traced.cauchy.length
    last = ((None, None), None)
    last_stencil = ((None, None), None)

    def invert(w, t):
        nonlocal last
        key, point = last
        if key == (w, t):
            return point
        point = traced.level_point(w, t)
        last = ((w, t), point)
        return point

    def stencil(w, t):
        """(p, v): the stencil's point and dx/dtheta at fixed omega."""
        nonlocal last_stencil
        key, pv = last_stencil
        if key == (w, t):
            return pv
        h = 1e-6 * max(1.0, abs(t))
        level = lambda sigma: np.array(traced.level_point(w, sigma))
        if t - h < 0.0 or t + h > length:
            p = np.array(invert(w, t))
            t1, t2 = (t + h, t + 2.0 * h) if t - h < 0.0 else (t - h, t - 2.0 * h)
            v = (4.0 * level(t1) - 3.0 * p - level(t2)) / (t2 - t)
        else:
            lo, hi = level(t - h), level(t + h)
            v = (hi - lo) / (2.0 * h)
            p = 0.5 * (lo + hi)
        pv = (p, v)
        last_stencil = ((w, t), pv)
        return pv

    def grad_omega_sq(w, t):
        p, _ = stencil(w, t)
        return invariant_pairing(chart, omega, omega, p, step=fd_step)

    def grad_theta_sq(w, t):
        p, v = stencil(w, t)
        qvv = float(v @ q.matrix_at(p) @ v)
        if not jacobian_floor ** 2 < qvv < math.inf:
            raise RankDeficiencyError(
                f"{label}: |dx/dtheta|^2 = {qvv:.3e} at fixed omega at "
                f"(omega, theta) = ({w:.6g}, {t:.6g}): neighbouring "
                "characteristics meet")
        return 1.0 / qvv

    def inverse_jacobian(w, t):
        p, v = stencil(w, t)
        a1, a2, d1, d2 = traced._field(*p)
        ad = a1 * d1 + a2 * d2
        cross = a1 * v[1] - a2 * v[0]
        if not abs(cross) > jacobian_floor * math.hypot(a1, a2) * math.hypot(*v):
            raise RankDeficiencyError(
                f"{label}: dx/domega and dx/dtheta nearly parallel at "
                f"(omega, theta) = ({w:.6g}, {t:.6g})")
        return np.array([[a1 / ad, v[0]], [a2 / ad, v[1]]])

    return QuotientFrame(
        chart=chart, omega=omega, theta=as_invariant(traced, name="theta"),
        grad_omega_sq=grad_omega_sq, grad_theta_sq=grad_theta_sq,
        invert=invert, rect=rect, label=label,
        inverse_jacobian=inverse_jacobian)


# ---------------------------------------------------------------------------
# characteristic-traced invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CauchyCurve:
    """Transversal data curve in the orbit space, parametrized by arc
    length on [0, length]."""

    point: Callable[[float], np.ndarray]
    length: float
    tangent: Optional[Callable[[float], np.ndarray]] = None

    def point_at(self, sigma):
        return np.asarray(self.point(sigma), dtype=float)

    def tangent_at(self, sigma):
        if self.tangent is not None:
            return np.asarray(self.tangent(sigma), dtype=float)
        h = 1e-6 * max(1.0, self.length)
        lo = max(0.0, sigma - h)
        hi = min(self.length, sigma + h)
        return (self.point_at(hi) - self.point_at(lo)) / (hi - lo)


def line_segment(p0, p1):
    """Arc-length parametrized straight Cauchy segment from p0 to p1."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    length = float(np.linalg.norm(p1 - p0))
    if length == 0.0:
        raise ValueError("degenerate segment")
    direction = (p1 - p0) / length
    return CauchyCurve(point=lambda sigma: p0 + sigma * direction,
                       length=length,
                       tangent=lambda sigma: direction)


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


# Relative padding of the crossing prefilter's boxes.  The full crossing
# test accepts trace and polyline parameters up to 1e-9 outside [0, 1]: a
# crossing it reports lies within 1e-9 step lengths of the step's box and
# within 1e-9 segment lengths of the polyline's box, up to rounding.
# Padding by 1e-6 of those lengths, and the polyline's box also by 1e-6 of
# its coordinate scale for the rounding, leaves a thousandfold margin.
_BOX_PAD = 1e-6
# Newton iterations of the partial step that lands a trace on a level.  The
# linear guess is off by O(step^2) and each iteration squares the error up
# to the O(step^4) gap between the RK4 step's rate and the flow's, so two
# or three suffice; the loop also ends at the first iteration that does
# not come closer.
_LAND_MAXITER = 20


class TracedInvariant:
    """Invariant function produced by the method of characteristics.

    The value at x is the arc-length parameter of the Cauchy curve at the
    foot of the characteristic through x: characteristics are integral
    curves of the horizontal projection of grad(omega), along which every
    solution of the defining PDE is constant.  Evaluation integrates the
    characteristic from x until it crosses the Cauchy curve and refines
    the crossing by Newton iteration, so values are smooth in x up to
    integrator error.  omega grows along the flow (d omega / d tau =
    |grad omega|^2), so the trace first runs forward when omega at the
    nearest node of the Cauchy polyline exceeds omega(x), and backward
    otherwise; the other direction is tried when the first misses.

    Evaluation steps on scalars and runs the full polyline crossing test
    only on steps whose box meets the polyline's box, which gives the
    bits of a per-point trace with a crossing test at every step.
    """

    gradient = None  # finite differences apply
    name = "traced-theta"

    def __init__(self, chart, cauchy, arc_grid, *, step=None, n_steps=400,
                 min_angle=1e-3, grad_floor=1e-10):
        self.chart = chart
        self.cauchy = cauchy
        self.sigmas = np.asarray(arc_grid, dtype=float)
        if self.sigmas.ndim != 1 or len(self.sigmas) < 2:
            raise ValueError("arc_grid must hold at least two arc-length values")
        self.step = float(step) if step is not None else cauchy.length / 400.0
        self.n_steps = int(n_steps)
        self.min_angle = float(min_angle)
        self.grad_floor = float(grad_floor)
        self._omega = chart.volume_fn()
        # the dense Cauchy polyline that traces are tested against: arc
        # values, points, segments, and the padded box (lo1, hi1, lo2, hi2)
        # of the crossing prefilter
        self._poly_sig = np.linspace(0.0, cauchy.length, 512)
        self._poly_pts = np.array([cauchy.point_at(s) for s in self._poly_sig])
        self._poly_segs = np.diff(self._poly_pts, axis=0)
        pad = _BOX_PAD * (np.max(np.hypot(*self._poly_segs.T))
                          + np.max(np.abs(self._poly_pts)))
        lo = self._poly_pts.min(axis=0) - pad
        hi = self._poly_pts.max(axis=0) + pad
        self._poly_box = (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))
        self._check_transversality()

    # -- characteristic field ------------------------------------------------

    def _field(self, x1, x2):
        """Horizontal projection of grad(omega) at (x1, x2), the
        characteristic velocity (a1, a2), and the gradient (d1, d2) of
        omega, as (a1, a2, d1, d2).  Raises DomainError outside the chart
        domain and DegenerateGradientError where |grad omega| is below the
        floor.

        The chart is evaluated once: the omega gradient d_g33 / (2 omega)
        takes the g33 of the cofactor block, which gives the bits of
        ``volume_fn().gradient_at``; a chart without ``d_g33`` takes its
        central differences.
        """
        chart = self.chart
        if not chart.domain(x1, x2):
            raise DomainError(
                f"characteristic left the chart domain at ({x1:.6g}, {x2:.6g})")
        b11, b12, b22, g33 = _inverse_block2(chart, x1, x2)
        if chart.d_g33 is None:
            d1, d2 = self._omega.gradient_at(x1, x2)
        else:
            e1, e2 = chart.d_g33(x1, x2)
            w = math.sqrt(g33)
            d1, d2 = e1 / (2.0 * w), e2 / (2.0 * w)
        a1 = b11 * d1 + b12 * d2
        a2 = b12 * d1 + b22 * d2
        if a1 * d1 + a2 * d2 < self.grad_floor ** 2:
            raise DegenerateGradientError(
                f"|grad omega| below {self.grad_floor:g} at ({x1:.6g}, {x2:.6g})")
        return a1, a2, d1, d2

    def _check_transversality(self):
        for sigma in self.sigmas:
            p = self.cauchy.point_at(sigma)
            a = np.array(self._field(*p)[:2])
            t = self.cauchy.tangent_at(sigma)
            sin_angle = abs(_cross2(a, t)) / (np.linalg.norm(a) * np.linalg.norm(t))
            if sin_angle < np.sin(self.min_angle):
                raise TransversalityError(
                    f"Cauchy curve tangent to a characteristic at arc length "
                    f"{sigma:.6g} (|sin angle| = {sin_angle:.2e})")

    def _rk4_step(self, x1, x2, h, sign):
        """One classical RK4 step of the flow of sign * field from the
        point (x1, x2) of floats.  The arithmetic is
        x + (h/6)(k1 + 2 k2 + 2 k3 + k4), component by component.
        """
        f = self._field
        g = 0.5 * h
        a1, a2, _, _ = f(x1, x2)
        k11, k12 = sign * a1, sign * a2
        a1, a2, _, _ = f(x1 + g * k11, x2 + g * k12)
        k21, k22 = sign * a1, sign * a2
        a1, a2, _, _ = f(x1 + g * k21, x2 + g * k22)
        k31, k32 = sign * a1, sign * a2
        a1, a2, _, _ = f(x1 + h * k31, x2 + h * k32)
        k41, k42 = sign * a1, sign * a2
        c = h / 6.0
        return (x1 + c * (k11 + 2 * k21 + 2 * k31 + k41),
                x2 + c * (k12 + 2 * k22 + 2 * k32 + k42))

    # -- evaluation -----------------------------------------------------------

    def _box_meets(self, a1, a2, b1, b2):
        """Whether the padded box of the step from (a1, a2) to (b1, b2)
        meets the padded box of the Cauchy polyline.  When it does not, the
        full crossing test of the step finds nothing."""
        lo1, hi1, lo2, hi2 = self._poly_box
        pad = _BOX_PAD * (abs(b1 - a1) + abs(b2 - a2))
        return (min(a1, b1) - pad <= hi1 and max(a1, b1) + pad >= lo1
                and min(a2, b2) - pad <= hi2 and max(a2, b2) + pad >= lo2)

    def _crossing_from(self, x1, x2, sign):
        """Trace the characteristic from (x1, x2) on scalars until it
        crosses the Cauchy polyline; returns (x_prev, x_next, sigma0, u0)
        with the crossing bracketed in the last step, or None.  Only steps
        whose box meets the polyline's go through the full test."""
        h = self.step
        for _ in range(self.n_steps):
            y1, y2 = self._rk4_step(x1, x2, h, sign)
            if self._box_meets(x1, x2, y1, y2):
                a, b = np.array([x1, x2]), np.array([y1, y2])
                hit = self._segment_crossing(a, b)
                if hit is not None:
                    return (a, b) + hit
            x1, x2 = y1, y2
        return None

    def _segment_crossing(self, a, b):
        """Intersection of the trace step [a, b] with the dense Cauchy
        polyline; returns (sigma0, u0) seeds for the Newton refinement."""
        d = b - a
        p = self._poly_pts[:-1]
        r = self._poly_segs
        pa0 = p[:, 0] - a[0]
        pa1 = p[:, 1] - a[1]
        denom = d[0] * r[:, 1] - d[1] * r[:, 0]
        ok = np.abs(denom) > 1e-300
        safe = np.where(ok, denom, 1.0)
        u = (pa0 * r[:, 1] - pa1 * r[:, 0]) / safe   # along the trace step
        w = (pa0 * d[1] - pa1 * d[0]) / safe         # along the poly segment
        tol = 1e-9
        mask = ok & (u >= -tol) & (u <= 1 + tol) & (w >= -tol) & (w <= 1 + tol)
        if not mask.any():
            return None
        idx = np.flatnonzero(mask)
        i = idx[int(np.argmin(u[idx]))]
        sig0 = self._poly_sig[i] + w[i] * (self._poly_sig[i + 1] - self._poly_sig[i])
        return float(np.clip(sig0, 0.0, self.cauchy.length)), float(u[i])

    def _proj_sigma(self, x, i):
        """Arc-length parameter of the polyline point nearest to x, given
        the polyline node i nearest to x."""
        lo = max(0, i - 1)
        hi = min(len(self._poly_sig) - 1, i + 1)
        seg = self._poly_pts[hi] - self._poly_pts[lo]
        denom = seg @ seg
        if denom == 0.0:
            return float(self._poly_sig[i])
        u = ((x - self._poly_pts[lo]) @ seg) / denom
        sig = self._poly_sig[lo] + u * (self._poly_sig[hi] - self._poly_sig[lo])
        return float(np.clip(sig, 0.0, self.cauchy.length))

    def _nearest_node(self, x):
        """Index of the polyline node nearest to x, and its distance."""
        d = self._poly_pts - x
        d2 = np.einsum("ij,ij->i", d, d)
        i = int(np.argmin(d2))
        return i, float(np.sqrt(d2[i]))

    def _refine_crossing(self, x_a, x_b, sign, sig0, u0):
        """Newton solve for the exact (trace parameter, sigma) crossing of
        the Hermite-interpolated trace step [x_a, x_b] with the curve."""
        h = self.step
        va = sign * np.array(self._field(*x_a)[:2])
        vb = sign * np.array(self._field(*x_b)[:2])

        def trace(u):  # cubic Hermite on [0, 1]
            u2, u3 = u * u, u * u * u
            h00 = 2 * u3 - 3 * u2 + 1
            h10 = u3 - 2 * u2 + u
            h01 = -2 * u3 + 3 * u2
            h11 = u3 - u2
            return (h00 * x_a + h10 * h * va + h01 * x_b + h11 * h * vb)

        def dtrace(u):
            u2 = u * u
            d00 = 6 * u2 - 6 * u
            d10 = 3 * u2 - 4 * u + 1
            d01 = -6 * u2 + 6 * u
            d11 = 3 * u2 - 2 * u
            return (d00 * x_a + d10 * h * va + d01 * x_b + d11 * h * vb)

        sig = sig0
        u = u0
        for _ in range(60):
            pt = trace(u)
            c = self.cauchy.point_at(sig)
            r = pt - c
            if np.max(np.abs(r)) < 1e-14 * max(1.0, float(np.max(np.abs(pt)))):
                break
            dtan = self.cauchy.tangent_at(sig)
            J = np.column_stack([dtrace(u), -dtan])
            det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
            if abs(det) < 1e-14 * max(1.0, np.linalg.norm(J)):
                raise TransversalityError(
                    "characteristic nearly tangent to the Cauchy curve "
                    f"near arc length {sig:.6g}")
            du = (J[1, 1] * r[0] - J[0, 1] * r[1]) / det
            dsig = (-J[1, 0] * r[0] + J[0, 0] * r[1]) / det
            u -= du
            sig -= dsig
            u = float(np.clip(u, -0.5, 1.5))
        if sig < -1e-9 or sig > self.cauchy.length + 1e-9:
            raise DomainError(
                f"characteristic meets the data curve outside its arc range "
                f"(sigma = {sig:.6g})")
        return float(np.clip(sig, 0.0, self.cauchy.length))

    def level_point(self, w, sigma):
        """The point where the characteristic through the Cauchy point at
        arc length sigma meets the level omega = w.

        omega is strictly monotone along the flow (d omega / d tau =
        |grad omega|^2), so the trace runs from the data point in the
        direction sign(w - omega) until omega passes w, and a last partial
        RK4 step, its length solved by Newton's method in the flow time,
        lands on the level.  Raises DomainError for sigma outside
        [0, length], for a level not reached within n_steps steps and for
        a trace that leaves the domain.
        """
        if not 0.0 <= sigma <= self.cauchy.length:
            raise DomainError(
                f"arc length {sigma:.6g} outside the data curve's range "
                f"[0, {self.cauchy.length:.6g}]")
        x1, x2 = self.cauchy.point_at(sigma).tolist()
        w_x = _volume(self.chart, x1, x2)
        if w_x == w:
            return x1, x2
        sign = 1.0 if w > w_x else -1.0
        for _ in range(self.n_steps):
            y1, y2 = self._rk4_step(x1, x2, self.step, sign)
            w_y = _volume(self.chart, y1, y2)
            if sign * (w_y - w) >= 0.0:
                return self._land(x1, x2, sign, w, w_x, w_y)
            x1, x2, w_x = y1, y2, w_y
        raise DomainError(
            f"the characteristic from arc length {sigma:.6g} does not reach "
            f"omega = {w:.6g} within {self.n_steps} steps")

    def _land(self, x1, x2, sign, w, w_x, w_y):
        """The RK4 step from (x1, x2) whose end lies on the level omega = w,
        which a full step from there reaches (w_x and w_y are omega at the
        start and at the end of the full step).  Newton's method on the
        step length stays in [0, step], where the root is bracketed, and
        stops within 1e-15 of w relative, or, where finite-difference
        gradients leave omega noisier than that, at the end of the step
        that came closest."""
        step = self.step
        h = step * (w - w_x) / (w_y - w_x)
        tol = 1e-15 * max(1.0, abs(w))
        best = None
        for _ in range(_LAND_MAXITER):
            y1, y2 = self._rk4_step(x1, x2, h, sign)
            r = _volume(self.chart, y1, y2) - w
            if best is not None and abs(r) >= abs(best[2]):
                break
            best = (y1, y2, r)
            if abs(r) <= tol:
                break
            # d omega / d h along the flow of sign * field: sign |grad omega|^2
            a1, a2, d1, d2 = self._field(y1, y2)
            h = min(max(h - r / (sign * (a1 * d1 + a2 * d2)), 0.0), step)
        return best[0], best[1]

    def __call__(self, x1, x2):
        return self.value(x1, x2)

    def value(self, x1, x2):
        x = np.array([x1, x2], dtype=float)
        i, distance = self._nearest_node(x)
        if distance < 1e-12:
            return self._proj_sigma(x, i)
        first = 1.0 if self._omega_rises(x, self._poly_pts[i]) else -1.0
        for sign in (first, -first):
            try:
                hit = self._crossing_from(*x.tolist(), sign)
            except (DomainError, DegenerateGradientError):
                hit = None
            if hit is not None:
                x_a, x_b, sig0, u0 = hit
                return self._refine_crossing(x_a, x_b, sign, sig0, u0)
        raise DomainError(
            f"point ({x1:.6g}, {x2:.6g}) is outside the swept region of the "
            "characteristic grid")

    def _omega_rises(self, x, node):
        """Whether omega at the polyline node exceeds omega(x), so that the
        forward flow runs from x toward it.  ``value`` tries both
        directions, so this only orders the work: where omega cannot be
        evaluated (x outside the chart domain, say), forward comes first."""
        try:
            return self.chart.volume_at(node) > self.chart.volume_at(x)
        except (DomainError, SingularMetricError):
            return True


def solve_orthogonal_invariant(chart, cauchy, arc_grid, *, step=None,
                               n_steps=400, min_angle=1e-3):
    """Trace an invariant theta with g(grad omega, grad theta) = 0.

    theta equals the Cauchy arc-length parameter on the data curve and is
    constant along characteristics (integral curves of the horizontal
    projection of grad omega).  The data curve must be transversal to the
    characteristics at the arc-length values of ``arc_grid``; tangency
    raises TransversalityError.
    """
    return TracedInvariant(chart, cauchy, arc_grid, step=step,
                           n_steps=n_steps, min_angle=min_angle)
