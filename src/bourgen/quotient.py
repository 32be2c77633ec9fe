"""Orbit-space geometry: orthogonal invariant pairs, and inversion of the
(x1,x2) -> (omega,theta) map.

The quotient metric on the space of orbits (``chart.quotient_metric``)
is the Schur complement q_ab = g_ab - g_a3 g_b3 / g33 of g33, which is
also the inverse of the upper 2x2 block of the inverse ambient metric.
A transverse invariant theta is either supplied analytically or traced
numerically: theta is constant along the integral curves of the
horizontal projection of grad(omega) (the characteristics of the
defining first-order PDE), and takes arc-length Cauchy data on a curve
transversal to them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .chart import AdaptedChart3, InvariantFunction, as_invariant
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
    ``theta_free`` marks the frames of ``spaces.builtin_frame``, whose
    gradient norms depend on omega alone and whose callables, chart and
    invariant gradients also take arrays: the flag is what ``elementwise``
    tests.  ``build_frame``'s Newton and characteristic frames are
    evaluated one point at a time.
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

    def invert_jacobian(self, w, t):
        """d(x1, x2)/d(omega, theta) at (w, t): the frame's
        ``inverse_jacobian`` when it has one, otherwise the inverse of the
        forward Jacobian [[a, b], [c, d]] = d(omega, theta)/d(x1, x2) from
        the gradients of omega and theta (for arrays, one matrix per
        point)."""
        if self.inverse_jacobian is not None:
            return self.inverse_jacobian(w, t)
        x1, x2 = self.invert(w, t)
        a, b, c, d = np.broadcast_arrays(*self.omega.gradient_at(x1, x2),
                                         *self.theta.gradient_at(x1, x2))
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


# newton_invert: max-norm residual accepted, relative to
# max(1, |target|), and the most iterations
_NEWTON_TOL = 1e-12
_NEWTON_MAXITER = 50


def newton_invert(forward, jacobian, target, seed, trace=None):
    """Damped Newton for forward(x) = target, x and target 2-vectors.

    ``forward`` maps (x1, x2) -> (omega, theta); ``jacobian`` returns the
    2x2 forward Jacobian.  Returns the solution once the max-norm residual
    is within _NEWTON_TOL max(1, |target|); raises NewtonDivergenceError
    with the last residual when _NEWTON_MAXITER iterations do not get it
    there.  When ``trace`` is a list, the max-norm residual after each
    iteration is appended to it (used to observe quadratic convergence).
    """
    x = np.array(seed, dtype=float)
    target = np.asarray(target, dtype=float)
    scale = max(1.0, abs(target[0]), abs(target[1]))
    r = np.asarray(forward(x[0], x[1])) - target
    for _ in range(_NEWTON_MAXITER):
        err = np.max(np.abs(r))
        if err <= _NEWTON_TOL * scale:
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
    if err <= _NEWTON_TOL * scale:
        return x[0], x[1]
    raise NewtonDivergenceError(
        f"chart inversion did not converge to {tuple(target)!r}; "
        f"last residual {err:.3e}", residual=err)


# Smallest |det| of d(omega, theta)/d(x1, x2) relative to the product of
# the gradient norms, and the same floor for the characteristic frame's
# |dx/dtheta| and for the angle between its inverse Jacobian's columns.
_JACOBIAN_FLOOR = 1e-8


def _latest_call_memo(fn):
    """fn(w, t), recalling the value of the latest call when (w, t) is the
    same: a profile right-hand side asks for both gradient norms at one
    (w, t), and the node that it evaluates is then inverted there."""
    latest = ((None, None), None)  # ((w, t), value) in a single tuple

    def memo(w, t):
        nonlocal latest
        key, value = latest
        if key == (w, t):
            return value
        value = fn(w, t)
        latest = ((w, t), value)
        return value
    return memo


def build_frame(chart, theta, rect, *, seed_box=None, seed_counts=(25, 25)):
    """Construct a QuotientFrame, labelled "<chart label>/frame", from an
    invariant theta on a chart.

    For a ``TracedInvariant`` theta the frame is the characteristic frame
    of ``_characteristic_frame``: ``seed_box`` and ``seed_counts`` are
    accepted but not used, and ``seed_box`` may be omitted.

    For any other theta, ``seed_box`` = ((x1_lo, x1_hi), (x2_lo, x2_hi))
    is required (a TypeError names it when omitted).  It samples the orbit
    space on a ``seed_counts`` grid: the seed grid provides Newton starting
    points and the rank check of the forward map.  Gradient norms are
    computed through the pairing of the chart and re-expressed as
    functions of (omega, theta) via the inverse map, which solves each
    (omega, theta) once while it is the latest one asked for.
    """
    from .chart import invariant_pairing  # local import to avoid cycle noise

    label = f"{chart.label}/frame"
    if isinstance(theta, TracedInvariant):
        return _characteristic_frame(chart, theta, rect, label)
    if seed_box is None:
        raise TypeError("build_frame() needs the keyword argument 'seed_box' "
                        "for a theta that is not a TracedInvariant")
    omega = chart.volume_fn()
    theta = as_invariant(theta)

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
                dw = np.array(omega.gradient_at(x1, x2))
                dt = np.array(theta.gradient_at(x1, x2))
                det = dw[0] * dt[1] - dw[1] * dt[0]
                norm = max(np.hypot(*dw) * np.hypot(*dt), 1e-300)
                if abs(det) < _JACOBIAN_FLOOR * norm:
                    raise RankDeficiencyError(
                        f"(omega, theta) Jacobian nearly singular at "
                        f"({x1:.6g}, {x2:.6g}): |det|/scale = {abs(det)/norm:.3e}")
    if not seeds:
        raise DomainError("seed_box contains no domain points")
    seed_arr = np.array(seeds)  # columns: w, t, x1, x2

    def forward(x1, x2):
        return omega(x1, x2), theta(x1, x2)

    def fwd_jac(x1, x2):
        return np.array([omega.gradient_at(x1, x2),
                         theta.gradient_at(x1, x2)])

    @_latest_call_memo
    def invert(w, t):
        d2 = (seed_arr[:, 0] - w) ** 2 + (seed_arr[:, 1] - t) ** 2
        seed = seed_arr[int(np.argmin(d2)), 2:]
        return newton_invert(forward, fwd_jac, (w, t), seed)

    def grad_omega_sq(w, t):
        p = invert(w, t)
        return invariant_pairing(chart, omega, omega, p)

    def grad_theta_sq(w, t):
        p = invert(w, t)
        return invariant_pairing(chart, theta, theta, p)

    return QuotientFrame(
        chart=chart, omega=omega, theta=theta,
        grad_omega_sq=grad_omega_sq, grad_theta_sq=grad_theta_sq,
        invert=invert, rect=rect, label=label)


# Relative step of the characteristic frame's dx/dtheta stencil, near
# eps^(1/3), where the rounding noise of two level traces divided by 2h
# and the O(h^2) error of the central difference balance: on 1000 random
# points of the flat helicoidal frame's test rectangle the largest
# dx/dtheta error was 2.1e-10 at 5e-6, 2.0e-10 at 6e-6, 1.5e-10 at 8e-6
# and 1.3e-10 at 1e-5 (200 points: 3.8e-10 at 1e-6, 3.0e-10 at 2e-5).
_STENCIL_STEP = 1e-5


def _characteristic_frame(chart, traced, rect, label):
    """QuotientFrame of a traced theta, built on the characteristics.

    theta is constant along a characteristic and omega strictly monotone,
    so the point (w, t) is one trace from the Cauchy point at arc length t
    to the level omega = w (``TracedInvariant.level_point``), with a
    one-entry memo.

    The gradient norms come from one stencil of level traces at (w, t)
    and one evaluation of the trace field at its point, memoised together
    for one entry, since a right-hand side asks for both norms at the same
    point.  With h = _STENCIL_STEP max(1, |t|), the stencil traces lo at
    t - h and hi at t + h; dx/dtheta at fixed omega is v = (hi - lo) / 2h,
    and the stencil's point is p = (lo + hi) / 2, the level trace at t up
    to O(h^2).  Within h of an end of the arc range the stencil is
    one-sided, of second order, from the level trace at t and two more at
    t +- h, t +- 2h.  The field at p gives the characteristic velocity a,
    the omega gradient d and the quotient metric q:
    |grad omega|^2 = a . d, and in the orthogonal pair
    q = dw^2 / |grad omega|^2 + dt^2 / |grad theta|^2, so
    |grad theta|^2 = 1 / q(v, v), with q(v, v) = v^T q v; a q(v, v) that
    collapses below _JACOBIAN_FLOOR^2 raises RankDeficiencyError.

    The inverse Jacobian has the columns dx/domega = a / (a . d), from the
    field at the inverted point of (w, t) itself rather than at p, which
    is O(h^2) off it, and dx/dtheta = v; columns within _JACOBIAN_FLOOR of
    parallel raise RankDeficiencyError.  ``integrate_profile`` takes the
    inverted point and the inverse Jacobian at each node right after the
    node's right-hand side, while the memo still holds the node's stencil,
    so a node costs one level trace beyond its right-hand side.
    """
    omega = chart.volume_fn()
    field = traced._field
    length = traced.cauchy.length
    invert = _latest_call_memo(lambda w, t: traced.level_point(w, t))

    @_latest_call_memo
    def stencil(w, t):
        """(v1, v2, |grad omega|^2, q(v, v)) at (w, t), with v = dx/dtheta
        at fixed omega."""
        h = _STENCIL_STEP * max(1.0, abs(t))
        level = traced.level_point
        if t - h < 0.0 or t + h > length:
            p1, p2 = invert(w, t)
            t1, t2 = (t + h, t + 2.0 * h) if t - h < 0.0 else (t - h, t - 2.0 * h)
            (y1, y2), (z1, z2) = level(w, t1), level(w, t2)
            v1 = (4.0 * y1 - 3.0 * p1 - z1) / (t2 - t)
            v2 = (4.0 * y2 - 3.0 * p2 - z2) / (t2 - t)
        else:
            (lo1, lo2), (hi1, hi2) = level(w, t - h), level(w, t + h)
            v1 = (hi1 - lo1) / (2.0 * h)
            v2 = (hi2 - lo2) / (2.0 * h)
            p1, p2 = 0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2)
        a1, a2, d1, d2, _, q11, q12, q22 = field(p1, p2)
        qvv = v1 * (q11 * v1 + 2.0 * q12 * v2) + q22 * v2 * v2
        return v1, v2, a1 * d1 + a2 * d2, qvv

    def grad_omega_sq(w, t):
        return stencil(w, t)[2]

    def grad_theta_sq(w, t):
        qvv = stencil(w, t)[3]
        if not _JACOBIAN_FLOOR ** 2 < qvv < math.inf:
            raise RankDeficiencyError(
                f"{label}: |dx/dtheta|^2 = {qvv:.3e} at fixed omega at "
                f"(omega, theta) = ({w:.6g}, {t:.6g}): neighbouring "
                "characteristics meet")
        return 1.0 / qvv

    def inverse_jacobian(w, t):
        v1, v2, _, _ = stencil(w, t)
        a1, a2, d1, d2, _, _, _, _ = field(*invert(w, t))
        ad = a1 * d1 + a2 * d2
        cross = a1 * v2 - a2 * v1
        scale = math.hypot(a1, a2) * math.hypot(v1, v2)
        if not abs(cross) > _JACOBIAN_FLOOR * scale:
            raise RankDeficiencyError(
                f"{label}: dx/domega and dx/dtheta nearly parallel at "
                f"(omega, theta) = ({w:.6g}, {t:.6g})")
        return np.array([[a1 / ad, v1], [a2 / ad, v2]])

    return QuotientFrame(
        chart=chart, omega=omega, theta=as_invariant(traced),
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
# Smallest |grad omega| that the characteristic field accepts, and the
# smallest angle (radians) between the Cauchy curve and a characteristic
# at the arc-length values of the grid.
_GRAD_FLOOR = 1e-10
_MIN_ANGLE = 1e-3
# RK4 steps of a trace per length of the Cauchy curve
_STEPS_PER_LENGTH = 400.0


def _trace_kernel(chart, omega, grad_floor):
    """The characteristic field of a traced invariant and one RK4 step of
    its flow, as the closures (field, rk4_step), which bind the chart's
    three callables (``domain``, ``metric``, ``d_g33``) once.

    field(x1, x2) returns (a1, a2, d1, d2, w, q11, q12, q22) at (x1, x2):
    the horizontal projection a = q^-1 d of grad(omega), which is the
    characteristic velocity, the gradient d of omega, omega itself
    w = sqrt(g33), and the quotient metric q, the Schur complement
    q_ab = g_ab - g_a3 g_b3 / g33 (q^-1 is the upper block of the inverse
    metric).  It raises DomainError outside the chart domain,
    SingularMetricError where g33 or the metric determinant
    det g = g33 det q is not positive, and DegenerateGradientError where
    |grad omega| is below grad_floor.  The chart is evaluated once per
    point: the arithmetic and messages of ``chart.quotient_metric`` are
    inlined here (a call per point costs a right-hand side about a tenth
    more time), a is the 2x2 solve of q a = d, w is ``volume_at``'s value,
    and the omega gradient d_g33 / (2 w) gives the bits of
    ``omega.gradient_at``; a chart without ``d_g33`` takes
    ``omega.gradient_at`` (central differences).

    rk4_step(x1, x2, a1, a2, h, sign) is one classical RK4 step of the
    flow of sign * field from the point (x1, x2) of floats, where the
    field's velocity is (a1, a2), with the arithmetic
    x + (h/6)(k1 + 2 k2 + 2 k3 + k4), component by component.  The stage
    points fold the sign into h, since (sign h) a rounds as h (sign a)
    does, and the last line sums -a1 - 2 b1 - ... for sign -1, which is
    k1 + 2 k2 + ... to the bit, signed zeros included (a sum of zeros of
    both signs is +0, so -(a1 + 2 b1 + ...) is not): the step is that of
    the stages k = sign a to the bit.  It evaluates the field
    at the three inner stages only: a caller that needs the field at the
    step's end evaluates it there once and passes its velocity on as the
    next step's k1.
    """
    domain = chart.domain
    metric = chart.metric
    d_g33 = chart.d_g33
    label = chart.label
    floor_sq = grad_floor ** 2

    def field(x1, x2):
        if not domain(x1, x2):
            raise DomainError(
                f"characteristic left the chart domain at ({x1:.6g}, {x2:.6g})")
        g11, g12, g13, g22, g23, g33 = metric(x1, x2)
        if g33 <= 0.0:
            raise SingularMetricError(
                f"{label}: g33 = {g33:.3e} at {(x1, x2)!r} is not positive")
        q11 = g11 - g13 * g13 / g33
        q12 = g12 - g13 * g23 / g33
        q22 = g22 - g23 * g23 / g33
        det_q = q11 * q22 - q12 * q12
        det = g33 * det_q
        if not 0.0 < det < math.inf:
            raise SingularMetricError(
                f"{label}: metric determinant {det:.3e} at "
                f"({x1!r}, {x2!r}) is not positive")
        w = math.sqrt(g33)
        if d_g33 is None:
            d1, d2 = omega.gradient_at(x1, x2)
        else:
            e1, e2 = d_g33(x1, x2)
            d1, d2 = e1 / (2.0 * w), e2 / (2.0 * w)
        a1 = (q22 * d1 - q12 * d2) / det_q
        a2 = (q11 * d2 - q12 * d1) / det_q
        if a1 * d1 + a2 * d2 < floor_sq:
            raise DegenerateGradientError(
                f"|grad omega| below {grad_floor:g} at ({x1:.6g}, {x2:.6g})")
        return a1, a2, d1, d2, w, q11, q12, q22

    def rk4_step(x1, x2, a1, a2, h, sign):
        f = sign * h
        g = 0.5 * f
        b1, b2, _, _, _, _, _, _ = field(x1 + g * a1, x2 + g * a2)
        c1, c2, _, _, _, _, _, _ = field(x1 + g * b1, x2 + g * b2)
        e1, e2, _, _, _, _, _, _ = field(x1 + f * c1, x2 + f * c2)
        c = h / 6.0
        if sign > 0.0:
            return (x1 + c * (a1 + 2 * b1 + 2 * c1 + e1),
                    x2 + c * (a2 + 2 * b2 + 2 * c2 + e2))
        return (x1 + c * (-a1 - 2 * b1 - 2 * c1 - e1),
                x2 + c * (-a2 - 2 * b2 - 2 * c2 - e2))

    return field, rk4_step


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
    bits of a per-point trace with a crossing test at every step.  The
    characteristic field ``_field`` and the RK4 step ``_rk4_step`` are
    the closures of ``_trace_kernel``, bound to the chart once, at
    construction.  A trace takes at most ``n_steps`` RK4 steps of
    ``step`` = (length of the Cauchy curve) / 400.  It has no analytic
    gradient: ``as_invariant`` wraps it for pairings and frames, which
    take central differences of its values.
    """

    def __init__(self, chart, cauchy, arc_grid, *, n_steps=400):
        self.chart = chart
        self.cauchy = cauchy
        self.sigmas = np.asarray(arc_grid, dtype=float)
        if self.sigmas.ndim != 1 or len(self.sigmas) < 2:
            raise ValueError("arc_grid must hold at least two arc-length values")
        self.step = cauchy.length / _STEPS_PER_LENGTH
        self.n_steps = int(n_steps)
        self.grad_floor = _GRAD_FLOOR
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
        self._field, self._rk4_step = _trace_kernel(chart, self._omega,
                                                    self.grad_floor)
        self._check_transversality()

    # -- characteristic field ------------------------------------------------

    def _check_transversality(self):
        for sigma in self.sigmas:
            p = self.cauchy.point_at(sigma)
            a = np.array(self._field(*p)[:2])
            t = self.cauchy.tangent_at(sigma)
            sin_angle = abs(_cross2(a, t)) / (np.linalg.norm(a) * np.linalg.norm(t))
            if sin_angle < np.sin(_MIN_ANGLE):
                raise TransversalityError(
                    f"Cauchy curve tangent to a characteristic at arc length "
                    f"{sigma:.6g} (|sin angle| = {sin_angle:.2e})")

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
        field, rk4_step = self._field, self._rk4_step
        for _ in range(self.n_steps):
            a1, a2, _, _, _, _, _, _ = field(x1, x2)
            y1, y2 = rk4_step(x1, x2, a1, a2, h, sign)
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
        lands on the level.  The field at each step's end gives omega for
        the level test and is the next step's k1, so a step evaluates the
        field four times.  Raises DomainError for sigma outside
        [0, length], for a level not reached within n_steps steps and for
        a trace that leaves the domain.
        """
        if not 0.0 <= sigma <= self.cauchy.length:
            raise DomainError(
                f"arc length {sigma:.6g} outside the data curve's range "
                f"[0, {self.cauchy.length:.6g}]")
        x1, x2 = self.cauchy.point_at(sigma).tolist()
        field, rk4_step, step = self._field, self._rk4_step, self.step
        a1, a2, _, _, w_x, _, _, _ = field(x1, x2)
        if w_x == w:
            return x1, x2
        sign = 1.0 if w > w_x else -1.0
        for _ in range(self.n_steps):
            y1, y2 = rk4_step(x1, x2, a1, a2, step, sign)
            b1, b2, _, _, w_y, _, _, _ = field(y1, y2)
            if sign * (w_y - w) >= 0.0:
                return self._land(x1, x2, a1, a2, sign, w, w_x, w_y)
            x1, x2, a1, a2, w_x = y1, y2, b1, b2, w_y
        raise DomainError(
            f"the characteristic from arc length {sigma:.6g} does not reach "
            f"omega = {w:.6g} within {self.n_steps} steps")

    def _land(self, x1, x2, a1, a2, sign, w, w_x, w_y):
        """The RK4 step from (x1, x2), where the field's velocity is
        (a1, a2), whose end lies on the level omega = w, which a full step
        from there reaches (w_x and w_y are omega at the start and at the
        end of the full step).  Newton's method on the step length stays in
        [0, step], where the root is bracketed, and stops within 1e-15 of w
        relative, or, where finite-difference gradients leave omega noisier
        than that, at the end of the step that came closest.  One field
        evaluation at each trial end gives omega there and its rate."""
        step = self.step
        h = step * (w - w_x) / (w_y - w_x)
        tol = 1e-15 * max(1.0, abs(w))
        best = None
        for _ in range(_LAND_MAXITER):
            y1, y2 = self._rk4_step(x1, x2, a1, a2, h, sign)
            b1, b2, d1, d2, w_y, _, _, _ = self._field(y1, y2)
            r = w_y - w
            if best is not None and abs(r) >= abs(best[2]):
                break
            best = (y1, y2, r)
            if abs(r) <= tol:
                break
            # d omega / d h along the flow of sign * field: sign |grad omega|^2
            h = min(max(h - r / (sign * (b1 * d1 + b2 * d2)), 0.0), step)
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


def solve_orthogonal_invariant(chart, cauchy, arc_grid, *, n_steps=400):
    """Trace an invariant theta with g(grad omega, grad theta) = 0.

    theta equals the Cauchy arc-length parameter on the data curve and is
    constant along characteristics (integral curves of the horizontal
    projection of grad omega).  The data curve must be transversal to the
    characteristics at the arc-length values of ``arc_grid``; tangency
    raises TransversalityError.
    """
    return TracedInvariant(chart, cauchy, arc_grid, n_steps=n_steps)
