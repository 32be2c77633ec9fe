"""Orbit-space geometry: orthogonal invariant pairs, and inversion of the
(x1,x2) -> (omega,theta) map.

The quotient metric on the space of orbits (``chart.quotient_metric``)
is the Schur complement q_ab = g_ab - g_a3 g_b3 / g33 of g33, which is
also the inverse of the upper 2x2 block of the inverse ambient metric.
A transverse invariant theta other than a built-in frame's is traced
numerically (``solve_orthogonal_invariant``): theta is constant along the
integral curves of the horizontal projection of grad(omega) (the
characteristics of the defining first-order PDE), and takes arc-length
Cauchy data on a curve transversal to them.  ``build_frame`` builds the
characteristic frame over such a theta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .chart import AdaptedChart3, InvariantFunction, as_invariant
from .errors import (
    BourgenError,
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
    gradient norms depend on omega alone and whose callables and
    invariant gradients also take arrays.  The characteristic frame of
    ``build_frame`` is evaluated one point at a time.  Every chart's
    ``metric`` and ``d_g33`` take arrays, whatever the frame.
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

    No frame of the library inverts by Newton's method: it stays for the
    Newton frame that the tests keep as a reference for the characteristic
    frame (``tests/newton_frame.py``), and because ``perfbench``'s tracer
    wraps it by name.
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


# The characteristic frame's floors: the smallest |dx/dtheta| at fixed
# omega, in the quotient metric, and the smallest sine of the angle
# between the columns of its inverse Jacobian.
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


# Relative step of the characteristic frame's dx/dtheta stencil, near
# eps^(1/3), where the rounding noise of two level traces divided by 2h
# and the O(h^2) error of the central difference balance: on 1000 random
# points of the flat helicoidal frame's test rectangle the largest
# dx/dtheta error was 2.1e-10 at 5e-6, 2.0e-10 at 6e-6, 1.5e-10 at 8e-6
# and 1.3e-10 at 1e-5 (200 points: 3.8e-10 at 1e-6, 3.0e-10 at 2e-5).
_STENCIL_STEP = 1e-5


def build_frame(chart, theta, rect, *, seed_box=None, seed_counts=(25, 25)):
    """The characteristic frame of a traced theta, a QuotientFrame
    labelled "<chart label>/frame" and built on the characteristics.

    ``theta`` must be a ``TracedInvariant``; any other theta is a
    TypeError that names its type: an analytic theta on a chart is traced
    with ``solve_orthogonal_invariant`` first.  ``seed_box`` and
    ``seed_counts`` are accepted and not used (the frame traces no seed
    grid); ``perfbench``'s traced_rhs workload still passes them.

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
    if not isinstance(theta, TracedInvariant):
        raise TypeError(f"build_frame() needs a TracedInvariant theta, not "
                        f"{type(theta).__name__}: trace it with "
                        "solve_orthogonal_invariant")
    label = f"{chart.label}/frame"
    omega = chart.volume_fn()
    field = theta._field
    length = theta.cauchy.length
    invert = _latest_call_memo(lambda w, t: theta.level_point(w, t))

    @_latest_call_memo
    def stencil(w, t):
        """(v1, v2, |grad omega|^2, q(v, v)) at (w, t), with v = dx/dtheta
        at fixed omega."""
        h = _STENCIL_STEP * max(1.0, abs(t))
        level = theta.level_point
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
        chart=chart, omega=omega, theta=as_invariant(theta),
        grad_omega_sq=grad_omega_sq, grad_theta_sq=grad_theta_sq,
        invert=invert, rect=rect, label=label,
        inverse_jacobian=inverse_jacobian)


# ---------------------------------------------------------------------------
# characteristic-traced invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CauchyCurve:
    """Transversal data curve in the orbit space, parametrized by arc
    length on [0, length]: ``point(sigma)`` gives the point as a pair of
    numbers, and ``point_at`` as an array."""

    point: Callable[[float], tuple]
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
    """Arc-length parametrized straight Cauchy segment from p0 to p1, in
    the orbit space.  Its ``point`` returns two floats for a float sigma,
    with the operations of p0 + sigma * direction on arrays, in the same
    order: a level trace starts from them with no array call."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    length = float(np.linalg.norm(p1 - p0))
    if length == 0.0:
        raise ValueError("degenerate segment")
    direction = (p1 - p0) / length
    (x1, x2), (u1, u2) = p0.tolist(), direction.tolist()
    return CauchyCurve(point=lambda sigma: (x1 + sigma * u1, x2 + sigma * u2),
                       length=length,
                       tangent=lambda sigma: direction)


# The landing of a level trace (``TracedInvariant._land``): at most
# _LAND_MAXITER Newton iterations on the length of its partial step.  The
# first is the partial RK4 step from the step's start at the inverse cubic
# Hermite guess (``_hermite_guess``), which is off by O(step^4) in the
# flow time; the loop ends at the first iterate within tolerance, no
# closer than the one before, or left where the one before was (not
# evaluated again).  A correction dh of the length is a short
# step along the flow from the latest iterate, which lies on the trace:
# - where |dh| > _LAND_EULER step, a midpoint step (2 field evaluations,
#   local error O(dh^3)), whose length is solved again with omega's rate
#   at its midpoint: omega gains dh times that rate over the step up to
#   O(dh^3), so the iterate lands within O(dh^3) where a Newton step
#   leaves O(dh^2);
# - otherwise an Euler step (1 evaluation, error O(dh^2), at most about
#   1e-16 step^2: rounding).
# Where |dh| > _LAND_RESTEP step the correction re-steps from the step's
# start instead, as near an edge of the domain after a halved step, where
# the guess clamps to the full step while the level lies at a third of
# it: short steps over such a length left level points of the kappa < 0
# chart of
# test_ray_chart_whose_traces_leave_the_domain_takes_the_longest_candidate
# 1.3e-13 off their rays.  On the 300 level traces of the right-hand sides
# of the traced_rhs benchmark (seeds 1-10) the guess lands within 1.5e-6
# relative (median; at most 7.4e-6) and one midpoint correction within
# 3.3e-16, so a landing makes 6 field evaluations where 2.9 RK4 steps made
# 11.8, and a right-hand side 30.9 where it made 42.4 (32.8 with Newton's
# length for the midpoint step, which then needs an Euler step as well).
# Over 200 random levels on each of the flat, BCV, kappa < 0, rotational
# and curved charts of the tests, level points moved from those of RK4
# re-steps by at most 4.7e-15 relative, about as far as those lie from a
# tracer at L/1600 (4.5e-15), with these thresholds and with
# (1e-1, 1e-7) and (1e-2, 1e-9) alike.
_LAND_MAXITER = 20
_LAND_RESTEP = 1e-3
_LAND_EULER = 1e-8
# Smallest |grad omega| that the characteristic field accepts, and the
# smallest angle (radians) between the Cauchy curve and a characteristic
# at the arc-length values of the grid.
_GRAD_FLOOR = 1e-10
_MIN_ANGLE = 1e-3
# Trace steps per length L of the Cauchy curve.  ``step`` = L/400 is the
# unit of the level step below, and n_steps of it the least reach of every
# trace in flow time.
_STEPS_PER_LENGTH = 400.0
# ``value``'s root search: the most secant steps, and the largest distance
# from x, relative to max(1, |x|), of a root's level point.  A root there
# is x up to the level trace's rounding; a root whose level point is far
# off is where the level curve meets the line through x along the flow a
# second time.
_ROOT_MAXITER = 60
_ROOT_GAP = 1e-8
# Level traces (``level_point`` and its landing step) take RK4 steps of
# a multiple of the trace step, and at most ceil(n_steps / multiple) of
# them, the flow time of n_steps trace steps.  The characteristic frame
# resolves no finer than the 1e-10 noise of its dx/dtheta stencil
# (_STENCIL_STEP).  On 1000 random points of the curved chart of
# tests/test_characteristic_frame.py (g12 = 0.1 x1, g33 with a 0.3 x1 x2
# term, rect omega in [1.75, 2], theta in [0.05, 0.95]), the largest
# differences from the same tracer at L/1600 were
#   level step  point    |grad omega|^2  |grad theta|^2 (rel)  dx/dtheta
#   L/400       2.6e-14  3.0e-15         4.9e-10               3.4e-10
#   L/200       3.8e-13  5.2e-14         5.4e-10               3.2e-10
#   L/100       6.1e-12  8.3e-13         4.5e-10               2.8e-10
#   L/50        9.6e-11  1.3e-11         1.4e-9                9.1e-10
#   L/25        1.5e-9   2.1e-10         1.8e-8                1.2e-8
#   L/12.5      2.2e-8   2.9e-9          3.3e-7                1.9e-7
#   L/6.25      2.9e-7   3.9e-8          3.9e-6                2.4e-6
# so L/100 (_LEVEL_STEP_FLOOR) is the largest step that is safe on every
# chart.  Where the characteristics are straight, as the rays of the flat
# helicoidal and BCV charts and the lines of the rotational chart, a
# level point at L/6.25 (_LEVEL_STEP) still meets the trace at L/1600 to
# 8.6e-15, so each invariant measures its own step: it takes L/6.25
# where its probe traces pass (``TracedInvariant._level_ratio``), and the
# floor otherwise.  The probes are the traces, forward and backward over
# the full reach, from at most _PROBE_COUNT arc values of the grid, each
# at L/6.25 and at L/12.5 (Richardson's estimate of the step error,
# ``_probe_passes``).  A probe trace stops at its first BourgenError and
# before its first step that does not move omega along the flow, as a
# level trace fails there.  A pair passes when both stop at the same flow
# time, or neither stops, or both stop with the fine trace half a step
# further (a trace that leaves the domain), and at every common flow time
# the part of the difference across the fine trace's flow is within
# _PROBE_TOL max(1, |x|).
# The part along the flow is a phase error in the flow time (up to 1.2e-6
# between L/6.25 and L/12.5 on the flat chart), which the landing step
# takes out: level points there at L/6.25 are within 2.6e-15 of those at
# L/1600.  A step longer than the floor that fails, as one that runs over
# an edge of the domain, is halved (``level_point``), so that a longer
# step reaches every level that a shorter one would.  No step between the
# two is tried: with L/12.5, L/25 and L/50 as further candidates, every
# invariant that the tests build (under their ci profile) still took
# L/6.25 or the floor, and a chart that fails L/6.25, as the curved one
# above, built with 804 field evaluations instead of 97.  No longer step
# is tried either: at L/3.125 a right-hand side of the traced_rhs
# benchmark would make 28.7 field evaluations instead of 30.9 (seeds
# 1-10; 41.7 instead of 42.4 when the landing re-stepped from the step's
# start), a saving not yet weighed against that step's error on other
# charts.
_LEVEL_STEP = 64
_LEVEL_STEP_FLOOR = 4
_PROBE_COUNT = 16
_PROBE_TOL = 1e-11


def _trace_kernel(chart):
    """The characteristic field of a traced invariant and one RK4 step of
    its flow, as the closures (field, rk4_step), which bind the chart's
    three callables (``domain``, ``metric``, ``d_g33``) once.

    field(x1, x2) returns (a1, a2, d1, d2, w, q11, q12, q22) at (x1, x2):
    the horizontal projection a = q^-1 d of grad(omega), which is the
    characteristic velocity, the gradient d of omega, omega itself
    w = sqrt(g33), and the quotient metric q, the Schur complement
    q_ab = g_ab - g_a3 g_b3 / g33 (q^-1 is the upper block of the inverse
    metric).  It raises DomainError outside the chart domain and where
    the chart's ``domain``, ``metric`` or ``d_g33`` raises an
    ArithmeticError or ValueError (a compiled ``exp`` that overflows, say),
    SingularMetricError where g33 or the metric determinant
    det g = g33 det q is not positive, and DegenerateGradientError where
    |grad omega| is below _GRAD_FLOOR.  The chart is evaluated once per
    point: the arithmetic and messages of ``chart.quotient_metric`` are
    inlined here (a call per point costs a right-hand side about a tenth
    more time), a is the 2x2 solve of q a = d, w is ``volume_at``'s value,
    and the omega gradient d = d_g33 / (2 w) gives the bits of
    ``chart.volume_fn().gradient_at``.

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
    floor_sq = _GRAD_FLOOR ** 2

    def field(x1, x2):
        # in this block only the chart's callables can raise an
        # ArithmeticError or ValueError: float products do not, and
        # g33 > 0 is checked before it divides
        try:
            if not domain(x1, x2):
                raise DomainError(f"characteristic left the chart domain at "
                                  f"({x1:.6g}, {x2:.6g})")
            g11, g12, g13, g22, g23, g33 = metric(x1, x2)
            if g33 <= 0.0:
                raise SingularMetricError(
                    f"{label}: g33 = {g33:.3e} at ({x1:.6g}, {x2:.6g}) is "
                    f"not positive")
            q11 = g11 - g13 * g13 / g33
            q12 = g12 - g13 * g23 / g33
            q22 = g22 - g23 * g23 / g33
            det_q = q11 * q22 - q12 * q12
            det = g33 * det_q
            if not 0.0 < det < math.inf:
                raise SingularMetricError(
                    f"{label}: metric determinant {det:.3e} at "
                    f"({x1:.6g}, {x2:.6g}) is not positive")
            w = math.sqrt(g33)
            e1, e2 = d_g33(x1, x2)
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"{label}: chart evaluation failed at "
                              f"({x1:.6g}, {x2:.6g}): {exc!r}") from exc
        d1, d2 = e1 / (2.0 * w), e2 / (2.0 * w)
        a1 = (q22 * d1 - q12 * d2) / det_q
        a2 = (q11 * d2 - q12 * d1) / det_q
        if a1 * d1 + a2 * d2 < floor_sq:
            raise DegenerateGradientError(
                f"|grad omega| below {_GRAD_FLOOR:g} at ({x1:.6g}, {x2:.6g})")
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


def _hermite_guess(step, sign, w, w_x, w_y, r_x, r_y):
    """The flow time, in [0, step], at which omega reaches w within a
    step of the flow of sign * field from omega = w_x to w_y, from the
    inverse cubic Hermite interpolant of the flow time as a function of
    omega over the step (Hairer, Norsett and Wanner, Solving ODE I, II.6).
    In t = (w - w_x) / (w_y - w_x) and the step's fraction u, it meets
    u = 0 and 1 at the ends with the slopes du/dt = m_x and m_y there,
    m = (w_y - w_x) / (sign step r) from omega's rate sign r = sign a . d
    along the flow:
        u = t^2 (3 - 2 t) + t (1 - t) ((1 - t) m_x - t m_y)."""
    dw = w_y - w_x
    t = (w - w_x) / dw
    m_x = dw / (sign * step * r_x)
    m_y = dw / (sign * step * r_y)
    s = 1.0 - t
    u = t * t * (3.0 - 2.0 * t) + t * s * (s * m_x - t * m_y)
    return min(max(step * u, 0.0), step)


class TracedInvariant:
    """Invariant function produced by the method of characteristics.

    The value at x is the arc-length parameter of the Cauchy curve at the
    foot of the characteristic through x: characteristics are integral
    curves of the horizontal projection of grad(omega), along which every
    solution of the defining PDE is constant, and omega grows along the
    flow (d omega / d tau = |grad omega|^2).  Every evaluation is a level
    trace (``level_point``): the trace from the Cauchy point at arc length
    sigma to the level omega = w.  ``value`` inverts it, finding the sigma
    whose level point at w = omega(x) is x (``_level_root``), so values
    are smooth in x up to integrator error, and agree with the
    characteristic frame's inversion to rounding.

    The characteristic field ``_field`` and the RK4 step ``_rk4_step``
    are the closures of ``_trace_kernel``, bound to the chart once, at
    construction.  A level trace takes steps of ``level_step`` = k
    ``step``, ``step`` = (length of the Cauchy curve) / 400, at most
    ``level_n_steps`` = ceil(n_steps / k) of them, so that it reaches at
    least as far in flow time as n_steps steps of ``step``; k is 64 where
    the probes of ``_level_ratio`` pass, and 4 otherwise (the block
    comment of ``_LEVEL_STEP`` records why).  It has no analytic
    gradient: ``as_invariant`` wraps it for pairings, which take central
    differences of its values (the characteristic frame differences its
    level traces instead).
    """

    def __init__(self, chart, cauchy, arc_grid, *, n_steps=400):
        self.chart = chart
        self.cauchy = cauchy
        self.sigmas = np.asarray(arc_grid, dtype=float)
        if self.sigmas.ndim != 1 or len(self.sigmas) < 2:
            raise ValueError("arc_grid must hold at least two arc-length values")
        self.step = cauchy.length / _STEPS_PER_LENGTH
        self.n_steps = int(n_steps)
        # the arc values that ``value`` walks, the grid's within the range
        # and both ends, with their Cauchy points
        inner = {s for s in self.sigmas.tolist() if 0.0 < s < cauchy.length}
        self._nodes = [0.0, *sorted(inner), cauchy.length]
        self._node_pts = np.array([cauchy.point_at(s) for s in self._nodes])
        self._field, self._rk4_step = _trace_kernel(chart)
        self._turn = self._check_transversality()
        ratio = self._level_ratio()
        self.level_step = ratio * self.step
        self.level_n_steps = math.ceil(self.n_steps / ratio)

    # -- characteristic field ------------------------------------------------

    def _check_transversality(self):
        """Raise TransversalityError where the Cauchy curve meets a
        characteristic at less than _MIN_ANGLE at a grid value; returns the
        sign of a x tangent at the first one (``value`` walks by it)."""
        turn = None
        for sigma in self.sigmas:
            a1, a2 = self._field(*self.cauchy.point_at(sigma))[:2]
            t1, t2 = self.cauchy.tangent_at(sigma)
            cross = a1 * t2 - a2 * t1
            sin_angle = abs(cross) / (math.hypot(a1, a2) * math.hypot(t1, t2))
            if sin_angle < np.sin(_MIN_ANGLE):
                raise TransversalityError(
                    f"Cauchy curve tangent to a characteristic at arc length "
                    f"{sigma:.6g} (|sin angle| = {sin_angle:.2e})")
            turn = turn or math.copysign(1.0, cross)
        return turn

    # -- level step -----------------------------------------------------------

    def _level_ratio(self):
        """The multiple of ``step`` that level traces take: _LEVEL_STEP
        where its probes all pass, else _LEVEL_STEP_FLOOR.  The probes
        start at most _PROBE_COUNT arc values, evenly spread over the grid
        with both ends, and run both ways; the first that fails ends the
        measurement.  Every chart is probed: its field takes omega's
        gradient from the chart's exact ``d_g33``, so the probes differ by
        the step's error and rounding alone."""
        # indices at least one apart, so rounding keeps them distinct
        # (np.unique is not needed, and its first call imports numpy.ma)
        count = min(_PROBE_COUNT, len(self.sigmas))
        picks = np.linspace(0, len(self.sigmas) - 1, count).round().astype(int)
        h, n = _LEVEL_STEP * self.step, math.ceil(self.n_steps / _LEVEL_STEP)
        starts = [self.cauchy.point_at(s).tolist() for s in self.sigmas[picks]]
        if all(self._probe_passes(x1, x2, h, n, sign)
               for x1, x2 in starts for sign in (1.0, -1.0)):
            return _LEVEL_STEP
        return _LEVEL_STEP_FLOOR

    def _probe_passes(self, x1, x2, h, n, sign):
        """Whether the traces of n steps of h and of 2n steps of h/2 from
        (x1, x2) stop at the same flow time, or neither stops, or both
        stop with the fine trace one half step further, as where a trace
        leaves the domain, and agree across the flow to
        _PROBE_TOL max(1, |x|) at every common flow time.  The part of
        coarse - fine across the fine trace's velocity b is
        |d1 b2 - d2 b1| / |b|."""
        coarse = self._probe_trace(x1, x2, h, n, sign)
        fine = self._probe_trace(x1, x2, 0.5 * h, 2 * n, sign)
        # fine steps beyond twice the coarse ones: 1 only where both stop
        if len(fine) - 1 - 2 * (len(coarse) - 1) not in (0, 1):
            return False
        for (c1, c2, _, _), (f1, f2, b1, b2) in zip(coarse, fine[::2]):
            cross = abs((c1 - f1) * b2 - (c2 - f2) * b1) / math.hypot(b1, b2)
            if not cross <= _PROBE_TOL * max(1.0, math.hypot(f1, f2)):
                return False
        return True

    def _probe_trace(self, x1, x2, h, n, sign):
        """The points of a trace of at most n RK4 steps of h from (x1, x2),
        each with the field's velocity there, as tuples (x1, x2, a1, a2):
        the start and the end of each step, up to the first BourgenError
        and up to the first step that does not move omega in the flow's
        direction (``level_point``'s wrong-way rule)."""
        field, rk4_step = self._field, self._rk4_step
        points = []
        try:
            a1, a2, _, _, w_x, _, _, _ = field(x1, x2)
            points.append((x1, x2, a1, a2))
            for _ in range(n):
                x1, x2 = rk4_step(x1, x2, a1, a2, h, sign)
                a1, a2, _, _, w_y, _, _, _ = field(x1, x2)
                if sign * (w_y - w_x) <= 0.0:
                    break
                points.append((x1, x2, a1, a2))
                w_x = w_y
        except BourgenError:
            pass
        return points

    # -- level traces and their inverse --------------------------------------

    def level_point(self, w, sigma):
        """The point where the characteristic through the Cauchy point at
        arc length sigma meets the level omega = w.

        omega is strictly monotone along the flow (d omega / d tau =
        |grad omega|^2), so the trace runs from the data point in the
        direction sign(w - omega) until omega passes w, and ``_land``
        finds the point on the level within the last step by Newton's
        method in the flow time.  The steps are of ``level_step``, whose
        error the frame's stencil does not resolve.  The field at each
        step's end gives omega for the level test and is the next step's
        k1, so a step evaluates the field four times.  A step fails where
        the field fails at its stages or at its end (a BourgenError, as
        where it runs over an edge of the domain) and where it does not
        move omega toward w (the flow must, so the step is too long for
        the field there: a DomainError).  A failed step is halved, and the
        trace goes on from where it was at the halved step, down to the
        floor step _LEVEL_STEP_FLOOR ``step``: a longer step reaches every
        level that a shorter one reaches.  A step of the floor, or
        shorter, that fails raises its error, as the DomainError of a
        trace that leaves the domain.  Raises DomainError as well for
        sigma outside [0, length] and for a level not reached within the
        flow time of ``level_n_steps`` steps (that of at least n_steps
        trace steps; the message names it in trace steps).
        """
        if not 0.0 <= sigma <= self.cauchy.length:
            raise DomainError(
                f"arc length {sigma:.6g} outside the data curve's range "
                f"[0, {self.cauchy.length:.6g}]")
        x1, x2 = self.cauchy.point(sigma)
        x1, x2 = float(x1), float(x2)
        field, rk4_step = self._field, self._rk4_step
        a1, a2, d1, d2, w_x, _, _, _ = field(x1, x2)
        if w_x == w:
            return x1, x2
        sign = 1.0 if w > w_x else -1.0
        step, left = self.level_step, self.level_n_steps
        floor = _LEVEL_STEP_FLOOR * self.step
        while left:
            try:
                y1, y2 = rk4_step(x1, x2, a1, a2, step, sign)
                b1, b2, e1, e2, w_y, _, _, _ = field(y1, y2)
                if sign * (w_y - w_x) <= 0.0:
                    raise DomainError(
                        f"the level step {step:.6g} from ({x1:.6g}, "
                        f"{x2:.6g}) does not move omega = {w_x:.6g} toward "
                        f"{w:.6g}")
            except BourgenError:
                if step <= floor:
                    raise
                # the rest of the reach at half the step, as near an edge
                # of the domain that the step runs over
                step, left = 0.5 * step, 2 * left
                continue
            if sign * (w_y - w) >= 0.0:
                return self._land(x1, x2, a1, a2, sign, w, step, w_x, w_y,
                                  a1 * d1 + a2 * d2, b1 * e1 + b2 * e2)
            x1, x2, a1, a2, d1, d2, w_x = y1, y2, b1, b2, e1, e2, w_y
            left -= 1
        reach = self.level_n_steps * self.level_step / self.step
        raise DomainError(
            f"the characteristic from arc length {sigma:.6g} does not reach "
            f"omega = {w:.6g} within the flow time of {reach:g} trace steps "
            f"({self.level_n_steps} level steps)")

    def _land(self, x1, x2, a1, a2, sign, w, step, w_x, w_y, r_x, r_y):
        """The point of the trace from (x1, x2), where the field's velocity
        is (a1, a2), on the level omega = w, which a full RK4 step of
        ``step`` from there reaches: w_x and w_y are omega at the start and
        at the end of the full step, and r_x and r_y are
        |grad omega|^2 = a . d there.  Newton's method on the length h of
        the partial step starts from the inverse cubic Hermite guess of
        ``_hermite_guess``, with the RK4 step of that length, stays in
        [0, step], where the root is bracketed, and stops within 1e-15 of
        w relative; where omega is too steep for that, it stops at the
        iterate that came closest, once an iterate comes no closer or a
        correction leaves the point where it was (a correction below its
        rounding), which is not evaluated again.  Each correction dh of h
        is a short step along the flow from the latest iterate, a midpoint
        step whose length is solved again with the rate at its midpoint
        or, below _LAND_EULER step, an Euler step, and an RK4 step of the
        new h from (x1, x2) where |dh| exceeds _LAND_RESTEP step (the
        block comment of _LAND_MAXITER has the measurements).  One field
        evaluation at each iterate gives omega there, its rate and the
        velocity that a short step starts with."""
        field = self._field
        h = _hermite_guess(step, sign, w, w_x, w_y, r_x, r_y)
        tol = 1e-15 * max(1.0, abs(w))
        y1, y2 = self._rk4_step(x1, x2, a1, a2, h, sign)
        best = None
        for _ in range(_LAND_MAXITER):
            b1, b2, d1, d2, w_y, _, _, _ = field(y1, y2)
            r = w_y - w
            if best is not None and abs(r) >= abs(best[2]):
                break
            best = (y1, y2, r)
            if abs(r) <= tol:
                break
            # d omega / d h along the flow of sign * field: sign |grad omega|^2
            last = h
            h = min(max(h - r / (sign * (b1 * d1 + b2 * d2)), 0.0), step)
            f = sign * (h - last)  # the correction, as flow time of the field
            if abs(f) > _LAND_RESTEP * step:
                y1, y2 = self._rk4_step(x1, x2, a1, a2, h, sign)
            elif abs(f) > _LAND_EULER * step:
                g = 0.5 * f
                c1, c2, e1, e2, _, _, _, _ = field(y1 + g * b1, y2 + g * b2)
                # omega gains f (c . e) over the step, up to O(f^3): the
                # length again, with the rate at the midpoint
                h = min(max(last - r / (sign * (c1 * e1 + c2 * e2)), 0.0), step)
                f = sign * (h - last)
                y1, y2 = y1 + f * c1, y2 + f * c2
            else:
                y1, y2 = y1 + f * b1, y2 + f * b2
            if (y1, y2) == best[:2]:
                break  # the correction is below the point's rounding
        return best[0], best[1]

    def __call__(self, x1, x2):
        return self.value(x1, x2)

    def value(self, x1, x2):
        """theta at (x1, x2): the arc length sigma whose level point at
        w = omega(x1, x2) is (x1, x2), found by ``_level_root``.  Raises
        the "outside the swept region" DomainError where there is none: x
        outside the domain, no node's level trace reaching w, no sign
        change of the offset over the walk, a secant point whose level
        trace fails, or a root whose level point is not x."""
        try:
            sigma = self._level_root(x1, x2)
        except (DomainError, DegenerateGradientError):
            sigma = None
        if sigma is None:
            raise DomainError(
                f"point ({x1:.6g}, {x2:.6g}) is outside the swept region of "
                "the characteristic grid")
        return sigma

    def _level_root(self, x1, x2):
        """The root sigma of the offset f(sigma) = a x (p(sigma) - x) of
        the level point p(sigma) = level_point(w, sigma), w = omega(x),
        across the characteristic velocity a at x, or None.

        f grows with sigma when ``_turn`` is +1 and falls when it is -1:
        the flow keeps the orientation of (a, dp/dsigma) that the Cauchy
        curve has.  The walk starts at the node of ``_nodes`` nearest x
        whose level trace reaches w and moves one node at a time toward
        the sign change that f there points to; running off either end
        means no root.  Past a node whose trace fails, it halves the gap
        to that node instead, until f changes sign or the gap closes.
        Illinois' secant then refines the bracket until f is 0 or the
        secant point is no longer strictly inside.  The level curve can
        meet the line through x along a again, far from x, so a root whose
        level point lies more than _ROOT_GAP max(1, |x|) from x is not
        taken."""
        a1, a2, _, _, w, _, _, _ = self._field(x1, x2)

        def offset(sigma):
            p1, p2 = self.level_point(w, sigma)
            return sigma, a1 * (p2 - x2) - a2 * (p1 - x1), p1, p2

        d = self._node_pts - (x1, x2)
        for j in np.argsort(np.einsum("ij,ij->i", d, d)).tolist():
            try:
                s = t = offset(self._nodes[j])
                break
            except (DomainError, DegenerateGradientError):
                pass
        else:
            return None
        step = -1 if t[1] * self._turn > 0.0 else 1
        fail = None  # the nearest arc length beyond t whose trace failed
        while s[1] * t[1] > 0.0:
            if fail is None:
                j += step
                if not 0 <= j < len(self._nodes):
                    return None
                sigma = self._nodes[j]
            else:
                sigma = 0.5 * (t[0] + fail)
                if sigma in (t[0], fail):
                    return None
            try:
                s, t = t, offset(sigma)
            except (DomainError, DegenerateGradientError):
                fail = sigma
        # Illinois: the f of a bracket end kept twice in a row is halved
        fs, ft, side = s[1], t[1], 0
        for _ in range(_ROOT_MAXITER):
            if fs == 0.0 or ft == 0.0:
                break
            sigma = (fs * t[0] - ft * s[0]) / (fs - ft)
            if not min(s[0], t[0]) < sigma < max(s[0], t[0]):
                break
            r = offset(sigma)
            if (r[1] > 0.0) == (t[1] > 0.0):
                t, ft = r, r[1]
                if side == -1:
                    fs *= 0.5
                side = -1
            else:
                s, fs = r, r[1]
                if side == 1:
                    ft *= 0.5
                side = 1
        sigma, _, p1, p2 = min(s, t, key=lambda r: abs(r[1]))
        if math.hypot(p1 - x1, p2 - x2) > _ROOT_GAP * max(1.0, math.hypot(x1, x2)):
            return None
        return sigma


def solve_orthogonal_invariant(chart, cauchy, arc_grid, *, n_steps=400):
    """Trace an invariant theta with g(grad omega, grad theta) = 0.

    theta equals the Cauchy arc-length parameter on the data curve and is
    constant along characteristics (integral curves of the horizontal
    projection of grad omega).  The data curve must be transversal to the
    characteristics at the arc-length values of ``arc_grid``; tangency
    raises TransversalityError.
    """
    return TracedInvariant(chart, cauchy, arc_grid, n_steps=n_steps)
