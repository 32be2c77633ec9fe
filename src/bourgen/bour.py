"""Generation of the one-parameter family of isometric invariant surfaces.

Given the generatrix U(s) of the target metric ds^2 + U(s)^2 dt^2 and a
parameter m > 0, the orbit-space profile is fixed by
    omega(s) = m U(s),
    theta'(s) = eps * |grad theta| sqrt(|grad omega|^2 - m^2 U'(s)^2) / |grad omega|,
with both gradient norms evaluated at (m U(s), theta(s)).  The branch
eps = +1 matches the positive sign of the closed-form screw quadratures.
The two signs printed in the source relations (one on m U, one on the
normal coefficient) collapse to this single branch: omega and U are
positive, so m is normalized positive, and the remaining sign is eps.

The member map is
    psi_m(s, t) = (x1(s), x2(s), t/m + V(s)),
    V(s) = -sum_i integral of x_i'(s) g_i3(x1, x2) / (m^2 U^2) ds,
anchored so V and theta take their data at the anchor sample; the
induced metric is ds^2 + U(s)^2 dt^2 by construction.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import _documents, spaces
from ._documents import NUMBER
from ._numerics import (
    RADICAND_CLAMP,
    all_close,
    cumulative_simpson_anchored,
    distinct_values,
    require_s_in_range,
    square,
)
from ._splines import HermiteSpline
from ._text import write_json
from .chart import quotient_metric
from .errors import (
    ConfigError,
    DomainViolationError,
    GridMismatchError,
    NonConstantVolumeError,
    ParseError,
    RadicandNegativeError,
    RectExitError,
    StepTooLargeError,
)
from .natural import GeneratrixMetric, LiftedCurve

# the most steps of a profile grid: some 8 MB per node array, refused
# before any array is built
_MAX_STEPS = 1_000_000
# feasible_s_range: the samples of its scan, and how many integrator steps
# a cut end is pulled inward from the radicand zero
_SCAN_SAMPLES = 2001
_PULLBACK_STEPS = 20


@dataclass(frozen=True)
class BourParams:
    """Parameters of one family member integration."""

    m: float
    s_range: tuple
    step: float
    epsilon: int = 1
    anchor: Optional[float] = None

    def __post_init__(self):
        if not self.m > 0.0:
            raise ConfigError("m must be positive (the sign of omega = m U is "
                              "absorbed: omega and U are positive)")
        if self.epsilon not in (1, -1):
            raise ConfigError("epsilon must be +1 or -1")
        s0, s1 = self.s_range
        if not s1 > s0:
            raise ConfigError("empty s_range")
        if not self.step > 0.0:
            raise ConfigError("step must be positive")
        if self.step > (s1 - s0) / 10.0:
            raise ConfigError("step must be at most a tenth of the range length")
        if (s1 - s0) / self.step > _MAX_STEPS:
            raise ConfigError(f"step {self.step!r} takes more than "
                              f"{_MAX_STEPS} steps across s_range")
        if self.anchor is not None and not (s0 <= self.anchor <= s1):
            raise ConfigError("anchor must lie inside s_range")


def ode_rhs(s, theta, U, params, frame):
    """theta'(s) of the profile equation at (s, theta).

    Raises RadicandNegativeError when the target metric is not realizable
    at this m along this s; grazing-zero radicands (within RADICAND_CLAMP
    of zero) are clamped to zero.
    """
    Us, dUs = U.table(s)  # one dual call of an expression generatrix
    w = params.m * Us
    frame.require_in_rect(w, theta)
    go = frame.grad_omega_sq(w, theta)
    gt = frame.grad_theta_sq(w, theta)
    rad = go - (params.m * dUs) ** 2
    if rad <= -RADICAND_CLAMP:
        raise RadicandNegativeError(
            f"|grad omega|^2 - m^2 U'^2 = {rad:.3e} < 0 at s = {s:.6g}: "
            f"the metric is not realizable at m = {params.m:g} here",
            s=s, radicand=rad)
    if abs(rad) < RADICAND_CLAMP:
        rad = 0.0
    return (params.epsilon * frame.branch_sign
            * math.sqrt(gt) * math.sqrt(rad) / math.sqrt(go))


@dataclass(frozen=True)
class ProfileCurve:
    """Arc-length samples of the orbit-space profile of one member.

    ``x1p`` and ``x2p`` are the position derivatives x1'(s) and x2'(s) at
    the nodes: d(x1, x2)/d(omega, theta) applied to (omega', theta'), with
    omega' = m U'(s).
    """

    s: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x1p: np.ndarray
    x2p: np.ndarray
    omega: np.ndarray
    theta: np.ndarray
    theta_prime: np.ndarray
    frame: object
    U: GeneratrixMetric
    anchor_index: int


def _stage_rhs(s, theta, U, params, frame):
    """rhs for integrator stage points: rectangle exits become
    StepTooLargeError because the accepted nodes are inside."""
    try:
        return ode_rhs(s, theta, U, params, frame)
    except RectExitError as exc:
        raise StepTooLargeError(
            f"integrator stage left the rectangle near s = {s:.6g}; "
            f"reduce the step ({exc})") from exc


def integrate_profile(U, params, frame, theta0=0.0):
    """Integrate the profile ODE with classical RK4 of fixed step
    ``params.step`` and lift the path to the orbit space.

    theta takes the value theta0 at the anchor (default: the lower end of
    s_range); integration sweeps outward in both directions, on the grid
    of the anchor plus whole steps inside s_range.  omega(s) is
    imposed exactly as m U(s); omega and omega' at the nodes come from one
    ``U.table`` call: the right-hand sides' table for a theta-free frame,
    one on the nodes after the sweeps for any other.

    A theta-free frame's right-hand side does not depend on theta, so it
    takes every value from one array call, and theta from prefix sums of
    the loop's step increments (``_prefix_sweeps``); ``frame.invert`` and
    ``frame.invert_jacobian`` at all nodes are then one array call each.
    Where the loop would read a value outside the rectangle or a negative
    radicand, the sequential loop of ``_sweeps`` runs with scalar
    evaluations instead, and raises the error of the sequential order.
    Any other frame, as the characteristic frame of ``build_frame``, runs
    that loop, and ``_recording_rhs`` takes ``frame.invert`` and
    ``frame.invert_jacobian`` at each node right after the node's
    right-hand side, at the omega that ``ode_rhs`` evaluated, while the
    frame's one-entry memo still holds that node: a characteristic node
    costs one level trace beyond its right-hand side.  An inversion that
    fails then raises here.

    x1' and x2' are d(x1, x2)/d(omega, theta) (omega', theta') at every
    node, as one stacked matmul, which rounds as the per-node J @ v.
    """
    s0, s1 = params.s_range
    anchor = params.anchor if params.anchor is not None else s0
    h = params.step
    # anchor-aligned grid, kept inside s_range (an off-grid anchor must not
    # push evaluations past the generatrix domain)
    k_lo = int(math.ceil((s0 - anchor) / h - 1e-9))
    k_hi = int(math.floor((s1 - anchor) / h + 1e-9))
    if k_hi - k_lo < 10:
        raise ConfigError("fewer than 10 steps across s_range")
    s = anchor + h * np.arange(k_lo, k_hi + 1)
    ia = -k_lo  # anchor index
    abscissae = _abscissae(s, ia, params)
    if frame.theta_free:
        table = U.table(abscissae)
        swept = _prefix_sweeps(table, ia, theta0, params, frame)
        if swept is None:
            swept = _sweeps(len(s), ia, theta0,
                            _scalar_rhs(abscissae, U, params, frame), params)
        theta, theta_p = swept
        Us, dUs = table[0][0], table[1][0]  # row 0 of the abscissae is s
        omega = params.m * Us
        x1, x2 = frame.invert(omega, theta)
        J = frame.invert_jacobian(omega, theta)
    else:
        rhs, points, jacobians = _recording_rhs(abscissae, U, params, frame)
        theta, theta_p = _sweeps(len(s), ia, theta0, rhs, params)
        Us, dUs = U.table(s)
        omega = params.m * Us
        x1, x2 = np.array(points, dtype=float).T
        J = np.array(jacobians, dtype=float)
    rates = np.stack([params.m * dUs, theta_p], axis=-1)
    x1p, x2p = (J @ rates[:, :, None])[:, :, 0].T
    return ProfileCurve(s=s, x1=x1, x2=x2, x1p=x1p, x2p=x2p, omega=omega,
                        theta=theta, theta_prime=theta_p, frame=frame, U=U,
                        anchor_index=ia)


def _abscissae(s, ia, params):
    """The s values at which the RK4 sweeps evaluate the right-hand side,
    indexed [row, k] by the node k that a step reaches: row 0 is s[k],
    and rows 1 and 2 are the stage points s[k - d] + step / 2 and
    s[k - d] + step of the step from k - d to k (d = +1 above the anchor,
    -1 below; column ia repeats s[ia])."""
    k = np.arange(len(s))
    direction = np.sign(k - ia)
    step = direction * params.step
    sk = s[k - direction]
    return np.stack([s, sk + step / 2, sk + step])


def _sweeps(n, ia, theta0, rhs, params):
    """theta and theta' at the n nodes, sweeping outward from the anchor
    one classical RK4 step at a time; rhs(row, k, theta) is the
    right-hand side at the abscissa [row, k] of ``_abscissae``."""
    theta = [0.0] * n
    theta_p = [0.0] * n
    theta[ia] = float(theta0)
    theta_p[ia] = rhs(0, ia, theta0)
    for direction in (+1, -1):
        step = direction * params.step
        for k in range(ia + 1, n) if direction > 0 else range(ia - 1, -1, -1):
            yk = theta[k - direction]
            f1 = theta_p[k - direction]
            f2 = rhs(1, k, yk + step / 2 * f1)
            f3 = rhs(1, k, yk + step / 2 * f2)
            f4 = rhs(2, k, yk + step * f3)
            theta[k] = yk + step / 6 * (f1 + 2 * f2 + 2 * f3 + f4)
            theta_p[k] = rhs(0, k, theta[k])
    return np.array(theta), np.array(theta_p)


def _scalar_rhs(abscissae, U, params, frame):
    """rhs for ``_sweeps``, one scalar evaluation per call: ode_rhs at the
    nodes, _stage_rhs at the RK4 stages."""
    def rhs(row, k, theta):
        evaluate = _stage_rhs if row else ode_rhs
        return evaluate(abscissae[row, k], theta, U, params, frame)
    return rhs


def _recording_rhs(abscissae, U, params, frame):
    """rhs for ``_sweeps`` on a frame that is not theta-free, as the
    characteristic frame: the scalar evaluation of ``_scalar_rhs``, and
    after each node's right-hand side (row 0) ``frame.invert`` and
    ``frame.invert_jacobian`` at the same (omega, theta), where omega is
    m U(s) of the same scalar s that ``ode_rhs`` took, while the frame's
    memo holds that point.  Returns the rhs and the lists of points and
    matrices it fills, one per node."""
    rhs = _scalar_rhs(abscissae, U, params, frame)
    points = [None] * abscissae.shape[1]
    jacobians = [None] * abscissae.shape[1]
    nodes = abscissae[0]

    def recording(row, k, theta):
        value = rhs(row, k, theta)
        if not row:
            w = params.m * U(nodes[k])
            points[k] = frame.invert(w, theta)
            jacobians[k] = frame.invert_jacobian(w, theta)
        return value
    return recording, points, jacobians


def _prefix_sweeps(table, ia, theta0, params, frame):
    """theta and theta' at the nodes for a theta-free frame, as ``_sweeps``
    gives them, from ``table``, the array (U, U') at the abscissae, and one
    array call of each gradient norm; None where the loop would read a
    value outside the rectangle or a negative radicand.

    Each step adds the loop's increment, with its operands in the loop's
    order (f3 = f2, since the stage value does not depend on theta), and
    ``np.add.accumulate`` sums each side from theta0 one addition at a
    time, as the loop does."""
    w, usable, go, rad = _radicands(table, params.m, frame, theta0)
    gt = np.ones_like(w)
    gt[usable] = frame.grad_theta_sq(w[usable], theta0)
    values = (params.epsilon * frame.branch_sign
              * np.sqrt(gt) * np.sqrt(rad) / np.sqrt(go))
    usable[1:, ia] = True  # the loop reads no stage at the anchor
    if not usable.all():
        return None
    t0, t1 = frame.rect[1]
    theta_p = values[0]
    theta = np.empty_like(theta_p)
    n = len(theta)
    for direction in (+1, -1):
        step = direction * params.step
        k = np.arange(ia + direction, n if direction > 0 else -1, direction)
        f1 = theta_p[k - direction]
        f2, f4 = values[1, k], values[2, k]
        side = np.add.accumulate(np.append(
            float(theta0), step / 6 * (f1 + 2 * f2 + 2 * f2 + f4)))
        yk = side[:-1]
        for y in (side, yk + step / 2 * f1, yk + step / 2 * f2, yk + step * f2):
            if not ((t0 <= y) & (y <= t1)).all():
                return None
        theta[k] = side[1:]
    theta[ia] = float(theta0)
    return theta, theta_p


def _radicands(table, m, frame, theta):
    """omega = m U on ``table``, the array (U, U') of a theta-free frame,
    with the points that the profile may read, |grad omega|^2 and the
    radicand |grad omega|^2 - m^2 U'^2, as ``ode_rhs`` takes them at
    (omega, theta): a point may be read where (omega, theta) lies in the
    frame's rectangle and the radicand is not below -RADICAND_CLAMP.  The
    norm is evaluated at the points in the rectangle only, and is 1
    elsewhere; the radicand is 0 where it may not be read and within
    RADICAND_CLAMP of zero."""
    Uv, dU = table
    w = m * Uv
    inside = frame.contains(w, theta)
    go = np.ones_like(w)
    go[inside] = frame.grad_omega_sq(w[inside], theta)
    rad = go - square(m * dU)
    negative = rad <= -RADICAND_CLAMP
    rad[(np.abs(rad) < RADICAND_CLAMP) | negative] = 0.0
    return w, inside & ~negative, go, rad


@dataclass(frozen=True)
class VerticalShift:
    """Samples of the s-part V(s) of the member's flow coordinate and of
    its derivative."""

    s: np.ndarray
    values: np.ndarray
    prime: np.ndarray


def vertical_quadrature(profile, chart):
    """V(s) = -sum_i cumulative integral of x_i' g_i3 / (m^2 U^2).

    Composite Simpson on the profile grid, anchored to zero at the
    profile's anchor sample; m^2 U^2 is the square of the profile's
    omega = m U.  The chart's metric is evaluated once, on the arrays of
    the profile's nodes.
    """
    s = profile.s
    steps = np.diff(s)
    if not all_close(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise GridMismatchError("profile grid must be uniform")
    m2U2 = profile.omega ** 2
    _, _, g13, _, g23, _ = chart.coefficients(profile.x1, profile.x2)
    integrand = -(profile.x1p * g13 + profile.x2p * g23) / m2U2
    V = cumulative_simpson_anchored(integrand, s, profile.anchor_index)
    return VerticalShift(s=s, values=V, prime=integrand)


class SurfaceMember:
    """One family member: map(s, t) = (x1(s), x2(s), t/m + V(s)).

    The third component is affine in t with slope 1/m.  With a frame and
    generatrix attached, positions are re-solved exactly at any s; only a
    frameless member (see ``from_dict``) interpolates the stored samples,
    with cubic Hermite splines.  Both take arrays of s.

    ``isometry_grid`` is None, or the grid on which ``family`` verified the
    member, as its report.json entry states it: the ``s_range``,
    ``grid_shape``, ``t_range``, ``fd_step`` and ``tol`` of
    ``IsometryReport.to_dict``; ``verify`` measures it again and ``mesh``
    takes its t window.
    """

    def __init__(self, s, x1, x2, x1p, x2p, theta, theta_prime, omega,
                 V, Vp, m, epsilon, U=None, frame=None, space=None,
                 metadata=None, isometry_grid=None):
        self.s = np.asarray(s, dtype=float)
        self.x1 = np.asarray(x1, dtype=float)
        self.x2 = np.asarray(x2, dtype=float)
        self.x1p = np.asarray(x1p, dtype=float)
        self.x2p = np.asarray(x2p, dtype=float)
        self.theta = np.asarray(theta, dtype=float)
        self.theta_prime = np.asarray(theta_prime, dtype=float)
        self.omega = np.asarray(omega, dtype=float)
        self.V_samples = np.asarray(V, dtype=float)
        self.V_prime = np.asarray(Vp, dtype=float)
        self.m = float(m)
        self.epsilon = int(epsilon)
        self.U = U
        self.frame = frame
        self.space = space
        self.metadata = dict(metadata or {})
        self.isometry_grid = isometry_grid
        self.s_range = (float(self.s[0]), float(self.s[-1]))
        self._V_spline = HermiteSpline(self.s, self.V_samples, self.V_prime)
        self._theta_spline = HermiteSpline(self.s, self.theta,
                                           self.theta_prime)
        if frame is None or U is None:
            self._x1_spline = HermiteSpline(self.s, self.x1, self.x1p)
            self._x2_spline = HermiteSpline(self.s, self.x2, self.x2p)

    def position(self, s):
        """(x1(s), x2(s)) at every element of s (numpy scalars for a
        scalar s).

        With a frame and generatrix attached, each element is re-solved:
        the frame inverts (m U(s), theta(s)), in one array call for a
        theta-free frame and one call per element for any other.
        Otherwise the position splines give it.
        """
        s = np.asarray(s, dtype=float)
        if self.frame is None or self.U is None:
            return self._x1_spline(s)[()], self._x2_spline(s)[()]
        omega = self.m * self.U(s.ravel())
        theta = self._theta_spline(s.ravel())
        if self.frame.theta_free:
            x1, x2 = self.frame.invert(omega, theta)
        else:
            x1, x2 = np.array(list(map(self.frame.invert, omega, theta))).T
        return x1.reshape(s.shape)[()], x2.reshape(s.shape)[()]

    def map(self, s, t):
        """psi_m(s, t) = (x1(s), x2(s), t/m + V(s)) at broadcastable s, t.

        x1 and x2 do not depend on t, so they are returned in the shape of
        s; x3 is returned in the broadcast shape of s and t, against which
        the first two broadcast (numpy scalars for scalar s and t).
        Positions and V(s) are evaluated once per distinct value of s.
        Every s must lie in the member range, else RangeError; s and t
        that do not broadcast are a ValueError.
        """
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        require_s_in_range(s, self.s_range, "member range")
        values, index = distinct_values(s)
        p1, p2 = self.position(values)
        return (p1[index][()], p2[index][()],
                (t / self.m + self._V_spline(values)[index])[()])

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        return self._document(np.ndarray.tolist)

    def to_json(self, path):
        """Write the member file; return the text of the profile CSV's
        columns s, x1, x2, omega, theta and V, as (n, 4) views of the words
        of the file's own pass, for ``cli.write_profile_csv``: each float
        of the two files is formatted once, and each array once however
        many lists of the file it fills.  The views hold the file's rows
        of words until they are dropped."""
        # write_json prints a float64 array as the list of its values
        with open(path, "wb") as fh:
            return write_json(fh, self._document(np.asarray), keep=(
                self.s, self.x1, self.x2, self.omega, self.theta,
                self.V_samples))

    def _document(self, array):
        """The member file's document, each array passed through
        ``array``."""
        d = {
            "format": "bourgen-member",
            "version": 2,
            "m": self.m,
            "epsilon": self.epsilon,
            "metadata": self.metadata,
            "space": self.space.to_dict() if self.space is not None else None,
            "profile": {
                "s": array(self.s),
                "x1": array(self.x1),
                "x2": array(self.x2),
                "x1_prime": array(self.x1p),
                "x2_prime": array(self.x2p),
                "omega": array(self.omega),
                "theta": array(self.theta),
                "theta_prime": array(self.theta_prime),
            },
            "V": array(self.V_samples),
            "V_prime": array(self.V_prime),
        }
        if self.U is not None and self.U.representation == "expression":
            d["generatrix"] = {"kind": "expression", "text": self.U.source,
                               "s_range": list(self.U.s_range)}
        elif self.U is not None:
            knots, values = self.U.source
            d["generatrix"] = {"kind": "table", "s": array(knots),
                               "values": array(values)}
        if self.isometry_grid is not None:
            d["isometry_grid"] = self.isometry_grid
        return d

    @classmethod
    def from_dict(cls, d):
        """The member of a member file, version 1 or 2, with the built-in
        frame of its space (as ``cli.run`` builds it) attached when it has
        a generatrix and that frame inverts the stored (omega, theta) to
        the stored x1 and x2 bit for bit; otherwise frameless (a
        characteristic frame's member).  A version-2 file stores a table
        generatrix's own knots and values, and may store the isometry grid
        of ``family``; a version-1 file stores neither, and its table
        samples the generatrix at the member's nodes, so that member stays
        frameless, on its splines.  An entry of the wrong type, a version
        other than 1 or 2, an 'm' that is not a positive finite number and
        an 'epsilon' other than 1 or -1 are ValueErrors that name the
        entry."""
        if not isinstance(d, dict):
            raise ValueError(f"the document must be a JSON object, not "
                             f"{type(d).__name__}")
        if d.get("format") != "bourgen-member":
            raise ValueError("not a bourgen member file")
        entry = partial(_documents.entry, d, "member file")
        samples = partial(_documents.samples, d, "member file")
        prof = {k: samples("profile." + k)
                for k in ("s", "x1", "x2", "x1_prime", "x2_prime", "omega",
                          "theta", "theta_prime")}
        V, Vp = samples("V"), samples("V_prime")
        if len({len(v) for v in (*prof.values(), V, Vp)}) > 1 or len(V) < 2:
            raise ValueError("the member file's profile lists, 'V' and "
                             "'V_prime' must have one length of 2 or more")
        m, epsilon = entry("m", NUMBER), entry("epsilon", NUMBER)
        require = partial(_documents.require, "member file")
        version = entry("version", int, 1)
        require(version in (1, 2), "version", "1 or 2", version)
        require(0.0 < m <= sys.float_info.max, "m", "a positive finite number",
                m)
        require(epsilon in (1, -1), "epsilon", "1 or -1", epsilon)
        space = (None if d.get("space") is None
                 else _documents.space(d, "member file"))
        U = frame = None
        if d.get("generatrix") is not None:
            U = _generatrix(entry, samples)
            if space is not None and (version == 2
                                      or U.representation == "expression"):
                frame = _rebuilt_frame(space, prof)
        grid = (None if d.get("isometry_grid") is None
                else _isometry_grid(entry, samples))
        return cls(s=prof["s"], x1=prof["x1"], x2=prof["x2"],
                   x1p=prof["x1_prime"], x2p=prof["x2_prime"],
                   theta=prof["theta"], theta_prime=prof["theta_prime"],
                   omega=prof["omega"], V=V, Vp=Vp, m=m, epsilon=epsilon,
                   space=space, U=U, frame=frame,
                   metadata=entry("metadata", dict, {}), isometry_grid=grid)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _generatrix(entry, samples):
    """The GeneratrixMetric of a member file's 'generatrix' entry, read
    through ``entry`` and ``samples``; one that GeneratrixMetric refuses is
    a ValueError naming the entry."""
    kind = entry("generatrix.kind", str)
    _documents.require("member file", kind in ("expression", "table"),
                       "generatrix.kind", "'expression' or 'table'", kind)
    if kind == "expression":
        source = (entry("generatrix.text", str),
                  samples("generatrix.s_range", 2))
        build = GeneratrixMetric.from_expression
    else:
        source = samples("generatrix.s"), samples("generatrix.values")
        build = GeneratrixMetric.from_samples
    try:
        return build(*source)
    except (ValueError, ParseError) as exc:
        raise ValueError(
            f"the member file's 'generatrix' entry: {exc}") from exc


def _isometry_grid(entry, samples):
    """The 'isometry_grid' entry of a member file, read through ``entry``
    and ``samples``: two ranges of finite numbers, two counts from 1 to
    MAX_GRID_COUNT, and a positive finite 'fd_step' and 'tol'."""
    require = partial(_documents.require, "member file")
    shape = entry("isometry_grid.grid_shape", list)
    require(len(shape) == 2 and all(
        type(n) is int and 1 <= n <= _documents.MAX_GRID_COUNT
        for n in shape), "isometry_grid.grid_shape",
        f"two counts from 1 to {_documents.MAX_GRID_COUNT}", shape)
    grid = {"s_range": samples("isometry_grid.s_range", 2).tolist(),
            "grid_shape": shape,
            "t_range": samples("isometry_grid.t_range", 2).tolist()}
    for name in ("fd_step", "tol"):
        value = entry("isometry_grid." + name, NUMBER)
        require(0.0 < value <= sys.float_info.max, "isometry_grid." + name,
                "a positive finite number", value)
        grid[name] = float(value)
    return grid


def _rebuilt_frame(space, prof):
    """builtin_frame(space) if it inverts a member file's stored (omega,
    theta) arrays to its stored (x1, x2) bit for bit, else None."""
    try:
        frame = spaces.builtin_frame(space)
        x1, x2 = frame.invert(prof["omega"], prof["theta"])
    except (DomainViolationError, ValueError):  # outside the frame's domain
        return None
    same = (x1.tobytes() == prof["x1"].tobytes()
            and x2.tobytes() == prof["x2"].tobytes())
    return frame if same else None


def assemble_member(profile, V, params, *, space=None):
    """Bundle a profile and its vertical quadrature into a SurfaceMember."""
    if profile.s.shape != V.s.shape or not all_close(
            profile.s, V.s, rtol=0.0, atol=1e-12):
        raise GridMismatchError("profile and V are on different s grids")
    meta = {"chart": profile.frame.chart.label,
            "integrator": "rk4", "step": params.step,
            "epsilon": params.epsilon,
            "anchor": float(profile.s[profile.anchor_index])}
    return SurfaceMember(
        s=profile.s, x1=profile.x1, x2=profile.x2, x1p=profile.x1p,
        x2p=profile.x2p, theta=profile.theta, theta_prime=profile.theta_prime,
        omega=profile.omega, V=V.values, Vp=V.prime,
        m=params.m, epsilon=params.epsilon, U=profile.U, frame=profile.frame,
        space=space, metadata=meta)


def generate_member(U, params, frame, theta0=0.0, *, space=None):
    """Full pipeline for one member: integrate, quadrature, assemble."""
    profile = integrate_profile(U, params, frame, theta0)
    V = vertical_quadrature(profile, frame.chart)
    return assemble_member(profile, V, params, space=space)


# constant_volume_member: the largest spread of the volume function along
# the curve, relative to max(1, mean |omega|)
_VOLUME_SPREAD_TOL = 1e-10


def constant_volume_member(chart, profile_curve):
    """Single ruled member over a chart with constant unit volume function.

    The volume function may vary by _VOLUME_SPREAD_TOL relative along the
    curve, and its mean may differ from 1 by 1e-9.  The input curve must
    be unit speed in the quotient metric (``chart.quotient_metric``); the
    member map is (x1(s), x2(s), t + V(s)) with V the cumulative integral
    of -(x1' g13 + x2' g23), and induced metric ds^2 + dt^2.
    """
    if isinstance(profile_curve, LiftedCurve):
        s = profile_curve.u
        c1, c2 = profile_curve.x1, profile_curve.x2
    else:
        s, c1, c2 = (np.asarray(a, dtype=float) for a in profile_curve)
    w = chart.volume_at((c1, c2))
    spread = np.max(np.abs(w - np.mean(w)))
    if spread > _VOLUME_SPREAD_TOL * max(1.0, np.mean(np.abs(w))):
        raise NonConstantVolumeError(
            f"volume function varies by {spread:.3e} along the curve; "
            "not a constant-volume chart")
    if abs(np.mean(w) - 1.0) > 1e-9:
        raise NonConstantVolumeError(
            f"volume function is constant {np.mean(w):.6g} != 1; rescale the "
            "chart (bourgen.chart.rescale_vertical) first")
    d1 = np.gradient(c1, s, edge_order=2)
    d2 = np.gradient(c2, s, edge_order=2)
    for k in (0, len(s) // 2, len(s) - 1):
        q11, q12, q22 = quotient_metric(chart, c1[k], c2[k])
        speed = (q11 * d1[k] ** 2 + 2 * q12 * d1[k] * d2[k]
                 + q22 * d2[k] ** 2)
        if abs(speed - 1.0) > 5e-2:
            raise ValueError(
                f"input curve is not unit speed in the quotient metric "
                f"(speed^2 = {speed:.4g} at s = {s[k]:.6g})")
    _, _, g13, _, g23, _ = chart.coefficients(c1, c2)
    integrand = -(d1 * g13 + d2 * g23)
    V = cumulative_simpson_anchored(integrand, s, 0)
    U = GeneratrixMetric.from_expression("1", (s[0], s[-1]))
    return SurfaceMember(
        s=s, x1=c1, x2=c2, x1p=d1, x2p=d2,
        theta=np.zeros_like(s), theta_prime=np.zeros_like(s),
        omega=w, V=V, Vp=integrand, m=1.0, epsilon=1,
        U=U, metadata={"chart": chart.label, "kind": "constant-volume"})


def feasible_s_range(U, m, frame, s_range, theta_ref=0.0, *, step):
    """First interval [s_lo, s_hi] of s_range on which the profile radicand
    |grad omega|^2(mU, theta_ref) - m^2 U'^2 stays nonnegative.

    Dense-grid scan of _SCAN_SAMPLES samples.  When s0 itself is
    feasible, s_lo = s0 and the interval is the largest feasible prefix;
    otherwise s_lo moves up to the first feasible scan sample.  An end
    that is cut is pulled inward _PULLBACK_STEPS integrator steps of
    ``step`` from the radicand zero (onto the grid s0 + k step): theta(s)
    has a square-root branch point there, and RK4 of a fixed step needs
    the radicand bounded away from zero to keep its order.  U and U' are
    evaluated on the whole scan in one array call, and |grad omega|^2 on
    the samples in the rectangle in one more (``_radicands``, as for a
    profile's right-hand sides).

    The frame must be theta-free: its norms do not depend on theta, so
    those at theta_ref are the profile's.  Any other frame, as the
    characteristic frame, is refused with a ConfigError before it is
    evaluated, since the profile's theta(s), where its radicand lies, is
    known only once the profile is integrated.
    """
    if not frame.theta_free:
        raise ConfigError(f"feasible_s_range: the frame {frame.label} is "
                          "not theta-free, so theta_ref is not its profile")
    s0, s1 = s_range
    ss = np.linspace(s0, s1, _SCAN_SAMPLES)
    _, feasible, _, _ = _radicands(U.table(ss), m, frame, theta_ref)
    first = int(np.argmax(feasible))
    run = np.append(feasible[first:], False)
    lo, hi = ss[first], ss[first + int(np.argmin(run)) - 1]
    if not feasible[first] or hi <= lo:  # no sample, or a single one
        raise RadicandNegativeError(
            f"no feasible s interval from {s0:.6g} at m = {m:g}", s=s0)
    lo = (float(s0 + math.ceil((lo - s0) / step + _PULLBACK_STEPS) * step)
          if lo > s0 else s0)
    if hi < s1:
        hi = s0 + math.floor((hi - s0) / step - _PULLBACK_STEPS) * step
    if hi <= lo:
        raise RadicandNegativeError(
            f"feasible interval from {lo:.6g} at m = {m:g} is shorter "
            "than the integrator pullback; reduce the step", s=lo)
    return (lo, float(min(hi, s1)))
