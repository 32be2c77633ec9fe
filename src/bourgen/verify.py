"""Numerical verification: finite-difference first fundamental forms,
isometry reports, and closed-form versus generic cross-checks.

The induced-metric coefficients of a member map are measured by central
differences of the map and the ambient metric at the foot point; an
isometry report aggregates the deviations from the target diag(1, U^2)
over a grid.  Cross-checks compare the two independent computation paths
of the same surface (generic pipeline and printed closed forms), with
angles compared modulo the additive gauge constant.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ._numerics import square, unwrap_angles
from .chart import invariant_first_form
from .errors import GridMismatchError, NotInvariantError, RangeError


@dataclass(frozen=True)
class FormSample:
    """First-fundamental-form coefficients at one (s, t) sample."""

    s: float
    t: float
    E: float
    F: float
    G: float


def _first_forms(chart, member, s, t, h):
    """(E, F, G) of the member map at the broadcast points (s, t), as
    arrays of their shape, by central differences of step h.

    The member map must be invariant: t moves only x3, so its
    t-derivative is (0, 0, x3_t), and ``chart.invariant_first_form``
    pairs it with the s-derivative.  A map whose x1 or x2 differs between
    the t + h and t - h rows is refused with a NotInvariantError that
    names the first such (s, t).

    The whole stencil comes from one array call of ``member.map``, on the
    rows s, s + h, s - h (at t) and s (at t + h, t - h) stacked along a
    new first axis; s is not broadcast against t, so the map evaluates
    each distinct s once.  The ambient metric at every foot point comes
    from one array call of ``chart.metric_at``, treating the map
    components as chart coordinates.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    lo, hi = member.s_range
    exits = ~((lo <= s - h) & (s + h <= hi))
    if np.any(exits):
        bad = s[exits][0]
        raise RangeError(
            f"finite-difference stencil [{bad - h:.6g}, {bad + h:.6g}] exits "
            f"the member range {member.s_range}")

    # equal ranks, so the stacked rows broadcast as s and t do
    rank = max(s.ndim, t.ndim)
    s = s.reshape((1,) * (rank - s.ndim) + s.shape)
    t = t.reshape((1,) * (rank - t.ndim) + t.shape)
    p = np.stack(member.map(np.stack([s, s + h, s - h, s, s]),
                            np.stack([t, t, t, t + h, t - h])), axis=-1)
    # rows 1 - 2 and 3 - 4: the s- and t-derivatives
    psi_s, psi_t = (p[1:4:2] - p[2:5:2]) / (2 * h)
    moved = np.abs(psi_t[..., :2]).max(axis=-1) > 0.0
    if moved.any():
        k = np.argmax(moved)
        s, t = np.broadcast_arrays(s, t)
        raise NotInvariantError(f"the member map moves x1 or x2 with t at "
                                f"(s, t) = ({s.flat[k]:.6g}, {t.flat[k]:.6g})")
    return invariant_first_form(chart, (p[0, ..., 0], p[0, ..., 1]), psi_s,
                                psi_t[..., 2])


def fd_first_form(chart, member, s, t, h=1e-5):
    """Measure (E, F, G) of the member map at one point (s, t) by central
    differences: the single-point case of the isometry grid, with its
    refusal of a map that moves x1 or x2 with t."""
    E, F, G = _first_forms(chart, member, s, t, h)
    return FormSample(s=float(s), t=float(t), E=float(E), F=float(F),
                      G=float(G))


@dataclass(frozen=True)
class IsometryReport:
    """Grid-aggregated deviation of a member's induced metric from
    ds^2 + U(s)^2 dt^2."""

    grid_shape: tuple
    s_range: tuple
    t_range: tuple
    fd_step: float
    tol: float
    max_E_dev: float
    max_F_dev: float
    max_G_dev: float
    worst: dict
    passed: bool

    def to_dict(self):
        return {
            "grid_shape": list(self.grid_shape),
            "s_range": list(self.s_range),
            "t_range": list(self.t_range),
            "fd_step": self.fd_step,
            "tol": self.tol,
            "max_E_dev": self.max_E_dev,
            "max_F_dev": self.max_F_dev,
            "max_G_dev": self.max_G_dev,
            "worst": self.worst,
            "passed": bool(self.passed),
        }


def isometry_report(chart, member, U, grid, tol=1e-5, h=1e-5):
    """Verify the member against the target metric on an (s, t) grid.

    ``grid`` is (s_values, t_values); single-point grids are allowed.  The
    member map must be invariant, moving only x3 with t: E, F and G come
    from ``chart.invariant_first_form``, and a map that moves x1 or x2
    with t raises NotInvariantError.  The first forms of the whole grid
    are measured at once, with the same per-point arithmetic as
    ``fd_first_form``.  ``worst`` is the first point (s-major) and
    quantity (E, F, G) reaching the largest deviation.  Deviations are
    reported, not raised; a NaN deviation fails.
    """
    s_values, t_values = (np.atleast_1d(np.asarray(g, dtype=float)) for g in grid)
    E, F, G = _first_forms(chart, member, s_values[:, None], t_values, h)
    U2 = square(U(s_values))[:, None]
    devs = np.stack([np.abs(E - 1.0), np.abs(F), np.abs(G - U2)], axis=-1)
    max_E, max_F, max_G = devs.max(axis=(0, 1))
    i, j, q = np.unravel_index(np.argmax(devs), devs.shape)
    worst = {"s": float(s_values[i]), "t": float(t_values[j]),
             "quantity": "EFG"[q], "deviation": float(devs[i, j, q])}
    return IsometryReport(
        grid_shape=(len(s_values), len(t_values)),
        s_range=(float(s_values[0]), float(s_values[-1])),
        t_range=(float(t_values[0]), float(t_values[-1])),
        fd_step=float(h), tol=float(tol),
        max_E_dev=float(max_E), max_F_dev=float(max_F), max_G_dev=float(max_G),
        worst=worst, passed=bool(devs.max() <= tol))


@dataclass(frozen=True)
class CrossCheckReport:
    """Max deviations between closed-form and generic computations of the
    same member: radius, screw angle (modulo the gauge constant), and
    vertical quadrature (modulo gauge, through the kind-specific
    relation between the two parametrizations)."""

    rho_dev: float
    angle_dev: float
    v_dev: float
    n_samples: int

    def to_dict(self):
        return {"rho_dev": self.rho_dev, "angle_dev": self.angle_dev,
                "v_dev": self.v_dev, "n_samples": self.n_samples}

    def passed(self, tol):
        """Every deviation (radius, angle, vertical) within tol; a NaN
        deviation fails."""
        return bool(np.max([self.rho_dev, self.angle_dev, self.v_dev]) <= tol)


def _gauge_deviation(x, y, anchor_index):
    d = np.asarray(x) - np.asarray(y)
    return float(np.max(np.abs(d - d[anchor_index])))


def cross_check(closed, generic):
    """Compare a ClosedFormFamily against a generic SurfaceMember.

    Both must share the s grid as well as (m, epsilon).  The generic
    profile is converted to radius / screw-angle form; angles are compared
    modulo the additive gauge constant fixed at the closed family's
    anchor.  The vertical comparison uses the relation between the
    adapted-chart flow coordinate and the printed cylindrical display:
    flat screw spaces shift by +lam/a, BCV by -lam/a, rotational by 0.
    """
    if closed.s_grid.shape != generic.s.shape or not np.allclose(
            closed.s_grid, generic.s, rtol=0, atol=1e-12):
        raise GridMismatchError("closed-form family and member use different s grids")
    if closed.m != generic.m or closed.epsilon != generic.epsilon:
        raise GridMismatchError("closed-form family and member disagree on (m, epsilon)")
    kind = closed.kind
    a = closed.a
    k0 = closed.anchor_index
    if kind != "euclidean_rotational" and a == 0.0:
        raise GridMismatchError(
            "closed-form family has a = 0 but a screw-space kind; no "
            "matching adapted chart exists for a generic member")
    if kind == "euclidean_rotational":
        rho_gen = generic.x1
        lam_gen = generic.x2.copy()
        v_shift = np.zeros_like(lam_gen)
    else:
        rho_gen = np.hypot(generic.x1, generic.x2)
        phi = unwrap_angles(np.arctan2(generic.x2, generic.x1))
        lam_gen = a * phi
        v_shift = (closed.lam_samples / a if kind == "euclidean_helicoidal"
                   else -closed.lam_samples / a)
    rho_dev = float(np.max(np.abs(rho_gen - closed.rho_samples)))
    angle_dev = _gauge_deviation(lam_gen, closed.lam_samples, k0)
    v_dev = _gauge_deviation(generic.V_samples, closed.V_samples + v_shift, k0)
    return CrossCheckReport(rho_dev=rho_dev, angle_dev=angle_dev, v_dev=v_dev,
                            n_samples=len(closed.s_grid))
