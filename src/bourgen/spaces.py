"""Built-in ambient spaces and their closed-form screw-surface families.

Three space kinds are provided in adapted coordinates:

* ``euclidean_helicoidal`` -- flat R^3 with the pitch-a screw field;
  metric dx1^2 + dx2^2 + (x1^2+x2^2+a^2) dx3^2 + 2(x2 dx1 - x1 dx2) dx3.
* ``euclidean_rotational`` -- flat R^3 with the pure rotation field, in
  coordinates (x1, x2, x3) = (r, z, azimuth); metric dx1^2 + dx2^2 + x1^2 dx3^2.
* ``bcv_helicoidal`` -- the two-parameter (kappa, tau) family of
  homogeneous 3-metrics with the pitch-a screw field.

Built-in frames carry analytic volume gradients, analytic inversion of
(omega, theta), and closed-form gradient norms.  By default theta is the
polar angle atan2(x2, x1) (gauge "angle"): unlike the ratio x2/x1 it has
no pole when a profile winds past the x2-axis.  The ratio gauge is also
available; both produce identical surfaces.

Chart coefficients, invariant gradients and the callables of theta-free
frames take floats or arrays, and give arrays equal element by element to
the float results (see ``_numerics.square``); ratio-gauge frames are
called one point at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy.interpolate import CubicHermiteSpline

from ._numerics import cos, cumulative_simpson_anchored, sin, sqrt, square
from .chart import AdaptedChart3, InvariantFunction
from .errors import DomainViolationError, SpecError
from .quotient import QuotientFrame

KINDS = ("euclidean_helicoidal", "euclidean_rotational", "bcv_helicoidal")


@dataclass(frozen=True)
class SpaceSpec:
    """Built-in ambient space selector."""

    kind: str
    a: float = 0.0
    kappa: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"unknown space kind {self.kind!r}; "
                            f"expected one of {KINDS}")
        if self.kind in ("euclidean_helicoidal", "bcv_helicoidal") and self.a == 0.0:
            raise SpecError(f"{self.kind} requires pitch a != 0 "
                            "(use euclidean_rotational for a = 0)")
        if self.kind == "euclidean_rotational" and self.a != 0.0:
            raise SpecError("euclidean_rotational has no pitch; set a = 0")

    def to_dict(self):
        return {"kind": self.kind, "a": self.a, "kappa": self.kappa,
                "tau": self.tau}

    @classmethod
    def from_dict(cls, d):
        return cls(kind=d["kind"], a=float(d.get("a", 0.0)),
                   kappa=float(d.get("kappa", 0.0)), tau=float(d.get("tau", 0.0)))


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def make_chart(spec):
    """Adapted chart of a built-in space, with the analytic g33 gradient."""
    a = spec.a
    if spec.kind == "euclidean_helicoidal":
        return AdaptedChart3(
            g11=lambda x1, x2: 1.0,
            g12=lambda x1, x2: 0.0,
            g13=lambda x1, x2: x2,
            g22=lambda x1, x2: 1.0,
            g23=lambda x1, x2: -x1,
            g33=lambda x1, x2: x1 * x1 + x2 * x2 + a * a,
            domain=lambda x1, x2: True,
            label=f"euclidean_helicoidal(a={a:g})",
            d_g33=lambda x1, x2: (2.0 * x1, 2.0 * x2))
    if spec.kind == "euclidean_rotational":
        return AdaptedChart3(
            g11=lambda x1, x2: 1.0,
            g12=lambda x1, x2: 0.0,
            g13=lambda x1, x2: 0.0,
            g22=lambda x1, x2: 1.0,
            g23=lambda x1, x2: 0.0,
            g33=lambda x1, x2: x1 * x1,
            domain=lambda x1, x2: x1 > 0.0,
            label="euclidean_rotational",
            d_g33=lambda x1, x2: (2.0 * x1, 0.0))
    # bcv_helicoidal
    kappa, tau = spec.kappa, spec.tau

    def B_of(r2):
        return 1.0 + 0.25 * kappa * r2

    def C_of(r2):
        return a * B_of(r2) - r2 * tau

    def d_g33(x1, x2):
        r2 = x1 * x1 + x2 * x2
        B = B_of(r2)
        C = C_of(r2)
        dC = 0.25 * a * kappa - tau
        dQ = 2.0 * C * dC + 1.0
        d_r2 = (dQ - (C * C + r2) * 0.5 * kappa / B) / (B * B)
        return (2.0 * x1 * d_r2, 2.0 * x2 * d_r2)

    return AdaptedChart3(
        g11=lambda x1, x2: (1.0 + tau**2 * x2 * x2) / square(B_of(x1 * x1 + x2 * x2)),
        g12=lambda x1, x2: -x1 * x2 * tau**2 / square(B_of(x1 * x1 + x2 * x2)),
        g13=lambda x1, x2: (tau * C_of(x1 * x1 + x2 * x2) - 1.0) * x2
        / square(B_of(x1 * x1 + x2 * x2)),
        g22=lambda x1, x2: (1.0 + tau**2 * x1 * x1) / square(B_of(x1 * x1 + x2 * x2)),
        g23=lambda x1, x2: -(tau * C_of(x1 * x1 + x2 * x2) - 1.0) * x1
        / square(B_of(x1 * x1 + x2 * x2)),
        g33=lambda x1, x2: (square(C_of(x1 * x1 + x2 * x2)) + x1 * x1 + x2 * x2)
        / square(B_of(x1 * x1 + x2 * x2)),
        domain=lambda x1, x2: B_of(x1 * x1 + x2 * x2) > 0.0,
        label=f"bcv(kappa={kappa:g},tau={tau:g},a={a:g})",
        d_g33=d_g33)


def theta_ratio_fn():
    """The invariant x2/x1 (valid on x1 != 0), with analytic gradient."""
    return InvariantFunction(
        value=lambda x1, x2: x2 / x1,
        gradient=lambda x1, x2: (-x2 / (x1 * x1), 1.0 / x1),
        name="x2/x1")


def theta_angle_fn():
    """The polar angle atan2(x2, x1), with analytic gradient."""
    return InvariantFunction(
        value=lambda x1, x2: math.atan2(x2, x1),
        gradient=lambda x1, x2: (-x2 / (x1 * x1 + x2 * x2),
                                 x1 / (x1 * x1 + x2 * x2)),
        name="atan2(x2,x1)")


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def _bcv_delta(w, kappa, tau, a):
    return (1.0 - 2.0 * a * tau) ** 2 + (4.0 * tau**2 - kappa) * (w * w - a * a)


def _bcv_denominator(w, kappa, tau, a):
    return square(1.0 + sqrt(_bcv_delta(w, kappa, tau, a))) \
        - 4.0 * tau**2 * w * w


def _bcv_r2(w, kappa, tau, a):
    return 4.0 * (w * w - a * a) / _bcv_denominator(w, kappa, tau, a)


def bcv_valid_omega_range(spec, probe_hi=None, n=2048):
    """Largest omega interval above |a| on which the closed-form frame of a
    BCV space is valid (positive discriminant, denominator, radius, B)."""
    a, kappa, tau = spec.a, spec.kappa, spec.tau
    lo = abs(a) * (1.0 + 1e-9) + 1e-12
    hi = probe_hi if probe_hi is not None else abs(a) + 20.0
    ws = np.linspace(lo, hi, n)
    last = None
    for w in ws:
        D = _bcv_delta(w, kappa, tau, a)
        if D <= 0:
            break
        den = _bcv_denominator(w, kappa, tau, a)
        if den <= 0:
            break
        r2 = 4.0 * (w * w - a * a) / den
        if r2 <= 0 or 1.0 + 0.25 * kappa * r2 <= 0:
            break
        last = w
    if last is None:
        raise DomainViolationError(
            f"no valid omega interval above |a| for {spec}", condition="omega range")
    margin = 1e-3 * (last - lo) if last > lo else 0.0
    return (lo, float(last - margin))


def builtin_frame(spec, omega_range=None, theta_range=(-100.0, 100.0),
                  gauge="angle"):
    """Quotient frame of a built-in space with analytic inversion.

    ``gauge`` selects the transverse invariant: "angle" (polar angle,
    default) or "ratio" (x2/x1).  In the angle gauge, and always for the
    rotational space, both gradient norms depend on omega alone: the frame
    is theta-free.  The rectangle defaults to a generous
    window above |a| (for BCV, the validated window of the closed-form
    inversion).
    """
    chart = make_chart(spec)
    omega = chart.volume_fn()
    a = spec.a
    if gauge not in ("angle", "ratio"):
        raise SpecError(f"unknown frame gauge {gauge!r}")

    if spec.kind == "euclidean_rotational":
        if omega_range is None:
            omega_range = (1e-9, 100.0)
        theta = InvariantFunction(value=lambda x1, x2: x2,
                                  gradient=lambda x1, x2: (0.0, 1.0), name="x2")
        return QuotientFrame(
            chart=chart, omega=omega, theta=theta,
            grad_omega_sq=lambda w, t: 1.0,
            grad_theta_sq=lambda w, t: 1.0,
            invert=lambda w, t: (w, t),
            rect=(tuple(omega_range), tuple(theta_range)),
            label=f"{chart.label}/frame", theta_free=True)

    if spec.kind == "euclidean_helicoidal":
        if omega_range is None:
            omega_range = (abs(a) * (1.0 + 1e-12) + 1e-12, abs(a) + 100.0)

        def r_of(w):
            return sqrt(w * w - a * a)

        def grad_omega_sq(w, t):
            return (w * w - a * a) / (w * w)

        def grad_angle_sq(w, t):
            return w * w / (a * a * (w * w - a * a))

    else:  # bcv_helicoidal
        kappa, tau = spec.kappa, spec.tau
        if omega_range is None:
            omega_range = bcv_valid_omega_range(spec)
        else:
            _validate_bcv_range(spec, omega_range)

        def r_of(w):
            return sqrt(_bcv_r2(w, kappa, tau, a))

        def grad_omega_sq(w, t):
            D = _bcv_delta(w, kappa, tau, a)
            sD = sqrt(D)
            den = _bcv_denominator(w, kappa, tau, a)
            return D * (w * w - a * a) * den / (w * w * square(1.0 - 2.0 * a * tau + sD))

        def grad_angle_sq(w, t):
            D = _bcv_delta(w, kappa, tau, a)
            sD = sqrt(D)
            den = _bcv_denominator(w, kappa, tau, a)
            return w * w * square(1.0 - 2.0 * a * tau + sD) / (
                a * a * (w * w - a * a) * den)

    if gauge == "angle":
        theta = theta_angle_fn()
        grad_theta_sq = grad_angle_sq

        def invert(w, t):
            r = r_of(w)
            return (r * cos(t), r * sin(t))
    else:
        theta = theta_ratio_fn()

        def grad_theta_sq(w, t):
            return grad_angle_sq(w, t) * (1.0 + t * t) ** 2

        def invert(w, t):
            x1 = r_of(w) / math.sqrt(1.0 + t * t)
            return (x1, t * x1)

    return QuotientFrame(
        chart=chart, omega=omega, theta=theta,
        grad_omega_sq=grad_omega_sq, grad_theta_sq=grad_theta_sq,
        invert=invert, rect=(tuple(omega_range), tuple(theta_range)),
        label=f"{chart.label}/frame[{gauge}]",
        branch_sign=1 if a >= 0 else -1, theta_free=gauge == "angle")


def _validate_bcv_range(spec, omega_range, n=512):
    a, kappa, tau = spec.a, spec.kappa, spec.tau
    for w in np.linspace(omega_range[0], omega_range[1], n):
        D = _bcv_delta(w, kappa, tau, a)
        if D <= 0:
            raise DomainViolationError(
                f"discriminant not positive at omega = {w:.6g}", s=w,
                condition="Delta > 0")
        den = _bcv_denominator(w, kappa, tau, a)
        if den <= 0:
            raise DomainViolationError(
                f"(1+sqrt(Delta))^2 - 4 tau^2 omega^2 not positive at "
                f"omega = {w:.6g}", s=w, condition="denominator > 0")
        r2 = 4.0 * (w * w - a * a) / den
        if r2 <= 0:
            raise DomainViolationError(
                f"inverted radius not positive at omega = {w:.6g}", s=w,
                condition="r^2 > 0")
        if 1.0 + 0.25 * kappa * r2 <= 0:
            raise DomainViolationError(
                f"B not positive at omega = {w:.6g}", s=w, condition="B > 0")


# ---------------------------------------------------------------------------
# coordinate export
# ---------------------------------------------------------------------------

def to_ambient_coords(spec, p):
    """Printed coordinate change of the space: cartesian (x, y, z) for the
    Euclidean kinds, cylindrical (r, azimuth, z) for BCV."""
    x1, x2, x3 = p
    if spec.kind == "euclidean_helicoidal":
        return (x1 * math.cos(x3) + x2 * math.sin(x3),
                x2 * math.cos(x3) - x1 * math.sin(x3),
                spec.a * x3)
    if spec.kind == "euclidean_rotational":
        # adapted (r, z, azimuth) -> cartesian
        return (x1 * math.cos(x3), x1 * math.sin(x3), x2)
    r = math.hypot(x1, x2)
    return (r, x3 + math.atan2(x2, x1), spec.a * x3)


def mesh_xyz(spec, p):
    """Cartesian embedding used for mesh export."""
    if spec.kind == "bcv_helicoidal":
        r, th, z = to_ambient_coords(spec, p)
        return (r * math.cos(th), r * math.sin(th), z)
    return to_ambient_coords(spec, p)


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------

def _clamp_radicand(values, s_grid, condition):
    """Clamp grazing-zero radicands; error on genuinely negative ones.

    The deadband is symmetric so an identically-degenerate radicand (a
    fixed point of the family) does not pick up float noise.
    """
    values = np.asarray(values, dtype=float)
    bad = values <= -1e-12
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DomainViolationError(
            f"radicand {condition} = {values[k]:.3e} < 0 at s = {s_grid[k]:.6g}",
            s=float(s_grid[k]), condition=condition)
    values = np.where(np.abs(values) < 1e-12, 0.0, values)
    return np.maximum(values, 0.0)


@dataclass(frozen=True)
class FamilySpace:
    """Space parameters of a closed-form family.

    Unlike SpaceSpec this allows a = 0 for the screw kinds: the printed
    quadratures survive that limit (rotational members), even though the
    corresponding adapted chart does not."""

    kind: str
    a: float = 0.0
    kappa: float = 0.0
    tau: float = 0.0

    def to_dict(self):
        return {"kind": self.kind, "a": self.a, "kappa": self.kappa,
                "tau": self.tau}


@dataclass(frozen=True)
class ClosedFormFamily:
    """One member of a closed-form screw family: radius rho(s), screw
    angle lam(s), and the s-part Vclosed(s) of the flow parameter, all
    anchored to zero at the anchor sample."""

    space: FamilySpace
    m: float
    epsilon: int
    s_grid: np.ndarray
    rho_samples: np.ndarray
    lam_samples: np.ndarray
    V_samples: np.ndarray
    rho: object  # callables (splines)
    lam: object
    Vclosed: object
    anchor_index: int = 0

    def surface_point(self, s, t):
        """Cylindrical-coordinate surface point of the printed display."""
        v = t / self.m + float(self.Vclosed(s))
        if self.space.kind == "bcv_helicoidal":
            return (float(self.rho(s)), v, -float(self.lam(s)) + self.space.a * v)
        return (float(self.rho(s)), v, float(self.lam(s)) + self.space.a * v)


def _anchor_index(s_grid, anchor):
    if anchor is None:
        return 0
    return int(np.argmin(np.abs(np.asarray(s_grid) - anchor)))


def r3_closed_form(U, m, epsilon, a, s_grid, anchor=None):
    """Closed-form screw family in flat R^3 (pitch a; a = 0 gives the
    rotational members):

        rho = sqrt(m^2 U^2 - a^2)
        lam' = eps * m U sqrt(m^2 U^2 (1 - m^2 U'^2) - a^2) / (m^2 U^2 - a^2)
        V'   = -eps * a sqrt(m^2 U^2 (1 - m^2 U'^2) - a^2) / (m U (m^2 U^2 - a^2))
    """
    s_grid = np.asarray(s_grid, dtype=float)
    Uv, dUv = U.table(s_grid)
    mU2 = (m * Uv) ** 2
    gap = mU2 - a * a
    if np.any(gap <= 0):
        k = int(np.argmax(gap <= 0))
        raise DomainViolationError(
            f"m^2 U^2 - a^2 = {gap[k]:.3e} <= 0 at s = {s_grid[k]:.6g}",
            s=float(s_grid[k]), condition="m^2 U^2 - a^2 > 0")
    R = _clamp_radicand(mU2 * (1.0 - (m * dUv) ** 2) - a * a, s_grid,
                        "m^2 U^2 (1 - m^2 U'^2) - a^2")
    sqrtR = np.sqrt(R)
    rho = np.sqrt(gap)
    lam_prime = epsilon * m * Uv * sqrtR / gap
    V_prime = -epsilon * a * sqrtR / (m * Uv * gap)
    k0 = _anchor_index(s_grid, anchor)
    lam = cumulative_simpson_anchored(lam_prime, s_grid, k0)
    V = cumulative_simpson_anchored(V_prime, s_grid, k0)
    rho_prime = m * m * Uv * dUv / rho
    return ClosedFormFamily(
        space=FamilySpace("euclidean_helicoidal", a=a) if a != 0.0
        else FamilySpace("euclidean_rotational"),
        m=m, epsilon=epsilon, s_grid=s_grid,
        rho_samples=rho, lam_samples=lam, V_samples=V,
        rho=CubicHermiteSpline(s_grid, rho, rho_prime),
        lam=CubicHermiteSpline(s_grid, lam, lam_prime),
        Vclosed=CubicHermiteSpline(s_grid, V, V_prime),
        anchor_index=k0)


def bcv_closed_form(U, m, epsilon, kappa, tau, a, s_grid, anchor=None):
    """Closed-form screw family in a BCV space.

    The radius is rho = 2 sqrt((m^2 U^2 - a^2)/((1+sqrt(Delta))^2 -
    4 tau^2 m^2 U^2)); the screw angle and flow quadratures share the
    inner radicand rho^2 - m^4 U^2 U'^2 (4 + kappa rho^2)^2 / (16 Delta).
    At kappa = tau = 0 this reduces to the flat family with rho and lam
    identical and the flow quadrature at the opposite branch sign.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    Uv, dUv = U.table(s_grid)
    w = m * Uv
    Delta = (1.0 - 2.0 * a * tau) ** 2 + (4.0 * tau**2 - kappa) * (w * w - a * a)
    if np.any(Delta <= 0):
        k = int(np.argmax(Delta <= 0))
        raise DomainViolationError(
            f"Delta = {Delta[k]:.3e} <= 0 at s = {s_grid[k]:.6g}",
            s=float(s_grid[k]), condition="Delta > 0")
    sD = np.sqrt(Delta)
    den = (1.0 + sD) ** 2 - 4.0 * tau**2 * w * w
    if np.any(den <= 0):
        k = int(np.argmax(den <= 0))
        raise DomainViolationError(
            f"(1+sqrt(Delta))^2 - 4 tau^2 m^2 U^2 = {den[k]:.3e} <= 0 at "
            f"s = {s_grid[k]:.6g}", s=float(s_grid[k]), condition="denominator > 0")
    gap = w * w - a * a
    if np.any(gap <= 0):
        k = int(np.argmax(gap <= 0))
        raise DomainViolationError(
            f"m^2 U^2 - a^2 = {gap[k]:.3e} <= 0 at s = {s_grid[k]:.6g}",
            s=float(s_grid[k]), condition="m^2 U^2 - a^2 > 0")
    rho2 = 4.0 * gap / den
    B = 1.0 + 0.25 * kappa * rho2
    if np.any(B <= 0):
        k = int(np.argmax(B <= 0))
        raise DomainViolationError(
            f"B = {B[k]:.3e} <= 0 at s = {s_grid[k]:.6g}",
            s=float(s_grid[k]), condition="B > 0")
    inner = _clamp_radicand(
        rho2 - m**4 * Uv**2 * dUv**2 * (4.0 + kappa * rho2) ** 2 / (16.0 * Delta),
        s_grid, "rho^2 - m^4 U^2 U'^2 (4+kappa rho^2)^2/(16 Delta)")
    sqrt_inner = np.sqrt(inner)
    lam_prime = epsilon * m * Uv * (4.0 + kappa * rho2) / (4.0 * rho2) * sqrt_inner
    V_prime = -epsilon * ((4.0 * tau - a * kappa) * rho2 - 4.0 * a) \
        / (4.0 * m * Uv * rho2) * sqrt_inner
    k0 = _anchor_index(s_grid, anchor)
    lam = cumulative_simpson_anchored(lam_prime, s_grid, k0)
    V = cumulative_simpson_anchored(V_prime, s_grid, k0)
    rho = np.sqrt(rho2)
    # d(rho^2)/ds for the Hermite radius spline
    dDelta = (4.0 * tau**2 - kappa) * 2.0 * w * m * dUv
    dden = (1.0 + sD) * dDelta / sD - 8.0 * tau**2 * w * m * dUv
    drho2 = (8.0 * w * m * dUv * den - 4.0 * gap * dden) / den**2
    rho_prime = drho2 / (2.0 * rho)
    return ClosedFormFamily(
        space=FamilySpace("bcv_helicoidal", a=a, kappa=kappa, tau=tau),
        m=m, epsilon=epsilon, s_grid=s_grid,
        rho_samples=rho, lam_samples=lam, V_samples=V,
        rho=CubicHermiteSpline(s_grid, rho, rho_prime),
        lam=CubicHermiteSpline(s_grid, lam, lam_prime),
        Vclosed=CubicHermiteSpline(s_grid, V, V_prime),
        anchor_index=k0)
