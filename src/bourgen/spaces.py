"""Built-in ambient spaces and their closed-form screw-surface families.

Three space kinds are provided in adapted coordinates:

* ``euclidean_helicoidal`` -- flat R^3 with the pitch-a screw field;
  metric dx1^2 + dx2^2 + (x1^2+x2^2+a^2) dx3^2 + 2(x2 dx1 - x1 dx2) dx3.
* ``euclidean_rotational`` -- flat R^3 with the pure rotation field, in
  coordinates (x1, x2, x3) = (r, z, azimuth); metric dx1^2 + dx2^2 + x1^2 dx3^2.
* ``bcv_helicoidal`` -- the two-parameter (kappa, tau) family of
  homogeneous 3-metrics with the pitch-a screw field.

Each space has one built-in frame, theta-free (its gradient norms depend
on omega alone), with an analytic volume gradient, analytic inversion of
(omega, theta) and closed-form gradient norms.  theta is x2 in the
rotational space and, in the screw spaces, the polar angle atan2(x2, x1),
which has no pole when a profile winds past the x2-axis.

Chart metrics, invariant gradients and the callables of the built-in
frames take floats or arrays, and give arrays equal element by element
to the float results (see ``_numerics.square``).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
import numpy as np

from ._numerics import (
    RADICAND_CLAMP,
    atan2,
    cos,
    cumulative_simpson_anchored,
    hypot,
    sin,
    sqrt,
    square,
)
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
        for name in ("a", "kappa", "tau"):
            value = getattr(self, name)
            # abs, unlike math.isfinite, takes an int of any size
            if not abs(value) <= sys.float_info.max:
                raise SpecError(f"{self.kind} needs a finite {name}, "
                                f"not {value!r}")
        if self.kind in ("euclidean_helicoidal", "bcv_helicoidal") and self.a == 0.0:
            raise SpecError(f"{self.kind} requires pitch a != 0 "
                            "(use euclidean_rotational for a = 0)")
        if self.kind == "euclidean_rotational" and self.a != 0.0:
            raise SpecError("euclidean_rotational has no pitch; set a = 0")

    def to_dict(self):
        return {"kind": self.kind, "a": self.a, "kappa": self.kappa,
                "tau": self.tau}


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def make_chart(spec):
    """Adapted chart of a built-in space, with the analytic g33 gradient."""
    a = spec.a
    if spec.kind == "euclidean_helicoidal":
        return AdaptedChart3(
            metric=lambda x1, x2: (1.0, 0.0, x2, 1.0, -x1,
                                   x1 * x1 + x2 * x2 + a * a),
            domain=lambda x1, x2: True,
            label=f"euclidean_helicoidal(a={a:g})",
            d_g33=lambda x1, x2: (2.0 * x1, 2.0 * x2))
    if spec.kind == "euclidean_rotational":
        return AdaptedChart3(
            metric=lambda x1, x2: (1.0, 0.0, 0.0, 1.0, 0.0, x1 * x1),
            domain=lambda x1, x2: x1 > 0.0,
            label="euclidean_rotational",
            d_g33=lambda x1, x2: (2.0 * x1, 0.0))
    # bcv_helicoidal
    kappa, tau = spec.kappa, spec.tau

    def B_of(r2):
        return 1.0 + 0.25 * kappa * r2

    def C_of(r2):
        return a * B_of(r2) - r2 * tau

    def metric(x1, x2):
        r2 = x1 * x1 + x2 * x2
        B2 = square(B_of(r2))
        C = C_of(r2)
        twist = tau * C - 1.0
        return ((1.0 + tau**2 * x2 * x2) / B2,
                -x1 * x2 * tau**2 / B2,
                twist * x2 / B2,
                (1.0 + tau**2 * x1 * x1) / B2,
                -twist * x1 / B2,
                (square(C) + x1 * x1 + x2 * x2) / B2)

    def d_g33(x1, x2):
        r2 = x1 * x1 + x2 * x2
        B = B_of(r2)
        C = C_of(r2)
        dC = 0.25 * a * kappa - tau
        dQ = 2.0 * C * dC + 1.0
        d_r2 = (dQ - (C * C + r2) * 0.5 * kappa / B) / (B * B)
        return (2.0 * x1 * d_r2, 2.0 * x2 * d_r2)

    return AdaptedChart3(
        metric=metric,
        domain=lambda x1, x2: B_of(x1 * x1 + x2 * x2) > 0.0,
        label=f"bcv(kappa={kappa:g},tau={tau:g},a={a:g})",
        d_g33=d_g33)


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


def _first_nonpositive(values):
    """Index of the first element <= 0 of the 1-d array values, or its
    length when there is none."""
    bad = values <= 0
    return int(np.argmax(bad)) if bad.any() else len(values)


def _require_positive(values, s_grid, label, condition):
    """Raise DomainViolationError at the first sample where values <= 0."""
    k = _first_nonpositive(values)
    if k < len(values):
        raise DomainViolationError(
            f"{label} = {values[k]:.3e} <= 0 at s = {s_grid[k]:.6g}",
            s=float(s_grid[k]), condition=condition)


def _bcv_valid_prefix(spec, ws):
    """k such that the closed-form frame of a BCV space is valid at the
    omega samples ws[:k] and not at ws[k]: the discriminant, the
    denominator, the radius and B are positive there.

    Each condition is evaluated on the prefix where the earlier ones
    hold, so no value is taken outside its domain.
    """
    a, kappa, tau = spec.a, spec.kappa, spec.tau
    w = ws[:_first_nonpositive(_bcv_delta(ws, kappa, tau, a))]
    den = _bcv_denominator(w, kappa, tau, a)
    k = _first_nonpositive(den)
    w, den = w[:k], den[:k]
    r2 = 4.0 * (w * w - a * a) / den
    r2 = r2[:_first_nonpositive(r2)]
    return _first_nonpositive(1.0 + 0.25 * kappa * r2)


# bcv_valid_omega_range: the omega samples of its scan, and how far above
# |a| the scan reaches
_BCV_SCAN_SAMPLES = 2048
_BCV_SCAN_REACH = 20.0


def bcv_valid_omega_range(spec):
    """Largest omega interval above |a| on which the closed-form frame of a
    BCV space is valid (positive discriminant, denominator, radius, B),
    from a scan of _BCV_SCAN_SAMPLES omega samples up to
    |a| + _BCV_SCAN_REACH."""
    lo = abs(spec.a) * (1.0 + 1e-9) + 1e-12
    ws = np.linspace(lo, abs(spec.a) + _BCV_SCAN_REACH, _BCV_SCAN_SAMPLES)
    k = _bcv_valid_prefix(spec, ws)
    if k == 0:
        raise DomainViolationError(
            f"no valid omega interval above |a| for {spec}", condition="omega range")
    last = ws[k - 1]
    margin = 1e-3 * (last - lo) if last > lo else 0.0
    return (lo, float(last - margin))


# theta window of every built-in frame
_THETA_RANGE = (-100.0, 100.0)


def builtin_frame(spec):
    """Quotient frame of a built-in space with analytic inversion.

    The transverse invariant is x2 for the rotational space and the polar
    angle for the screw spaces; both gradient norms depend on omega alone,
    so the frame is theta-free.  The rectangle is a generous window: theta
    in _THETA_RANGE, and omega from just above |a| to 100 above it (for
    BCV, ``bcv_valid_omega_range``, where the closed-form inversion is
    valid).
    """
    chart = make_chart(spec)
    omega = chart.volume_fn()
    a = spec.a

    if spec.kind == "euclidean_rotational":
        theta = InvariantFunction(value=lambda x1, x2: x2,
                                  gradient=lambda x1, x2: (0.0, 1.0))
        return QuotientFrame(
            chart=chart, omega=omega, theta=theta,
            grad_omega_sq=lambda w, t: 1.0,
            grad_theta_sq=lambda w, t: 1.0,
            invert=lambda w, t: (w, t),
            rect=((1e-9, 100.0), _THETA_RANGE),
            label=f"{chart.label}/frame", theta_free=True)

    if spec.kind == "euclidean_helicoidal":
        omega_range = (abs(a) * (1.0 + 1e-12) + 1e-12, abs(a) + 100.0)

        def r_of(w):
            return sqrt(w * w - a * a)

        def grad_omega_sq(w, t):
            return (w * w - a * a) / (w * w)

        def grad_theta_sq(w, t):
            return w * w / (a * a * (w * w - a * a))

    else:  # bcv_helicoidal
        kappa, tau = spec.kappa, spec.tau
        omega_range = bcv_valid_omega_range(spec)

        def r_of(w):
            return sqrt(_bcv_r2(w, kappa, tau, a))

        def grad_omega_sq(w, t):
            D = _bcv_delta(w, kappa, tau, a)
            sD = sqrt(D)
            den = _bcv_denominator(w, kappa, tau, a)
            return D * (w * w - a * a) * den / (w * w * square(1.0 - 2.0 * a * tau + sD))

        def grad_theta_sq(w, t):
            D = _bcv_delta(w, kappa, tau, a)
            sD = sqrt(D)
            den = _bcv_denominator(w, kappa, tau, a)
            return w * w * square(1.0 - 2.0 * a * tau + sD) / (
                a * a * (w * w - a * a) * den)

    theta = InvariantFunction(
        value=lambda x1, x2: math.atan2(x2, x1),
        gradient=lambda x1, x2: (-x2 / (x1 * x1 + x2 * x2),
                                 x1 / (x1 * x1 + x2 * x2)))

    def invert(w, t):
        r = r_of(w)
        return (r * cos(t), r * sin(t))

    return QuotientFrame(
        chart=chart, omega=omega, theta=theta,
        grad_omega_sq=grad_omega_sq, grad_theta_sq=grad_theta_sq,
        invert=invert, rect=(omega_range, _THETA_RANGE),
        label=f"{chart.label}/frame",
        branch_sign=1 if a >= 0 else -1, theta_free=True)


# ---------------------------------------------------------------------------
# coordinate export
# ---------------------------------------------------------------------------

def to_ambient_coords(spec, p):
    """Printed coordinate change of the space: cartesian (x, y, z) for the
    Euclidean kinds, cylindrical (r, azimuth, z) for BCV.  p = (x1, x2, x3)
    holds floats or arrays of one shape; arrays give arrays equal element
    by element to the float results."""
    x1, x2, x3 = p
    if spec.kind == "euclidean_helicoidal":
        c, s = cos(x3), sin(x3)
        return (x1 * c + x2 * s, x2 * c - x1 * s, spec.a * x3)
    if spec.kind == "euclidean_rotational":
        # adapted (r, z, azimuth) -> cartesian
        return (x1 * cos(x3), x1 * sin(x3), x2)
    return (hypot(x1, x2), x3 + atan2(x2, x1), spec.a * x3)


def mesh_xyz(spec, p):
    """Cartesian embedding used for mesh export; floats or arrays, as
    ``to_ambient_coords``."""
    if spec.kind == "bcv_helicoidal":
        r, th, z = to_ambient_coords(spec, p)
        return (r * cos(th), r * sin(th), z)
    return to_ambient_coords(spec, p)


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------

def _clamp_radicand(values, s_grid, condition):
    """Clamp grazing-zero radicands; error on genuinely negative ones.

    The deadband is RADICAND_CLAMP, that of the profile right-hand side.
    """
    values = np.asarray(values, dtype=float)
    bad = values <= -RADICAND_CLAMP
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DomainViolationError(
            f"radicand {condition} = {values[k]:.3e} < 0 at s = {s_grid[k]:.6g}",
            s=float(s_grid[k]), condition=condition)
    values = np.where(np.abs(values) < RADICAND_CLAMP, 0.0, values)
    return np.maximum(values, 0.0)


@dataclass(frozen=True)
class ClosedFormFamily:
    """One member of a closed-form screw family: samples of the radius
    rho(s), the screw angle lam(s) and the s-part V(s) of the flow
    parameter on s_grid, the last two anchored to zero at the anchor
    sample.  ``kind`` and ``a`` name the space; unlike SpaceSpec, a = 0 is
    allowed for the screw kinds: the printed quadratures survive that
    limit (rotational members), even though the corresponding adapted
    chart does not."""

    kind: str
    a: float
    m: float
    epsilon: int
    s_grid: np.ndarray
    rho_samples: np.ndarray
    lam_samples: np.ndarray
    V_samples: np.ndarray
    anchor_index: int = 0


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
    _require_positive(gap, s_grid, "m^2 U^2 - a^2", "m^2 U^2 - a^2 > 0")
    R = _clamp_radicand(mU2 * (1.0 - (m * dUv) ** 2) - a * a, s_grid,
                        "m^2 U^2 (1 - m^2 U'^2) - a^2")
    sqrtR = np.sqrt(R)
    rho = np.sqrt(gap)
    lam_prime = epsilon * m * Uv * sqrtR / gap
    V_prime = -epsilon * a * sqrtR / (m * Uv * gap)
    k0 = _anchor_index(s_grid, anchor)
    lam = cumulative_simpson_anchored(lam_prime, s_grid, k0)
    V = cumulative_simpson_anchored(V_prime, s_grid, k0)
    return ClosedFormFamily(
        kind="euclidean_helicoidal" if a != 0.0 else "euclidean_rotational",
        a=a, m=m, epsilon=epsilon, s_grid=s_grid,
        rho_samples=rho, lam_samples=lam, V_samples=V,
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
    _require_positive(Delta, s_grid, "Delta", "Delta > 0")
    sD = np.sqrt(Delta)
    den = (1.0 + sD) ** 2 - 4.0 * tau**2 * w * w
    _require_positive(den, s_grid, "(1+sqrt(Delta))^2 - 4 tau^2 m^2 U^2",
                      "denominator > 0")
    gap = w * w - a * a
    _require_positive(gap, s_grid, "m^2 U^2 - a^2", "m^2 U^2 - a^2 > 0")
    rho2 = 4.0 * gap / den
    _require_positive(1.0 + 0.25 * kappa * rho2, s_grid, "B", "B > 0")
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
    return ClosedFormFamily(
        kind="bcv_helicoidal", a=a, m=m, epsilon=epsilon, s_grid=s_grid,
        rho_samples=rho, lam_samples=lam, V_samples=V,
        anchor_index=k0)
