"""Natural parameters of an invariant surface.

Any invariant surface parametrized along a lifted curve by the symmetry
flow has induced metric E du^2 + 2F du dv + G dv^2 with coefficients
depending on u only.  Natural parameters (s, t) normalize this to
ds^2 + U(s)^2 dt^2 by
    s = integral of sqrt(E - F^2/G) du,      t = v + integral of F/G du,
with U(s)^2 = G(u(s)).  The s-lines are then unit-speed geodesics
orthogonal to the orbits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from ._numerics import (
    cumulative_simpson_anchored,
    distinct_values,
    require_s_in_range,
)
from .errors import DegenerateParametrizationError

_POSITIVITY_PROBES = 256


@dataclass(frozen=True)
class LiftedCurve:
    """Samples (u, x1, x2, x3) of a curve in adapted coordinates,
    strictly increasing in u."""

    u: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray

    def __post_init__(self):
        for name in ("u", "x1", "x2", "x3"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        n = len(self.u)
        if n < 4:
            raise ValueError("a lifted curve needs at least 4 samples")
        if any(len(getattr(self, k)) != n for k in ("x1", "x2", "x3")):
            raise ValueError("coordinate arrays must share the u grid")
        if not np.all(np.diff(self.u) > 0):
            raise ValueError("u samples must be strictly increasing")

    @classmethod
    def from_csv(cls, path):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        return cls(u=data[:, 0], x1=data[:, 1], x2=data[:, 2], x3=data[:, 3])

    def to_csv(self, path):
        data = np.column_stack([self.u, self.x1, self.x2, self.x3])
        np.savetxt(path, data, delimiter=",", header="u,x1,x2,x3", comments="")


@dataclass(frozen=True)
class PullbackCoefficients:
    """First-fundamental-form coefficients along a lifted curve."""

    u: np.ndarray
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray

    def rows(self):
        return list(zip(self.u, self.E, self.F, self.G))


def pullback_coefficients(chart, curve):
    """E = g(c', c'), F = g(c', X), G = g(X, X) along the lifted curve.

    Derivatives are finite differences on the sample grid (central in the
    interior, one-sided at the ends).
    """
    du = [np.gradient(arr, curve.u, edge_order=2)
          for arr in (curve.x1, curve.x2, curve.x3)]
    n = len(curve.u)
    E = np.empty(n)
    F = np.empty(n)
    G = np.empty(n)
    for k in range(n):
        g = chart.metric_at((curve.x1[k], curve.x2[k]))
        v = np.array([du[0][k], du[1][k], du[2][k]])
        E[k] = v @ g @ v
        F[k] = v @ g[:, 2]
        G[k] = g[2, 2]
    return PullbackCoefficients(u=curve.u.copy(), E=E, F=F, G=G)


class GeneratrixMetric:
    """The positive function U(s) defining the metric ds^2 + U(s)^2 dt^2.

    Carries an exact or approximate derivative; sampled tables use
    monotone-cubic (PCHIP) interpolation, so derivative-based radicand
    checks are then approximate.  U and U' take a float or an array of s;
    expression and table generatrices evaluate arrays in one call, with
    the values of the float calls.
    """

    def __init__(self, U, dU, s_range, representation="callable", source=None):
        self._U = U
        self._dU = dU
        self.s_range = (float(s_range[0]), float(s_range[1]))
        if not self.s_range[0] < self.s_range[1]:
            raise ValueError("empty s_range")
        self.representation = representation
        self.source = source
        probes = np.linspace(*self.s_range, _POSITIVITY_PROBES)
        vals = self._array(self._U, probes)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            bad = probes[int(np.argmin(vals))]
            raise ValueError(f"U(s) must be positive and finite on s_range; "
                             f"U({bad:.6g}) = {self(bad):.6g}")

    def _array(self, fn, s):
        """fn at every element of the array s: one call, unless U is a
        plain callable, which is called per element."""
        if self.representation != "callable":
            return fn(s)
        return np.array([fn(x) for x in s.ravel()]).reshape(s.shape)

    def __call__(self, s):
        if np.ndim(s) == 0:
            return float(self._U(s))
        return self._array(self._U, np.asarray(s, dtype=float)).astype(float)

    def derivative(self, s):
        if np.ndim(s) == 0:
            return float(self._dU(s))
        return self._array(self._dU, np.asarray(s, dtype=float)).astype(float)

    @classmethod
    def from_expression(cls, expression, s_range):
        from .expressions import Expression, parse_expression
        expr = (expression if isinstance(expression, Expression)
                else parse_expression(expression))
        return cls(U=expr, dU=expr.derivative, s_range=s_range,
                   representation="expression", source=expr.text)

    @classmethod
    def from_callable(cls, U, s_range, dU=None, fd_step=1e-6):
        if dU is None:
            def dU(s, _U=U, _h=fd_step):
                h = _h * max(1.0, abs(s))
                return (_U(s + h) - _U(s - h)) / (2.0 * h)
        return cls(U=U, dU=dU, s_range=s_range, representation="callable")

    @classmethod
    def from_samples(cls, s, values):
        s = np.asarray(s, dtype=float)
        values = np.asarray(values, dtype=float)
        if not np.all(np.diff(s) > 0):
            raise ValueError("sample grid must be strictly increasing")
        spline = PchipInterpolator(s, values)
        return cls(U=spline, dU=spline.derivative(),
                   s_range=(s[0], s[-1]), representation="table",
                   source=(s.copy(), values.copy()))

    @classmethod
    def from_csv(cls, path):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        return cls.from_samples(data[:, 0], data[:, 1])

    def to_csv(self, path, n=201):
        s = np.linspace(*self.s_range, n)
        np.savetxt(path, np.column_stack([s, self(s)]), delimiter=",",
                   header="s,U", comments="")

    def table(self, s_grid):
        """(U, U') at every element of s_grid, as arrays; an expression
        gives both from one walk."""
        s_grid = np.asarray(s_grid, dtype=float)
        if self.representation == "expression":
            return self._U.dual(s_grid)
        return self(s_grid), self.derivative(s_grid)


@dataclass(frozen=True)
class NaturalParameters:
    """Result of the natural-parameter extraction.  The three maps are
    monotone-cubic interpolants that take scalars or arrays."""

    s_of_u: PchipInterpolator
    u_of_s: PchipInterpolator
    t_shift: PchipInterpolator  # function of u; v = t - t_shift(u)
    U: GeneratrixMetric
    u_samples: np.ndarray
    s_samples: np.ndarray


def to_natural(coeffs, eta=1e-10):
    """Extract natural parameters from pullback coefficients.

    s is the cumulative quadrature of sqrt(E - F^2/G); U(s) = sqrt(G(u(s)))
    through the monotone-cubic inverse of s(u); t_shift is the cumulative
    quadrature of F/G.  Raises DegenerateParametrizationError when the
    curve is tangent to the orbits (E - F^2/G not positive).
    """
    E, F, G = coeffs.E, coeffs.F, coeffs.G
    if np.any(G <= 0):
        raise DegenerateParametrizationError("G must be positive along the curve")
    speed_sq = E - F * F / G
    if np.any(speed_sq <= eta):
        k = int(np.argmin(speed_sq))
        raise DegenerateParametrizationError(
            f"E - F^2/G = {speed_sq[k]:.3e} at u = {coeffs.u[k]:.6g}: "
            "curve tangent to the orbits")
    s = cumulative_simpson_anchored(np.sqrt(speed_sq), coeffs.u, 0)
    if not np.all(np.diff(s) > 0):
        raise DegenerateParametrizationError("arc length failed to increase")
    shift = cumulative_simpson_anchored(F / G, coeffs.u, 0)
    U = GeneratrixMetric.from_samples(s, np.sqrt(G))
    return NaturalParameters(
        s_of_u=PchipInterpolator(coeffs.u, s),
        u_of_s=PchipInterpolator(s, coeffs.u),
        t_shift=PchipInterpolator(coeffs.u, shift),
        U=U, u_samples=coeffs.u.copy(), s_samples=s)


class ReparametrizedSurface:
    """The original invariant surface re-parametrized in natural
    coordinates: map (s, t) -> (x1(u(s)), x2(u(s)), x3(u(s)) + t - t_shift(u(s))).

    Satisfies the same evaluation protocol as a generated family member,
    so it can be fed to the isometry verifier directly.
    """

    def __init__(self, curve, nat):
        self.curve = curve
        self.nat = nat
        self.m = 1.0
        self._sx1 = PchipInterpolator(curve.u, curve.x1)
        self._sx2 = PchipInterpolator(curve.u, curve.x2)
        self._sx3 = PchipInterpolator(curve.u, curve.x3)
        self.s_range = (float(nat.s_samples[0]), float(nat.s_samples[-1]))

    def map(self, s, t):
        """The natural-coordinate map at broadcastable s, t, with the same
        array protocol as SurfaceMember.map: interpolants are evaluated
        once per distinct s."""
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float),
                                   np.asarray(t, dtype=float))
        require_s_in_range(s, self.s_range, "surface range")
        values, index = distinct_values(s)
        u = self.nat.u_of_s(values)
        return (self._sx1(u)[index][()], self._sx2(u)[index][()],
                (self._sx3(u)[index] + t - self.nat.t_shift(u)[index])[()])
