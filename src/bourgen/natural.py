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

from ._numerics import (
    cumulative_simpson_anchored,
    distinct_values,
    require_s_in_range,
)
from ._splines import HermiteSpline, pchip
from ._text import write_csv
from .chart import invariant_first_form
from .errors import DegenerateParametrizationError

_POSITIVITY_PROBES = 256
# GeneratrixMetric.to_csv: rows of the written table
_CSV_ROWS = 201
# to_natural: the smallest E - F^2/G accepted along the curve
_SPEED_SQ_FLOOR = 1e-10


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
        u, x1, x2, x3 = _csv_columns(path, "u,x1,x2,x3")
        return cls(u=u, x1=x1, x2=x2, x3=x3)

    def to_csv(self, path):
        write_csv(path, "u,x1,x2,x3", [self.u, self.x1, self.x2, self.x3])


def _csv_columns(path, header):
    """The columns of a CSV file with one header line, as arrays; a file
    whose rows do not hold one value per name of ``header`` is a
    ValueError."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    names = header.split(",")
    if data.shape[1] != len(names):
        raise ValueError(f"expected the {len(names)} columns {header}, "
                         f"found {data.shape[1]}")
    return data.T


@dataclass(frozen=True)
class PullbackCoefficients:
    """First-fundamental-form coefficients along a lifted curve."""

    u: np.ndarray
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray


def pullback_coefficients(chart, curve):
    """E = g(c', c'), F = g(c', X), G = g(X, X) along the lifted curve,
    where X = (0, 0, 1) is the symmetry generator: the first form of the
    invariant map (u, v) -> (x1(u), x2(u), x3(u) + v), from
    ``chart.invariant_first_form`` with x3_v = 1.

    Derivatives are finite differences on the sample grid (central in the
    interior, one-sided at the ends).  The metric along the whole curve
    comes from one array call of ``chart.metric_at``.
    """
    v = np.stack([np.gradient(arr, curve.u, edge_order=2)
                  for arr in (curve.x1, curve.x2, curve.x3)], axis=-1)
    E, F, G = invariant_first_form(chart, (curve.x1, curve.x2), v, 1.0)
    return PullbackCoefficients(u=curve.u.copy(), E=E, F=F, G=G)


class GeneratrixMetric:
    """The positive function U(s) defining the metric ds^2 + U(s)^2 dt^2.

    ``representation`` is "expression" (an exact derivative) or "table"
    (sampled values under monotone-cubic (PCHIP) interpolation, so
    derivative-based radicand checks are then approximate).  U and U'
    take a float or an array of s, and evaluate an array in one call,
    with the values of the float calls.  ``source`` is the text of an
    expression generatrix, and the (knots, values) arrays of a table.
    """

    def __init__(self, U, dU, s_range, representation, source=None):
        self._U = U
        self._dU = dU
        self.s_range = (float(s_range[0]), float(s_range[1]))
        if not self.s_range[0] < self.s_range[1]:
            raise ValueError("empty s_range")
        self.representation = representation
        self.source = source
        probes = np.linspace(*self.s_range, _POSITIVITY_PROBES)
        try:
            vals = self._U(probes)
        except ArithmeticError as exc:  # an expression's division or power
            raise ValueError(f"U(s) must be positive and finite on s_range; "
                             f"{exc}") from exc
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            bad = probes[int(np.argmin(vals))]
            raise ValueError(f"U(s) must be positive and finite on s_range; "
                             f"U({bad:.6g}) = {self(bad):.6g}")

    def __call__(self, s):
        # a float is tested by its class before np.ndim, as the compiled
        # expressions do: np.ndim of a float takes longer than a compiled
        # expression's value there
        if s.__class__ is float or np.ndim(s) == 0:
            return float(self._U(s))
        return self._U(np.asarray(s, dtype=float)).astype(float)

    def derivative(self, s):
        if s.__class__ is float or np.ndim(s) == 0:
            return float(self._dU(s))
        return self._dU(np.asarray(s, dtype=float)).astype(float)

    @classmethod
    def from_expression(cls, expression, s_range):
        from .expressions import Expression, parse_expression
        expr = (expression if isinstance(expression, Expression)
                else parse_expression(expression))
        return cls(U=expr, dU=expr.derivative, s_range=s_range,
                   representation="expression", source=expr.text)

    @classmethod
    def from_samples(cls, s, values):
        s = np.asarray(s, dtype=float)
        values = np.asarray(values, dtype=float)
        if s.size < 2:
            raise ValueError("a table generatrix needs at least two samples")
        if not np.all(np.diff(s) > 0):
            raise ValueError("sample grid must be strictly increasing")
        spline = pchip(s, values)
        return cls(U=spline, dU=spline.derivative(),
                   s_range=(s[0], s[-1]), representation="table",
                   source=(s, values))

    @classmethod
    def from_csv(cls, path):
        return cls.from_samples(*_csv_columns(path, "s,U"))

    def to_csv(self, path):
        """Write U at _CSV_ROWS evenly spaced s of s_range as columns s,U."""
        s = np.linspace(*self.s_range, _CSV_ROWS)
        write_csv(path, "s,U", [s, self(s)])

    def table(self, s):
        """(U, U') at s: floats for a float s, arrays of its shape for an
        array, with the values of ``__call__`` and ``derivative``; an
        expression gives both from one call of its dual function."""
        if self.representation != "expression":
            return self(s), self.derivative(s)
        if s.__class__ is float or np.ndim(s) == 0:
            value, slope = self._U.dual(s)
            return float(value), float(slope)
        return self._U.dual(np.asarray(s, dtype=float))


@dataclass(frozen=True)
class NaturalParameters:
    """Result of the natural-parameter extraction.  The two maps are
    monotone-cubic interpolants that take scalars or arrays."""

    u_of_s: HermiteSpline
    t_shift: HermiteSpline  # function of u; v = t - t_shift(u)
    U: GeneratrixMetric
    s_samples: np.ndarray


def to_natural(coeffs):
    """Extract natural parameters from pullback coefficients.

    s is the cumulative quadrature of sqrt(E - F^2/G); U(s) = sqrt(G(u(s)))
    through the monotone-cubic inverse of s(u); t_shift is the cumulative
    quadrature of F/G.  Raises DegenerateParametrizationError when the
    curve is tangent to the orbits (E - F^2/G at most _SPEED_SQ_FLOOR).
    """
    E, F, G = coeffs.E, coeffs.F, coeffs.G
    if np.any(G <= 0):
        raise DegenerateParametrizationError("G must be positive along the curve")
    speed_sq = E - F * F / G
    if np.any(speed_sq <= _SPEED_SQ_FLOOR):
        k = int(np.argmin(speed_sq))
        raise DegenerateParametrizationError(
            f"E - F^2/G = {speed_sq[k]:.3e} at u = {coeffs.u[k]:.6g}: "
            "curve tangent to the orbits")
    s = cumulative_simpson_anchored(np.sqrt(speed_sq), coeffs.u, 0)
    if not np.all(np.diff(s) > 0):
        raise DegenerateParametrizationError("arc length failed to increase")
    shift = cumulative_simpson_anchored(F / G, coeffs.u, 0)
    U = GeneratrixMetric.from_samples(s, np.sqrt(G))
    return NaturalParameters(u_of_s=pchip(s, coeffs.u),
                             t_shift=pchip(coeffs.u, shift), U=U, s_samples=s)


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
        self._sx1 = pchip(curve.u, curve.x1)
        self._sx2 = pchip(curve.u, curve.x2)
        self._sx3 = pchip(curve.u, curve.x3)
        self.s_range = (float(nat.s_samples[0]), float(nat.s_samples[-1]))

    def map(self, s, t):
        """The natural-coordinate map at broadcastable s, t, with the same
        array protocol as SurfaceMember.map: x1 and x2 in the shape of s,
        x3 in the broadcast shape of s and t, and the interpolants
        evaluated once per distinct s."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        require_s_in_range(s, self.s_range, "surface range")
        values, index = distinct_values(s)
        u = self.nat.u_of_s(values)
        return (self._sx1(u)[index][()], self._sx2(u)[index][()],
                (self._sx3(u)[index] + t - self.nat.t_shift(u)[index])[()])
