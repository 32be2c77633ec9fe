"""Riemannian 3-metrics in coordinates adapted to a unit-translation symmetry.

A chart evaluates the six metric coefficients together, as functions of
(x1, x2) only; the third coordinate field is the symmetry generator, so
independence of x3 is structural rather than checked.  The volume
function (length of the generator) is sqrt(g33).  The metric of the
orbit space is the Schur complement q_ab = g_ab - g_a3 g_b3 / g33 of g33
(a, b in {1, 2}), and pairings of invariant functions need only the upper
2x2 block of the inverse metric, which is q^-1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._numerics import central_gradient2, relative_step, sqrt
from .errors import DomainError, SingularMetricError

# relative step of the central differences of an invariant without an
# analytic gradient
FD_STEP = 1e-6


@dataclass(frozen=True)
class InvariantFunction:
    """A function of (x1, x2) with an optional analytic gradient."""

    value: Callable[[float, float], float]
    gradient: Optional[Callable[[float, float], tuple]] = None

    def __call__(self, x1, x2):
        return self.value(x1, x2)

    def gradient_at(self, x1, x2):
        """Gradient, analytic when available, else central differences
        with relative step FD_STEP."""
        if self.gradient is not None:
            return tuple(self.gradient(x1, x2))
        return central_gradient2(self.value, x1, x2, FD_STEP)


def as_invariant(f):
    """f as an InvariantFunction: f itself if it is one, else f's values
    without an analytic gradient."""
    if isinstance(f, InvariantFunction):
        return f
    return InvariantFunction(value=f)


@dataclass(frozen=True)
class AdaptedChart3:
    """Ambient 3-metric in symmetry-adapted coordinates.

    ``metric(x1, x2)`` returns the six coefficients
    (g11, g12, g13, g22, g23, g33) on floats or arrays (``metric_at``
    evaluates whole grids), so every consumer evaluates the chart once per
    point or grid; a constant coefficient may be a plain float.
    ``d_g33(x1, x2)`` is the gradient (dg33/dx1, dg33/dx2) of g33, on
    floats or arrays like ``metric``; it is required, since the volume
    function omega = sqrt(g33) is the invariant that every frame is built
    on, and traced invariants follow its gradient d_g33 / (2 omega).
    ``domain`` is a predicate for the regular region.  A chart without a
    callable ``d_g33`` is refused with a TypeError.
    """

    metric: Callable[[float, float], tuple]
    d_g33: Callable[[float, float], tuple]
    domain: Callable[[float, float], bool] = field(default=lambda x1, x2: True)
    label: str = "chart"

    def __post_init__(self):
        if not callable(self.d_g33):
            raise TypeError(f"{self.label}: d_g33 must be a callable gradient "
                            f"of g33, not {self.d_g33!r}")

    # -- evaluation ---------------------------------------------------------

    def require_in_domain(self, p):
        """Raise DomainError unless p = (x1, x2) lies in the domain; for
        arrays x1, x2, name the first point (C order) outside it."""
        x1, x2 = p
        inside = self.domain(x1, x2)
        if isinstance(inside, np.ndarray):
            if inside.all():
                return
            k = np.argmin(inside)
            p = tuple(np.broadcast_to(x, inside.shape).flat[k] for x in p)
        elif inside:
            return
        raise DomainError(f"{self.label}: point {p!r} outside chart domain")

    def coefficients(self, x1, x2):
        """The six coefficients of ``metric`` at (x1, x2), floats or
        arrays, from one call.  An ArithmeticError or ValueError of the
        chart (a compiled exp that overflows, say) is a DomainError that
        names a point where the chart fails: for arrays, the first one
        (C order), found by calls per point on the error path only."""
        return self._typed(self.metric, x1, x2)

    def _typed(self, fn, x1, x2):
        """fn(x1, x2), one of the chart's callables, with an
        ArithmeticError or ValueError turned into a DomainError that names
        the first point (C order) where a call of fn on its floats
        fails."""
        try:
            return fn(x1, x2)
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"{self.label}: chart evaluation failed at "
                              f"{_first_failure(fn, x1, x2)}: {exc!r}") from exc

    def metric_at(self, p):
        """Symmetric 3x3 matrix [g_ij] at p = (x1, x2); for arrays x1, x2
        of one shape, an array of that shape of 3x3 matrices.  Raises
        DomainError outside the domain and where the chart fails."""
        self.require_in_domain(p)
        x1, x2 = p
        g11, g12, g13, g22, g23, g33 = self.coefficients(x1, x2)
        m = np.empty(np.shape(x1) + (3, 3))
        m[..., 0, 0] = g11
        m[..., 0, 1] = m[..., 1, 0] = g12
        m[..., 0, 2] = m[..., 2, 0] = g13
        m[..., 1, 1] = g22
        m[..., 1, 2] = m[..., 2, 1] = g23
        m[..., 2, 2] = g33
        return m

    def volume_at(self, p):
        """sqrt(g33) at p: the length of the symmetry generator; for arrays
        x1, x2, an array of their shape, and an error naming the first
        point (C order) where g33 is not positive."""
        self.require_in_domain(p)
        return np.sqrt(self._positive_g33(*p))

    def _positive_g33(self, x1, x2):
        """g33 at (x1, x2) from ``coefficients``, for arrays broadcast to
        their shape; a SingularMetricError names the first point (C order)
        where it is not positive."""
        g33 = self.coefficients(x1, x2)[5]
        first, where = g33, (x1, x2)
        if isinstance(x1, np.ndarray) or isinstance(x2, np.ndarray):
            g33, *points = np.broadcast_arrays(g33, x1, x2)
            k = np.argmax(g33 <= 0.0)  # the first nonpositive one, if any
            first = g33.flat[k]
            where = tuple(x.flat[k] for x in points)
        if first <= 0.0:
            raise SingularMetricError(
                f"{self.label}: g33 = {first:.3e} at {where!r} is not positive")
        return g33

    def volume_fn(self):
        """The volume function omega = sqrt(g33) as an InvariantFunction,
        with the analytic gradient d_g33 / (2 omega).  Both take floats or
        arrays; where the chart's ``metric`` or ``d_g33`` fails they raise
        the DomainError of ``coefficients``, and the gradient raises
        SingularMetricError where g33 is not positive."""

        def grad(x1, x2):
            d1, d2 = self._typed(self.d_g33, x1, x2)
            w = sqrt(self._positive_g33(x1, x2))
            return d1 / (2.0 * w), d2 / (2.0 * w)

        return InvariantFunction(
            value=lambda x1, x2: np.sqrt(self.coefficients(x1, x2)[5]),
            gradient=grad)


def _first_failure(fn, x1, x2):
    """The first point (C order) of (x1, x2), floats or arrays, where a
    call of fn on its floats fails, as text."""
    points = np.broadcast_arrays(x1, x2)
    for a, b in zip(*(x.ravel().tolist() for x in points)):
        try:
            fn(a, b)
        except (ArithmeticError, ValueError):
            return f"({a:.6g}, {b:.6g})"
    return f"one of {points[0].size} points, though at none alone"


def quotient_metric(chart, x1, x2):
    """The quotient metric of the orbit space, (q11, q12, q22) at the point
    (x1, x2) of floats: the Schur complement q_ab = g_ab - g_a3 g_b3 / g33
    of g33 in the metric of ``chart``, from one chart call.  (A
    reciprocal of g33 would save nothing: g13 g13 / g33 is as many float
    operations as g13 g13 r, and a subnormal g33 would overflow r.)

    q is the metric of the orbit space and the inverse of the upper 2x2
    block of the inverse metric.  Raises SingularMetricError where g33 is
    not positive, and where the metric determinant det g = g33 det q is
    not, and DomainError where the chart fails.
    """
    g11, g12, g13, g22, g23, g33 = chart.coefficients(x1, x2)
    if g33 <= 0.0:
        raise SingularMetricError(
            f"{chart.label}: g33 = {g33:.3e} at {(x1, x2)!r} is not positive")
    q11 = g11 - g13 * g13 / g33
    q12 = g12 - g13 * g23 / g33
    q22 = g22 - g23 * g23 / g33
    det = g33 * (q11 * q22 - q12 * q12)
    if not 0.0 < det < math.inf:
        raise SingularMetricError(
            f"{chart.label}: metric determinant {det:.3e} at "
            f"({x1!r}, {x2!r}) is not positive")
    return q11, q12, q22


def invariant_first_form(chart, p, v, c):
    """(E, F, G) of the invariant map (u, t) -> (x1(u), x2(u), x3(u) + c t)
    at the foot points p = (x1, x2), arrays of one shape, where v (a shape
    by 3) is the u-derivative and c, a float or an array, the t-derivative
    of x3; the foot points, v's points and c broadcast together, so a foot
    point that serves many t is given once.  The map's t-derivative is
    (0, 0, c), so E = (v g) v is one stacked matmul, F = (v g)_3 c and
    G = (c g33) c: a product with the exact zeros of (0, 0, c) rounds as
    the matmul pairing with it does, so these are its bits.  The metric
    comes from one array call of ``chart.metric_at`` at the foot points.
    """
    g = chart.metric_at(p)
    vg = v[..., None, :] @ g
    return ((vg @ v[..., :, None])[..., 0, 0], vg[..., 0, 2] * c,
            (c * g[..., 2, 2]) * c)


def invariant_pairing(chart, f, h, p):
    """g(grad f, grad h) at p for invariant functions f, h.

    Only the upper 2x2 block of the inverse metric enters because both
    functions are independent of x3, and that block is q^-1, the inverse
    of ``quotient_metric``: the pairing solves a 2x2 system and inverts
    no 3x3 matrix.  Gradients use analytic hooks when the functions carry
    them, otherwise central differences with relative step FD_STEP; when
    h is f, its gradient is taken once.
    """
    x1, x2 = p
    same = h is f
    f = as_invariant(f)
    h = f if same else as_invariant(h)
    # the FD stencil must stay inside the domain
    for fun in (f,) if same else (f, h):
        if fun.gradient is None:
            h1 = relative_step(x1, FD_STEP)
            h2 = relative_step(x2, FD_STEP)
            for q in ((x1 + h1, x2), (x1 - h1, x2), (x1, x2 + h2), (x1, x2 - h2)):
                if not chart.domain(*q):
                    raise DomainError(
                        f"{chart.label}: finite-difference stencil at {p!r} exits domain")
    chart.require_in_domain(p)
    q11, q12, q22 = quotient_metric(chart, x1, x2)
    f1, f2 = f.gradient_at(x1, x2)
    e1, e2 = (f1, f2) if same else h.gradient_at(x1, x2)
    return float((f1 * (q22 * e1 - q12 * e2) + f2 * (q11 * e2 - q12 * e1))
                 / (q11 * q22 - q12 * q12))


def chart_from_config(entry):
    """Build a chart from a structured config entry.

    ``entry`` maps the six coefficient names g11, g12, g13, g22, g23, g33
    to expression strings in the variables x1, x2; optional keys:
    ``label`` and ``domain_positive`` (an expression whose positivity
    defines the domain).  Each role is one compiled function of floats or
    arrays (``expressions.compiled``): ``metric`` evaluates the six
    coefficients in one call, ``domain`` the guard, and ``d_g33`` the g33
    gradient, from the expression's forward-mode derivatives, so a point
    costs one call per role.

    >>> chart_from_config({"g11": "1", "g12": "0", "g13": "x2",
    ...                    "g22": "1", "g23": "-x1",
    ...                    "g33": "x1^2 + x2^2 + 1"}).volume_at((1.0, 0.0))
    np.float64(1.4142135623730951)
    """
    from .expressions import compiled

    variables = ("x1", "x2")

    def coefficients():  # each checked, then parsed, in turn
        for name in ("g11", "g12", "g13", "g22", "g23", "g33"):
            if name not in entry:
                raise ValueError(f"chart config is missing coefficient {name!r}")
            yield str(entry[name])

    metric = compiled(coefficients(), variables)
    domain = lambda x1, x2: True
    if entry.get("domain_positive"):
        guard = compiled([str(entry["domain_positive"])], variables)
        domain = lambda x1, x2: guard(x1, x2) > 0.0
    return AdaptedChart3(
        metric=metric,
        d_g33=compiled([str(entry["g33"])], variables, variables, value=False),
        domain=domain, label=str(entry.get("label", "config-chart")))


def rescale_vertical(chart, c):
    """Chart for the same metric with the symmetry generator divided by c.

    Useful to normalize a constant volume function to 1: g_i3 -> g_i3 / c,
    g33 -> g33 / c^2.
    """
    if c == 0:
        raise ValueError("scale must be nonzero")
    metric, d_g33 = chart.metric, chart.d_g33

    def rescaled(x1, x2):
        g11, g12, g13, g22, g23, g33 = metric(x1, x2)
        return g11, g12, g13 / c, g22, g23 / c, g33 / (c * c)

    return AdaptedChart3(
        metric=rescaled,
        d_g33=lambda x1, x2: tuple(d / (c * c) for d in d_g33(x1, x2)),
        domain=chart.domain, label=f"{chart.label}/rescaled")
