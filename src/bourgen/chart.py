"""Riemannian 3-metrics in coordinates adapted to a unit-translation symmetry.

A chart stores the six metric coefficients as functions of (x1, x2) only;
the third coordinate field is the symmetry generator, so independence of
x3 is structural rather than checked.  The volume function (length of the
generator) is sqrt(g33), and pairings of invariant functions only ever
need the upper 2x2 block of the inverse metric.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._numerics import central_gradient2, relative_step
from .errors import DomainError, SingularMetricError

DEFAULT_FD_STEP = 1e-6


@dataclass(frozen=True)
class InvariantFunction:
    """A function of (x1, x2) with an optional analytic gradient."""

    value: Callable[[float, float], float]
    gradient: Optional[Callable[[float, float], tuple]] = None
    name: str = ""

    def __call__(self, x1, x2):
        return self.value(x1, x2)

    def gradient_at(self, x1, x2, step=DEFAULT_FD_STEP):
        """Gradient, analytic when available, else central differences."""
        if self.gradient is not None:
            return tuple(self.gradient(x1, x2))
        return central_gradient2(self.value, x1, x2, step)


def as_invariant(f, name=""):
    if isinstance(f, InvariantFunction):
        return f
    return InvariantFunction(value=f, name=name)


@dataclass(frozen=True)
class AdaptedChart3:
    """Ambient 3-metric in symmetry-adapted coordinates.

    Coefficients are callables of (x1, x2) that take floats or arrays
    (``metric_at`` evaluates whole grids); ``domain`` is a predicate for
    the regular region; ``d_g33`` is an optional analytic gradient of g33
    used to sharpen volume-function derivatives.
    """

    g11: Callable[[float, float], float]
    g12: Callable[[float, float], float]
    g13: Callable[[float, float], float]
    g22: Callable[[float, float], float]
    g23: Callable[[float, float], float]
    g33: Callable[[float, float], float]
    domain: Callable[[float, float], bool] = field(default=lambda x1, x2: True)
    label: str = "chart"
    d_g33: Optional[Callable[[float, float], tuple]] = None

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

    def metric_at(self, p):
        """Symmetric 3x3 matrix [g_ij] at p = (x1, x2); for arrays x1, x2
        of one shape, an array of that shape of 3x3 matrices."""
        self.require_in_domain(p)
        x1, x2 = p
        m = np.empty(np.shape(x1) + (3, 3))
        m[..., 0, 0] = self.g11(x1, x2)
        m[..., 0, 1] = m[..., 1, 0] = self.g12(x1, x2)
        m[..., 0, 2] = m[..., 2, 0] = self.g13(x1, x2)
        m[..., 1, 1] = self.g22(x1, x2)
        m[..., 1, 2] = m[..., 2, 1] = self.g23(x1, x2)
        m[..., 2, 2] = self.g33(x1, x2)
        return m

    def inverse_metric_at(self, p):
        """Inverse matrix [g^ij] at p; raises SingularMetricError if
        the metric is not positive there."""
        m = self.metric_at(p)
        det = np.linalg.det(m)
        if det <= 0.0 or not np.isfinite(det):
            raise SingularMetricError(
                f"{self.label}: metric determinant {det:.3e} at {p!r} is not positive")
        return np.linalg.inv(m)

    def volume_at(self, p):
        """sqrt(g33) at p: the length of the symmetry generator."""
        self.require_in_domain(p)
        x1, x2 = p
        g33 = self.g33(x1, x2)
        if g33 <= 0.0:
            raise SingularMetricError(
                f"{self.label}: g33 = {g33:.3e} at {p!r} is not positive")
        return np.sqrt(g33)

    def volume_fn(self):
        """The volume function as an InvariantFunction (analytic gradient
        when the chart provides d_g33)."""
        grad = None
        if self.d_g33 is not None:
            d_g33 = self.d_g33
            g33 = self.g33

            def grad(x1, x2):
                d1, d2 = d_g33(x1, x2)
                w = np.sqrt(g33(x1, x2))
                return d1 / (2.0 * w), d2 / (2.0 * w)

        return InvariantFunction(
            value=lambda x1, x2: np.sqrt(self.g33(x1, x2)),
            gradient=grad, name="omega")


def invariant_pairing(chart, f, h, p, step=DEFAULT_FD_STEP):
    """g(grad f, grad h) at p for invariant functions f, h.

    Only the upper 2x2 block of the inverse metric enters because both
    functions are independent of x3.  Gradients use analytic hooks when
    the functions carry them, otherwise central differences with relative
    step ``step``.
    """
    x1, x2 = p
    f = as_invariant(f)
    h = as_invariant(h)
    # the FD stencil must stay inside the domain
    for fun in (f, h):
        if fun.gradient is None:
            h1 = relative_step(x1, step)
            h2 = relative_step(x2, step)
            for q in ((x1 + h1, x2), (x1 - h1, x2), (x1, x2 + h2), (x1, x2 - h2)):
                if not chart.domain(*q):
                    raise DomainError(
                        f"{chart.label}: finite-difference stencil at {p!r} exits domain")
    ginv = chart.inverse_metric_at(p)
    df = np.array(f.gradient_at(x1, x2, step))
    dh = np.array(h.gradient_at(x1, x2, step))
    return float(df @ ginv[:2, :2] @ dh)


def validate_chart(chart, points):
    """Check symmetry / positive definiteness / g33 > 0 on sample points.

    Raises SingularMetricError (or DomainError) at the first failure.
    """
    for p in points:
        m = chart.metric_at(p)
        # leading principal minors
        if m[0, 0] <= 0 or np.linalg.det(m[:2, :2]) <= 0 or np.linalg.det(m) <= 0:
            raise SingularMetricError(
                f"{chart.label}: metric not positive definite at {tuple(p)!r}")
        if m[2, 2] <= 0:
            raise SingularMetricError(
                f"{chart.label}: g33 not positive at {tuple(p)!r}")
    return True


def chart_from_config(entry):
    """Build a chart from a structured config entry.

    ``entry`` maps the six coefficient names g11, g12, g13, g22, g23, g33
    to expression strings in the variables x1, x2; optional keys:
    ``label`` and ``domain_positive`` (an expression whose positivity
    defines the domain).  The g33 gradient comes from the expression's
    forward-mode derivatives.

    >>> chart_from_config({"g11": "1", "g12": "0", "g13": "x2",
    ...                    "g22": "1", "g23": "-x1",
    ...                    "g33": "x1^2 + x2^2 + 1"}).volume_at((1.0, 0.0))
    np.float64(1.4142135623730951)
    """
    from .expressions import parse_expression

    coeffs = {}
    for name in ("g11", "g12", "g13", "g22", "g23", "g33"):
        if name not in entry:
            raise ValueError(f"chart config is missing coefficient {name!r}")
        coeffs[name] = parse_expression(str(entry[name]), variables=("x1", "x2"))
    domain = lambda x1, x2: True
    if entry.get("domain_positive"):
        guard = parse_expression(str(entry["domain_positive"]),
                                 variables=("x1", "x2"))
        domain = lambda x1, x2: guard(x1, x2) > 0.0
    g33 = coeffs["g33"]
    return AdaptedChart3(
        g11=coeffs["g11"], g12=coeffs["g12"], g13=coeffs["g13"],
        g22=coeffs["g22"], g23=coeffs["g23"], g33=g33,
        domain=domain, label=str(entry.get("label", "config-chart")),
        d_g33=lambda x1, x2: g33.gradient(x1, x2))


def rescale_vertical(chart, c):
    """Chart for the same metric with the symmetry generator divided by c.

    Useful to normalize a constant volume function to 1: g_i3 -> g_i3 / c,
    g33 -> g33 / c^2.
    """
    if c == 0:
        raise ValueError("scale must be nonzero")
    d_g33 = None
    if chart.d_g33 is not None:
        old = chart.d_g33
        d_g33 = lambda x1, x2: tuple(d / (c * c) for d in old(x1, x2))
    return AdaptedChart3(
        g11=chart.g11, g12=chart.g12,
        g13=lambda x1, x2: chart.g13(x1, x2) / c,
        g22=chart.g22,
        g23=lambda x1, x2: chart.g23(x1, x2) / c,
        g33=lambda x1, x2: chart.g33(x1, x2) / (c * c),
        domain=chart.domain, label=f"{chart.label}/rescaled", d_g33=d_g33)
