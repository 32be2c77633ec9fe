"""The characteristic tracer: its fused field, RK4 step and level trace
give, to the bit, what separate calls on 2-vectors give, and fail where
and how they fail; ``value`` inverts the level trace, returns the arc
length on the Cauchy curve, raises where no level trace reaches x, and
takes a pinned number of level traces; a self-pairing takes one
gradient."""
import copy
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bourgen as bg
from bourgen import quotient
from bourgen.chart import invariant_pairing
from bourgen.errors import (
    BourgenError,
    DegenerateGradientError,
    DomainError,
    SingularMetricError,
)
from conftest import (
    counting_chart,
    kernel_step,
    omega_span,
    quotient_matrix,
    set_level_ratio,
    swept_nodes,
)
from test_characteristic_frame import (
    CURVED,
    CURVED_RECT,
    LONG_STEP,
    _long_step_traced,
)


def _same(a, b):
    """Equal shapes and bytes: the same floats to the bit."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# reference: the field and the RK4 step on 2-vectors
# ---------------------------------------------------------------------------

def _ref_field(tr, x):
    """The characteristic velocity a = q^-1 d at x, from the quotient
    metric q of ``quotient_metric`` and the omega gradient d of
    ``volume_fn().gradient_at``, by Cramer's rule on 2-vectors."""
    x1, x2 = x
    if not tr.chart.domain(x1, x2):
        raise DomainError(
            f"characteristic left the chart domain at ({x1:.6g}, {x2:.6g})")
    q11, q12, q22 = bg.quotient_metric(tr.chart, x1, x2)
    d1, d2 = tr.chart.volume_fn().gradient_at(x1, x2)
    a = (np.array([q22 * d1 - q12 * d2, q11 * d2 - q12 * d1])
         / (q11 * q22 - q12 * q12))
    floor = quotient._GRAD_FLOOR
    if a[0] * d1 + a[1] * d2 < floor ** 2:
        raise DegenerateGradientError(
            f"|grad omega| below {floor:g} at ({x1:.6g}, {x2:.6g})")
    return a


def _ref_rk4_step(tr, x, h, sign):
    # the stages carry the sign, where the kernel folds it into h
    k1 = sign * _ref_field(tr, x)
    k2 = sign * _ref_field(tr, x + 0.5 * h * k1)
    k3 = sign * _ref_field(tr, x + 0.5 * h * k2)
    k4 = sign * _ref_field(tr, x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# ---------------------------------------------------------------------------
# traced invariants under test
# ---------------------------------------------------------------------------

def _radial_chart():
    return bg.AdaptedChart3(
        metric=lambda a, b: (1.0, 0.0, 0.0, 1.0, 0.0, a * a + b * b),
        d_g33=lambda a, b: (2.0 * a, 2.0 * b),
        domain=lambda a, b: a * a + b * b > 1e-4, label="radial")


def _unit_arc():
    return bg.CauchyCurve(
        point=lambda sig: np.array([math.cos(sig - 0.75), math.sin(sig - 0.75)]),
        length=1.5)


CASES = {
    # the flat helicoidal segment of test_quotient
    "helicoidal": lambda: bg.solve_orthogonal_invariant(
        bg.make_chart(bg.SpaceSpec("euclidean_helicoidal", a=1.0)),
        bg.line_segment((1.0, -0.6), (1.0, 0.6)),
        np.linspace(0.0, 1.2, 61), n_steps=220),
    # the arc curve of test_quotient, on the radial chart
    "arc": lambda: bg.solve_orthogonal_invariant(
        _radial_chart(), _unit_arc(), np.linspace(0, 1.5, 41), n_steps=150),
    # a slanted segment on a BCV chart
    "bcv": lambda: bg.solve_orthogonal_invariant(
        bg.make_chart(bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0)),
        bg.line_segment((0.6, -0.4), (0.7, 0.4)),
        np.linspace(0.0, 0.8, 41), n_steps=120),
    # the rotational chart, whose characteristics run along x1 and whose
    # domain is x1 > 0: tracing back from x1 = 0.5 by 0.0025 per step (the
    # unit segment's step) leaves it after about 200 of the 480 steps
    "rotational": lambda: bg.solve_orthogonal_invariant(
        bg.make_chart(bg.SpaceSpec("euclidean_rotational")),
        bg.line_segment((0.5, -0.5), (0.5, 0.5)),
        np.linspace(0.0, 1.0, 11), n_steps=480),
}


@functools.cache
def _traced(name):
    return CASES[name]()


def test_radial_chart_takes_the_longest_candidate():
    # with its exact d_g33 the radial chart is probed like every chart,
    # and its characteristics are rays, exact to rounding at L/6.25
    tr = _traced("arc")
    assert tr.level_step == 64 * tr.step
    assert tr.level_n_steps == math.ceil(150 / 64) == 3


# ---------------------------------------------------------------------------
# value: the inverse of the level trace
# ---------------------------------------------------------------------------

def _closed_theta(name, x1, x2):
    """theta where the characteristics are known: the rays from the
    origin of the helicoidal, BCV and radial charts, and the lines
    x2 = const of the rotational chart."""
    if name == "rotational":
        return x2 + 0.5
    if name == "arc":
        return math.atan2(x2, x1) + 0.75
    (p1, p2), (q1, q2) = {"helicoidal": ((1.0, -0.6), (1.0, 0.6)),
                          "bcv": ((0.6, -0.4), (0.7, 0.4))}[name]
    length = math.hypot(q1 - p1, q2 - p2)
    d1, d2 = (q1 - p1) / length, (q2 - p2) / length
    # the arc length of the segment point p + sigma d on the ray through x
    return (p1 * x2 - p2 * x1) / (x1 * d2 - x2 * d1)


# the largest |value(level_point(w, t)) - t| on the points of
# test_value_inverts_the_level_trace was 1.1e-16 on the helicoidal, BCV
# and rotational charts (2.2e-16 over 300 random levels and arc lengths
# each), and 2.2e-16 on the radial chart (2.5e-16 over 300)
_ROUND_TRIP = {"helicoidal": 5e-16, "bcv": 5e-16, "rotational": 5e-16,
               "config": 5e-16, "arc": 5e-16}


@pytest.mark.parametrize("name", sorted(CASES) + ["config"])
def test_value_inverts_the_level_trace(name):
    # the levels of swept nodes, from random arc lengths; on the config
    # chart, with 5 nodes and a reach of 20 steps, the level traces from
    # the nodes nearest x often fall short of the level
    tr = _five(name)
    rng = np.random.default_rng(6)
    errors = []
    for x1, x2 in swept_nodes(tr, rng, 16):
        w = tr.chart.volume_at((x1, x2))
        for t in rng.uniform(0.0, tr.cauchy.length, 2).tolist():
            try:
                p = tr.level_point(w, t)
            except DomainError:
                continue
            errors.append(abs(tr.value(*p) - t))
    assert len(errors) >= 20
    assert max(errors) <= _ROUND_TRIP[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_on_the_cauchy_curve(name):
    # the ends are nodes, whose level point is the Cauchy point itself
    tr = _traced(name)
    length = tr.cauchy.length
    assert tr.value(*tr.cauchy.point_at(0.0)) == 0.0
    assert tr.value(*tr.cauchy.point_at(length)) == length
    assert abs(tr.value(*tr.cauchy.point_at(0.37)) - 0.37) <= 1e-15


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("x1, x2", [(5.0, 4.9), (-3.0, 0.2), (0.05, -2.5)])
def test_value_outside_the_swept_region(name, x1, x2):
    # points that no characteristic from the curve reaches, (-3, 0.2)
    # across the origin on the ray charts and outside the rotational
    # chart's domain x1 > 0
    tr = _traced(name)
    with pytest.raises(DomainError, match=rf"^point \({x1:g}, {x2:g}\) is "
                       "outside the swept region of the characteristic grid$"):
        tr.value(x1, x2)


def test_value_refuses_a_root_far_from_x():
    # with the orientation flipped, the walk from (-1.2, 0.1) heads toward
    # the other crossing of the level circle with the line through x along
    # its ray, across the origin, and brackets it; that root's level point
    # lies 2 |x| from x and is not taken
    tr = copy.copy(_traced("helicoidal"))
    tr._turn = -tr._turn
    with pytest.raises(DomainError, match="outside the swept region"):
        tr.value(-1.2, 0.1)


# swept nodes of test_value_raises_where_no_level_trace_reaches whose
# level trace fails: on the rotational chart, those that swept_nodes left
# at x1 = 0.0025, where its trace steps stop, and where a level step's
# stages cross the domain's edge x1 = 0
_UNREACHED = {"helicoidal": 0, "arc": 0, "bcv": 0, "rotational": 8}
# the largest |value - closed-form theta| there was 2.2e-16 on every
# chart (on the radial chart also over 200 random points)
_CLOSED = {"helicoidal": 5e-16, "bcv": 5e-16, "rotational": 5e-16,
           "arc": 5e-16}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_raises_where_no_level_trace_reaches(name):
    # at swept nodes, value gives the closed-form theta, and raises
    # exactly where the level trace from that theta to omega(x) fails
    tr = _traced(name)
    unreached = 0
    for x1, x2 in swept_nodes(tr, np.random.default_rng(5), 32).tolist():
        theta = _closed_theta(name, x1, x2)
        try:
            tr.level_point(tr.chart.volume_at((x1, x2)), theta)
        except DomainError:
            unreached += 1
            with pytest.raises(DomainError, match="outside the swept region"):
                tr.value(x1, x2)
            continue
        assert abs(tr.value(x1, x2) - theta) <= _CLOSED[name]
    assert unreached == _UNREACHED[name]


def _curved_traced():
    return bg.solve_orthogonal_invariant(
        bg.chart_from_config(CURVED), bg.line_segment((1.0, -0.5), (1.0, 0.5)),
        np.linspace(0.0, 1.0, 11))


@pytest.mark.parametrize("make, rect, traces", [
    (lambda: _traced("helicoidal"), ((1.3, 1.8), (0.3, 0.9)), 149),
    (_curved_traced, CURVED_RECT, 173)], ids=["helicoidal", "curved"])
def test_value_level_traces(make, rect, traces):
    # level traces of 20 values at the points of seeded (omega, theta) of
    # a frame's rect: the walk to a bracket and the secant steps.  Over 200
    # points of the same seed the mean was 7.8 per value on the flat
    # helicoidal chart and 8.9 on the curved config chart of
    # test_characteristic_frame (7.8 and 9.0 when the landing re-stepped
    # from the step's start; the secant steps see other rounding)
    tr = make()
    rng = np.random.default_rng(8)
    points = [tr.level_point(rng.uniform(*rect[0]), rng.uniform(*rect[1]))
              for _ in range(20)]
    calls = 0
    level_point = tr.level_point

    def counted(w, sigma):
        nonlocal calls
        calls += 1
        return level_point(w, sigma)

    tr.level_point = counted
    try:
        for p in points:
            tr.value(*p)
    finally:
        del tr.level_point
    assert calls == traces


def test_point_outside_domain_is_outside_swept_region():
    # omega is not defined at x1 < 0, and the error stays the tracer's
    tr = _traced("rotational")
    assert not tr.chart.domain(-0.3, 0.1)
    with pytest.raises(DomainError, match=r"^point \(-0\.3, 0\.1\) is "
                       "outside the swept region of the characteristic grid$"):
        tr.value(-0.3, 0.1)


def test_array_volume_names_first_nonpositive_g33():
    chart = bg.make_chart(bg.SpaceSpec("euclidean_helicoidal", a=1.0))
    x1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    x2 = np.zeros((2, 2))
    shifted = bg.AdaptedChart3(
        metric=lambda a, b: chart.metric(a, b)[:5] + (6.0 - a * a,),
        d_g33=lambda a, b: (-2.0 * a, 0.0), label="shifted")
    assert _same(chart.volume_at((x1, x2)),
                 [[chart.volume_at((a, b)) for a, b in zip(r1, r2)]
                  for r1, r2 in zip(x1, x2)])
    with pytest.raises(SingularMetricError,
                       match=r"g33 = -3\.000e\+00 at \(3, 0\) is not positive$"):
        shifted.volume_at((x1, x2))
    # numpy scalars print as numbers, not as np.float64(...)
    with pytest.raises(SingularMetricError) as info:
        shifted.volume_at((np.float64(3.0), np.float64(0.0)))
    assert "np.float64" not in str(info.value)
    assert str(info.value).endswith("g33 = -3.000e+00 at (3, 0) is not positive")


# ---------------------------------------------------------------------------
# the fused trace field
# ---------------------------------------------------------------------------

@functools.cache
def _config_traced():
    # the flat helicoidal metric (a = 1) as config expressions, cut to the
    # disc of radius 2
    chart = bg.chart_from_config({
        "g11": "1", "g12": "0", "g13": "x2", "g22": "1", "g23": "-x1",
        "g33": "x1^2 + x2^2 + 1", "domain_positive": "4 - x1^2 - x2^2"})
    return bg.solve_orthogonal_invariant(
        chart, bg.line_segment((1.0, -0.6), (1.0, 0.6)),
        np.linspace(0.0, 1.2, 5), n_steps=20)


# the three built-in charts, a config chart, and the radial chart of "arc"
_FIVE = sorted(CASES) + ["config"]


def _five(name):
    return _config_traced() if name == "config" else _traced(name)


def _composed_field(tr, x1, x2):
    """The field, the omega gradient, omega and the quotient metric as
    separate calls compose them: ``_ref_field`` (``quotient_metric`` and
    ``volume_fn().gradient_at``), then the gradient again, omega from
    ``volume_at`` and q from ``quotient_metric``."""
    a1, a2 = _ref_field(tr, (x1, x2))
    return ((a1, a2) + tuple(tr.chart.volume_fn().gradient_at(x1, x2))
            + (tr.chart.volume_at((x1, x2)),)
            + bg.quotient_metric(tr.chart, x1, x2))


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(_FIVE),
       x1=st.floats(-3.0, 3.0), x2=st.floats(-3.0, 3.0))
def test_fused_field_equals_composition(name, x1, x2):
    # outside the domain, at the origin (where |grad omega| vanishes on
    # the flat charts) and wherever the composition fails, the fused field
    # fails with the same error type
    tr = _five(name)
    try:
        want = _composed_field(tr, x1, x2)
    except Exception as exc:  # noqa: BLE001 - any error must match
        with pytest.raises(type(exc)):
            tr._field(x1, x2)
        return
    assert _same(tr._field(x1, x2), want)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(_FIVE),
       x1=st.floats(-3.0, 3.0), x2=st.floats(-3.0, 3.0))
def test_quotient_metric_inverts_the_inverse_metric_block(name, x1, x2):
    # the Schur complement of g33 against the inverse of the upper block
    # of np.linalg.inv(g), within 1e-13 of q's largest entry (on 20000
    # random domain points of each chart the largest difference was
    # 4.8e-15; the metrics are positive definite on the whole square)
    chart = _five(name).chart
    if not chart.domain(x1, x2):
        return
    g = chart.metric_at((x1, x2))
    if g[2, 2] < np.finfo(float).tiny:
        # g33 = x1^2 is subnormal or zero near the rotational chart's
        # axis, where the reference overflows: q is the identity there,
        # unless g33 is 0
        if g[2, 2] == 0.0:
            with pytest.raises(SingularMetricError, match="g33 = 0"):
                bg.quotient_metric(chart, x1, x2)
        else:
            assert _same(quotient_matrix(chart, (x1, x2)), np.eye(2))
        return
    want = np.linalg.inv(np.linalg.inv(g)[:2, :2])
    got = quotient_matrix(chart, (x1, x2))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# the bound kernel: RK4 steps, level traces and chart calls
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(_FIVE), x1=st.floats(-3.0, 3.0),
       x2=st.floats(-3.0, 3.0), scale=st.floats(0.0, 2.0),
       sign=st.sampled_from([1.0, -1.0]))
# a component -0.0 whose stage velocities are zeros of both signs: the
# backward step keeps the reference's +0.0
@example(name="bcv", x1=1.0, x2=-0.0, scale=0.0, sign=-1.0)
@example(name="helicoidal", x1=-0.0, x2=0.5, scale=1.0, sign=-1.0)
def test_kernel_rk4_step_equals_reference(name, x1, x2, scale, sign):
    # the kernel's step on floats against the step on 2-vectors, in both
    # flow directions, with steps up to twice the tracer's
    tr = _five(name)
    h = scale * tr.step
    try:
        want = _ref_rk4_step(tr, np.array([x1, x2]), h, sign)
    except Exception as exc:  # noqa: BLE001 - any error must match
        with pytest.raises(type(exc)):
            kernel_step(tr, x1, x2, h, sign)
        return
    assert _same(kernel_step(tr, x1, x2, h, sign), want)


def _ref_rate(tr, x):
    """|grad omega|^2 = a . d at x, from ``_ref_field`` and
    ``volume_fn().gradient_at``."""
    a = _ref_field(tr, x)
    d1, d2 = tr.chart.volume_fn().gradient_at(*x)
    return a[0] * d1 + a[1] * d2


def _ref_level_point(tr, w, sigma, landing=None):
    """The level trace on 2-vectors: RK4 steps of ``level_step`` from the
    Cauchy point at arc length sigma toward the level omega = w, as far in
    flow time as ``level_n_steps`` of them, a step that fails (the field
    at its stages or at its end) halved down to the floor step, omega from
    ``volume_at``, and the landing by Newton's method on the length h of
    the partial step, with the arithmetic of ``level_point`` and
    ``_land``: the RK4 step of the inverse Hermite guess from the step's
    start, then per correction dh of h an RK4 step of the new h from the
    start where |dh| > _LAND_RESTEP step, a midpoint step from the latest
    iterate where |dh| > _LAND_EULER step, and an Euler step from it
    otherwise, up to an iterate that the correction left where it was.
    When ``landing`` is a list, each iterate whose omega the landing
    evaluates is appended to it as (kind, point, omega - w), kind "rk4",
    "midpoint" or "euler": the step that made it."""
    if not 0.0 <= sigma <= tr.cauchy.length:
        raise DomainError(f"arc length {sigma!r} outside the data curve's range")
    x = tr.cauchy.point_at(sigma)
    w_x = tr.chart.volume_at(tuple(x))
    if w_x == w:
        return tuple(x)
    sign = 1.0 if w > w_x else -1.0
    step, left = tr.level_step, tr.level_n_steps
    while True:
        if not left:
            raise DomainError(f"omega = {w!r} not reached")
        try:
            y = _ref_rk4_step(tr, x, step, sign)
            _ref_field(tr, y)
        except BourgenError:
            if step <= quotient._LEVEL_STEP_FLOOR * tr.step:
                raise
            step, left = 0.5 * step, 2 * left
            continue
        w_y = tr.chart.volume_at(tuple(y))
        if sign * (w_y - w) >= 0.0:
            break
        x, w_x, left = y, w_y, left - 1
    h = quotient._hermite_guess(step, sign, w, w_x, w_y, _ref_rate(tr, x),
                                _ref_rate(tr, y))
    tol = 1e-15 * max(1.0, abs(w))
    y, kind = _ref_rk4_step(tr, x, h, sign), "rk4"
    best = None
    for _ in range(quotient._LAND_MAXITER):
        r = tr.chart.volume_at(tuple(y)) - w
        if landing is not None:
            landing.append((kind, tuple(y), r))
        if best is not None and abs(r) >= abs(best[1]):
            break
        best = (y, r)
        if abs(r) <= tol:
            break
        last, h = h, min(max(h - r / (sign * _ref_rate(tr, y)), 0.0), step)
        dh = h - last
        k1 = sign * _ref_field(tr, y)
        if abs(dh) > quotient._LAND_RESTEP * step:
            y, kind = _ref_rk4_step(tr, x, h, sign), "rk4"
        elif abs(dh) > quotient._LAND_EULER * step:
            m = y + 0.5 * dh * k1
            h = min(max(last - r / (sign * _ref_rate(tr, m)), 0.0), step)
            y, kind = y + (h - last) * (sign * _ref_field(tr, m)), "midpoint"
        else:
            y, kind = y + dh * k1, "euler"
        if np.array_equal(y, best[0]):
            break
    return tuple(best[0])


@settings(max_examples=200, deadline=None)
@given(tau=st.floats(0.0, 2.0), step=st.floats(0.01, 1.0),
       t=st.floats(0.0, 1.0), sign=st.sampled_from([1.0, -1.0]))
def test_hermite_guess_is_exact_for_a_quadratic_inverse(tau, step, t, sign):
    # omega = sqrt(1 + tau) along a flow of rate d omega / d tau =
    # 1 / (2 omega), whose inverse tau = omega^2 - 1 is a cubic (of degree
    # two), so the inverse Hermite guess is the flow time to the level up
    # to rounding, in both directions of the flow
    if sign < 0.0 and tau < step:
        tau += step
    w_x, w_y = math.sqrt(1.0 + tau), math.sqrt(1.0 + tau + sign * step)
    w = w_x + t * (w_y - w_x)
    h = quotient._hermite_guess(step, sign, w, w_x, w_y, 0.5 / w_x, 0.5 / w_y)
    assert 0.0 <= h <= step
    assert abs(h - sign * (w * w - 1.0 - tau)) <= 1e-14 * max(1.0, tau)


@functools.cache
def _omega_span(name):
    return omega_span(_five(name))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(_FIVE), at=st.floats(-0.05, 1.05),
       u=st.floats(-0.1, 1.1))
# levels near the rotational chart's edge x1 = 0, where the level step of
# L/6.25 runs over it and halves down to L/100: one the halved steps
# reach (omega = 0.015), one they do not (0.005)
@example(name="rotational", at=0.5, u=0.0074)
@example(name="rotational", at=0.5, u=0.0015)
def test_level_point_equals_reference(name, at, u):
    # levels across the span of omega that the traces from the middle of
    # the data curve reach, a little beyond it, from arc lengths a little
    # beyond both ends of its range; where the reference fails (outside
    # the range, a level not reached, a trace that leaves the domain),
    # level_point fails with the same error type
    tr = _five(name)
    sigma = at * tr.cauchy.length
    lo, hi = _omega_span(name)
    w = lo + u * (hi - lo)
    try:
        want = _ref_level_point(tr, w, sigma)
    except Exception as exc:  # noqa: BLE001 - any error must match
        with pytest.raises(type(exc)):
            tr.level_point(w, sigma)
        return
    assert _same(tr.level_point(w, sigma), want)


@functools.cache
def _landing_pair(name):
    """A traced invariant of test_landing_meets_the_level_and_the_fine_tracer,
    the same invariant at L/1600, and the span of omega of ``omega_span``."""
    make = (_curved_traced if name == "curved"
            else functools.partial(_long_step_traced, name))
    traced = make()
    return traced, set_level_ratio(make(), 0.25), omega_span(traced)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["flat", "bcv", "bcv_kappa_negative", "curved"]),
       at=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0))
# the Cauchy points at both ends of the kappa < 0 chart, with the level of
# the point 2.5 times as far out on the ray, short of the domain's edge
# (radius 2.83): the longer steps run over it, the level lies at 32% of
# the rise in omega of the step halved to L/25, the Hermite guess clamps
# to the full step, and the landing re-steps from the step's start four
# times before a midpoint and two Euler corrections, and stops 6.1e-13
# (5e-15 relative) from the level, as omega is steep there; with short
# steps in place of the re-steps the level point lands 1.3e-13 off the
# ray and 1.2e-13 from the fine tracer's
@example(name="bcv_kappa_negative", at=0.0, u=1.0)
@example(name="bcv_kappa_negative", at=1.0, u=1.0)
def test_landing_meets_the_level_and_the_fine_tracer(name, at, u):
    # the landing's RK4 step and its midpoint, Euler and re-step
    # corrections, on the flat helicoidal, BCV (kappa > 0) and kappa < 0
    # charts of test_long_level_step_meets_the_fine_tracer, at L/6.25,
    # and on the curved config chart at L/100.  The level point lies on
    # the level within 1e-15 max(1, |w|), or is the closest of the
    # landing's iterates (the reference records them), and meets the
    # tracer at L/1600 within 1e-14 max(1, |x|) on the flat and BCV
    # charts, as test_long_level_step_meets_the_fine_tracer, and 1e-11 on
    # the curved chart (on its rect, as
    # test_level_step_error_is_below_the_stencil_noise); levels as there:
    # the span of omega_span, that of the point 0.5 to 2.5 times as far
    # out on the ray on the kappa < 0 chart, the rect on the curved chart.
    # On the kappa < 0 chart the bound is 2.5e-14 max(1, |x|): within the
    # last 0.5% of that span on the ray from arc length 0, the level
    # points of a landing by RK4 re-steps were up to 1.60e-14 relative
    # from the fine tracer's (36 of 1000 levels above 1e-14), and these
    # up to 1.66e-14 (40 of 1000)
    traced, fine, (lo, hi) = _landing_pair(name)
    sigma = at * traced.cauchy.length
    if name == "curved":
        (w0, w1), (t0, t1) = CURVED_RECT
        w, sigma = w0 + u * (w1 - w0), t0 + at * (t1 - t0)
    elif name == "bcv_kappa_negative":
        p0 = np.array(traced.cauchy.point(sigma))
        w = traced.chart.volume_at(tuple((0.5 + 2.0 * u) * p0))
    else:
        w = lo + u * (hi - lo)
    try:
        want = fine.level_point(w, sigma)
    except DomainError:
        return  # beyond the reach from this arc length
    landing = []
    got = traced.level_point(w, sigma)
    assert _same(got, _ref_level_point(traced, w, sigma, landing))
    miss = abs(traced.chart.volume_at(got) - w)
    assert (miss <= 1e-15 * max(1.0, abs(w))
            or miss == min(abs(r) for _, _, r in landing))
    if name == "curved":
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-11
    else:
        bound = 2.5e-14 if name == "bcv_kappa_negative" else 1e-14
        assert (math.hypot(got[0] - want[0], got[1] - want[1])
                <= bound * max(1.0, math.hypot(*want)))


def _counting_traced(name="flat"):
    """The traced invariant ``LONG_STEP[name]`` of test_characteristic_frame
    (the flat one is the helicoidal case here) on a chart that counts its
    calls, and the counts, by callable name."""
    spec, (p0, p1), arcs, n_steps = LONG_STEP[name]
    chart, calls = counting_chart(bg.make_chart(spec),
                                  ("domain", "metric", "d_g33"))
    segment = bg.line_segment(p0, p1)
    tr = bg.solve_orthogonal_invariant(
        chart, segment, np.linspace(0.0, segment.length, arcs),
        n_steps=n_steps)
    calls.update(dict.fromkeys(calls, 0))
    return tr, calls


def test_field_makes_three_chart_calls():
    # the domain, the metric and d_g33, each once
    tr, calls = _counting_traced()
    assert _same(tr._field(1.3, 0.4), _traced("helicoidal")._field(1.3, 0.4))
    assert calls == {"domain": 1, "metric": 1, "d_g33": 1}


@pytest.mark.parametrize("name, w, sigma, kinds, halved", [
    ("flat", 1.6, 0.45, ["rk4", "midpoint"], 0),
    ("flat", 1.35, 1.1, ["rk4", "midpoint"], 0),
    ("flat", 1.17, 0.33, ["rk4", "midpoint", "euler"], 0),
    ("flat", 1.5343, 0.8096, ["rk4", "euler"], 0),
    ("bcv_kappa_negative", 13.56, 0.14,
     ["rk4", "rk4", "rk4", "midpoint", "euler"], 0),
    ("bcv_kappa_negative", 123.56239989036578, 0.0,
     ["rk4"] * 5 + ["midpoint", "euler"], 2)])
def test_level_trace_step_makes_four_field_evaluations(name, w, sigma, kinds,
                                                       halved):
    # the field at the data point, then per RK4 step (full, or the landing's
    # first or re-step) the three inner stages and the step's end, whose
    # omega is the level test and whose velocity is the next step's k1, per
    # midpoint correction its midpoint and its end, and per Euler
    # correction its end: no other chart evaluation.  The landings here
    # take a midpoint correction, one and an Euler one, an Euler one alone,
    # and (on the kappa < 0 chart, near its edge) two re-steps first.  The
    # last case is the @example of
    # test_landing_meets_the_level_and_the_fine_tracer at arc length 0:
    # two steps whose third stage leaves the domain (a domain call without
    # a metric call, and no end) are halved, and after four re-steps, a
    # midpoint and an Euler correction the next Euler correction is below
    # the point's rounding, so the landing stops without evaluating the
    # same point again (65 metric calls when it did)
    tr, calls = _counting_traced(name)
    steps = 0
    rk4_step = tr._rk4_step

    def counted(*args):
        nonlocal steps
        steps += 1
        return rk4_step(*args)

    tr._rk4_step = counted
    got = tr.level_point(w, sigma)
    landing = []
    assert _same(got, _ref_level_point(_landing_pair(name)[0], w, sigma,
                                       landing))
    assert [kind for kind, _, _ in landing] == kinds
    assert steps > 1
    evaluations = (1 + 4 * steps + 2 * kinds.count("midpoint")
                   + kinds.count("euler") - halved)
    assert calls == {"domain": evaluations, "metric": evaluations - halved,
                     "d_g33": evaluations - halved}


# ---------------------------------------------------------------------------
# the self-pairing
# ---------------------------------------------------------------------------

def test_self_pairing_takes_one_gradient(monkeypatch):
    tr = _traced("helicoidal")
    calls = []
    value = tr.value

    def counted(x1, x2):
        calls.append((x1, x2))
        return value(x1, x2)

    monkeypatch.setattr(tr, "value", counted)
    p = (1.3, 0.4)
    same = invariant_pairing(tr.chart, tr, tr, p)
    assert len(calls) == 4
    calls.clear()
    twin = invariant_pairing(tr.chart, tr, lambda x1, x2: tr(x1, x2), p)
    assert len(calls) == 8
    assert _same(same, twin)
