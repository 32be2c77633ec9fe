"""The fast characteristic tracer: scalar stepping with the crossing
prefilter, the first direction taken from omega and the self-pairing give,
to the bit, what the per-point trace with a crossing test at every step
gives, and fail where and how it fails."""
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bourgen as bg
from bourgen import quotient
from bourgen.chart import invariant_pairing
from bourgen.errors import (
    DegenerateGradientError,
    DomainError,
    SingularMetricError,
)
from conftest import kernel_step, quotient_matrix, swept_nodes


def _same(a, b):
    """Equal shapes and bytes: the same floats to the bit."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# reference: the per-point trace on 2-vectors, every step tested against
# the whole polyline, in both directions
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
    d1, d2 = tr._omega.gradient_at(x1, x2)
    a = (np.array([q22 * d1 - q12 * d2, q11 * d2 - q12 * d1])
         / (q11 * q22 - q12 * q12))
    if a[0] * d1 + a[1] * d2 < tr.grad_floor ** 2:
        raise DegenerateGradientError(
            f"|grad omega| below {tr.grad_floor:g} at ({x1:.6g}, {x2:.6g})")
    return a


def _ref_rk4_step(tr, x, h, sign):
    # the stages carry the sign, where the kernel folds it into h
    k1 = sign * _ref_field(tr, x)
    k2 = sign * _ref_field(tr, x + 0.5 * h * k1)
    k3 = sign * _ref_field(tr, x + 0.5 * h * k2)
    k4 = sign * _ref_field(tr, x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _ref_crossing_from(tr, x, sign):
    x_prev = np.asarray(x, dtype=float)
    for _ in range(tr.n_steps):
        x_next = _ref_rk4_step(tr, x_prev, tr.step, sign)
        hit = tr._segment_crossing(x_prev, x_next)
        if hit is not None:
            return (x_prev, x_next) + hit
        x_prev = x_next
    return None


def _ref_value(tr, x1, x2):
    """The crossing of the trace from (x1, x2) with the Cauchy curve.  Both
    directions are traced, and at most one may cross, unless (x1, x2) lies
    on the curve: then both cross at the start of their first step and
    must give the same value to the bit."""
    x = np.array([x1, x2], dtype=float)
    distance = np.hypot(*(tr._poly_pts - x).T)
    if np.min(distance) < 1e-12:
        return tr._proj_sigma(x, int(np.argmin(distance)))
    values = []
    for sign in (1.0, -1.0):
        try:
            hit = _ref_crossing_from(tr, x, sign)
        except (DomainError, DegenerateGradientError):
            hit = None
        if hit is not None:
            x_a, x_b, sig0, u0 = hit
            values.append((_same(x_a, x) and abs(u0) < 1e-9,
                           tr._refine_crossing(x_a, x_b, sign, sig0, u0)))
    if len(values) == 2:
        (on_a, a), (on_b, b) = values
        assert on_a and on_b and _same(a, b), (x1, x2, values)
    if values:
        return values[0][1]
    raise DomainError(
        f"point ({x1:.6g}, {x2:.6g}) is outside the swept region of the "
        "characteristic grid")


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (DomainError, DegenerateGradientError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# traced invariants under test
# ---------------------------------------------------------------------------

def _radial_chart():
    return bg.AdaptedChart3(
        metric=lambda a, b: (1.0, 0.0, 0.0, 1.0, 0.0, a * a + b * b),
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
    # the arc curve of test_quotient, on a chart without d_g33
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_matches_unfiltered_trace(name):
    tr = _traced(name)
    rng = np.random.default_rng(5)
    points = list(swept_nodes(tr, rng, 8))
    # on the curve: nodes of the polyline and between them
    points += [tr.cauchy.point_at(s) for s in (0.0, 0.37, tr.cauchy.length)]
    # outside the swept region, where both signs fail
    points += [(5.0, 4.9), (-3.0, 0.2), (0.05, -2.5)]
    failed = 0
    for x1, x2 in points:
        x1, x2 = float(x1), float(x2)
        got = _outcome(tr.value, x1, x2)
        want = _outcome(_ref_value, tr, x1, x2)
        assert got[0] == want[0], (name, x1, x2, got, want)
        if got[0] == "value":
            assert _same(got[1], want[1]), (name, x1, x2, got, want)
        else:
            assert got[1] == want[1]
            failed += 1
    assert failed >= 2


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
        label="shifted")
    assert _same(chart.volume_at((x1, x2)),
                 [[chart.volume_at((a, b)) for a, b in zip(r1, r2)]
                  for r1, r2 in zip(x1, x2)])
    with pytest.raises(SingularMetricError, match=r"g33 = -3\.000e\+00 .*3\.0"):
        shifted.volume_at((x1, x2))


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


# the three built-in charts, a config chart, and the radial chart of "arc",
# which has no d_g33
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


def _ref_level_point(tr, w, sigma):
    """The level trace on 2-vectors: at most ``level_n_steps`` RK4 steps
    of ``level_step`` from the Cauchy point at arc length sigma toward
    the level omega = w, omega from ``volume_at``, and the landing step's
    length by Newton's method in the flow time, with the arithmetic of
    ``level_point`` and ``_land``."""
    if not 0.0 <= sigma <= tr.cauchy.length:
        raise DomainError(f"arc length {sigma!r} outside the data curve's range")
    x = tr.cauchy.point_at(sigma)
    w_x = tr.chart.volume_at(tuple(x))
    if w_x == w:
        return tuple(x)
    sign = 1.0 if w > w_x else -1.0
    for _ in range(tr.level_n_steps):
        y = _ref_rk4_step(tr, x, tr.level_step, sign)
        w_y = tr.chart.volume_at(tuple(y))
        if sign * (w_y - w) >= 0.0:
            break
        x, w_x = y, w_y
    else:
        raise DomainError(f"omega = {w!r} not reached")
    step = tr.level_step
    h = step * (w - w_x) / (w_y - w_x)
    tol = 1e-15 * max(1.0, abs(w))
    best = None
    for _ in range(quotient._LAND_MAXITER):
        y = _ref_rk4_step(tr, x, h, sign)
        r = tr.chart.volume_at(tuple(y)) - w
        if best is not None and abs(r) >= abs(best[1]):
            break
        best = (y, r)
        if abs(r) <= tol:
            break
        a = _ref_field(tr, y)
        d1, d2 = tr._omega.gradient_at(*y)
        h = min(max(h - r / (sign * (a[0] * d1 + a[1] * d2)), 0.0), step)
    return tuple(best[0])


@functools.cache
def _omega_span(name):
    """omega at the ends of the traces from the middle of the data curve,
    n_steps steps backward and forward, or as far as they stay in the
    domain."""
    tr = _five(name)
    ends = []
    for sign in (-1.0, 1.0):
        x1, x2 = tr.cauchy.point_at(0.5 * tr.cauchy.length).tolist()
        for _ in range(tr.n_steps):
            try:
                x1, x2 = kernel_step(tr, x1, x2, tr.step, sign)
            except (DomainError, DegenerateGradientError):
                break
        ends.append(float(tr.chart.volume_at((x1, x2))))
    return tuple(ends)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(_FIVE), at=st.floats(-0.05, 1.05),
       u=st.floats(-0.1, 1.1))
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


def _counting_traced():
    """The helicoidal traced invariant on a chart that counts its calls,
    and the counts, by callable name."""
    base = bg.make_chart(bg.SpaceSpec("euclidean_helicoidal", a=1.0))
    names = ("domain", "metric", "d_g33")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(x1, x2):
            calls[name] += 1
            return fn(x1, x2)
        return call

    chart = dataclasses.replace(
        base, **{n: counted(n, getattr(base, n)) for n in names})
    tr = bg.solve_orthogonal_invariant(
        chart, bg.line_segment((1.0, -0.6), (1.0, 0.6)),
        np.linspace(0.0, 1.2, 61), n_steps=220)
    calls.update(dict.fromkeys(names, 0))
    return tr, calls


def test_field_makes_three_chart_calls():
    # the domain, the metric and d_g33, each once
    tr, calls = _counting_traced()
    assert _same(tr._field(1.3, 0.4), _traced("helicoidal")._field(1.3, 0.4))
    assert calls == {"domain": 1, "metric": 1, "d_g33": 1}


@pytest.mark.parametrize("w, sigma", [(1.6, 0.45), (1.35, 1.1), (1.2, 0.3)])
def test_level_trace_step_makes_four_field_evaluations(w, sigma):
    # the field at the data point, then per RK4 step (full or landing) the
    # three inner stages and the step's end, whose omega is the level test
    # and whose velocity is the next step's k1: no other chart evaluation
    tr, calls = _counting_traced()
    steps = 0
    rk4_step = tr._rk4_step

    def counted(*args):
        nonlocal steps
        steps += 1
        return rk4_step(*args)

    tr._rk4_step = counted
    got = tr.level_point(w, sigma)
    assert _same(got, _traced("helicoidal").level_point(w, sigma))
    assert steps > 1
    assert calls == dict.fromkeys(calls, 1 + 4 * steps)


# ---------------------------------------------------------------------------
# the crossing prefilter
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def prefilter_cases():
    return [bg.solve_orthogonal_invariant(
                bg.make_chart(bg.SpaceSpec("euclidean_helicoidal", a=1.0)),
                bg.line_segment((1.0, -0.6), (1.0, 0.6)),
                np.linspace(0.0, 1.2, 5), n_steps=4),
            bg.solve_orthogonal_invariant(
                _radial_chart(), _unit_arc(), np.linspace(0, 1.5, 5), n_steps=4)]


_coordinate = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(which=st.integers(0, 1), node=st.integers(0, 511),
       offset=st.tuples(_coordinate, _coordinate),
       scale=st.integers(-14, 0), step=st.tuples(_coordinate, _coordinate),
       step_scale=st.integers(-6, 0))
def test_rejected_step_never_crosses(prefilter_cases, which, node, offset,
                                     scale, step, step_scale):
    # steps start near a polyline node, at distances down to rounding
    tr = prefilter_cases[which]
    a = tr._poly_pts[node] + np.array(offset) * 10.0 ** scale
    b = a + np.array(step) * 10.0 ** step_scale
    if not tr._box_meets(*a.tolist(), *b.tolist()):
        assert tr._segment_crossing(a, b) is None

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
