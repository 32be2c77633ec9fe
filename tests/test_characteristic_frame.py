"""The characteristic frame that build_frame returns for a traced theta:
one level trace per inversion, |grad omega|^2 and |grad theta|^2 from one
stencil of two level traces, and the inverse Jacobian from that stencil
and the inversion, against closed forms, against the Newton reference
frame over the same invariant (newton_frame.py), and on its error
paths."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

import bourgen as bg
from bourgen.errors import (
    BourgenError,
    DomainError,
    DomainViolationError,
    RankDeficiencyError,
    RectExitError,
)
from conftest import (
    counting_chart,
    kernel_step,
    omega_span,
    ratio_theta,
    set_level_ratio,
)
from newton_frame import newton_frame

RECT = ((1.3, 1.8), (0.3, 0.9))
SHIFT = 0.6  # the flat helicoidal traced theta is x2/x1 + 0.6


@pytest.fixture(scope="module")
def traced(helicoidal_chart):
    return bg.solve_orthogonal_invariant(
        helicoidal_chart, bg.line_segment((1.0, -SHIFT), (1.0, SHIFT)),
        np.linspace(0.0, 2 * SHIFT, 61), n_steps=220)


def _frame(chart, traced, rect=RECT):
    # a fresh frame, so no earlier inversion sits in its memo
    return bg.build_frame(chart, traced, rect=rect,
                          seed_box=((0.9, 1.5), (-0.3, 0.4)), seed_counts=(8, 8))


@pytest.fixture(scope="module")
def frame(helicoidal_chart, traced):
    return _frame(helicoidal_chart, traced)


def _rect_points(rect, n, seed):
    rng = np.random.default_rng(seed)
    (w0, w1), (t0, t1) = rect
    return list(zip(rng.uniform(w0, w1, n), rng.uniform(t0, t1, n)))


def _radial_chart():
    return bg.AdaptedChart3(
        metric=lambda a, b: (1.0, 0.0, 0.0, 1.0, 0.0, a * a + b * b),
        d_g33=lambda a, b: (2.0 * a, 2.0 * b),
        domain=lambda a, b: a * a + b * b > 1e-4, label="radial")


def _unit_arc():
    return bg.CauchyCurve(
        point=lambda sig: np.array([math.cos(sig - 0.75), math.sin(sig - 0.75)]),
        length=1.5)


# ---------------------------------------------------------------------------
# round trip and gradient norms on the flat helicoidal chart
# ---------------------------------------------------------------------------

def test_round_trip(helicoidal_chart, traced, frame):
    omega = helicoidal_chart.volume_fn()
    for w, t in _rect_points(RECT, 20, 11):
        x1, x2 = frame.invert(w, t)
        assert abs(omega(x1, x2) - w) <= 1e-12 * w
        assert abs(traced.value(x1, x2) - t) <= 1e-9


def _closed_forms(w, t):
    return ((w * w - 1.0) / (w * w),
            w * w * (1.0 + (t - SHIFT) ** 2) ** 2 / (w * w - 1.0))


def test_gradient_norms_match_closed_forms(frame):
    # over 200 random points of RECT the largest relative errors were
    # 5.8e-11 for |grad omega|^2 and 1.01e-10 for |grad theta|^2 (here
    # 5.6e-11 and 6.2e-11): the stencil point's O(h^2) offset and the
    # landing noise of its two level traces
    for w, t in _rect_points(RECT, 20, 12):
        go, gt = _closed_forms(w, t)
        assert abs(frame.grad_omega_sq(w, t) - go) <= 1e-10 * go
        assert abs(frame.grad_theta_sq(w, t) - gt) <= 1.5e-10 * gt


U_C = 2.0  # U = sqrt(s^2 + 2) on [0.5, 2]


def _rhs_points(n, seed):
    """n seeded (w, t, m, s) in RECT: m uniform among the values with
    m U(s) = w for an s of [0.5, 2], redrawn until the radicand
    |grad omega|^2 - m^2 U'^2 is at least 0.05, as the traced_rhs
    benchmark draws them."""
    rng = np.random.default_rng(seed)
    lo, hi = (math.sqrt(x * x + U_C) for x in (0.5, 2.0))
    points = []
    for w, t in _rect_points(RECT, n, seed):
        while True:
            m = float(rng.uniform(w / hi, w / lo))
            s = math.sqrt((w / m) ** 2 - U_C)
            if (w * w - 1) / (w * w) - (m * s / math.sqrt(s * s + U_C)) ** 2 > 0.05:
                break
        points.append((w, t, m, s))
    return points


def test_rhs_matches_closed_form(frame):
    # theta' = sqrt(gt) sqrt(go - m^2 U'^2) / sqrt(go) with the closed
    # forms go, gt of the gradient norms; the largest relative error here
    # is 1.51e-11 at the chosen level step L/6.25 (1.50e-11 when the
    # landing re-stepped from the step's start, 1.45e-11 at L/25,
    # 1.6e-11 at L/100, 2.2e-11 at L/400)
    U = bg.GeneratrixMetric.from_expression(f"sqrt(s^2+{U_C:g})", (0.5, 2.0))
    for w, t, m, s in _rhs_points(30, 21):
        params = bg.BourParams(m=m, s_range=(0.5, 2.0), step=0.01)
        got = bg.ode_rhs(s, t, U, params, frame)
        go, gt = _closed_forms(w, t)
        dU = s / math.sqrt(s * s + U_C)
        want = math.sqrt(gt) * math.sqrt(go - m * m * dU * dU) / math.sqrt(go)
        assert abs(got - want) <= 1e-10 * abs(want), (w, t, m, s)


def test_one_sided_stencil_at_the_ends_of_the_arc_range(frame, traced):
    # within the difference step of 0 and of the length, the stencil is
    # one-sided and stays inside [0, length]
    for t in (0.0, 1e-7, traced.cauchy.length - 1e-7, traced.cauchy.length):
        _, gt = _closed_forms(1.5, t)
        assert abs(frame.grad_theta_sq(1.5, t) - gt) <= 1e-8 * gt


def test_inverted_point_is_the_level_trace(frame, traced):
    # the frame's point is the level trace from the Cauchy point, memoized
    w, t = 1.6, 0.45
    assert frame.invert(w, t) == traced.level_point(w, t)
    assert frame.invert(w, t) is frame.invert(w, t)


# ---------------------------------------------------------------------------
# against the Newton frame over the same invariant
# ---------------------------------------------------------------------------

CASES = {
    # the arc of test_circular_symmetry_theta_constant_on_rays: the frames'
    # |grad theta|^2 differed by up to 2.4e-10 relative, and the
    # characteristic frame's was within 4.4e-11 of 1 / w^2 (7.4e-11 over
    # 200 random points of the rect)
    "radial": (lambda: bg.solve_orthogonal_invariant(
        _radial_chart(), _unit_arc(), np.linspace(0, 1.5, 41), n_steps=150),
        ((0.7, 1.4), (0.2, 1.3)), ((0.3, 1.6), (-1.3, 1.3)), 1e-8),
    # a slanted segment on a BCV chart, whose d_g33 is analytic
    "bcv": (lambda: bg.solve_orthogonal_invariant(
        bg.make_chart(bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0)),
        bg.line_segment((0.6, -0.4), (0.7, 0.4)), np.linspace(0.0, 0.8, 21),
        n_steps=300),
        ((0.83, 0.85), (0.15, 0.65)), ((0.58, 0.7), (-0.3, 0.3)), 1e-8),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_agrees_with_newton_frame(name):
    make, rect, seed_box, theta_rtol = CASES[name]
    tr = make()
    newton = newton_frame(tr.chart, bg.InvariantFunction(value=tr),
                          rect=rect, seed_box=seed_box, seed_counts=(5, 5))
    char = bg.build_frame(tr.chart, tr, rect=rect, seed_box=seed_box)
    for w, t in _rect_points(rect, 6, 13):
        assert np.allclose(char.invert(w, t), newton.invert(w, t),
                           rtol=0, atol=1e-9)
        assert np.isclose(char.grad_omega_sq(w, t), newton.grad_omega_sq(w, t),
                          rtol=1e-8, atol=0)
        assert np.isclose(char.grad_theta_sq(w, t), newton.grad_theta_sq(w, t),
                          rtol=theta_rtol, atol=0)
    if name == "radial":
        for w, t in _rect_points(rect, 6, 14):
            assert np.isclose(char.grad_theta_sq(w, t), 1.0 / (w * w),
                              rtol=theta_rtol, atol=0)


# ---------------------------------------------------------------------------
# the level step on curved characteristics
# ---------------------------------------------------------------------------

# A config chart whose characteristics curve: on the flat helicoidal and
# BCV charts they are rays, along which a level trace stays exact to
# rounding at 64 times its step, so only a chart like this one shows
# the step's error.
CURVED = {"g11": "1+0.2*x2^2", "g12": "0.1*x1", "g13": "x2", "g22": "1",
          "g23": "-x1", "g33": "x1^2+x2^2+1+0.3*x1*x2"}
CURVED_RECT = ((1.75, 2.0), (0.05, 0.95))


def _curved_frame(level_ratio=None):
    chart = bg.chart_from_config(CURVED)
    traced = bg.solve_orthogonal_invariant(
        chart, bg.line_segment((1.0, -0.5), (1.0, 0.5)),
        np.linspace(0.0, 1.0, 11))
    if level_ratio is not None:
        set_level_ratio(traced, level_ratio)
    return traced, bg.build_frame(chart, traced, rect=CURVED_RECT)


def test_level_step_error_is_below_the_stencil_noise():
    # the frame at the level step L/100 against the same tracer at 1/16 of
    # it.  On 1000 random points of the rect the largest differences were
    # 6.1e-12 for the point, 8.3e-13 for |grad omega|^2, 4.5e-10 relative
    # for |grad theta|^2 and 2.8e-10 for dx/dtheta; at L/50 they were
    # 9.6e-11, 1.3e-11, 1.4e-9 and 9.1e-10 (the block comment of
    # quotient._LEVEL_STEP)
    traced, frame = _curved_frame()
    fine_traced, fine = _curved_frame(level_ratio=0.25)
    assert fine_traced.level_step == traced.level_step / 16
    for w, t in _rect_points(CURVED_RECT, 20, 16):
        point = np.subtract(traced.level_point(w, t),
                            fine_traced.level_point(w, t))
        assert np.max(np.abs(point)) <= 1e-11
        go, fine_go = frame.grad_omega_sq(w, t), fine.grad_omega_sq(w, t)
        assert abs(go - fine_go) <= 2e-12
        gt, fine_gt = frame.grad_theta_sq(w, t), fine.grad_theta_sq(w, t)
        assert abs(gt - fine_gt) <= 1e-9 * fine_gt
        assert np.max(np.abs(frame.invert_jacobian(w, t)[:, 1]
                             - fine.invert_jacobian(w, t)[:, 1])) <= 5e-10


def test_curved_chart_keeps_the_floor_step():
    # its probes at L/6.25 and L/12.5 differ across the flow by up to
    # 1.0e-6, above the 1e-11 tolerance, so it keeps L/100, and its frame
    # is the frame of a tracer set to L/100, to the bit
    traced, frame = _curved_frame()
    fixed_traced, fixed = _curved_frame(level_ratio=4)
    assert traced.level_step == 4 * traced.step
    assert traced.level_n_steps == math.ceil(traced.n_steps / 4) == 100
    for w, t in _rect_points(CURVED_RECT, 10, 17):
        assert traced.level_point(w, t) == fixed_traced.level_point(w, t)
        for name in ("grad_omega_sq", "grad_theta_sq"):
            assert getattr(frame, name)(w, t) == getattr(fixed, name)(w, t)
        assert np.array_equal(frame.invert_jacobian(w, t),
                              fixed.invert_jacobian(w, t))


def test_curved_chart_build_stops_at_the_first_failed_probe():
    # the build evaluates the field once per arc value of the grid, where
    # it checks transversality (11), and then probes L/6.25 against
    # L/12.5: the first pair, forward from arc length 0, fails (1 + 4 x 7
    # and 1 + 4 x 14 evaluations), which ends the measurement
    chart, calls = counting_chart(bg.chart_from_config(CURVED))
    traced = bg.solve_orthogonal_invariant(
        chart, bg.line_segment((1.0, -0.5), (1.0, 0.5)),
        np.linspace(0.0, 1.0, 11))
    assert traced.level_step == 4 * traced.step
    assert calls["metric"] == 11 + 29 + 57 == 97


def _fine_steps_to_level(traced, w, sigma, most):
    """The number k of RK4 steps of the kernel at a quarter of the trace
    step (L/1600) from the Cauchy point at arc length sigma after which
    omega has passed w, so that the level lies at a flow time in
    ((k - 1) h, k h], h = L/1600; None where most steps do not get
    there."""
    x1, x2 = traced.cauchy.point(sigma)
    sign = 1.0 if w > traced._field(x1, x2)[4] else -1.0
    for k in range(1, most + 1):
        x1, x2 = kernel_step(traced, x1, x2, 0.25 * traced.step, sign)
        if sign * (traced._field(x1, x2)[4] - w) >= 0.0:
            return k
    return None


@settings(max_examples=30, deadline=None)
@given(bcv=st.booleans(), a=st.floats(0.3, 1.5), a_sign=st.sampled_from([1, -1]),
       kappa=st.floats(-0.5, 1.0), a_tau=st.floats(-0.25, 0.25),
       c=st.floats(0.6, 1.5), u=st.floats(0.0, 1.0), f=st.floats(0.75, 1.33))
# the level omega = 1.42218, just below the top 1.42569 of the BCV frame's
# omega window, lies about 1,030 trace steps out, beyond the reach of 832
# (13 level steps of 64)
@example(bcv=True, a=1.25, a_sign=1, kappa=0.6875, a_tau=0.25, c=1.0,
         u=0.0, f=1.3125)
def test_level_points_on_ray_charts(bcv, a, a_sign, kappa, a_tau, c, u, f):
    # on the flat helicoidal and BCV charts (g13, g23) is perpendicular to
    # the radius and g33 depends on r^2 alone, so every characteristic is
    # a ray: the level point lies on the ray through its Cauchy point, at
    # the radius of the built-in frame's inversion of w.  The segment is
    # x1 = c, |x2| <= c/2, and the level that of the point f times as far
    # out on the ray (tau a in [-1/4, 1/4] keeps 1 - 2 a tau away from 0).
    # Over 996 valid seeded draws the largest distance from the ray was
    # 4.6e-16 and the largest radius error 4.0e-15 relative.  Over 400
    # valid draws of the same ranges by numpy (seed 1, one call per
    # argument in order), 395 took L/6.25 and 5 L/100 (BCV with
    # kappa < 0: 68 of 72 took L/6.25), with largest errors of 3.3e-16
    # and 1.6e-15 relative; with L/12.5, L/25 and L/50 as candidates too,
    # 3 of those 5 took L/12.5 or L/25, and when L/25 was the longest
    # candidate, 395 took it, with 2.5e-16 and 1.8e-15.
    # The reach rule: a level within n_steps trace steps of flow time (by
    # the kernel at L/1600) is reached; one beyond the flow time of
    # level_n_steps level steps is the "does not reach" DomainError; in
    # between, either
    a = a_sign * a
    spec = (bg.SpaceSpec("bcv_helicoidal", a=a, kappa=kappa, tau=a_tau / a)
            if bcv else bg.SpaceSpec("euclidean_helicoidal", a=a))
    chart = bg.make_chart(spec)
    try:
        frame = bg.builtin_frame(spec)
    except DomainViolationError:
        reject()
    sigma = u * c
    p0 = np.array([c, sigma - 0.5 * c])
    w = chart.volume_at(f * p0)
    # omega must rise with r out to both points, or the frame's inversion,
    # which follows the branch from r = 0, finds another radius
    rs = np.linspace(0.0, max(1.0, f) * math.hypot(*p0), 65)[1:]
    if not (np.all(chart.d_g33(rs, 0.0 * rs)[0] > 0.0)
            and frame.contains(w, 0.0)):
        reject()
    radius = math.hypot(*frame.invert(w, 0.0))
    traced = bg.solve_orthogonal_invariant(
        chart, bg.line_segment((c, -0.5 * c), (c, 0.5 * c)),
        np.linspace(0.0, c, 11), n_steps=800)
    reach = traced.level_n_steps * traced.level_step / traced.step
    k = _fine_steps_to_level(traced, w, sigma, math.ceil(4 * reach))
    within = k is not None and k <= 4 * traced.n_steps
    beyond = k is None or k - 1 >= 4 * reach
    try:
        x1, x2 = traced.level_point(w, sigma)
    except DomainError as exc:
        if within or "does not reach" not in str(exc):
            raise
        return
    assert not beyond, (k, reach)
    scale = max(1.0, radius)
    assert abs(x1 * p0[1] - x2 * p0[0]) / math.hypot(*p0) <= 1e-14 * scale
    assert x1 * p0[0] + x2 * p0[1] > 0.0
    assert abs(math.hypot(x1, x2) - radius) <= 2e-14 * scale


def test_ray_chart_whose_traces_leave_the_domain_takes_the_longest_candidate():
    # on this BCV chart (kappa < 0) the forward probes leave the domain
    # B > 0 within their reach, the half-step trace of the middle probe
    # half a step after the full-step one; such a pair passes, so the
    # chart takes L/6.25 (L/100 when the pair had to stop at one flow
    # time).
    # Its characteristics are rays: over the level points below, the
    # largest distance from the ray was 2.4e-15 (at radius 2.8)
    chart = bg.make_chart(bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=-0.5,
                                       tau=0.1))
    traced = bg.solve_orthogonal_invariant(
        chart, bg.line_segment((1.0, -0.5), (1.0, 0.5)),
        np.linspace(0.0, 1.0, 11), n_steps=800)
    assert traced.level_step == 64 * traced.step
    h, n = traced.level_step, traced.level_n_steps
    coarse = traced._probe_trace(1.0, 0.0, h, n, 1.0)
    fine = traced._probe_trace(1.0, 0.0, 0.5 * h, 2 * n, 1.0)
    assert (len(coarse) - 1, len(fine) - 1) == (8, 17)
    for sigma in np.linspace(0.0, 1.0, 11):
        p0 = np.array([1.0, sigma - 0.5])
        for f in (0.5, 0.8, 1.5, 2.0, 2.5):
            x1, x2 = traced.level_point(chart.volume_at(tuple(f * p0)), sigma)
            assert x1 * p0[0] + x2 * p0[1] > 0.0
            assert (abs(x1 * p0[1] - x2 * p0[0]) / math.hypot(*p0)
                    <= 1e-14 * max(1.0, math.hypot(x1, x2)))


# ---------------------------------------------------------------------------
# the longest level step, on straight characteristics
# ---------------------------------------------------------------------------

# Charts whose characteristics are straight and which take L/6.25: the
# flat helicoidal segment of the traced_rhs benchmark, a slanted segment
# on a BCV chart with kappa > 0, the kappa < 0 chart above, whose traces
# leave the domain B > 0, and the rotational chart, whose backward traces
# run into its edge x1 = 0.  Each entry: the space, the Cauchy segment,
# the arc-grid size and n_steps.
LONG_STEP = {
    "flat": (bg.SpaceSpec("euclidean_helicoidal", a=1.0),
             ((1.0, -0.6), (1.0, 0.6)), 61, 220),
    "bcv": (bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0),
            ((0.6, -0.4), (0.7, 0.4)), 41, 120),
    "bcv_kappa_negative": (
        bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=-0.5, tau=0.1),
        ((1.0, -0.5), (1.0, 0.5)), 11, 800),
    "rotational": (bg.SpaceSpec("euclidean_rotational"),
                   ((0.5, -0.5), (0.5, 0.5)), 11, 480),
}


def _long_step_traced(name):
    spec, (p0, p1), arcs, n_steps = LONG_STEP[name]
    segment = bg.line_segment(p0, p1)
    traced = bg.solve_orthogonal_invariant(
        bg.make_chart(spec), segment, np.linspace(0.0, segment.length, arcs),
        n_steps=n_steps)
    assert traced.level_step == 64 * traced.step
    return traced


def _reaches(traced, w, sigma, ratio):
    """Whether a level trace of fixed steps of ratio trace steps, as far in
    flow time as n_steps trace steps, reaches the level omega = w from the
    Cauchy point at arc length sigma: every step stays in the domain and
    moves omega toward w, as L/25 (ratio 16) did on these charts before
    they took L/6.25."""
    x1, x2 = traced.cauchy.point(sigma)
    w_x = traced._field(x1, x2)[4]
    sign = 1.0 if w > w_x else -1.0
    for _ in range(math.ceil(traced.n_steps / ratio)):
        if sign * (w_x - w) >= 0.0:
            return True
        try:
            x1, x2 = kernel_step(traced, x1, x2, ratio * traced.step, sign)
            w_y = traced._field(x1, x2)[4]
        except BourgenError:
            return False
        if sign * (w_y - w_x) <= 0.0:
            return False
        w_x = w_y
    return sign * (w_x - w) >= 0.0


@pytest.mark.parametrize("name", ["flat", "bcv", "bcv_kappa_negative"])
def test_long_level_step_meets_the_fine_tracer(name):
    # level points at L/6.25 against the same tracer at L/1600, at 60
    # seeded points: levels across the span of omega that the traces from
    # the middle of the data curve reach (on the kappa < 0 chart, that of
    # the Cauchy point 0.5 to 2.5 times as far out on its ray, short of
    # the domain's edge at radius 2.83, where omega grows without bound).
    # The largest distances here were 2.7e-15 (flat), 4.3e-15 (bcv) and
    # 3.4e-15 (kappa < 0); over 400 such points 2.6e-15, 4.8e-15 and
    # 8.6e-15, against 2.6e-15, 4.9e-15 and 5.4e-15 at L/25
    traced = _long_step_traced(name)
    fine = set_level_ratio(_long_step_traced(name), 0.25)
    lo, hi = omega_span(traced)
    rng = np.random.default_rng(5)
    met = 0
    for _ in range(60):
        sigma = rng.uniform(0.0, traced.cauchy.length)
        if name == "bcv_kappa_negative":
            p0 = np.array(traced.cauchy.point(sigma))
            w = traced.chart.volume_at(tuple(rng.uniform(0.5, 2.5) * p0))
        else:
            w = rng.uniform(lo, hi)
        try:
            want = fine.level_point(w, sigma)
        except DomainError:
            continue  # beyond the reach from this arc length
        x1, x2 = traced.level_point(w, sigma)
        assert (math.hypot(x1 - want[0], x2 - want[1])
                <= 1e-14 * max(1.0, math.hypot(*want)))
        met += 1
    assert met >= 30


@pytest.mark.parametrize("name", sorted(LONG_STEP))
def test_long_level_step_reaches_what_l_25_reached(name):
    # on a 120 x 13 grid of levels (the span of omega_span and 5% beyond
    # it) and arc lengths, every level point that fixed steps of L/25
    # reach is reached at L/6.25.  Near an edge of the domain a step of
    # L/6.25 runs over it where one of L/25 would not, so the level trace
    # halves such a step, down to L/100.  The longer reach of
    # ceil(n_steps / 64) steps, and the halved steps, reach more:
    # 72 more points on the flat chart, 0 on bcv, 45 on kappa < 0 and 78
    # on the rotational chart
    traced = _long_step_traced(name)
    lo, hi = omega_span(traced)
    pad = 0.05 * (hi - lo)
    lost = []
    for w in np.linspace(lo - pad, hi + pad, 120).tolist():
        for sigma in np.linspace(0.0, traced.cauchy.length, 13).tolist():
            if _reaches(traced, w, sigma, 16):
                try:
                    traced.level_point(w, sigma)
                except BourgenError:
                    lost.append((w, sigma))
    assert lost == []


# ---------------------------------------------------------------------------
# the inverse Jacobian from the stencil
# ---------------------------------------------------------------------------

def _closed_inverse_jacobian(w, t):
    # x1 = r / c, x2 = k x1 with r^2 = w^2 - 1, k = t - 0.6, c^2 = 1 + k^2
    r = math.sqrt(w * w - 1.0)
    k = t - SHIFT
    c = math.sqrt(1.0 + k * k)
    dx1_dw = w / (r * c)
    dx1_dt = -r * k / c ** 3
    return np.array([[dx1_dw, dx1_dt], [k * dx1_dw, r / c + k * dx1_dt]])


def test_inverse_jacobian_matches_closed_form_and_finite_differences(frame):
    # dx/domega = a / (a . d omega) at the inverted point is exact up to
    # the trace, dx/dtheta a difference of two level traces 2h = 2e-5
    # apart, each landed within 1e-15 w of its level (over 1000 random
    # points of RECT, the largest error was 1.3e-10; here 7.6e-11); the
    # finite-difference inverse Jacobian is itself off by up to 5.7e-10
    # here
    fd = dataclasses.replace(frame, inverse_jacobian=None)
    for w, t in _rect_points(RECT, 12, 15):
        J = frame.invert_jacobian(w, t)
        closed = _closed_inverse_jacobian(w, t)
        assert np.max(np.abs(J[:, 0] - closed[:, 0])) <= 1e-14
        assert np.max(np.abs(J[:, 1] - closed[:, 1])) <= 1e-10
        assert np.max(np.abs(J - fd.invert_jacobian(w, t))) <= 1e-9


def test_inverse_jacobian_at_the_ends_of_the_arc_range(frame, traced):
    # the one-sided stencil: 1.3e-10 at most
    for t in (0.0, 1e-7, traced.cauchy.length - 1e-7, traced.cauchy.length):
        J = frame.invert_jacobian(1.5, t)
        assert np.max(np.abs(J - _closed_inverse_jacobian(1.5, t))) <= 2e-10


# ---------------------------------------------------------------------------
# cost: two level traces per right-hand side, no value call, no Newton
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch):
    calls = {"value": 0, "newton": 0, "level": 0}
    cls = bg.quotient.TracedInvariant

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(cls, "value", counting("value", cls.value))
    monkeypatch.setattr(cls, "level_point", counting("level", cls.level_point))
    monkeypatch.setattr(bg.quotient, "newton_invert",
                        counting("newton", bg.quotient.newton_invert))
    return calls


def test_rhs_costs_two_level_traces(helicoidal_chart, traced, monkeypatch):
    calls = _count_calls(monkeypatch)
    frame = _frame(helicoidal_chart, traced)
    # no seed grid: building the frame traces nothing
    assert calls == {"value": 0, "newton": 0, "level": 0}
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    params = bg.BourParams(m=0.85, s_range=(0.5, 2.0), step=0.01)
    bg.ode_rhs(1.0, 0.5, U, params, frame)  # at omega = 0.85 sqrt(3)
    assert calls == {"value": 0, "newton": 0, "level": 2}
    # the inverse Jacobian at the same point reuses the stencil and traces
    # the point itself, which the inversion there then reuses
    frame.invert_jacobian(0.85 * math.sqrt(3.0), 0.5)
    assert calls == {"value": 0, "newton": 0, "level": 3}
    frame.invert(0.85 * math.sqrt(3.0), 0.5)
    assert calls == {"value": 0, "newton": 0, "level": 3}


def test_rhs_makes_no_pairing_and_no_matrix_inverse(helicoidal_chart, traced,
                                                   monkeypatch):
    # |grad omega|^2, |grad theta|^2 and the inverse Jacobian come from the
    # trace field: neither the chart's pairing nor a 3x3 inverse
    calls = {"invariant_pairing": 0, "inv": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(bg.chart, "invariant_pairing",
                        counting("invariant_pairing", bg.chart.invariant_pairing))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    frame = _frame(helicoidal_chart, traced)
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    params = bg.BourParams(m=0.85, s_range=(0.5, 2.0), step=0.01)
    w = 0.85 * math.sqrt(3.0)
    value = bg.ode_rhs(1.0, 0.5, U, params, frame)
    J = frame.invert_jacobian(w, 0.5)
    assert calls == {"invariant_pairing": 0, "inv": 0}
    go, gt = _closed_forms(w, 0.5)
    assert abs(value * value - gt * (go - (0.85 / math.sqrt(3.0)) ** 2) / go) \
        <= 1e-9 * value * value
    assert np.max(np.abs(J - _closed_inverse_jacobian(w, 0.5))) <= 1e-10


def test_member_makes_no_value_call(helicoidal_chart, helicoidal_spec, traced,
                                    monkeypatch):
    calls = _count_calls(monkeypatch)
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (1.2, 1.7))
    params = bg.BourParams(m=0.72, s_range=(1.2, 1.7), step=0.05, anchor=1.2)
    member = bg.generate_member(U, params, _frame(helicoidal_chart, traced),
                                theta0=0.31, space=helicoidal_spec)
    assert len(member.s) == 11
    assert calls["value"] == 0 and calls["newton"] == 0
    assert calls["level"] > 0


def test_member_traces_each_node_stencil_once(helicoidal_chart,
                                               helicoidal_spec, traced,
                                               monkeypatch):
    # the fine-step member of test_quotient: 2 level traces for the
    # anchor's right-hand side, 8 per RK4 step (the three stages and the
    # node, two each) and 1 per node for its position.  x' takes the
    # inverse Jacobians that the sweep recorded at the nodes, which are
    # the frame's, computed afterwards, to the bit
    calls = _count_calls(monkeypatch)
    frame = _frame(helicoidal_chart, traced)
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (1.2, 1.7))
    params = bg.BourParams(m=0.72, s_range=(1.2, 1.7), step=0.005, anchor=1.2)
    member = bg.generate_member(U, params, frame, theta0=0.31,
                                space=helicoidal_spec)
    assert len(member.s) == 101
    assert calls == {"value": 0, "newton": 0, "level": 2 + 8 * 100 + 101}
    J = np.array([frame.invert_jacobian(w, t)
                  for w, t in zip(member.omega, member.theta)])
    rates = np.stack([0.72 * U.derivative(member.s), member.theta_prime],
                     axis=-1)
    x1p, x2p = (J @ rates[:, :, None])[:, :, 0].T
    assert x1p.tobytes() == member.x1p.tobytes()
    assert x2p.tobytes() == member.x2p.tobytes()


def test_frames_not_theta_free_record_their_nodes(helicoidal_chart, traced,
                                                  monkeypatch):
    # the Newton reference frame and a characteristic frame: the sweep
    # inverts each node once, at its (omega, theta), in sweep order (the
    # anchor, then up from it, then down), one scalar invert_jacobian call
    # per node
    calls = []
    original = bg.QuotientFrame.invert_jacobian

    def counted(self, w, t):
        calls.append((w, t))
        return original(self, w, t)

    monkeypatch.setattr(bg.QuotientFrame, "invert_jacobian", counted)
    newton = newton_frame(
        helicoidal_chart, ratio_theta(),
        rect=((1.05, 3.0), (-2.0, 2.0)), seed_box=((0.2, 3.0), (-2.5, 2.5)))
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (1.2, 1.7))
    params = bg.BourParams(m=0.72, s_range=(1.2, 1.7), step=0.05, anchor=1.4)
    for frame in (newton, _frame(helicoidal_chart, traced)):
        assert not frame.theta_free
        calls.clear()
        profile = bg.integrate_profile(U, params, frame, 0.55)
        order = [4, 5, 6, 7, 8, 9, 10, 3, 2, 1, 0]
        assert profile.anchor_index == 4
        assert [np.ndim(w) for w, _ in calls] == [0] * 11
        assert np.array(calls).tobytes() == np.stack(
            [profile.omega[order], profile.theta[order]], axis=-1).tobytes()


def test_traced_theta_needs_no_seed_box(helicoidal_chart, traced, frame):
    # the characteristic frame, with and without the seed options, which
    # are no-ops: build_frame as the traced_rhs benchmark calls it (as
    # _frame does) gives the level points, gradient norms and node
    # Jacobians of a frame built without them, to the bit
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (1.2, 1.7))
    params = bg.BourParams(m=0.72, s_range=(1.2, 1.7), step=0.05, anchor=1.4)
    want = bg.integrate_profile(U, params, _frame(helicoidal_chart, traced),
                                0.55)
    for bare in (bg.build_frame(helicoidal_chart, traced, rect=RECT),
                 bg.build_frame(helicoidal_chart, traced, rect=RECT,
                                seed_box=((0.9, 1.5), (-0.3, 0.4)),
                                seed_counts=(8, 8))):
        assert bare.inverse_jacobian is not None
        assert bare.label == frame.label == "euclidean_helicoidal(a=1)/frame"
        for w, t in _rect_points(RECT, 4, 21):
            assert bare.invert(w, t) == frame.invert(w, t)
            assert bare.grad_omega_sq(w, t) == frame.grad_omega_sq(w, t)
            assert bare.grad_theta_sq(w, t) == frame.grad_theta_sq(w, t)
            assert (bare.invert_jacobian(w, t).tobytes()
                    == frame.invert_jacobian(w, t).tobytes())
        got = bg.integrate_profile(U, params, bare, 0.55)
        for name in ("x1", "x2", "x1p", "x2p", "theta", "theta_prime"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("theta", [ratio_theta(), lambda x1, x2: x2 / x1],
                         ids=["InvariantFunction", "function"])
def test_build_frame_refuses_a_theta_that_is_not_traced(helicoidal_chart,
                                                        theta):
    # an analytic theta is traced first (solve_orthogonal_invariant); the
    # Newton frame over it is a reference of the tests, not of build_frame
    with pytest.raises(TypeError, match=r"^build_frame\(\) needs a "
                       rf"TracedInvariant theta, not {type(theta).__name__}:"):
        bg.build_frame(helicoidal_chart, theta,
                       rect=((1.05, 3.0), (-2.0, 2.0)),
                       seed_box=((0.2, 3.0), (-2.5, 2.5)))


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

def test_theta_outside_the_arc_range(frame):
    for t in (-0.01, 1.21):
        with pytest.raises(DomainError, match="outside the data curve's range"):
            frame.invert(1.5, t)


def test_level_beyond_n_steps(frame):
    # the 4 level steps of L/6.25 span the flow time of 256 trace steps,
    # at least the n_steps = 220 that the invariant asked for
    with pytest.raises(DomainError, match=r"^the characteristic from arc "
                       r"length 0\.6 does not reach omega = 5 within the flow "
                       r"time of 256 trace steps \(4 level steps\)$"):
        frame.invert(5.0, 0.6)


def test_trace_leaving_the_domain():
    # toward the origin, the radial chart's characteristics leave the
    # domain r > 0.01 before omega = r reaches 0.005
    tr = bg.solve_orthogonal_invariant(
        _radial_chart(), _unit_arc(), np.linspace(0, 1.5, 5), n_steps=400)
    frame = bg.build_frame(tr.chart, tr, rect=((1e-3, 1.0), (0.0, 1.5)),
                           seed_box=None)
    with pytest.raises(DomainError, match="left the chart domain"):
        frame.invert(0.005, 0.75)


def test_level_step_that_does_not_approach_the_level():
    # at L/12.5 the trace toward the origin reaches r = 0.04, where a step
    # runs its stages across the origin and back and leaves omega at 0.04;
    # such a step fails as one that leaves the domain does, and is halved,
    # down to the floor step, which leaves the domain r > 0.01
    tr = set_level_ratio(bg.solve_orthogonal_invariant(
        _radial_chart(), _unit_arc(), np.linspace(0, 1.5, 5), n_steps=400), 32)
    with pytest.raises(DomainError, match=r"^characteristic left the chart "
                       r"domain at \(0\.0025, 0\)$"):
        tr.level_point(0.005, 0.75)


def test_floor_step_that_does_not_approach_the_level():
    # on the radial chart with the smaller excluded disk r > 0.001, every
    # step from the Cauchy point (0.005, 0) toward the origin runs its
    # stages across it and back, and ends at (0.005, 0) to the bit.  The
    # probe traces stop before such a step, as a level trace fails at it,
    # so the probes at L/6.25 and L/12.5 stop at different flow times and
    # the invariant takes the floor L/100 = 0.015, whose step raises after
    # 5 field evaluations (the start, 3 stages and the end), with no
    # longer step to halve first
    chart, calls = counting_chart(dataclasses.replace(
        _radial_chart(), domain=lambda a, b: a * a + b * b > 1e-6))
    tr = bg.solve_orthogonal_invariant(
        chart, bg.line_segment((0.005, -0.75), (0.005, 0.75)),
        np.linspace(0, 1.5, 5), n_steps=400)
    assert tr.level_step == 4 * tr.step
    calls["metric"] = 0
    with pytest.raises(DomainError, match=r"^the level step 0\.015 from "
                       r"\(0\.005, 0\) does not move omega = 0\.005 toward "
                       r"0\.002$"):
        tr.level_point(0.002, 0.75)
    assert calls["metric"] == 5


def test_rect_exit_through_ode_rhs(frame):
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    params = bg.BourParams(m=1.0, s_range=(0.5, 2.0), step=0.01)
    with pytest.raises(RectExitError):  # omega = sqrt(6) is above 1.8
        bg.ode_rhs(2.0, 0.5, U, params, frame)
    with pytest.raises(RectExitError):  # theta below 0.3
        bg.ode_rhs(1.0, 0.1, U, params, frame)


def test_collapsed_theta_derivative_is_a_rank_deficiency(helicoidal_chart,
                                                         traced, monkeypatch):
    # characteristics that all land on one point leave dx/dtheta = 0
    # (set in the instance's dict, which the undo then leaves as it was)
    monkeypatch.setitem(vars(traced), "level_point", lambda w, t: (1.2, 0.1))
    frame = _frame(helicoidal_chart, traced)
    with pytest.raises(RankDeficiencyError, match=r"\(1\.5, 0\.45\)"):
        frame.grad_theta_sq(1.5, 0.45)


def test_parallel_columns_are_a_rank_deficiency(helicoidal_chart, traced,
                                                monkeypatch):
    # level traces along the characteristic through (1.2, 0.1) leave
    # dx/dtheta parallel to the trace field there
    monkeypatch.setitem(vars(traced), "level_point",
                        lambda w, t: (1.2 * (1.0 + t), 0.1 * (1.0 + t)))
    frame = _frame(helicoidal_chart, traced)
    with pytest.raises(RankDeficiencyError, match="nearly parallel"):
        frame.invert_jacobian(1.5, 0.45)
