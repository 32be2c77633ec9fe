import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bourgen as bg
from bourgen.chart import invariant_pairing
from bourgen.errors import (
    BourgenError,
    DomainError,
    RankDeficiencyError,
    TransversalityError,
)
from bourgen.quotient import _trace_kernel, newton_invert
from conftest import (
    counting_chart,
    fd_invariant,
    quotient_matrix,
    ratio_theta,
    set_level_ratio,
    swept_nodes,
)
from newton_frame import newton_frame


# ---------------------------------------------------------------------------
# quotient metric
# ---------------------------------------------------------------------------

def test_quotient_metric_reference_point(helicoidal_chart):
    got = quotient_matrix(helicoidal_chart, (1.0, 0.0))
    assert np.allclose(got, [[1.0, 0.0], [0.0, 0.5]], atol=1e-14)


def test_quotient_metric_matches_printed_formula(helicoidal_chart):
    # (x1^2+a^2) dx1^2 + 2 x1 x2 dx1 dx2 + (x2^2+a^2) dx2^2, / (x1^2+x2^2+a^2)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x1, x2 = rng.uniform(-2, 2, 2)
        denom = x1 * x1 + x2 * x2 + 1.0
        expected = np.array([[x1 * x1 + 1.0, x1 * x2],
                             [x1 * x2, x2 * x2 + 1.0]]) / denom
        assert np.allclose(quotient_matrix(helicoidal_chart, (x1, x2)),
                           expected, atol=1e-12)


def test_quotient_metric_is_inverse_of_inverse_block(helicoidal_chart, bcv_frame):
    rng = np.random.default_rng(2)
    for chart in (helicoidal_chart, bcv_frame.chart):
        for _ in range(15):
            p = rng.uniform(0.3, 1.8, 2)
            block = np.linalg.inv(chart.metric_at(p))[:2, :2]
            assert np.allclose(quotient_matrix(chart, p) @ block, np.eye(2),
                               atol=1e-10)


def test_quotient_metric_identity_on_axis(helicoidal_chart):
    assert np.allclose(quotient_matrix(helicoidal_chart, (0.0, 0.0)),
                       np.eye(2), atol=1e-14)


# ---------------------------------------------------------------------------
# the Newton reference frame (newton_frame.py) and newton_invert
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def numeric_frame(helicoidal_chart):
    return newton_frame(
        helicoidal_chart, ratio_theta(),
        rect=((1.05, 3.0), (-2.0, 2.0)),
        seed_box=((0.2, 3.0), (-2.5, 2.5)))


def test_newton_invert_reference_point(numeric_frame):
    x1, x2 = numeric_frame.invert(math.sqrt(2), 0.0)
    assert np.isclose(x1, 1.0, atol=1e-10)
    assert np.isclose(x2, 0.0, atol=1e-10)


def test_frame_gradient_norms_reference(numeric_frame):
    assert np.isclose(numeric_frame.grad_omega_sq(math.sqrt(2), 0.0), 0.5,
                      atol=1e-9)
    assert np.isclose(numeric_frame.grad_theta_sq(math.sqrt(2), 0.0), 2.0,
                      atol=1e-8)


def test_frame_right_inverse_property(numeric_frame):
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.uniform(1.1, 2.8)
        t = rng.uniform(-1.8, 1.8)
        x1, x2 = numeric_frame.invert(w, t)
        assert np.isclose(numeric_frame.omega(x1, x2), w, atol=1e-10)
        assert np.isclose(numeric_frame.theta(x1, x2), t, atol=1e-10)


def test_frame_gradient_norms_positive(numeric_frame):
    rng = np.random.default_rng(6)
    for _ in range(10):
        w = rng.uniform(1.1, 2.8)
        t = rng.uniform(-1.8, 1.8)
        assert numeric_frame.grad_omega_sq(w, t) > 0
        assert numeric_frame.grad_theta_sq(w, t) > 0


def test_newton_quadratic_convergence(helicoidal_chart):
    omega = helicoidal_chart.volume_fn()
    theta = ratio_theta()

    def forward(a, b):
        return omega(a, b), theta(a, b)

    def jac(a, b):
        return np.array([omega.gradient_at(a, b), theta.gradient_at(a, b)])

    trace = []
    newton_invert(forward, jac, (1.9, 0.7), (0.8, 0.1), trace=trace)
    resid = [r for r in trace if r > 1e-14]
    # quadratic: r_{k+1} <= C r_k^2 once in the basin
    assert len(resid) >= 2
    for r0, r1 in zip(resid[:-2], resid[1:-1]):
        assert r1 <= 10.0 * r0 * r0 + 1e-14


def test_rank_deficiency_detected(helicoidal_chart):
    # theta functionally dependent on omega: the pair cannot chart the
    # orbit space
    omega = helicoidal_chart.volume_fn()
    dependent = bg.InvariantFunction(
        value=lambda a, b: omega(a, b) ** 2,
        gradient=lambda a, b: tuple(2 * omega(a, b) * g
                                    for g in omega.gradient_at(a, b)))
    with pytest.raises(RankDeficiencyError):
        newton_frame(helicoidal_chart, dependent,
                     rect=((1.05, 2.0), (1.0, 4.0)),
                     seed_box=((0.2, 2.0), (-1.5, 1.5)))


def test_builtin_bcv_inversion_radius_relation(bcv_frame):
    # the inverted radius satisfies
    # x1^2 + x2^2 = 4 (w^2 - a^2) / ((1 + sqrt(D))^2 - 4 tau^2 w^2)
    # and round-trips through the volume function
    a = kappa = tau = 1.0
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.uniform(1.5, 2.7)
        t = rng.uniform(-2.0, 2.0)
        x1, x2 = bcv_frame.invert(w, t)
        D = (1 - 2 * a * tau) ** 2 + (4 * tau**2 - kappa) * (w * w - a * a)
        expected_r2 = 4 * (w * w - a * a) / ((1 + math.sqrt(D)) ** 2
                                             - 4 * tau**2 * w * w)
        assert np.isclose(x1 * x1 + x2 * x2, expected_r2, atol=1e-10)
        assert np.isclose(bcv_frame.chart.volume_at((x1, x2)), w, atol=1e-10)


# ---------------------------------------------------------------------------
# characteristic-traced invariants
# ---------------------------------------------------------------------------

def _traced_theta(chart):
    cauchy = bg.line_segment((1.0, -0.6), (1.0, 0.6))
    return bg.solve_orthogonal_invariant(
        chart, cauchy, np.linspace(0.0, 1.2, 61), n_steps=220)


def _traced_frame(chart, theta):
    return bg.build_frame(chart, theta, rect=((1.3, 1.8), (0.3, 0.9)),
                          seed_box=((0.9, 1.5), (-0.3, 0.4)),
                          seed_counts=(8, 8))


@pytest.fixture(scope="module")
def traced_theta(helicoidal_chart):
    return _traced_theta(helicoidal_chart)


def test_traced_theta_orthogonality(helicoidal_chart, traced_theta):
    omega = helicoidal_chart.volume_fn()
    rng = np.random.default_rng(42)
    pts = swept_nodes(traced_theta, rng, 40)
    traced_fd = fd_invariant(traced_theta, 1e-5)
    worst = max(abs(invariant_pairing(helicoidal_chart, omega, traced_fd, p))
                for p in pts)
    assert worst < 1e-6


def test_traced_theta_level_sets_match_ratio(helicoidal_chart, traced_theta):
    # theta is constant exactly where x2/x1 is: gradients are parallel
    from bourgen._numerics import central_gradient2
    rng = np.random.default_rng(43)
    pts = swept_nodes(traced_theta, rng, 25)
    worst = 0.0
    for p in pts:
        dth = central_gradient2(traced_theta, p[0], p[1], 1e-5)
        dq = (-p[1] / p[0] ** 2, 1.0 / p[0])
        worst = max(worst, abs(dth[0] * dq[1] - dth[1] * dq[0]))
    assert worst < 1e-5


def test_traced_theta_value_is_affine_in_ratio(traced_theta):
    # for this chart the characteristics are the rays from the origin, so
    # the arc-length data on the segment x1 = 1 gives x2/x1 + 0.6
    rng = np.random.default_rng(44)
    pts = swept_nodes(traced_theta, rng, 30)
    vals = np.array([traced_theta(p[0], p[1]) for p in pts])
    assert np.allclose(vals, pts[:, 1] / pts[:, 0] + 0.6, atol=1e-10)


_coordinate = st.floats(-10.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(p0=st.tuples(_coordinate, _coordinate),
       p1=st.tuples(_coordinate, _coordinate), u=st.floats(0.0, 1.0))
def test_line_segment_point_is_the_array_expression(p0, p1, u):
    # the segment's point is two floats, with the bits of the array
    # expression p0 + sigma * direction on which it was built
    a, b = np.array(p0), np.array(p1)
    length = float(np.linalg.norm(b - a))
    if length == 0.0:
        return
    segment = bg.line_segment(p0, p1)
    sigma = u * length
    got = segment.point(sigma)
    assert all(type(x) is float for x in got)
    want = a + sigma * ((b - a) / length)
    assert np.array(got).tobytes() == want.tobytes()
    assert segment.point_at(sigma).tobytes() == want.tobytes()


def test_tangent_cauchy_rejected(helicoidal_chart):
    # a radial segment is itself a characteristic
    with pytest.raises(TransversalityError):
        bg.solve_orthogonal_invariant(
            helicoidal_chart, bg.line_segment((0.5, 0.0), (2.0, 0.0)),
            np.linspace(0.0, 1.5, 31), n_steps=40)


def test_circular_symmetry_theta_constant_on_rays():
    # radially symmetric volume function: characteristics are rays, so a
    # traced theta is constant along each ray
    chart = bg.AdaptedChart3(
        metric=lambda a, b: (1.0, 0.0, 0.0, 1.0, 0.0, a * a + b * b),
        d_g33=lambda a, b: (2.0 * a, 2.0 * b),
        domain=lambda a, b: a * a + b * b > 1e-4, label="radial")
    arc = bg.CauchyCurve(
        point=lambda sig: np.array([math.cos(sig - 0.75), math.sin(sig - 0.75)]),
        length=1.5)
    traced = bg.solve_orthogonal_invariant(chart, arc, np.linspace(0, 1.5, 41),
                                           n_steps=150)
    for phi in (-0.4, 0.0, 0.5):
        v1 = traced(0.8 * math.cos(phi), 0.8 * math.sin(phi))
        v2 = traced(1.3 * math.cos(phi), 1.3 * math.sin(phi))
        assert np.isclose(v1, v2, atol=1e-9)
        assert np.isclose(v1, phi + 0.75, atol=1e-9)


def test_sol3_chart_traces_or_raises_a_typed_error():
    # Sol3 in the chart of its x1-translations: omega = exp(x2), so the
    # characteristics are the lines x1 = const and theta = x1 + 3 on the
    # segment from (-3, 0); the flow dx2/dtau = exp(x2) blows up at flow
    # time 1, and the compiled exp of the metric overflows at x2 > 354.9
    chart = bg.chart_from_config({"g11": "exp(-2*x2)", "g12": "0", "g13": "0",
                                  "g22": "1", "g23": "0", "g33": "exp(2*x2)",
                                  "label": "sol3"})
    field, _ = _trace_kernel(chart)
    with pytest.raises(DomainError, match=r"at \(0, 400\): OverflowError"):
        field(0.0, 400.0)
    segment = bg.line_segment((-3.0, 0.0), (3.0, 0.0))
    try:
        traced = bg.solve_orthogonal_invariant(chart, segment,
                                               np.linspace(0.0, 6.0, 31))
    except BourgenError as exc:
        assert re.search(r"at \(-?[0-9.e+-]+, -?[0-9.e+-]+\)", str(exc))
    else:
        for x1, x2 in ((0.5, 0.3), (-1.7, -2.0), (2.2, 1.5)):
            assert traced(x1, x2) == pytest.approx(x1 + 3.0, abs=1e-12)


def test_traced_outside_swept_region(traced_theta):
    with pytest.raises(DomainError):
        traced_theta(5.0, 4.9)  # ray through this point misses the segment


@pytest.fixture(scope="module")
def traced_frame(helicoidal_chart, traced_theta):
    return _traced_frame(helicoidal_chart, traced_theta)


@pytest.mark.parametrize("s, t, m, counts", [(1.0, 0.5, 0.85, (23, 87, 293)),
                                             (1.2, 0.35, 0.9, (39, 287, 1085))])
def test_traced_rhs_field_evaluations(helicoidal_chart, s, t, m, counts):
    # the traced_frame fixture's frame on a chart that counts its metric
    # calls, one per field evaluation: a right-hand side is two level
    # traces of 1 + 4 n + 2 m + e evaluations, n their RK4 steps (full and
    # the landing's), m and e their midpoint and Euler corrections, and one
    # at the stencil's point.  The level step the invariant chooses,
    # L/6.25, against L/100 and the trace step L/400 (when the landing
    # re-stepped from the step's start: (35, 91, 299) and (51, 291, 1091))
    chart, calls = counting_chart(helicoidal_chart)
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    params = bg.BourParams(m=m, s_range=(0.5, 2.0), step=0.01)
    got = []
    for ratio in (None, 4, 1):
        traced = _traced_theta(chart)
        if ratio is not None:
            set_level_ratio(traced, ratio)
        frame = _traced_frame(chart, traced)
        calls["metric"] = 0
        bg.ode_rhs(s, t, U, params, frame)
        got.append(calls["metric"])
    assert tuple(got) == counts


def test_traced_rhs_field_evaluations_per_rhs(helicoidal_chart):
    # the right-hand sides of the traced_rhs benchmark, one at the centre
    # of each of its 5 x 3 (omega, theta) strata of the rect (the cost
    # depends on (omega, theta) alone): 31.0 field evaluations per
    # right-hand side, and at most 39.  At the benchmark's seeded points
    # of the strata (seeds 1-10) they were 30.9; 42.4 when the landing
    # re-stepped from the step's start (629 here, at most 51), and 76.6
    # at L/25 with the linear landing guess (seed 1)
    chart, calls = counting_chart(helicoidal_chart)
    frame = _traced_frame(chart, _traced_theta(chart))
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    (w0, w1), (t0, t1) = frame.rect
    counts = []
    for i in range(5):
        for j in range(3):
            w = w0 + (w1 - w0) * (i + 0.5) / 5
            t = t0 + (t1 - t0) * (j + 0.5) / 3
            m = w / U(1.0)
            params = bg.BourParams(m=m, s_range=(0.5, 2.0), step=0.01)
            calls["metric"] = 0
            bg.ode_rhs(1.0, t, U, params, frame)
            counts.append(calls["metric"])
    assert sum(counts) == 465
    assert max(counts) <= 39


def test_traced_rhs_chart_takes_the_longest_candidate(traced_theta):
    # the characteristics are rays, so the probes at L/6.25 agree with
    # their half-step traces across the flow to rounding
    assert traced_theta.level_step == 64 * traced_theta.step
    assert traced_theta.level_n_steps == math.ceil(220 / 64) == 4


def test_two_builds_choose_the_same_step(helicoidal_chart, traced_theta):
    again = _traced_theta(helicoidal_chart)
    assert (again.level_step, again.level_n_steps) == (
        traced_theta.level_step, traced_theta.level_n_steps)


def test_traced_theta_in_numeric_frame(helicoidal_chart, traced_theta,
                                       traced_frame):
    # a traced invariant backs its characteristic frame end to end
    frame = traced_frame
    w, t = 1.5, 0.55
    x1, x2 = frame.invert(w, t)
    assert np.isclose(helicoidal_chart.volume_at((x1, x2)), w, atol=1e-9)
    assert np.isclose(traced_theta(x1, x2), t, atol=1e-9)
    assert frame.grad_omega_sq(w, t) > 0
    assert frame.grad_theta_sq(w, t) > 0


def test_newton_frame_inverts_once_per_rhs(helicoidal_chart, monkeypatch):
    # a fresh frame, so no earlier inversion sits in its memo
    frame = newton_frame(
        helicoidal_chart, ratio_theta(),
        rect=((1.05, 3.0), (-2.0, 2.0)),
        seed_box=((0.2, 3.0), (-2.5, 2.5)))
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    params = bg.BourParams(m=1.0, s_range=(0.5, 2.0), step=0.01)
    calls = []
    newton = bg.quotient.newton_invert

    def counted(*args, **kwargs):
        calls.append(args[2])
        return newton(*args, **kwargs)

    monkeypatch.setattr(bg.quotient, "newton_invert", counted)
    rhs = bg.ode_rhs(1.0, 0.3, U, params, frame)
    assert len(calls) == 1
    # the memoized value is the one an uncached evaluation gives
    w = U(1.0)
    go, gt = frame.grad_omega_sq(w, 0.3), frame.grad_theta_sq(w, 0.3)
    frame.invert(w + 0.1, 0.0)
    assert frame.grad_omega_sq(w, 0.3) == go
    frame.invert(w + 0.1, 0.0)
    assert frame.grad_theta_sq(w, 0.3) == gt
    rad = go - (U.derivative(1.0)) ** 2
    assert rhs == math.sqrt(gt) * math.sqrt(rad) / math.sqrt(go)


def _newton_member(helicoidal_chart, helicoidal_spec):
    # the fine-step member of test_traced_frame_member_at_fine_step, on a
    # fresh Newton frame over the analytic x2/x1
    frame = newton_frame(
        helicoidal_chart, ratio_theta(),
        rect=((1.05, 3.0), (-2.0, 2.0)), seed_box=((0.2, 3.0), (-2.5, 2.5)))
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (1.2, 1.7))
    params = bg.BourParams(m=0.72, s_range=(1.2, 1.7), step=0.005, anchor=1.2)
    member = bg.generate_member(U, params, frame, theta0=0.31,
                                space=helicoidal_spec)
    assert len(member.s) == 101
    return frame, U, member


def test_newton_member_equals_per_node_inversion(helicoidal_chart,
                                                 helicoidal_spec):
    # the nodes the sweep recorded are the frame's inversion and inverse
    # Jacobian at each node, computed afterwards, to the bit
    frame, U, member = _newton_member(helicoidal_chart, helicoidal_spec)
    for k, s in enumerate(member.s):
        w, t = member.omega[k], member.theta[k]
        assert frame.invert(w, t) == (member.x1[k], member.x2[k])
        x1p, x2p = frame.invert_jacobian(w, t) @ np.array(
            [0.72 * U.derivative(s), member.theta_prime[k]])
        assert (x1p, x2p) == (member.x1p[k], member.x2p[k])


def test_newton_member_solves_once_per_rhs(helicoidal_chart, helicoidal_spec,
                                           monkeypatch):
    # 1 right-hand side at the anchor and 4 per RK4 step: the nodes'
    # positions and Jacobians reuse the solve of their right-hand side
    calls = []
    newton = bg.quotient.newton_invert

    def counted(*args, **kwargs):
        calls.append(args[2])
        return newton(*args, **kwargs)

    monkeypatch.setattr(bg.quotient, "newton_invert", counted)
    _newton_member(helicoidal_chart, helicoidal_spec)
    assert len(calls) == 1 + 4 * 100


def test_traced_frame_member_matches_closed_form(helicoidal_chart,
                                                 helicoidal_spec, traced_frame):
    # the paper's general case end to end: a member integrated on the
    # characteristic frame over the traced theta is the flat screw member
    # of the closed form.  Its gauge is theta = x2/x1 + 0.6, not the polar
    # angle, so the angle is compared through that map.
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (1.2, 1.7))
    params = bg.BourParams(m=0.72, s_range=(1.2, 1.7), step=0.05, anchor=1.2)
    member = bg.generate_member(U, params, traced_frame, theta0=0.31,
                                space=helicoidal_spec)
    tol = 1e-5  # the isometry and cross-check defaults of a run config
    report = bg.isometry_report(
        helicoidal_chart, member, U,
        (np.linspace(1.2 + 2e-5, 1.7 - 2e-5, 5), np.linspace(0.0, 1.0, 5)),
        tol=tol)
    assert report.passed, report.to_dict()

    closed = bg.r3_closed_form(U, 0.72, 1, 1.0, member.s, anchor=1.2)
    assert np.max(np.abs(np.hypot(member.x1, member.x2)
                         - closed.rho_samples)) <= tol
    cc = bg.cross_check(closed, member)
    assert cc.passed(tol), cc.to_dict()
    # the polar angle through the traced gauge, against lam / a (a = 1)
    phi = np.arctan(member.theta - 0.6)
    assert np.allclose(member.theta, member.x2 / member.x1 + 0.6,
                       rtol=0, atol=tol)
    assert np.max(np.abs((phi - phi[0]) - closed.lam_samples)) <= tol


def test_traced_frame_member_reloads_frameless(tmp_path, helicoidal_chart,
                                               helicoidal_spec, traced_frame):
    # the built-in frame of the member's space does not invert its stored
    # (omega, theta), which are in the traced gauge: the member reloads on
    # its spline map, which still passes the isometry check
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (1.2, 1.7))
    params = bg.BourParams(m=0.72, s_range=(1.2, 1.7), step=0.05, anchor=1.2)
    member = bg.generate_member(U, params, traced_frame, theta0=0.31,
                                space=helicoidal_spec)
    member.to_json(tmp_path / "member.json")
    back = bg.SurfaceMember.from_json(tmp_path / "member.json")
    assert back.space == helicoidal_spec
    assert back.frame is None
    report = bg.isometry_report(
        helicoidal_chart, back, back.U,
        (np.linspace(1.2 + 2e-5, 1.7 - 2e-5, 5), np.linspace(0.0, 1.0, 5)),
        tol=1e-5)
    assert report.passed, report.to_dict()


def test_traced_frame_member_at_fine_step(helicoidal_chart, helicoidal_spec,
                                          traced_frame):
    # the member above at a tenth of its step, which the characteristic
    # frame makes affordable: the same 1e-5 tolerances, on a grid inset by
    # 2h as before
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (1.2, 1.7))
    params = bg.BourParams(m=0.72, s_range=(1.2, 1.7), step=0.005, anchor=1.2)
    member = bg.generate_member(U, params, traced_frame, theta0=0.31,
                                space=helicoidal_spec)
    assert len(member.s) == 101
    tol = 1e-5
    report = bg.isometry_report(
        helicoidal_chart, member, U,
        (np.linspace(1.2 + 2e-5, 1.7 - 2e-5, 5), np.linspace(0.0, 1.0, 5)),
        tol=tol)
    assert report.passed, report.to_dict()

    closed = bg.r3_closed_form(U, 0.72, 1, 1.0, member.s, anchor=1.2)
    assert np.max(np.abs(np.hypot(member.x1, member.x2)
                         - closed.rho_samples)) <= tol
    cc = bg.cross_check(closed, member)
    assert cc.passed(tol), cc.to_dict()
    phi = np.arctan(member.theta - 0.6)
    assert np.allclose(member.theta, member.x2 / member.x1 + 0.6,
                       rtol=0, atol=tol)
    assert np.max(np.abs((phi - phi[0]) - closed.lam_samples)) <= tol
