"""The characteristic frame that build_frame returns for a traced theta:
one level trace per inversion, and |grad omega|^2, |grad theta|^2 and
the inverse Jacobian from one stencil of two level traces, against closed
forms, against the Newton frame over the same invariant, and on its error
paths."""
import dataclasses
import math

import numpy as np
import pytest

import bourgen as bg
from bourgen.errors import DomainError, RankDeficiencyError, RectExitError

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
        g11=lambda a, b: 1.0, g12=lambda a, b: 0.0, g13=lambda a, b: 0.0,
        g22=lambda a, b: 1.0, g23=lambda a, b: 0.0,
        g33=lambda a, b: a * a + b * b,
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
    for w, t in _rect_points(RECT, 20, 12):
        go, gt = _closed_forms(w, t)
        assert abs(frame.grad_omega_sq(w, t) - go) <= 1e-8 * go
        assert abs(frame.grad_theta_sq(w, t) - gt) <= 1e-8 * gt


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
    # the arc of test_circular_symmetry_theta_constant_on_rays; the chart
    # has no d_g33, so omega's gradient (and the traces' field) are central
    # differences, and both frames read |grad theta|^2 = 1 / w^2 to about
    # 3e-6 only
    "radial": (lambda: bg.solve_orthogonal_invariant(
        _radial_chart(), _unit_arc(), np.linspace(0, 1.5, 41), n_steps=150),
        ((0.7, 1.4), (0.2, 1.3)), ((0.3, 1.6), (-1.3, 1.3)), 1e-5),
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
    newton = bg.build_frame(tr.chart, bg.InvariantFunction(value=tr),
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
    # dx/domega = a / (a . d omega) is exact up to the traces, dx/dtheta a
    # difference of two level traces 2h = 2e-6 apart, each landed within
    # 1e-15 w of its level: about 1e-9 of noise at worst (over 200 random
    # points of RECT, the largest error was 1.1e-9, the median 9e-11)
    fd = dataclasses.replace(frame, inverse_jacobian=None)
    for w, t in _rect_points(RECT, 12, 15):
        J = frame.invert_jacobian(w, t)
        closed = _closed_inverse_jacobian(w, t)
        assert np.max(np.abs(J[:, 0] - closed[:, 0])) <= 1e-12
        assert np.max(np.abs(J[:, 1] - closed[:, 1])) <= 3e-9
        assert np.max(np.abs(J - fd.invert_jacobian(w, t))) <= 3e-9


def test_inverse_jacobian_at_the_ends_of_the_arc_range(frame, traced):
    for t in (0.0, 1e-7, traced.cauchy.length - 1e-7, traced.cauchy.length):
        J = frame.invert_jacobian(1.5, t)
        assert np.max(np.abs(J - _closed_inverse_jacobian(1.5, t))) <= 3e-9


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
    # the inverse Jacobian at the same point reuses the stencil
    frame.invert_jacobian(0.85 * math.sqrt(3.0), 0.5)
    assert calls == {"value": 0, "newton": 0, "level": 2}


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


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

def test_theta_outside_the_arc_range(frame):
    for t in (-0.01, 1.21):
        with pytest.raises(DomainError, match="outside the data curve's range"):
            frame.invert(1.5, t)


def test_level_beyond_n_steps(frame):
    with pytest.raises(DomainError, match="does not reach omega = 5 within 220"):
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
