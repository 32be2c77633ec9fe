import dataclasses

import numpy as np
import pytest

import bourgen as bg
from bourgen.errors import GridMismatchError, NotInvariantError, RangeError


def test_fd_first_form_helicoid(helicoidal_chart, helicoid_member):
    sample = bg.fd_first_form(helicoidal_chart, helicoid_member, 1.0, 0.3)
    assert np.isclose(sample.E, 1.0, atol=1e-6)
    assert np.isclose(sample.F, 0.0, atol=1e-6)
    assert np.isclose(sample.G, 2.0, atol=1e-6)  # g33 = s^2 + 1 at s = 1


class _Sheared:
    """A member whose map moves x1 with t once t passes 0.4: not invariant
    under the symmetry flow, which moves x3 only."""

    def __init__(self, member):
        self.member = member
        self.s_range = member.s_range

    def map(self, s, t):
        x1, x2, x3 = self.member.map(s, t)
        return x1 + 0.1 * np.maximum(t, 0.4), x2, x3


def test_map_moving_x1_with_t_is_refused(helicoidal_chart, helicoid_member):
    sheared = _Sheared(helicoid_member)
    # the first point (s-major) whose t-stencil moves x1 is named
    with pytest.raises(NotInvariantError, match=r"\(s, t\) = \(0\.8, 0\.5\)"):
        bg.isometry_report(helicoidal_chart, sheared, helicoid_member.U,
                           ([0.8, 1.0, 1.2], [0.0, 0.25, 0.5, 0.75]))
    with pytest.raises(NotInvariantError, match=r"\(s, t\) = \(1, 0\.5\)"):
        bg.fd_first_form(helicoidal_chart, sheared, 1.0, 0.5)
    # below t = 0.4 the stencil sees an invariant map, which is measured
    assert np.isfinite(bg.fd_first_form(helicoidal_chart, sheared, 1.0, 0.2).G)


def test_isometry_report_makes_one_map_call(helicoidal_chart, helicoid_member,
                                            monkeypatch):
    # the five stencil rows of the whole grid in one call, with s not
    # broadcast against t, so the member re-solves each distinct s once:
    # the 7 grid values and their two neighbours
    calls, solved = [], []
    member_map, position = helicoid_member.map, helicoid_member.position

    def counted_map(s, t):
        calls.append((np.shape(s), np.shape(t)))
        return member_map(s, t)

    def counted_position(s):
        solved.append(np.size(s))
        return position(s)

    monkeypatch.setattr(helicoid_member, "map", counted_map)
    monkeypatch.setattr(helicoid_member, "position", counted_position)
    grid = (np.linspace(0.6, 1.9, 7), np.linspace(0.0, 1.0, 4))
    report = bg.isometry_report(helicoidal_chart, helicoid_member,
                                helicoid_member.U, grid)
    assert calls == [((5, 7, 1), (5, 1, 4))]
    assert solved == [21]
    assert report.passed


def test_isometry_report_evaluates_the_metric_at_the_foot_points(
        helicoidal_chart, helicoid_member, monkeypatch):
    # a 41 x 41 grid has 41 foot points: the member map returns x1 and x2
    # once per s, and the chart's metric is evaluated there alone, in one
    # call, not at the 1,681 grid points
    maps, metric_shapes = [], []
    member_map, metric = helicoid_member.map, helicoidal_chart.metric

    def counted_map(s, t):
        maps.append((np.shape(s), np.shape(t)))
        return member_map(s, t)

    def counted_metric(x1, x2):
        metric_shapes.append((np.shape(x1), np.shape(x2)))
        return metric(x1, x2)

    monkeypatch.setattr(helicoid_member, "map", counted_map)
    chart = dataclasses.replace(helicoidal_chart, metric=counted_metric)
    grid = (np.linspace(0.6, 1.9, 41), np.linspace(0.0, 1.0, 41))
    report = bg.isometry_report(chart, helicoid_member, helicoid_member.U,
                                grid)
    assert maps == [((5, 41, 1), (5, 1, 41))]
    assert metric_shapes == [((41, 1), (41, 1))]
    assert report.grid_shape == (41, 41) and report.passed


def test_fd_first_form_catenoid_G(rotational_frame, catenoid_member):
    for s in (-1.5, 0.2, 1.0):
        sample = bg.fd_first_form(rotational_frame.chart, catenoid_member,
                                  s, 0.5)
        assert np.isclose(sample.G, s * s + 1.0, atol=1e-6)


def test_fd_first_form_flat_cylinder(flat_chart):
    s = np.linspace(0.0, np.pi, 2001)
    member = bg.constant_volume_member(flat_chart, bg.LiftedCurve(
        u=s, x1=np.cos(s), x2=np.sin(s), x3=np.zeros_like(s)))
    sample = bg.fd_first_form(flat_chart, member, 1.5, 0.2)
    assert np.isclose(sample.E, 1.0, atol=1e-6)
    assert np.isclose(sample.F, 0.0, atol=1e-9)
    assert np.isclose(sample.G, 1.0, atol=1e-12)


def test_fd_range_error(catenoid_member, rotational_frame):
    with pytest.raises(RangeError):
        bg.fd_first_form(rotational_frame.chart, catenoid_member, 2.0, 0.0)


def test_isometry_reports_pass_for_demo_members(
        catenoid_member, helicoid_member, bcv_member):
    for member in (catenoid_member, helicoid_member, bcv_member):
        chart = member.frame.chart
        lo, hi = member.s_range
        grid = (np.linspace(lo + 0.01, hi - 0.01, 13), np.linspace(0, 1, 7))
        rep = bg.isometry_report(chart, member, member.U, grid, tol=1e-5)
        assert rep.passed, rep.to_dict()


def test_isometry_report_catches_corrupted_V(catenoid_member, rotational_frame):
    # V(s) -> V(s) + 0.01 s turns F into 0.01 g33 / m
    bad = bg.SurfaceMember(
        s=catenoid_member.s, x1=catenoid_member.x1, x2=catenoid_member.x2,
        x1p=catenoid_member.x1p, x2p=catenoid_member.x2p,
        theta=catenoid_member.theta, theta_prime=catenoid_member.theta_prime,
        omega=catenoid_member.omega,
        V=catenoid_member.V_samples + 0.01 * catenoid_member.s,
        Vp=catenoid_member.V_prime + 0.01,
        m=catenoid_member.m, epsilon=catenoid_member.epsilon,
        space=catenoid_member.space, U=catenoid_member.U)
    s_grid = np.linspace(-1.9, 1.9, 13)
    rep = bg.isometry_report(rotational_frame.chart, bad, catenoid_member.U,
                             (s_grid, [0.0, 0.5]), tol=1e-5)
    assert not rep.passed
    expected_peak = 0.01 * max(s * s + 1.0 for s in s_grid)
    assert np.isclose(rep.max_F_dev, expected_peak, rtol=0.05)
    assert rep.worst["quantity"] == "F"


def test_isometry_single_point_grid(catenoid_member, rotational_frame):
    rep = bg.isometry_report(rotational_frame.chart, catenoid_member,
                             catenoid_member.U, ([0.5], [0.25]), tol=1e-5)
    assert rep.grid_shape == (1, 1)
    assert rep.passed


def test_cross_check_helicoid_exact(helicoid_member):
    U = helicoid_member.U
    closed = bg.r3_closed_form(U, 1.0, 1, 1.0, helicoid_member.s)
    cc = bg.cross_check(closed, helicoid_member)
    assert cc.rho_dev < 1e-12
    assert cc.angle_dev < 1e-12
    assert cc.v_dev < 1e-12


def test_cross_check_gates_v_dev(bcv_member):
    spec = bcv_member.space
    closed = bg.bcv_closed_form(bcv_member.U, bcv_member.m, bcv_member.epsilon,
                                spec.kappa, spec.tau, spec.a, bcv_member.s)
    assert bg.cross_check(closed, bcv_member).passed(1e-5)
    # a non-affine error in V alone: radius and angle still agree
    s = bcv_member.s
    bad = bg.SurfaceMember(
        s=s, x1=bcv_member.x1, x2=bcv_member.x2, x1p=bcv_member.x1p,
        x2p=bcv_member.x2p, theta=bcv_member.theta,
        theta_prime=bcv_member.theta_prime, omega=bcv_member.omega,
        V=bcv_member.V_samples + 1e-4 * s * s, Vp=bcv_member.V_prime + 2e-4 * s,
        m=bcv_member.m, epsilon=bcv_member.epsilon, space=spec, U=bcv_member.U)
    cc = bg.cross_check(closed, bad)
    assert max(cc.rho_dev, cc.angle_dev) <= 1e-5
    assert np.isclose(cc.v_dev, 1e-4, rtol=1e-3)
    assert not cc.passed(1e-5)


def test_cross_check_grid_mismatch(helicoid_member):
    U = helicoid_member.U
    closed = bg.r3_closed_form(U, 1.0, 1, 1.0, helicoid_member.s[:-1])
    with pytest.raises(GridMismatchError):
        bg.cross_check(closed, helicoid_member)


@pytest.mark.parametrize("factor", [0.99, 1.01])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_cross_check_grid_match_bound(helicoid_member, factor, sign):
    # the closed form's grid may differ from the member's by 1e-12
    closed = bg.r3_closed_form(helicoid_member.U, 1.0, 1, 1.0,
                               helicoid_member.s)
    s = closed.s_grid.copy()
    s[-1] += sign * factor * 1e-12
    assert (abs(s[-1] - helicoid_member.s[-1]) > 1e-12) == (factor > 1.0)
    shifted = dataclasses.replace(closed, s_grid=s)
    if factor > 1.0:
        with pytest.raises(GridMismatchError, match="different s grids"):
            bg.cross_check(shifted, helicoid_member)
    else:
        assert bg.cross_check(shifted, helicoid_member).passed(1e-6)


def test_cross_check_epsilon_mismatch(helicoid_member):
    closed = bg.r3_closed_form(helicoid_member.U, 1.0, -1, 1.0,
                               helicoid_member.s)
    with pytest.raises(GridMismatchError):
        bg.cross_check(closed, helicoid_member)


class _AnalyticCatenoid:
    """Closed-form catenoid map used to isolate finite-difference error."""

    m = 1.0
    s_range = (-2.0, 2.0)

    def map(self, s, t):
        # arrays of s and t, as fd_first_form evaluates its whole stencil
        # in one call
        return (np.sqrt(s * s + 1.0), np.arcsinh(s), t)


def test_fd_first_form_second_order(rotational_frame):
    member = _AnalyticCatenoid()
    U2 = lambda s: s * s + 1.0
    errs = []
    for h in (2e-3, 1e-3):
        sample = bg.fd_first_form(rotational_frame.chart, member, 1.0, 0.3, h)
        errs.append(abs(sample.E - 1.0))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_branch_independent_isometry(rotational_frame, rotational_spec):
    # the two branches give mirror profiles with identical isometry maxima
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (-2.0, 2.0))
    reports = []
    for eps in (1, -1):
        params = bg.BourParams(m=1.0, s_range=(-2.0, 2.0), step=0.01,
                               epsilon=eps, anchor=0.0)
        member = bg.generate_member(U, params, rotational_frame, 0.0,
                                    space=rotational_spec)
        grid = (np.linspace(-1.9, 1.9, 9), np.linspace(0, 1, 5))
        reports.append(bg.isometry_report(rotational_frame.chart, member, U,
                                          grid, tol=1e-5))
    assert np.isclose(reports[0].max_E_dev, reports[1].max_E_dev, rtol=1e-6,
                      atol=1e-14)
    assert np.isclose(reports[0].max_G_dev, reports[1].max_G_dev, rtol=1e-6,
                      atol=1e-14)
