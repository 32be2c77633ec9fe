import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bourgen as bg
from bourgen._numerics import all_close
from bourgen.bour import _stage_rhs
from bourgen.errors import (
    ConfigError,
    GridMismatchError,
    NonConstantVolumeError,
    RadicandNegativeError,
    RectExitError,
    StepTooLargeError,
)


def U_catenoid(lo=-2.0, hi=2.0):
    return bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (lo, hi))


# ---------------------------------------------------------------------------
# ode_rhs
# ---------------------------------------------------------------------------

def test_rhs_rotational_reference(rotational_frame):
    U = U_catenoid()
    for eps in (1, -1):
        params = bg.BourParams(m=1.0, s_range=(-2.0, 2.0), step=0.01,
                               epsilon=eps)
        got = bg.ode_rhs(0.0, 0.0, U, params, rotational_frame)
        assert np.isclose(got, eps * 1.0, atol=1e-14)


def test_rhs_helicoid_degenerate(helicoidal_frame):
    U = U_catenoid(0.5, 2.0)
    params = bg.BourParams(m=1.0, s_range=(0.5, 2.0), step=0.01)
    for s in (0.5, 1.0, 1.7, 2.0):
        assert bg.ode_rhs(s, 0.4, U, params, helicoidal_frame) == 0.0


def test_rhs_at_generatrix_critical_point(helicoidal_frame):
    # U'(0) = 0: the radicand reduces to |grad omega|^2 and
    # theta' = eps * |grad theta|
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (-1.0, 1.0))
    params = bg.BourParams(m=1.0, s_range=(-1.0, 1.0), step=0.01)
    w = math.sqrt(2.0)
    got = bg.ode_rhs(0.0, 0.3, U, params, helicoidal_frame)
    expected = math.sqrt(helicoidal_frame.grad_theta_sq(w, 0.3))
    assert np.isclose(got, expected, atol=1e-13)


def test_rhs_radicand_negative(helicoidal_frame):
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    params = bg.BourParams(m=2.0, s_range=(0.5, 2.0), step=0.01)
    with pytest.raises(RadicandNegativeError) as exc:
        bg.ode_rhs(1.5, 0.0, U, params, helicoidal_frame)
    assert exc.value.s == 1.5
    assert exc.value.radicand < 0


def test_rhs_rect_exit(helicoidal_frame):
    U = U_catenoid(0.5, 2.0)
    params = bg.BourParams(m=1.0, s_range=(0.5, 2.0), step=0.01)
    frame = dataclasses.replace(
        helicoidal_frame, rect=((1.01, 1.5), helicoidal_frame.rect[1]))
    with pytest.raises(RectExitError):
        bg.ode_rhs(2.0, 0.0, U, params, frame)  # omega = sqrt(5) > 1.5
    with pytest.raises(StepTooLargeError):
        _stage_rhs(2.0, 0.0, U, params, frame)


def test_rhs_walks_the_generatrix_once(helicoidal_frame, monkeypatch):
    # U(s) and U'(s) come from one dual call of an expression, with the
    # bits of the separate calls
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    params = bg.BourParams(m=0.8, s_range=(0.5, 2.0), step=0.01)
    w = 0.8 * U(1.2)
    go = helicoidal_frame.grad_omega_sq(w, 0.3)
    gt = helicoidal_frame.grad_theta_sq(w, 0.3)
    rad = go - (0.8 * U.derivative(1.2)) ** 2
    walks = []
    dual = bg.expressions.Expression.dual

    def counted(self, *args, var=None):
        walks.append(var if var is not None else self.variables[0])
        return dual(self, *args, var=var)

    monkeypatch.setattr(bg.expressions.Expression, "dual", counted)
    got = bg.ode_rhs(1.2, 0.3, U, params, helicoidal_frame)
    assert walks == ["s"]
    assert got == math.sqrt(gt) * math.sqrt(rad) / math.sqrt(go)


def test_generatrix_table_of_a_float():
    # every representation gives the floats of __call__ and derivative
    s = np.linspace(0.5, 2.0, 31)
    for U in (bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0)),
              bg.GeneratrixMetric.from_samples(s, np.sqrt(s * s + 2.0))):
        got = U.table(1.2)
        assert [type(v) for v in got] == [float, float]
        assert got == (U(1.2), U.derivative(1.2))


# ---------------------------------------------------------------------------
# integrate_profile
# ---------------------------------------------------------------------------

def test_catenoid_profile(rotational_frame):
    U = U_catenoid()
    params = bg.BourParams(m=1.0, s_range=(-2.0, 2.0), step=0.01, epsilon=1,
                           anchor=0.0)
    profile = bg.integrate_profile(U, params, rotational_frame, 0.0)
    assert np.max(np.abs(profile.theta - np.arcsinh(profile.s))) < 1e-6
    assert np.allclose(profile.omega, np.cosh(profile.theta), atol=1e-6)


def test_helicoid_profile_is_ray(helicoidal_frame):
    U = U_catenoid(0.5, 2.0)
    params = bg.BourParams(m=1.0, s_range=(0.5, 2.0), step=0.005)
    theta0 = 0.3
    profile = bg.integrate_profile(U, params, helicoidal_frame, theta0)
    assert np.allclose(profile.theta, theta0, atol=1e-14)
    r = np.sqrt(profile.omega**2 - 1.0)
    assert np.allclose(profile.x1, r * math.cos(theta0), atol=1e-12)
    assert np.allclose(profile.x2, r * math.sin(theta0), atol=1e-12)


def test_profile_omega_constraint(bcv_member):
    # omega(x(s)) = m U(s) through the chart, not just by construction
    chart_w = np.array([bcv_member.frame.chart.volume_at((x, y))
                        for x, y in zip(bcv_member.x1, bcv_member.x2)])
    assert np.max(np.abs(chart_w - bcv_member.omega)) < 1e-8


def test_profile_unit_speed(catenoid_member, bcv_member):
    # finite-difference derivatives in the quotient metric: 1 +- 5e-4
    for member in (catenoid_member, bcv_member):
        chart = member.frame.chart
        s = member.s
        d1 = np.gradient(member.x1, s)
        d2 = np.gradient(member.x2, s)
        speed = []
        for k in range(1, len(s) - 1):
            q11, q12, q22 = bg.quotient_metric(chart, member.x1[k],
                                               member.x2[k])
            speed.append(q11 * d1[k] ** 2 + 2 * q12 * d1[k] * d2[k]
                         + q22 * d2[k] ** 2)
        speed = np.array(speed)
        assert np.max(np.abs(speed - 1.0)) < 5e-4


def test_branch_mirror_symmetry(rotational_frame, bcv_frame):
    # built-in frames have theta-independent gradient norms, so the two
    # branches are exact mirrors about theta0
    cases = [
        (rotational_frame, U_catenoid(), (-2.0, 2.0), 0.0),
        (bcv_frame, bg.GeneratrixMetric.from_expression("sqrt(s^2+4)", (0.0, 1.0)),
         (0.0, 1.0), 0.25),
    ]
    for frame, U, s_range, theta0 in cases:
        thetas = {}
        for eps in (1, -1):
            params = bg.BourParams(m=1.0, s_range=s_range, step=0.01,
                                   epsilon=eps)
            thetas[eps] = bg.integrate_profile(U, params, frame, theta0).theta
        assert np.max(np.abs((thetas[1] - theta0) + (thetas[-1] - theta0))) < 1e-12


def test_rk4_convergence_order(rotational_frame):
    U = U_catenoid()
    errs = []
    for step in (0.04, 0.02):
        params = bg.BourParams(m=1.0, s_range=(-2.0, 2.0), step=step,
                               epsilon=1, anchor=0.0)
        profile = bg.integrate_profile(U, params, rotational_frame, 0.0)
        errs.append(np.max(np.abs(profile.theta - np.arcsinh(profile.s))))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_misaligned_anchor_keeps_grid_inside_range(rotational_frame):
    U = U_catenoid(-1.0, 1.0)
    params = bg.BourParams(m=1.0, s_range=(-1.0, 1.0), step=0.03, anchor=0.305)
    profile = bg.integrate_profile(U, params, rotational_frame, 0.0)
    assert profile.s[0] >= -1.0 - 1e-12
    assert profile.s[-1] <= 1.0 + 1e-12
    assert np.isclose(profile.s[profile.anchor_index], 0.305)
    assert np.isclose(profile.theta[profile.anchor_index], 0.0)


def test_integrate_rect_exit(helicoidal_frame):
    U = U_catenoid(0.5, 2.0)
    frame = dataclasses.replace(
        helicoidal_frame, rect=((1.01, 1.8), helicoidal_frame.rect[1]))
    params = bg.BourParams(m=1.0, s_range=(0.5, 2.0), step=0.005)
    with pytest.raises((RectExitError, StepTooLargeError)):
        bg.integrate_profile(U, params, frame, 0.0)


# ---------------------------------------------------------------------------
# vertical quadrature and member assembly
# ---------------------------------------------------------------------------

def test_vertical_shift_zero_for_helicoid(helicoid_member):
    assert np.max(np.abs(helicoid_member.V_samples)) == 0.0


def test_vertical_shift_zero_for_catenoid(catenoid_member):
    assert np.max(np.abs(catenoid_member.V_samples)) == 0.0


@given(b=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
       k=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
       sign=st.sampled_from([-1.0, 1.0]), rtol=st.sampled_from([0.0, 1e-9]))
def test_all_close_refuses_what_allclose_refuses(b, k, sign, rtol):
    # grids that deviate by 0 to 2 times the bound, on both sides of it
    n = min(len(b), len(k))
    b = np.array(b[:n])
    a = b + sign * np.array(k[:n]) * (1e-12 + rtol * np.abs(b))
    assert all_close(a, b, rtol=rtol, atol=1e-12) == np.allclose(
        a, b, rtol=rtol, atol=1e-12)
    a[0] = np.nan
    assert not all_close(a, b, rtol=rtol, atol=1e-12)


@pytest.fixture(scope="module")
def helicoid_profile(helicoidal_frame):
    """The profile of ``helicoid_member``, its vertical quadrature and
    its parameters."""
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (0.5, 2.0))
    params = bg.BourParams(m=1.0, s_range=(0.5, 2.0), step=0.005, epsilon=1)
    profile = bg.integrate_profile(U, params, helicoidal_frame, 0.0)
    return profile, bg.vertical_quadrature(profile, helicoidal_frame.chart), \
        params


@pytest.mark.parametrize("factor", [0.99, 1.01])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_profile_grid_step_bound(helicoid_profile, helicoidal_frame, factor,
                                 sign):
    # the last step may differ from the first by 1e-12 + 1e-9 |step|
    profile, _, _ = helicoid_profile
    s = profile.s.copy()
    step = s[1] - s[0]
    bound = 1e-12 + 1e-9 * abs(step)
    s[-1] = s[-2] + step + sign * factor * bound
    assert (abs(s[-1] - s[-2] - step) > bound) == (factor > 1.0)
    bent = dataclasses.replace(profile, s=s)
    if factor > 1.0:
        with pytest.raises(GridMismatchError, match="uniform"):
            bg.vertical_quadrature(bent, helicoidal_frame.chart)
    else:
        bg.vertical_quadrature(bent, helicoidal_frame.chart)


@pytest.mark.parametrize("factor", [0.99, 1.01])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_member_grid_match_bound(helicoid_profile, factor, sign):
    # the quadrature's grid may differ from the profile's by 1e-12
    profile, V, params = helicoid_profile
    s = V.s.copy()
    s[7] += sign * factor * 1e-12
    assert (abs(s[7] - profile.s[7]) > 1e-12) == (factor > 1.0)
    shifted = dataclasses.replace(V, s=s)
    if factor > 1.0:
        with pytest.raises(GridMismatchError, match="different s grids"):
            bg.assemble_member(profile, shifted, params)
    else:
        bg.assemble_member(profile, shifted, params)


def test_vertical_shift_against_direct_quadrature(bcv_member):
    # independent path: finite-difference x' on the sample grid and a
    # trapezoid cumulative integral of -x_i' g_i3 / (m^2 U^2)
    chart = bcv_member.frame.chart
    s = bcv_member.s
    d1 = np.gradient(bcv_member.x1, s, edge_order=2)
    d2 = np.gradient(bcv_member.x2, s, edge_order=2)
    integrand = np.array([
        -(d1[k] * chart.metric(bcv_member.x1[k], bcv_member.x2[k])[2]
          + d2[k] * chart.metric(bcv_member.x1[k], bcv_member.x2[k])[4])
        / bcv_member.omega[k] ** 2
        for k in range(len(s))])
    direct = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(s))])
    # the oracle is second order (FD derivatives + trapezoid), so its own
    # error dominates the comparison
    assert np.max(np.abs(direct - bcv_member.V_samples)) < 2e-4


def test_member_map_affine_in_t(bcv_member):
    s = 0.4
    p0 = bcv_member.map(s, 0.0)
    p1 = bcv_member.map(s, 1.0)
    p2 = bcv_member.map(s, 2.0)
    assert np.isclose(p1[2] - p0[2], 1.0 / bcv_member.m, atol=1e-14)
    assert np.isclose(p2[2] - p1[2], p1[2] - p0[2], atol=1e-14)
    assert p0[:2] == p1[:2] == p2[:2]


def test_member_json_roundtrip(tmp_path, bcv_member):
    path = tmp_path / "member.json"
    bcv_member.to_json(path)
    back = bg.SurfaceMember.from_json(path)
    assert back.m == bcv_member.m
    assert back.space == bcv_member.space
    for s in (0.05, 0.41, 0.93):
        assert back.map(s, 0.7) == bcv_member.map(s, 0.7)


def test_member_not_inverted_by_its_frame_loads_frameless(bcv_member):
    d = bcv_member.to_dict()
    assert bg.SurfaceMember.from_dict(d).frame is not None
    # a theta one ulp off inverts to other bits; an omega below |a| is
    # outside the closed-form frame's domain
    theta = np.nextafter(bcv_member.theta, np.inf)
    omega = np.full_like(bcv_member.omega, 0.5)
    for key, value in (("theta", theta), ("omega", omega)):
        changed = dict(d, profile=dict(d["profile"], **{key: value.tolist()}))
        assert bg.SurfaceMember.from_dict(changed).frame is None, key


def test_params_validation():
    with pytest.raises(ConfigError):
        bg.BourParams(m=0.0, s_range=(0.0, 1.0), step=0.01)
    with pytest.raises(ConfigError):
        bg.BourParams(m=-2.0, s_range=(0.0, 1.0), step=0.01)
    with pytest.raises(ConfigError):
        bg.BourParams(m=1.0, s_range=(0.0, 1.0), step=0.2)
    with pytest.raises(ConfigError):
        bg.BourParams(m=1.0, s_range=(0.0, 1.0), step=0.01, epsilon=2)
    with pytest.raises(ConfigError):
        bg.BourParams(m=1.0, s_range=(1.0, 0.0), step=0.01)


def test_feasible_range(helicoidal_frame):
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    full = bg.feasible_s_range(U, 1.0, helicoidal_frame, (0.5, 2.0), step=0.005)
    assert full == (0.5, 2.0)
    lo, hi = bg.feasible_s_range(U, 1.5, helicoidal_frame, (0.5, 2.0), step=0.005)
    assert lo == 0.5
    # radicand zero at sqrt(3.5/2.8125) ~ 1.1155, minus the pullback
    assert 0.95 < hi < 1.1155
    lo2, hi2 = bg.feasible_s_range(U, 2.0, helicoidal_frame, (0.5, 2.0), step=0.005)
    assert 0.55 < hi2 < math.sqrt(7.0 / 12.0)


# ---------------------------------------------------------------------------
# constant-volume members
# ---------------------------------------------------------------------------

def test_flat_cylinder(flat_chart):
    s = np.linspace(0.0, np.pi, 2001)
    curve = bg.LiftedCurve(u=s, x1=np.cos(s), x2=np.sin(s), x3=np.zeros_like(s))
    member = bg.constant_volume_member(flat_chart, curve)
    U = member.U
    assert U(1.0) == 1.0
    rep = bg.isometry_report(flat_chart, member, U,
                             (np.linspace(0.2, 2.9, 9), [0.0, 1.0]), tol=1e-6)
    assert rep.passed
    assert np.max(np.abs(member.V_samples)) < 1e-12


def test_constant_volume_member_file_round_trip(tmp_path, nil_chart):
    # the unit generatrix is the expression "1": the file reloads
    # frameless (no space) with the same map bits and the same U
    s = np.linspace(0.0, np.pi, 201)
    member = bg.constant_volume_member(nil_chart, bg.LiftedCurve(
        u=s, x1=np.cos(s), x2=np.sin(s), x3=np.zeros_like(s)))
    member.to_json(tmp_path / "m.json")
    stored = json.loads((tmp_path / "m.json").read_text())
    assert stored["space"] is None
    assert stored["generatrix"] == {"kind": "expression", "text": "1",
                                    "s_range": [0.0, np.pi]}
    back = bg.SurfaceMember.from_json(tmp_path / "m.json")
    assert back.frame is None and back.space is None
    ss = np.linspace(0.0, np.pi, 57)[:, None]
    t = np.linspace(-1.0, 1.0, 5)
    for got, want in zip(back.map(ss, t), member.map(ss, t)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for got, want in ((back.U(ss), member.U(ss)),
                      (back.U.derivative(ss), member.U.derivative(ss))):
        assert got.tobytes() == want.tobytes()
    assert np.all(back.U(ss) == 1.0) and np.all(back.U.derivative(ss) == 0.0)


def test_constant_volume_not_one_rejected():
    chart = bg.AdaptedChart3(
        metric=lambda a, b: (1.0, 0.0, 0.0, 1.0, 0.0, 4.0),
        d_g33=lambda a, b: (0.0, 0.0), label="scaled-flat")
    s = np.linspace(0.0, 1.0, 101)
    curve = bg.LiftedCurve(u=s, x1=s, x2=np.zeros_like(s), x3=np.zeros_like(s))
    with pytest.raises(NonConstantVolumeError):
        bg.constant_volume_member(chart, curve)
    rescaled = bg.rescale_vertical(chart, 2.0)
    member = bg.constant_volume_member(rescaled, curve)
    assert np.isclose(member.map(0.5, 1.0)[2], 1.0, atol=1e-12)


def test_nonconstant_volume_rejected(helicoidal_chart):
    s = np.linspace(0.5, 1.5, 51)
    curve = bg.LiftedCurve(u=s, x1=s, x2=np.zeros_like(s), x3=np.zeros_like(s))
    with pytest.raises(NonConstantVolumeError):
        bg.constant_volume_member(helicoidal_chart, curve)
