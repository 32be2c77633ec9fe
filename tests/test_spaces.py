import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import bourgen as bg
from bourgen.chart import invariant_pairing
from bourgen.errors import BourgenError, DomainViolationError, SpecError
from conftest import quotient_matrix, ratio_theta


def test_spec_validation():
    with pytest.raises(SpecError):
        bg.SpaceSpec("euclidean_helicoidal", a=0.0)
    with pytest.raises(SpecError):
        bg.SpaceSpec("bcv_helicoidal", a=0.0, kappa=1.0, tau=1.0)
    with pytest.raises(SpecError):
        bg.SpaceSpec("euclidean_rotational", a=1.0)
    with pytest.raises(SpecError):
        bg.SpaceSpec("hyperbolic")


def test_helicoidal_mixed_coefficient(helicoidal_chart):
    assert np.isclose(helicoidal_chart.metric(1.0, 0.0)[4], -1.0)
    assert np.isclose(helicoidal_chart.metric(0.3, 0.8)[2], 0.8)


def test_bcv_g33_reference_value(bcv_frame):
    # (C^2 + r^2)/B^2 = (1/16 + 1)/(25/16) = 17/25 at (1, 0)
    assert np.isclose(bcv_frame.chart.metric(1.0, 0.0)[5], 17.0 / 25.0,
                      atol=1e-15)


def test_bcv_flat_limit_quotient_geometry(helicoidal_chart):
    # kappa = tau = 0: the screw runs the other way (mixed terms flip
    # sign) but the whole quotient geometry coincides
    bcv = bg.make_chart(bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=0.0, tau=0.0))
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = rng.uniform(-2, 2, 2)
        assert np.allclose(quotient_matrix(bcv, p),
                           quotient_matrix(helicoidal_chart, p), atol=1e-13)
        assert np.isclose(bcv.volume_at(p), helicoidal_chart.volume_at(p),
                          atol=1e-14)


def test_builtin_theta_orthogonality(helicoidal_chart, bcv_frame,
                                     rotational_frame):
    theta = ratio_theta()
    rng = np.random.default_rng(2024)
    for chart in (helicoidal_chart, bcv_frame.chart):
        omega = chart.volume_fn()
        for _ in range(100):
            p = (rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5))
            assert abs(invariant_pairing(chart, omega, theta, p)) < 1e-10
    # rotational: theta = x2 is orthogonal to omega = x1 (diagonal block)
    chart = rotational_frame.chart
    omega = chart.volume_fn()
    for _ in range(20):
        p = (rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5))
        assert abs(invariant_pairing(chart, omega, rotational_frame.theta,
                                     p)) < 1e-12


def test_frame_inversion_roundtrip(helicoidal_frame, rotational_frame, bcv_frame):
    rng = np.random.default_rng(31)
    windows = {
        helicoidal_frame.label: (1.2, 3.0),
        rotational_frame.label: (0.2, 3.0),
        bcv_frame.label: (1.3, 2.8),
    }
    for frame in (helicoidal_frame, rotational_frame, bcv_frame):
        lo, hi = windows[frame.label]
        for _ in range(25):
            w = rng.uniform(lo, hi)
            t = rng.uniform(-2.0, 2.0)
            x1, x2 = frame.invert(w, t)
            assert np.isclose(frame.omega(x1, x2), w, atol=1e-10)
            assert np.isclose(frame.theta(x1, x2), t, atol=1e-10)


def test_frame_gradient_norms_match_pairing(helicoidal_frame, rotational_frame,
                                            bcv_frame):
    # the closed-form norms against the pairing through the chart: the
    # central cross-validation of the built-in frames
    rng = np.random.default_rng(77)
    windows = {
        helicoidal_frame.label: (1.2, 2.8),
        rotational_frame.label: (0.3, 2.5),
        bcv_frame.label: (1.3, 2.7),
    }
    for frame in (helicoidal_frame, rotational_frame, bcv_frame):
        lo, hi = windows[frame.label]
        chart = frame.chart
        for _ in range(12):
            w = rng.uniform(lo, hi)
            t = rng.uniform(-1.2, 1.2)
            p = frame.invert(w, t)
            go = invariant_pairing(chart, frame.omega, frame.omega, p)
            gt = invariant_pairing(chart, frame.theta, frame.theta, p)
            assert np.isclose(frame.grad_omega_sq(w, t), go, rtol=1e-9,
                              atol=1e-11)
            assert np.isclose(frame.grad_theta_sq(w, t), gt, rtol=1e-9,
                              atol=1e-11)
            # and with finite-difference gradients at a weaker tolerance
            go_fd = invariant_pairing(chart, frame.omega.value,
                                      frame.theta.value, p)
            assert abs(go_fd) < 1e-8


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_r3_helicoid_fixed_point():
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (0.5, 2.0))
    s = np.linspace(0.5, 2.0, 601)
    fam = bg.r3_closed_form(U, 1.0, 1, 1.0, s)
    assert np.max(np.abs(fam.lam_samples)) == 0.0
    assert np.max(np.abs(fam.rho_samples - s)) < 1e-12
    assert np.max(np.abs(fam.V_samples)) == 0.0


def test_r3_catenoid():
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (-2.0, 2.0))
    s = np.linspace(-2.0, 2.0, 801)
    fam = bg.r3_closed_form(U, 1.0, 1, 0.0, s, anchor=0.0)
    assert np.max(np.abs(fam.rho_samples - np.sqrt(s * s + 1))) < 1e-14
    assert np.max(np.abs(fam.lam_samples - np.arcsinh(s))) < 1e-9
    assert np.max(np.abs(fam.rho_samples - np.cosh(fam.lam_samples))) < 1e-8


def test_r3_rotational_members_have_no_screw_shift():
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.0, 1.5))
    s = np.linspace(0.0, 1.5, 301)
    fam = bg.r3_closed_form(U, 1.2, 1, 0.0, s)
    assert np.max(np.abs(fam.V_samples)) == 0.0


def test_r3_domain_violation_reports_s():
    U = bg.GeneratrixMetric.from_expression("0.5*sqrt(s^2+1)", (0.5, 2.0))
    s = np.linspace(0.5, 2.0, 51)
    with pytest.raises(DomainViolationError) as exc:
        bg.r3_closed_form(U, 1.0, 1, 1.0, s)
    assert exc.value.s == 0.5
    assert "m^2 U^2 - a^2" in exc.value.condition


def test_bcv_reduces_to_r3_at_flat_parameters():
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    s = np.linspace(0.5, 2.0, 301)
    for eps in (1, -1):
        r3 = bg.r3_closed_form(U, 1.0, eps, 1.0, s)
        bcv = bg.bcv_closed_form(U, 1.0, eps, 0.0, 0.0, 1.0, s)
        r3_flip = bg.r3_closed_form(U, 1.0, -eps, 1.0, s)
        assert np.max(np.abs(bcv.rho_samples - r3.rho_samples)) < 1e-8
        assert np.max(np.abs(bcv.lam_samples - r3.lam_samples)) < 1e-8
        assert np.max(np.abs(bcv.V_samples - r3_flip.V_samples)) < 1e-8


def _same_outcome(fn, *args):
    """fn(*args) at a flat helicoidal space and at the BCV space with
    kappa = tau = 0 of the same pitch: the two results, or, where either
    raises, the same error type and message from both (and the draw is
    rejected)."""
    flat, bcv = [], []
    for out, frame in zip((flat, bcv), args):
        try:
            out.append(fn(frame))
        except BourgenError as exc:
            out.append(exc)
    if isinstance(flat[0], BourgenError) or isinstance(bcv[0], BourgenError):
        assert type(flat[0]) is type(bcv[0])
        assert str(flat[0]) == str(bcv[0])
        reject()
    return flat[0], bcv[0]


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.3, 2.0), sign=st.sampled_from([1.0, -1.0]),
       c=st.floats(0.1, 4.0), m=st.floats(0.3, 2.5))
def test_bcv_at_zero_curvature_is_the_flat_screw_space(a, sign, c, m):
    # kappa = tau = 0 flips the screw (g13, g23 change sign) and keeps the
    # quotient geometry: the same profile, the opposite flow quadrature
    a *= sign
    frames = (bg.builtin_frame(bg.SpaceSpec("euclidean_helicoidal", a=a)),
              bg.builtin_frame(bg.SpaceSpec("bcv_helicoidal", a=a,
                                            kappa=0.0, tau=0.0)))
    U = bg.GeneratrixMetric.from_expression(f"sqrt(s^2+{c!r})", (0.0, 2.0))
    flat_range, bcv_range = _same_outcome(
        lambda f: bg.feasible_s_range(U, m, f, (0.0, 2.0), step=0.01), *frames)
    assert flat_range == bcv_range
    flat, bcv = _same_outcome(lambda f: bg.generate_member(
        U, bg.BourParams(m=m, s_range=flat_range, step=0.01), f), *frames)
    assert np.max(np.abs(flat.x1 - bcv.x1)) <= 1e-12
    assert np.max(np.abs(flat.x2 - bcv.x2)) <= 1e-12
    assert np.max(np.abs(flat.V_samples + bcv.V_samples)) <= 1e-12
    r3 = bg.r3_closed_form(U, m, 1, a, flat.s)
    bcv_form = bg.bcv_closed_form(U, m, 1, 0.0, 0.0, a, flat.s)
    assert np.max(np.abs(bcv_form.rho_samples - r3.rho_samples)) <= 1e-12
    assert np.max(np.abs(bcv_form.lam_samples - r3.lam_samples)) <= 1e-12
    assert np.max(np.abs(bcv_form.V_samples + r3.V_samples)) <= 1e-12


def test_bcv_catenoid_through_double_reduction():
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (-2.0, 2.0))
    s = np.linspace(-2.0, 2.0, 401)
    bcv = bg.bcv_closed_form(U, 1.0, 1, 0.0, 0.0, 0.0, s, anchor=0.0)
    assert np.max(np.abs(bcv.rho_samples - np.cosh(bcv.lam_samples))) < 1e-8


def test_bcv_reference_case_discriminant():
    # kappa = tau = a = 1, U = sqrt(s^2+4): Delta = 10 + 3 s^2 >= 10
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+4)", (0.0, 1.0))
    s = np.linspace(0.0, 1.0, 201)
    fam = bg.bcv_closed_form(U, 1.0, 1, 1.0, 1.0, 1.0, s)
    w2 = np.array([U(x) for x in s]) ** 2
    delta = 1.0 + 3.0 * (w2 - 1.0)
    assert np.min(delta) >= 10.0
    assert np.all(np.isfinite(fam.lam_samples))


def test_bcv_valid_omega_window():
    # for kappa = tau = a = 1 the inversion denominator vanishes at
    # omega = 3, so the valid window is (1, 3)
    lo, hi = bg.spaces.bcv_valid_omega_range(
        bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0))
    assert np.isclose(lo, 1.0, atol=1e-6)
    assert 2.97 < hi < 3.0


def test_negative_pitch_branches_align():
    # gradient norms are absolute values, so a < 0 frames flip the branch
    # orientation; epsilon labels then still match the closed forms
    spec = bg.SpaceSpec("euclidean_helicoidal", a=-1.0)
    frame = bg.builtin_frame(spec)
    assert frame.branch_sign == -1
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    params = bg.BourParams(m=1.0, s_range=(0.5, 2.0), step=0.005, epsilon=1)
    member = bg.generate_member(U, params, frame, 0.0, space=spec)
    closed = bg.r3_closed_form(U, 1.0, 1, -1.0, member.s)
    cc = bg.cross_check(closed, member)
    assert cc.rho_dev < 1e-8
    assert cc.angle_dev < 1e-8
    rep = bg.isometry_report(frame.chart, member, U,
                             (np.linspace(0.51, 1.99, 9), [0.0, 0.5]), tol=1e-5)
    assert rep.passed


def test_hyperbolic_base_bcv_member():
    # kappa < 0 exercises the opposite sign of (4 tau^2 - kappa) pieces
    spec = bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=-1.0, tau=0.5)
    frame = bg.builtin_frame(spec)
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+4)", (0.0, 1.0))
    params = bg.BourParams(m=1.0, s_range=(0.0, 1.0), step=0.005, epsilon=1)
    member = bg.generate_member(U, params, frame, 0.0, space=spec)
    closed = bg.bcv_closed_form(U, 1.0, 1, -1.0, 0.5, 1.0, member.s)
    cc = bg.cross_check(closed, member)
    assert cc.rho_dev < 1e-8
    assert cc.angle_dev < 1e-8
    rep = bg.isometry_report(frame.chart, member, U,
                             (np.linspace(0.01, 0.99, 9), [0.0, 0.5]), tol=1e-5)
    assert rep.passed


# ---------------------------------------------------------------------------
# ambient coordinates
# ---------------------------------------------------------------------------

def test_to_ambient_examples():
    heli = bg.SpaceSpec("euclidean_helicoidal", a=1.0)
    assert np.allclose(bg.to_ambient_coords(heli, (1.0, 0.0, 0.0)),
                       (1.0, 0.0, 0.0), atol=1e-15)
    assert np.allclose(bg.to_ambient_coords(heli, (1.0, 0.0, math.pi / 2)),
                       (0.0, -1.0, math.pi / 2), atol=1e-15)
    bcv = bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0)
    assert np.allclose(bg.to_ambient_coords(bcv, (1.0, 0.0, 0.0)),
                       (1.0, 0.0, 0.0), atol=1e-15)


def test_rotational_mesh_embedding():
    rot = bg.SpaceSpec("euclidean_rotational")
    x, y, z = bg.mesh_xyz(rot, (2.0, 0.5, math.pi / 2))
    assert np.allclose((x, y, z), (0.0, 2.0, 0.5), atol=1e-15)


def test_bcv_mesh_embedding_consistent_with_cylindrical():
    bcv = bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0)
    p = (1.2, 0.4, 0.3)
    r, th, z = bg.to_ambient_coords(bcv, p)
    x, y, z2 = bg.mesh_xyz(bcv, p)
    assert np.isclose(math.hypot(x, y), r)
    assert np.isclose(math.atan2(y, x), math.atan2(math.sin(th), math.cos(th)))
    assert z2 == z
