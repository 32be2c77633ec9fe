"""The array profile pipeline: array evaluation of expressions, profiles,
feasibility scans and vertical quadratures gives, to the bit, what the
sequential scalar loops give, and fails where and how they fail."""
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import bourgen as bg
from bourgen import cli
from bourgen.bour import RADICAND_CLAMP, _stage_rhs, ode_rhs
from bourgen.errors import (
    ConfigError,
    RadicandNegativeError,
    RectExitError,
    StepTooLargeError,
)
from bourgen.expressions import FUNCTIONS, parse_expression


def _same(a, b):
    """Equal shapes and bytes: the same floats to the bit (signs of zeros
    included)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_values(a, b):
    """Like _same, but any NaN matches any NaN (payloads may differ)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and _same(a[~nan], b[~nan]))


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

_numbers = st.one_of(st.integers(0, 4).map(str),
                     st.floats(0.05, 3.0).map(lambda x: repr(round(x, 3))))
_trees = st.recursive(
    st.one_of(_numbers, st.just("s")),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(st.sampled_from(FUNCTIONS), sub).map(
            lambda t: f"{t[0]}({t[1]})"),
        sub.map(lambda c: f"-({c})")),
    max_leaves=8)
_s_arrays = hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=6),
                       elements=st.floats(-3.0, 3.0))


@settings(max_examples=400, deadline=None)
@given(_trees, _s_arrays)
def test_array_expression_equals_scalar_calls(text, s):
    e = parse_expression(text)
    scalar = []
    try:
        for x in s.ravel().tolist():
            scalar.append(e.dual(x))
        real = all(isinstance(v, float) for pair in scalar for v in pair)
    except (ValueError, ArithmeticError, TypeError):
        real = False
    if not real:
        # some element fails, or has no real value: the array call raises
        with pytest.raises((ValueError, ArithmeticError)):
            e.dual(s)
        return
    value, slope = e.dual(s)
    assert _same_values(value, np.reshape([v for v, _ in scalar], s.shape))
    assert _same_values(slope, np.reshape([d for _, d in scalar], s.shape))
    assert _same_values(e(s), value)
    assert _same_values(e.derivative(s), slope)


def test_two_variable_expression_on_arrays():
    e = parse_expression("x1^2 * x2 + sin(x2) / x1", variables=("x1", "x2"))
    x1 = np.linspace(0.5, 2.0, 7)[:, None]
    x2 = np.linspace(-1.0, 1.0, 5)
    grad = e.gradient(x1, x2)
    for i, j in np.ndindex(7, 5):
        a, b = float(x1[i, 0]), float(x2[j])
        assert e(x1, x2)[i, j] == e(a, b)
        assert (grad[0][i, j], grad[1][i, j]) == e.gradient(a, b)


def test_generatrix_table_equals_scalar_calls():
    s = np.linspace(0.0, 1.0, 101)
    table = bg.GeneratrixMetric.from_samples(s, np.sqrt(s * s + 2.0))
    for U in (bg.GeneratrixMetric.from_expression("cosh(s)*exp(-s/4)", (0, 1)),
              table):
        x = np.linspace(0.0, 1.0, 37)
        values, slopes = U.table(x)
        assert _same(values, [U(v) for v in x])
        assert _same(slopes, [U.derivative(v) for v in x])
        assert _same(U(x), values)


# ---------------------------------------------------------------------------
# the sequential reference loops
# ---------------------------------------------------------------------------

def _reference_profile(U, params, frame, theta0):
    """integrate_profile, one scalar right-hand side at a time."""
    s0, s1 = params.s_range
    anchor = params.anchor if params.anchor is not None else s0
    h = params.step
    k_lo = int(math.ceil((s0 - anchor) / h - 1e-9))
    k_hi = int(math.floor((s1 - anchor) / h + 1e-9))
    s = anchor + h * np.arange(k_lo, k_hi + 1)
    n = len(s)
    ia = -k_lo
    theta = np.empty(n)
    theta_p = np.empty(n)
    theta[ia] = theta0
    theta_p[ia] = ode_rhs(s[ia], theta0, U, params, frame)
    for direction in (+1, -1):
        step = direction * h
        rng = range(ia + 1, n) if direction > 0 else range(ia - 1, -1, -1)
        for k in rng:
            sk = s[k - direction]
            yk = theta[k - direction]
            f1 = theta_p[k - direction]
            if params.integrator == "euler":
                y_next = yk + step * f1
            else:
                f2 = _stage_rhs(sk + step / 2, yk + step / 2 * f1, U, params, frame)
                f3 = _stage_rhs(sk + step / 2, yk + step / 2 * f2, U, params, frame)
                f4 = _stage_rhs(sk + step, yk + step * f3, U, params, frame)
                y_next = yk + step / 6 * (f1 + 2 * f2 + 2 * f3 + f4)
            theta[k] = y_next
            theta_p[k] = ode_rhs(s[k], y_next, U, params, frame)
    omega = params.m * np.array([U(x) for x in s])
    x1 = np.empty(n)
    x2 = np.empty(n)
    for k in range(n):
        x1[k], x2[k] = frame.invert(omega[k], theta[k])
    return s, theta, theta_p, omega, x1, x2


def _reference_vertical(profile, chart, params, U):
    """Position derivatives and V'(s) integrand, one node at a time."""
    s = profile.s
    n = len(s)
    d1, d2, integrand = np.empty(n), np.empty(n), np.empty(n)
    for k in range(n):
        J = profile.frame.invert_jacobian(profile.omega[k], profile.theta[k])
        d1[k], d2[k] = J @ np.array([params.m * U.derivative(s[k]),
                                     profile.theta_prime[k]])
    m2U2 = (params.m * np.array([U(x) for x in s])) ** 2
    for k in range(n):
        _, _, g13, _, g23, _ = chart.metric(profile.x1[k], profile.x2[k])
        integrand[k] = -(d1[k] * g13 + d2[k] * g23) / m2U2[k]
    return d1, d2, integrand


def _reference_feasible(U, m, frame, s_range, theta_ref, step):
    """The scan of feasible_s_range, one sample at a time; its cut ends."""
    ss = np.linspace(*s_range, 2001)
    lo = hi = None
    for s in ss:
        w = m * U(s)
        feasible = frame.contains(w, theta_ref) and not (
            frame.grad_omega_sq(w, theta_ref) - (m * U.derivative(s)) ** 2
            <= -RADICAND_CLAMP)
        if feasible:
            if lo is None:
                lo = s
            hi = s
        elif lo is not None:
            break
    return lo, hi


# (space, theta_free, generatrix, s_range, m, step, anchor, theta0,
# integrator); theta_free=False evaluates the built-in frame one point at a
# time, as the characteristic frame is, and feasible_s_range refuses it
_CASES = [
    (bg.SpaceSpec("euclidean_rotational"), True, "sqrt(s^2+1)",
     (-2.0, 2.0), 0.8, 0.01, 0.0, 0.2, "rk4"),
    (bg.SpaceSpec("euclidean_rotational"), True, "cosh(s)*exp(-s/4)",
     (-1.0, 1.0), 0.5, 0.03, 0.305, -0.1, "rk4"),
    (bg.SpaceSpec("euclidean_helicoidal", a=1.0), True, "sqrt(s^2+2)",
     (0.5, 1.5), 1.2, 0.005, None, 0.3, "rk4"),
    # anchored at the upper end: the upward sweep takes no step
    (bg.SpaceSpec("euclidean_helicoidal", a=1.0), True, "sqrt(s^2+2)",
     (0.5, 1.5), 1.2, 0.005, 1.5, 0.3, "rk4"),
    (bg.SpaceSpec("euclidean_helicoidal", a=1.0), False, "sqrt(s^2+2)",
     (0.5, 2.0), 1.0, 0.01, None, 0.0, "rk4"),
    (bg.SpaceSpec("euclidean_helicoidal", a=-0.7), True,
     "(2+s^2)^0.5 + 0.1*sin(s)", (0.3, 2.0), 1.0, 0.004, 1.0, 0.0, "rk4"),
    (bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0), True,
     "sqrt(s^2+4)", (0.0, 1.0), 1.1, 0.005, None, 0.1, "rk4"),
    (bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=-0.5, tau=0.5), True,
     "s^1.5 + 2", (0.1, 1.0), 0.7, 0.003, 0.5, 0.0, "euler"),
    (bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0), False,
     "sqrt(s^2+4)", (0.0, 0.3), 1.0, 0.01, None, 0.0, "rk4"),
]


@pytest.fixture(scope="module", params=range(len(_CASES)))
def case(request):
    spec, theta_free, text, s_range, m, step, anchor, theta0, integrator = \
        _CASES[request.param]
    frame = bg.builtin_frame(spec)
    if not theta_free:
        frame = dataclasses.replace(frame, theta_free=False)
    U = bg.GeneratrixMetric.from_expression(text, s_range)
    params = bg.BourParams(m=m, s_range=s_range, step=step, anchor=anchor,
                           integrator=integrator)
    return frame, U, params, theta0


def test_theta_free_frames_are_the_angle_gauge_and_rotational():
    # every built-in frame: x2 for the rotational space, the polar angle
    # for the screw spaces
    for spec in (bg.SpaceSpec("euclidean_rotational"),
                 bg.SpaceSpec("euclidean_helicoidal", a=1.0),
                 bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0)):
        assert bg.builtin_frame(spec).theta_free


def test_integrate_profile_equals_sequential_loop(case):
    frame, U, params, theta0 = case
    profile = bg.integrate_profile(U, params, frame, theta0)
    ref = _reference_profile(U, params, frame, theta0)
    got = (profile.s, profile.theta, profile.theta_prime, profile.omega,
           profile.x1, profile.x2)
    for name, a, b in zip(("s", "theta", "theta'", "omega", "x1", "x2"),
                          got, ref):
        assert _same(a, b), name


def test_vertical_quadrature_equals_sequential_loop(case):
    frame, U, params, theta0 = case
    profile = bg.integrate_profile(U, params, frame, theta0)
    V = bg.vertical_quadrature(profile, frame.chart)
    d1, d2, integrand = _reference_vertical(profile, frame.chart, params, U)
    assert _same(profile.x1p, d1)
    assert _same(profile.x2p, d2)
    assert _same(V.prime, integrand)


def _reference_range(U, m, frame, s_range, theta_ref, step):
    """feasible_s_range from the sequential scan; None where it raises."""
    lo, hi = _reference_feasible(U, m, frame, s_range, theta_ref, step)
    if lo is None or hi <= lo:
        return None
    s0, s1 = s_range
    if lo > s0:
        lo = float(s0 + math.ceil((lo - s0) / step + 20) * step)
    else:
        lo = s0
    if hi < s1:
        hi = s0 + math.floor((hi - s0) / step - 20) * step
    return None if hi <= lo else (lo, float(min(hi, s1)))


def _feasible_or_none(*args, **kwargs):
    try:
        return bg.feasible_s_range(*args, **kwargs)
    except RadicandNegativeError:
        return None


def _assert_refused(frame, U, m, s_range, step):
    """feasible_s_range refuses ``frame``, which is not theta-free, with
    the ConfigError that names it, before it evaluates a gradient norm."""
    calls = []

    def counted(w, t):
        calls.append((w, t))
        return frame.grad_omega_sq(w, t)

    counting = dataclasses.replace(frame, grad_omega_sq=counted)
    with pytest.raises(ConfigError, match=rf"^feasible_s_range: the frame "
                       rf"{re.escape(frame.label)} is not theta-free"):
        bg.feasible_s_range(U, m, counting, s_range, step=step)
    assert calls == []


def test_feasible_s_range_equals_sequential_scan(case):
    # a scan at theta_ref is the profile's only for a theta-free frame:
    # any other is refused
    frame, U, params, theta0 = case
    m, s_range, step = params.m, U.s_range, params.step
    for factor in (1.0, 1.3, 1.8):
        if not frame.theta_free:
            _assert_refused(frame, U, m * factor, s_range, step)
            continue
        got = _feasible_or_none(U, m * factor, frame, s_range,
                                theta_ref=theta0, step=step)
        assert got == _reference_range(U, m * factor, frame, s_range, theta0,
                                       step)


def test_feasible_s_range_refuses_the_characteristic_frame(helicoidal_chart):
    # the frame of the traced_rhs benchmark, whose omega = m U lies in its
    # rectangle over part of the range at m = 0.85
    traced = bg.solve_orthogonal_invariant(
        helicoidal_chart, bg.line_segment((1.0, -0.6), (1.0, 0.6)),
        np.linspace(0.0, 1.2, 61), n_steps=220)
    frame = bg.build_frame(helicoidal_chart, traced,
                           rect=((1.3, 1.8), (0.3, 0.9)))
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    _assert_refused(frame, U, 0.85, U.s_range, 0.01)


def _first_error(fn):
    try:
        fn()
    except (RadicandNegativeError, RectExitError, StepTooLargeError) as exc:
        return exc
    raise AssertionError("no error raised")


@pytest.mark.parametrize(
    "spec,omega_range,theta_range,text,s_range,m,anchor,integrator", [
        # the radicand 1 - m^2 U'^2 turns negative at |s| = 4/3; from the
        # anchor 0 both sweeps meet it, the forward one first
        (bg.SpaceSpec("euclidean_rotational"), None, (-100.0, 100.0),
         "sqrt(s^2+1)", (-1.0, 2.0), 1.25, None, "rk4"),
        (bg.SpaceSpec("euclidean_rotational"), None, (-100.0, 100.0),
         "sqrt(s^2+1)", (-2.0, 2.0), 1.25, 0.0, "rk4"),
        (bg.SpaceSpec("euclidean_helicoidal", a=1.0), None, (-100.0, 100.0),
         "sqrt(s^2+2)", (0.5, 2.0), 1.5, None, "rk4"),
        # omega = U leaves the rectangle between two nodes
        (bg.SpaceSpec("euclidean_helicoidal", a=1.0), (1.01, 1.8),
         (-100.0, 100.0), "sqrt(s^2+1)", (0.5, 2.0), 1.0, None, "rk4"),
        (bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0),
         (1.05, 2.0), (-100.0, 100.0), "sqrt(s^2+4)", (0.0, 1.0), 0.98, 0.5,
         "rk4"),
        # theta leaves the rectangle: at a stage of RK4, at a node of Euler
        (bg.SpaceSpec("euclidean_rotational"), None, (-0.6, 0.6),
         "sqrt(s^2+1)", (-2.0, 2.0), 1.0, 0.0, "rk4"),
        (bg.SpaceSpec("euclidean_rotational"), None, (-0.6, 0.6),
         "sqrt(s^2+1)", (-2.0, 2.0), 1.0, 0.0, "euler"),
        # theta, increasing with s, leaves the rectangle below the anchor
        # only, after the upward sweep has passed
        (bg.SpaceSpec("euclidean_rotational"), None, (-0.6, 100.0),
         "sqrt(s^2+1)", (-2.0, 2.0), 1.0, 0.0, "rk4"),
    ])
def test_failure_matches_sequential_order(spec, omega_range, theta_range,
                                          text, s_range, m, anchor,
                                          integrator):
    # a narrower rectangle than the built-in frame's
    frame = bg.builtin_frame(spec)
    frame = dataclasses.replace(
        frame, rect=(omega_range or frame.rect[0], theta_range))
    U = bg.GeneratrixMetric.from_expression(text, s_range)
    params = bg.BourParams(m=m, s_range=s_range, step=0.01, anchor=anchor,
                           integrator=integrator)
    got = _first_error(lambda: bg.integrate_profile(U, params, frame, 0.0))
    ref = _first_error(lambda: _reference_profile(U, params, frame, 0.0))
    assert type(got) is type(ref)
    assert str(got) == str(ref)
    assert getattr(got, "s", None) == getattr(ref, "s", None)


def test_failures_cover_radicand_and_stage_exits():
    # a stage that leaves the rectangle, and a radicand turning negative
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (0.5, 2.0))
    frame = bg.builtin_frame(bg.SpaceSpec("euclidean_helicoidal", a=1.0))
    frame = dataclasses.replace(frame, rect=((1.01, 1.8), frame.rect[1]))
    params = bg.BourParams(m=1.0, s_range=(0.5, 2.0), step=0.01)
    assert isinstance(_first_error(
        lambda: bg.integrate_profile(U, params, frame, 0.0)), StepTooLargeError)
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (-1.0, 2.0))
    params = bg.BourParams(m=1.25, s_range=(-1.0, 2.0), step=0.01)
    exc = _first_error(lambda: bg.integrate_profile(
        U, params, bg.builtin_frame(bg.SpaceSpec("euclidean_rotational")), 0.0))
    assert isinstance(exc, RadicandNegativeError)
    assert 4 / 3 - 0.01 < exc.s < 4 / 3 + 0.01


def test_family_without_auto_shrink_reports_the_sequential_failure(tmp_path):
    cfg = {"space": {"kind": "euclidean_rotational"},
           "generatrix": "sqrt(s^2+1)", "m_values": [1.25],
           "s_range": [-1.0, 2.0], "step": 0.01, "auto_shrink": False}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (-1.0, 2.0))
    params = bg.BourParams(m=1.25, s_range=(-1.0, 2.0), step=0.01)
    ref = _first_error(lambda: _reference_profile(
        U, params, bg.builtin_frame(bg.SpaceSpec("euclidean_rotational")), 0.0))
    with pytest.raises(RadicandNegativeError, match=f"at s = {ref.s:.6g}:"):
        cli.run(cli.RunConfig.from_dict(cfg), tmp_path / "out")


# ---------------------------------------------------------------------------
# one evaluation per member
# ---------------------------------------------------------------------------

def test_position_derivatives_computed_once(monkeypatch):
    frame = bg.builtin_frame(bg.SpaceSpec("euclidean_helicoidal", a=1.0))
    calls = []
    original = bg.QuotientFrame.invert_jacobian

    def counted(self, w, t, *args):
        calls.append(np.shape(w))
        return original(self, w, t, *args)

    monkeypatch.setattr(bg.QuotientFrame, "invert_jacobian", counted)
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 1.5))
    params = bg.BourParams(m=1.2, s_range=(0.5, 1.5), step=0.01)
    member = bg.generate_member(U, params, frame)
    assert calls == [member.s.shape]


@pytest.mark.parametrize("integrator", ["rk4", "euler"])
def test_theta_free_profile_tabulates_the_generatrix_once(integrator,
                                                         monkeypatch):
    # U and U' at the nodes come from row 0 of the right-hand sides' table,
    # with the bits of a table on the nodes alone
    frame = bg.builtin_frame(bg.SpaceSpec("euclidean_helicoidal", a=1.0))
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 1.5))
    params = bg.BourParams(m=1.2, s_range=(0.5, 1.5), step=0.01,
                           integrator=integrator)
    calls = []
    table = bg.GeneratrixMetric.table

    def counted(self, s):
        calls.append(np.shape(s))
        return table(self, s)

    monkeypatch.setattr(bg.GeneratrixMetric, "table", counted)
    profile = bg.integrate_profile(U, params, frame, 0.3)
    assert calls == [(3 if integrator == "rk4" else 1, len(profile.s))]
    Us, dUs = table(U, profile.s)
    assert _same(profile.omega, 1.2 * Us)
    J = frame.invert_jacobian(profile.omega, profile.theta)
    rates = np.stack([1.2 * dUs, profile.theta_prime], axis=-1)
    x1p, x2p = (J @ rates[:, :, None])[:, :, 0].T
    assert _same(profile.x1p, x1p) and _same(profile.x2p, x2p)


def test_generatrix_parsed_once(tmp_path, monkeypatch):
    calls = []
    parse = cli.parse_expression

    def counted(text, *args):
        calls.append(text)
        return parse(text, *args)

    monkeypatch.setattr(cli, "parse_expression", counted)
    cfg = cli.RunConfig.from_dict(cli.DEMOS["catenoid"])
    cfg.make_generatrix()
    code, report = cli.run(cfg, tmp_path)
    assert code == 0
    assert calls == ["sqrt(s^2+1)"]
    assert report["generatrix"] == "sqrt(s^2+1)"
    assert json.loads((tmp_path / "report.json").read_text())["generatrix"] \
        == "sqrt(s^2+1)"


def test_obj_faces_equal_per_member_loop(tmp_path, catenoid_member,
                                         rotational_spec):
    s_count = t_count = 41
    for name in ("a.obj", "b.obj"):  # the second write reuses the faces
        path = tmp_path / name
        cli.write_obj(catenoid_member, rotational_spec, path)
        lines = path.read_text().splitlines()
        faces = [ln for ln in lines if ln.startswith("f ")]
        expected = []
        for i in range(s_count - 1):
            for j in range(t_count - 1):
                v00 = i * t_count + j + 1
                v10 = (i + 1) * t_count + j + 1
                expected += [f"f {v00} {v10} {v10 + 1}",
                             f"f {v00} {v10 + 1} {v00 + 1}"]
        assert faces == expected
        assert lines[-1] == expected[-1] and path.read_text().endswith("\n")
        assert len(lines) == 1 + s_count * t_count + len(expected)
