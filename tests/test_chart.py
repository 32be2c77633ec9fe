import dataclasses
import math

import numpy as np
import pytest

import bourgen as bg
from bourgen._numerics import central_gradient2
from bourgen.chart import FD_STEP, InvariantFunction, invariant_pairing
from bourgen.errors import DomainError, SingularMetricError
from conftest import quotient_matrix, ratio_theta


def test_helicoidal_metric_at_reference_point(helicoidal_chart):
    m = helicoidal_chart.metric_at((1.0, 0.0))
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.allclose(m, expected, atol=1e-15)


def test_helicoidal_metric_on_axis(helicoidal_chart):
    assert np.allclose(helicoidal_chart.metric_at((0.0, 0.0)), np.eye(3))


def test_bcv_flat_limit_matches_up_to_screw_direction(helicoidal_chart):
    # at kappa = tau = 0 the BCV screw motion runs in the opposite
    # direction, so the mixed coefficients flip sign while everything
    # else (including the whole quotient geometry) coincides
    bcv = bg.make_chart(bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=0.0, tau=0.0))
    rng = np.random.default_rng(3)
    for _ in range(20):
        x1, x2 = rng.uniform(-2, 2, 2)
        ge = helicoidal_chart.metric_at((x1, x2))
        gb = bcv.metric_at((x1, x2))
        assert np.allclose(gb[:2, :2], ge[:2, :2], atol=1e-14)
        assert np.isclose(gb[2, 2], ge[2, 2], atol=1e-14)
        assert np.isclose(gb[0, 2], -ge[0, 2], atol=1e-14)
        assert np.isclose(gb[1, 2], -ge[1, 2], atol=1e-14)


# the coordinate functions x1, x2 with their analytic gradients: their
# pairings are the entries g^ab of the upper block of the inverse metric
_COORDINATES = (InvariantFunction(value=lambda a, b: a,
                                  gradient=lambda a, b: (1.0, 0.0)),
                InvariantFunction(value=lambda a, b: b,
                                  gradient=lambda a, b: (0.0, 1.0)))


def _inverse_block(chart, p):
    return np.array([[invariant_pairing(chart, f, h, p) for h in _COORDINATES]
                     for f in _COORDINATES])


def test_inverse_metric_reference_point(helicoidal_chart):
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    got = _inverse_block(helicoidal_chart, (1.0, 0.0))
    assert np.allclose(got, expected[:2, :2], atol=1e-12)


def test_inverse_of_identity(flat_chart):
    assert np.allclose(_inverse_block(flat_chart, (0.3, -0.4)), np.eye(2))


def test_inverse_times_metric_is_identity(helicoidal_chart, bcv_frame):
    # the pairing block inverts the quotient metric, and it is the upper
    # block of the inverse of the whole metric
    rng = np.random.default_rng(11)
    for chart in (helicoidal_chart, bcv_frame.chart):
        for _ in range(25):
            p = rng.uniform(-1.5, 1.5, 2)
            block = _inverse_block(chart, p)
            assert np.allclose(block @ quotient_matrix(chart, p), np.eye(2),
                               atol=1e-10)
            assert np.allclose(block, np.linalg.inv(chart.metric_at(p))[:2, :2],
                               rtol=0, atol=1e-12)


def test_positive_definite_at_samples(helicoidal_chart):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, (40, 2))
    assert bg.validate_chart(helicoidal_chart, pts)
    for p in pts:
        ev = np.linalg.eigvalsh(helicoidal_chart.metric_at(p))
        assert ev.min() > 0


def test_volume_examples(helicoidal_chart):
    assert np.isclose(helicoidal_chart.volume_at((1.0, 0.0)), math.sqrt(2))
    assert np.isclose(helicoidal_chart.volume_at((0.0, 0.0)), 1.0)


def test_bcv_volume_reference_value(bcv_frame):
    # B = 5/4, C = 1/4 at (1, 0) for kappa = tau = a = 1
    got = bcv_frame.chart.volume_at((1.0, 0.0))
    assert np.isclose(got, math.sqrt(17.0) / 5.0, atol=1e-12)


def test_volume_squared_equals_g33(helicoidal_chart):
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = rng.uniform(-2, 2, 2)
        w = helicoidal_chart.volume_at(p)
        assert np.isclose(w * w, helicoidal_chart.metric(*p)[5], rtol=5e-16,
                          atol=0)


def test_domain_error(rotational_frame):
    chart = rotational_frame.chart
    with pytest.raises(DomainError):
        chart.metric_at((-0.5, 0.0))
    # degenerate metric: zero g11 row
    bad = bg.AdaptedChart3(
        metric=lambda a, b: (0.0, 0.0, 0.0, 1.0, 0.0, 1.0),
        d_g33=lambda a, b: (0.0, 0.0), label="bad")
    with pytest.raises(SingularMetricError, match="^bad: metric determinant"):
        bg.quotient_metric(bad, 0.0, 0.0)
    with pytest.raises(SingularMetricError, match="^bad: metric determinant"):
        invariant_pairing(bad, *_COORDINATES, (0.0, 0.0))
    # and a nonpositive g33
    flipped = bg.AdaptedChart3(
        metric=lambda a, b: (1.0, 0.0, 0.0, 1.0, 0.0, -1.0),
        d_g33=lambda a, b: (0.0, 0.0), label="flipped")
    with pytest.raises(SingularMetricError, match="^flipped: g33 = -1"):
        invariant_pairing(flipped, *_COORDINATES, (0.0, 0.0))


def test_pairing_omega_with_itself(helicoidal_chart):
    omega = helicoidal_chart.volume_fn()
    got = invariant_pairing(helicoidal_chart, omega, omega, (1.0, 0.0))
    assert np.isclose(got, 0.5, atol=1e-12)


def test_pairing_omega_theta_orthogonal(helicoidal_chart):
    omega = helicoidal_chart.volume_fn()
    theta = ratio_theta()
    got = invariant_pairing(helicoidal_chart, omega, theta, (1.0, 0.0))
    assert abs(got) < 1e-12
    # finite-difference gradients agree at a weaker tolerance
    got_fd = invariant_pairing(helicoidal_chart,
                               lambda a, b: math.sqrt(a * a + b * b + 1.0),
                               lambda a, b: b / a, (1.0, 0.0))
    assert abs(got_fd) < 1e-9


def test_pairing_constant_is_zero(helicoidal_chart):
    got = invariant_pairing(helicoidal_chart, lambda a, b: 3.0,
                            lambda a, b: 3.0, (1.2, 0.4))
    assert abs(got) < 1e-12


def test_pairing_symmetric_and_bilinear(helicoidal_chart):
    f = lambda a, b: a * a + 0.5 * b
    h = lambda a, b: a * b
    p = (1.1, 0.3)
    fh = invariant_pairing(helicoidal_chart, f, h, p)
    hf = invariant_pairing(helicoidal_chart, h, f, p)
    assert np.isclose(fh, hf, rtol=1e-9)
    scaled = invariant_pairing(helicoidal_chart, f, lambda a, b: 2.5 * h(a, b), p)
    assert np.isclose(scaled, 2.5 * fh, rtol=1e-7)


def test_pairing_inverts_no_matrix(helicoidal_chart, monkeypatch):
    # the pairing solves with the 2x2 quotient metric: no np.linalg.inv,
    # in invariant_pairing or in the right-hand side of a Newton frame,
    # whose gradient norms are pairings
    omega = helicoidal_chart.volume_fn()
    theta = ratio_theta()
    p = (1.1, 0.3)
    block = np.linalg.inv(helicoidal_chart.metric_at(p))[:2, :2]
    grads = [np.array(f.gradient_at(*p)) for f in (omega, theta)]
    want = [[a @ block @ b for b in grads] for a in grads]
    newton = bg.build_frame(
        helicoidal_chart, theta, rect=((1.05, 3.0), (-2.0, 2.0)),
        seed_box=((0.2, 3.0), (-2.5, 2.5)))
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (1.2, 1.7))
    params = bg.BourParams(m=0.72, s_range=(1.2, 1.7), step=0.05)
    calls = []
    inv = np.linalg.inv

    def counted(*args, **kwargs):
        calls.append(args)
        return inv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counted)
    got = [[invariant_pairing(helicoidal_chart, f, h, p)
            for h in (omega, theta)] for f in (omega, theta)]
    assert bg.ode_rhs(1.4, 0.3, U, params, newton) > 0.0
    assert calls == []
    assert np.allclose(got, want, rtol=1e-14, atol=1e-16)


def test_fd_gradient_second_order(helicoidal_chart):
    # cubic test function: central differences err ~ h^2, so halving the
    # step divides the error by about 4
    def f(a, b):
        return a**3 + 2 * b**3 + a * b
    exact = np.array([3 * 1.2**2 + 0.7, 6 * 0.7**2 + 1.2])
    errs = []
    for h in (1e-4, 5e-5):
        got = np.array(central_gradient2(f, 1.2, 0.7, h))
        errs.append(np.max(np.abs(got - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5
    # an invariant without an analytic gradient takes that stencil
    assert InvariantFunction(value=f).gradient_at(1.2, 0.7) \
        == central_gradient2(f, 1.2, 0.7, FD_STEP)


def test_pairing_stencil_domain_check(rotational_frame):
    chart = rotational_frame.chart
    with pytest.raises(DomainError):
        invariant_pairing(chart, lambda a, b: a, lambda a, b: b, (1e-8, 0.0))


def test_chart_from_config_matches_builtin(helicoidal_chart):
    config = {
        "g11": "1", "g12": "0", "g13": "x2",
        "g22": "1", "g23": "-x1", "g33": "x1^2 + x2^2 + 1",
        "label": "helicoidal-from-config",
    }
    chart = bg.chart_from_config(config)
    rng = np.random.default_rng(13)
    for _ in range(15):
        p = rng.uniform(-2, 2, 2)
        assert np.allclose(chart.metric_at(p), helicoidal_chart.metric_at(p),
                           atol=1e-14)
    # analytic volume gradient comes from the expression derivatives
    omega = chart.volume_fn()
    assert omega.gradient is not None
    d = omega.gradient_at(1.0, 0.0)
    assert np.allclose(d, (1.0 / math.sqrt(2), 0.0), atol=1e-14)


def test_chart_from_config_domain_and_errors():
    entry = {"g11": "1", "g12": "0", "g13": "0", "g22": "1", "g23": "0",
             "g33": "x1^2", "domain_positive": "x1"}
    chart = bg.chart_from_config(entry)
    assert chart.domain(0.5, 0.0)
    assert not chart.domain(-0.5, 0.0)
    with pytest.raises(ValueError):
        bg.chart_from_config({"g11": "1"})


def test_chart_without_d_g33_is_refused(helicoidal_chart):
    # every frame and traced invariant follows omega's exact gradient
    with pytest.raises(TypeError, match="d_g33"):
        bg.AdaptedChart3(metric=helicoidal_chart.metric, label="bare")
    with pytest.raises(TypeError, match=r"^bare: d_g33 must be a callable "
                       r"gradient of g33, not None$"):
        bg.AdaptedChart3(metric=helicoidal_chart.metric, d_g33=None,
                         label="bare")
    with pytest.raises(TypeError, match="d_g33"):
        dataclasses.replace(helicoidal_chart, d_g33=None)


def test_rescale_vertical():
    chart = bg.AdaptedChart3(
        metric=lambda a, b: (1.0, 0.0, 0.5, 1.0, 0.0, 4.0),
        d_g33=lambda a, b: (0.0, 0.0), label="scaled")
    rescaled = bg.rescale_vertical(chart, 2.0)
    assert np.isclose(rescaled.volume_at((0.0, 0.0)), 1.0)
    assert np.isclose(rescaled.metric(0.0, 0.0)[2], 0.25)
    # g33 / 4, and its gradient with it
    helicoidal = bg.make_chart(bg.SpaceSpec("euclidean_helicoidal", a=1.0))
    assert bg.rescale_vertical(helicoidal, 2.0).d_g33(1.0, 0.5) == (0.5, 0.25)
