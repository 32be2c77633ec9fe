import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bourgen as bg
from bourgen.errors import DegenerateParametrizationError


def axis_curve(u0=0.5, u1=2.0, n=201):
    u = np.linspace(u0, u1, n)
    z = np.zeros_like(u)
    return bg.LiftedCurve(u=u, x1=u, x2=z, x3=z)


def test_pullback_along_axis(helicoidal_chart):
    coeffs = bg.pullback_coefficients(helicoidal_chart, axis_curve())
    assert np.allclose(coeffs.E, 1.0, atol=1e-10)
    assert np.allclose(coeffs.F, 0.0, atol=1e-12)
    assert np.allclose(coeffs.G, coeffs.u**2 + 1.0, atol=1e-12)


def test_pullback_equals_the_pairings_to_the_bit(rotational_frame, bcv_frame):
    # F = (v g)_3 and G = g33 are the first form of the invariant map with
    # x3_v = 1: the readback meridian u -> (cosh u, u, 0.2 u) of the
    # rotational chart, and a curve of the BCV chart
    u = np.linspace(-0.6, 1.4, 2001)
    meridian = bg.LiftedCurve(u=u, x1=np.cosh(u), x2=u, x3=0.2 * u)
    w = np.linspace(0.2, 1.5, 201)
    bcv_curve = bg.LiftedCurve(u=w, x1=np.cos(w), x2=np.sin(2 * w),
                               x3=0.3 * w)
    for chart, curve in ((rotational_frame.chart, meridian),
                         (bcv_frame.chart, bcv_curve)):
        coeffs = bg.pullback_coefficients(chart, curve)
        v = np.stack([np.gradient(x, curve.u, edge_order=2)
                      for x in (curve.x1, curve.x2, curve.x3)], axis=-1)
        g = chart.metric_at((curve.x1, curve.x2))
        vg = v[:, None, :] @ g
        assert coeffs.E.tobytes() == (vg @ v[:, :, None])[:, 0, 0].tobytes()
        assert coeffs.F.tobytes() == vg[:, 0, 2].tobytes()
        assert coeffs.G.tobytes() == g[:, 2, 2].tobytes()


def test_pullback_orbit_curve(helicoidal_chart):
    # curve tangent to the symmetry field at x = (1, 0): E = F = G = |X|^2 = 2
    u = np.linspace(0.0, 1.0, 51)
    curve = bg.LiftedCurve(u=u, x1=np.ones_like(u), x2=np.zeros_like(u), x3=u)
    coeffs = bg.pullback_coefficients(helicoidal_chart, curve)
    assert np.allclose(coeffs.E, 2.0, atol=1e-10)
    assert np.allclose(coeffs.F, 2.0, atol=1e-10)
    assert np.allclose(coeffs.G, 2.0, atol=1e-12)


def test_pullback_G_is_volume_squared(helicoidal_chart):
    u = np.linspace(0.2, 1.5, 41)
    curve = bg.LiftedCurve(u=u, x1=np.cos(u), x2=np.sin(2 * u), x3=0.3 * u)
    coeffs = bg.pullback_coefficients(helicoidal_chart, curve)
    expected = np.array([helicoidal_chart.volume_at((x, y)) ** 2
                         for x, y in zip(curve.x1, curve.x2)])
    assert np.allclose(coeffs.G, expected, rtol=1e-14)


def test_to_natural_axis_curve(helicoidal_chart):
    coeffs = bg.pullback_coefficients(helicoidal_chart, axis_curve())
    nat = bg.to_natural(coeffs)
    s = nat.s_samples
    assert np.allclose(s, coeffs.u - 0.5, atol=1e-10)
    assert np.allclose([nat.U(x) for x in s], np.sqrt((s + 0.5) ** 2 + 1),
                       atol=1e-9)
    assert np.allclose([nat.t_shift(u) for u in coeffs.u], 0.0, atol=1e-12)


def test_to_natural_flat_coefficients():
    u = np.linspace(0.0, 2.0, 101)
    coeffs = bg.natural.PullbackCoefficients(
        u=u, E=np.ones_like(u), F=np.zeros_like(u), G=np.ones_like(u))
    nat = bg.to_natural(coeffs)
    assert np.allclose(nat.s_samples, u, atol=1e-12)
    assert np.allclose([nat.U(x) for x in nat.s_samples], 1.0, atol=1e-12)


def test_natural_roundtrip_is_identity(helicoidal_chart):
    # natural in, natural out: s = u + const, t_shift constant
    curve = axis_curve(0.5, 2.0, 401)
    nat = bg.to_natural(bg.pullback_coefficients(helicoidal_chart, curve))
    surf = bg.ReparametrizedSurface(curve, nat)
    s = nat.s_samples
    relift = bg.LiftedCurve(
        u=s, x1=[surf.map(x, 0.0)[0] for x in s],
        x2=[surf.map(x, 0.0)[1] for x in s],
        x3=[surf.map(x, 0.0)[2] for x in s])
    nat2 = bg.to_natural(bg.pullback_coefficients(helicoidal_chart, relift))
    shift = nat2.s_samples - s
    assert np.max(np.abs(shift - shift[0])) < 1e-8
    tsh = np.array([nat2.t_shift(u) for u in s])
    assert np.max(np.abs(tsh - tsh[0])) < 1e-8


def test_orbit_tangent_curve_rejected(helicoidal_chart):
    u = np.linspace(0.0, 1.0, 21)
    curve = bg.LiftedCurve(u=u, x1=np.ones_like(u), x2=np.zeros_like(u), x3=u)
    with pytest.raises(DegenerateParametrizationError):
        bg.to_natural(bg.pullback_coefficients(helicoidal_chart, curve))


def test_nonzero_F_reparametrizes_to_orthogonal(helicoidal_chart):
    # slanted lift: F = 0.3 (u^2 + 1) != 0; after reparametrization the
    # measured F vanishes
    u = np.linspace(0.5, 2.0, 801)
    curve = bg.LiftedCurve(u=u, x1=u, x2=np.zeros_like(u), x3=0.3 * u)
    coeffs = bg.pullback_coefficients(helicoidal_chart, curve)
    assert np.min(np.abs(coeffs.F)) > 0.3
    nat = bg.to_natural(coeffs)
    surf = bg.ReparametrizedSurface(curve, nat)
    s_mid = 0.5 * (nat.s_samples[0] + nat.s_samples[-1])
    sample = bg.fd_first_form(helicoidal_chart, surf, s_mid, 0.2)
    assert abs(sample.F) < 1e-6
    assert abs(sample.E - 1.0) < 1e-6


def test_first_form_diag_after_reparametrization(helicoidal_chart):
    curve = axis_curve(0.5, 2.0, 801)
    nat = bg.to_natural(bg.pullback_coefficients(helicoidal_chart, curve))
    surf = bg.ReparametrizedSurface(curve, nat)
    s = nat.s_samples
    grid = (np.linspace(s[0] + 0.01, s[-1] - 0.01, 9), [0.0, 0.4])
    rep = bg.isometry_report(helicoidal_chart, surf, nat.U, grid, tol=1e-6)
    assert rep.passed


def test_lifted_curve_validation():
    with pytest.raises(ValueError):
        bg.LiftedCurve(u=[0, 1, 2], x1=[0, 1, 2], x2=[0, 0, 0], x3=[0, 0, 0])
    with pytest.raises(ValueError):
        bg.LiftedCurve(u=[0, 1, 1, 2], x1=[0] * 4, x2=[0] * 4, x3=[0] * 4)


def test_lifted_curve_csv_roundtrip(tmp_path):
    curve = axis_curve(0.5, 1.5, 21)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    back = bg.LiftedCurve.from_csv(path)
    assert np.allclose(back.u, curve.u)
    assert np.allclose(back.x1, curve.x1)


def test_generatrix_csv_roundtrip(tmp_path):
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (0.0, 2.0))
    path = tmp_path / "gen.csv"
    U.to_csv(path)
    back = bg.GeneratrixMetric.from_csv(path)
    for s in (0.1, 0.7, 1.9):
        assert np.isclose(back(s), U(s), atol=1e-9)


def test_generatrix_positivity_enforced():
    with pytest.raises(ValueError):
        bg.GeneratrixMetric.from_expression("s-1", (0.0, 2.0))


def test_generatrix_table_monotone_grid():
    with pytest.raises(ValueError):
        bg.GeneratrixMetric.from_samples([0.0, 0.5, 0.5, 1.0], [1, 1, 1, 1])


def test_generatrix_derivative_matches_expression():
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+4)", (0.0, 1.0))
    for s in (0.1, 0.5, 0.9):
        assert np.isclose(U.derivative(s), s / np.sqrt(s * s + 4), atol=1e-14)


_GENERATRICES = {
    "expression": lambda: bg.GeneratrixMetric.from_expression(
        "sqrt(s^2+2) + 0.1*sin(3*s)", (-2.0, 2.0)),
    "table": lambda: bg.GeneratrixMetric.from_samples(
        np.linspace(-2.0, 2.0, 41), np.sqrt(np.linspace(-2.0, 2.0, 41) ** 2 + 2)),
}


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_GENERATRICES)),
       s=st.floats(-2.0, 2.0))
def test_generatrix_scalars_give_the_same_bits(kind, s):
    # a float takes the float path, tested by its class before np.ndim;
    # an np.float64 and a 0-d array take np.ndim's, and all three give
    # the same Python floats from __call__, derivative and table
    U = _GENERATRICES[kind]()
    want = (U(s), U.derivative(s), *U.table(s))
    assert all(type(v) is float for v in want)
    assert want[2:] == want[:2]
    for x in (np.float64(s), np.array(s)):
        got = (U(x), U.derivative(x), *U.table(x))
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
