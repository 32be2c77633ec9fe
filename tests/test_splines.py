"""The numpy splines and cumulative Simpson against scipy, bit for bit."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bourgen._splines import HermiteSpline, cumulative_simpson, pchip

pytest.importorskip("scipy")
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson  # noqa: E402
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator  # noqa: E402


@st.composite
def grids(draw, min_size=2):
    """Strictly increasing grids: uniform (linspace) or with random gaps."""
    n = draw(st.integers(min_size, 24))
    start = draw(st.floats(-10.0, 10.0))
    if draw(st.booleans()):
        return np.linspace(start, start + draw(st.floats(0.01, 20.0)), n)
    gaps = draw(st.lists(st.floats(1e-3, 3.0), min_size=n - 1,
                         max_size=n - 1))
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


def values(n):
    """n samples: random floats, or small integers, whose ties, zero
    slopes and sign changes take PCHIP's shape-preserving branches.
    Nonzero samples below 1e-100 in magnitude are left out: their slopes
    can be so small (down to subnormal) that PCHIP's harmonic mean
    overflows, with a RuntimeWarning from scipy and from this module
    alike."""
    tiny = lambda y: y == 0.0 or abs(y) >= 1e-100
    return (st.lists(st.floats(-1e3, 1e3).filter(tiny),
                     min_size=n, max_size=n)
            | st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]),
                       min_size=n, max_size=n)).map(np.array)


def points(x, inside):
    """The breakpoints, both ends, points outside the range, NaN and the
    drawn points inside."""
    return np.concatenate([x, [x[0], x[-1], x[0] - 1.5, x[-1] + 0.75,
                               np.nan], x[0] + np.asarray(inside)
                           * (x[-1] - x[0])])


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


_inside = st.lists(st.floats(0.0, 1.0), max_size=20)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), x=grids(), inside=_inside)
def test_hermite_spline_equals_scipy(data, x, inside):
    y = data.draw(values(len(x)))
    dydx = data.draw(values(len(x)))
    ours, ref = HermiteSpline(x, y, dydx), CubicHermiteSpline(x, y, dydx)
    v = points(x, inside)
    assert_same_bits(ours(v), ref(v))
    assert_same_bits(ours.derivative()(v), ref.derivative()(v))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), x=grids(), inside=_inside)
def test_pchip_equals_scipy(data, x, inside):
    y = data.draw(values(len(x)))
    ours, ref = pchip(x, y), PchipInterpolator(x, y)
    v = points(x, inside)
    assert_same_bits(ours(v), ref(v))
    assert_same_bits(ours.derivative()(v), ref.derivative()(v))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), x=grids(min_size=3))
def test_cumulative_simpson_equals_scipy(data, x):
    y = data.draw(values(len(x)))
    assert_same_bits(cumulative_simpson(y, x),
                     scipy_cumulative_simpson(y, x=x, initial=0.0))


@pytest.mark.parametrize("x", [[0.0, 1.0], [0.0, 0.5, 2.0]],
                         ids=["two", "three"])
def test_short_grids_equal_scipy(x):
    x = np.array(x)
    y = np.array([1.0, -1.0, 0.5][:len(x)])
    v = points(x, [0.25, 0.5])
    assert_same_bits(pchip(x, y)(v), PchipInterpolator(x, y)(v))
    assert_same_bits(HermiteSpline(x, y, -y)(v),
                     CubicHermiteSpline(x, y, -y)(v))


def test_scalar_gives_a_0d_array():
    x = np.array([0.0, 1.0, 3.0])
    y = np.array([1.0, 2.0, 0.0])
    for spline in (HermiteSpline(x, y, y), pchip(x, y),
                   pchip(x, y).derivative()):
        value = spline(1.7)
        assert isinstance(value, np.ndarray) and value.shape == ()
    assert_same_bits(pchip(x, y)(1.7), PchipInterpolator(x, y)(1.7))


def test_far_points_give_scipy_values_without_warnings():
    # scipy's C loop gives NaN or inf at +-inf (0 * inf) and where the
    # powers of |v| ~ 1e200 overflow, and warns of neither
    x = np.array([0.0, 1.0, 3.0])
    y = np.array([1.0, 2.0, 0.0])
    v = np.array([np.inf, -np.inf, 1e200, -1e200, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ours, ref in ((HermiteSpline(x, y, -y), CubicHermiteSpline(x, y, -y)),
                          (pchip(x, y), PchipInterpolator(x, y))):
            for o, r in ((ours, ref), (ours.derivative(), ref.derivative())):
                assert_same_bits(o(v), r(v))
                for point in v:
                    assert_same_bits(o(point), r(point))
    assert not np.isfinite(HermiteSpline(x, y, -y)(v[:4])).any()


_x = [0.0, 1.0, 2.0, 3.0]
_bad = [
    ("unsorted", [0.0, 2.0, 1.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
    ("repeated", [0.0, 1.0, 1.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
    ("x-nan", [0.0, np.nan, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
    ("x-inf", [0.0, 1.0, 2.0, np.inf], [1.0, 2.0, 3.0, 4.0]),
    ("y-nan", _x, [1.0, np.nan, 3.0, 4.0]),
    ("y-inf", _x, [1.0, 2.0, -np.inf, 4.0]),
]


@pytest.mark.parametrize("name,x,y", _bad, ids=[b[0] for b in _bad])
def test_bad_input_raises_value_error_as_scipy_does(name, x, y):
    x, y = np.array(x), np.array(y)
    dydx = np.ones_like(y)
    with pytest.raises(ValueError):
        CubicHermiteSpline(x, y, dydx)
    with pytest.raises(ValueError):
        HermiteSpline(x, y, dydx)
    with pytest.raises(ValueError):
        PchipInterpolator(x, y)
    with pytest.raises(ValueError):
        pchip(x, y)


def test_non_finite_slope_raises_value_error_as_scipy_does():
    x = np.array(_x)
    y = np.ones(4)
    dydx = np.array([0.0, np.nan, 1.0, 0.0])
    with pytest.raises(ValueError):
        CubicHermiteSpline(x, y, dydx)
    with pytest.raises(ValueError):
        HermiteSpline(x, y, dydx)


@pytest.mark.parametrize("x", [[0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 3.0]],
                         ids=["unsorted", "repeated"])
def test_cumulative_simpson_bad_grid_raises_value_error_as_scipy_does(x):
    x = np.array(x)
    y = np.ones(4)
    with pytest.raises(ValueError):
        scipy_cumulative_simpson(y, x=x, initial=0.0)
    with pytest.raises(ValueError):
        cumulative_simpson(y, x)
