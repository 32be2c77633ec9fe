"""Config charts through the characteristic member path: closed forms on
four charts of metrics A(x2) dx1^2 + B(x2) dx2^2 + C(x2) dx3^2, and typed
failures on charts drawn from a small expression grammar."""
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from scipy.integrate import quad

import bourgen as bg
from bourgen.errors import BourgenError

# ---------------------------------------------------------------------------
# closed forms: g = A(x2) dx1^2 + B(x2) dx2^2 + C(x2) dx3^2
# ---------------------------------------------------------------------------
#
# omega = sqrt(C) depends on x2 alone, so the characteristics are the
# lines x1 = const, and theta on the Cauchy segment x2 = c, x1 from -3 to
# 3, is x1 + 3.  A member then has
#     x2(s) = omega^-1(m U(s)),
#     theta(s) = theta0 + eps int sqrt(go - m^2 U'^2) / sqrt(A go) ds,
#     go = omega'(x2)^2 / B,
# x1 = theta - 3 and V = 0.

# name: (config, Cauchy line x2 = c, A, B, omega^-1, omega', range of m
# on which U = a + b s^2 of the draws below has a positive radicand)
_CLOSED = {
    "sol3": (
        {"g11": "exp(-2*x2)", "g12": "0", "g13": "0", "g22": "1",
         "g23": "0", "g33": "exp(2*x2)", "domain_positive": "3 - x2"},
        0.0, lambda x: math.exp(-2.0 * x), lambda x: 1.0,
        math.log, math.exp, (0.5, 2.0)),
    "h2xr_parabolic": (
        {"g11": "1", "g12": "0", "g13": "0", "g22": "1/x2^2", "g23": "0",
         "g33": "1/x2^2", "domain_positive": "x2"},
        1.0, lambda x: 1.0, lambda x: 1.0 / (x * x),
        lambda w: 1.0 / w, lambda x: -1.0 / (x * x), (0.5, 2.0)),
    "h2xr_hyperbolic": (
        {"g11": "1", "g12": "0", "g13": "0", "g22": "1", "g23": "0",
         "g33": "cosh(x2)^2", "domain_positive": "x2"},
        0.5, lambda x: 1.0, lambda x: 1.0,
        math.acosh, math.sinh, (1.5, 3.0)),
    "s2xr_rotation": (
        {"g11": "1", "g12": "0", "g13": "0", "g22": "1", "g23": "0",
         "g33": "sin(x2)^2",
         "domain_positive": "x2*(1.5707963267948966 - x2)"},
        0.5, lambda x: 1.0, lambda x: 1.0,
        math.asin, math.cos, (0.2, 0.55)),
}


@pytest.fixture(scope="module", params=sorted(_CLOSED))
def closed_chart(request):
    """(name, chart, traced theta) of a closed-form chart; the invariant
    does not depend on the draw, so it is traced once."""
    config, c = _CLOSED[request.param][:2]
    chart = bg.chart_from_config(dict(config, label=request.param))
    traced = bg.solve_orthogonal_invariant(
        chart, bg.line_segment((-3.0, c), (3.0, c)), np.linspace(0.0, 6.0, 31))
    return request.param, chart, traced


def _closed_theta(name, U, m, s, theta0, epsilon):
    """theta at the nodes s from the closed form, by adaptive quadrature
    of each node interval to 1e-14."""
    _, _, A, B, inverse, slope, _ = _CLOSED[name]

    def rate(x):
        Ux, dUx = U.table(float(x))
        x2 = inverse(m * Ux)
        go = slope(x2) ** 2 / B(x2)
        return math.sqrt(go - (m * dUx) ** 2) / math.sqrt(A(x2) * go)

    steps = [quad(rate, a, b, epsabs=1e-14, epsrel=1e-14)[0]
             for a, b in zip(s[:-1], s[1:])]
    return theta0 + epsilon * np.concatenate([[0.0], np.cumsum(steps)])


@settings(max_examples=20, deadline=None)
@given(a=st.floats(1.0, 1.3), b=st.floats(0.0, 0.3), m_frac=st.floats(0.0, 1.0),
       lift=st.floats(0.2, 3.0), epsilon=st.sampled_from([1, -1]))
@example(a=1.3, b=0.3, m_frac=1.0, lift=3.0, epsilon=1)
def test_closed_form_charts_meet_their_closed_form(closed_chart, a, b, m_frac,
                                                   lift, epsilon):
    # U = a + b s^2 on [0, 1] has U >= 1 and |U'| <= 0.6, so each chart's
    # radicand is positive over its range of m, and theta moves by less
    # than 3 (m sqrt(U^2 - U'^2) < 3 on Sol3, and the rate is below 1 on
    # the others): theta0 = lift or 6 - lift keeps it on the Cauchy
    # segment.  Measured over 100 draws a chart, two corners included:
    # x2 to 2.9e-15, x1 and V exactly, E to 2.3e-10, F exactly, G to
    # 5.3e-11, and theta to 8.9e-11, except on S2xR at the @example, the
    # corner nearest its radicand's zero (0.12 there), where RK4's step
    # 0.02 leaves 9.7e-9 (6.1e-10 at step 0.01).
    name, chart, traced = closed_chart
    inverse, (lo, hi) = _CLOSED[name][4], _CLOSED[name][6]
    m = lo + m_frac * (hi - lo)
    theta0 = lift if epsilon == 1 else 6.0 - lift
    U = bg.GeneratrixMetric.from_expression(f"{a!r} + {b!r}*s^2", (0.0, 1.0))
    frame = bg.build_frame(chart, traced,
                           rect=((0.9 * m * a, 1.1 * m * (a + b)), (0.0, 6.0)))
    params = bg.BourParams(m=m, s_range=(0.0, 1.0), step=0.02, epsilon=epsilon)
    member = bg.generate_member(U, params, frame, theta0)
    x2 = np.array([inverse(m * u) for u in U(member.s)])
    assert np.max(np.abs(member.x2 - x2)) <= 1e-13
    theta = _closed_theta(name, U, m, member.s, theta0, epsilon)
    assert np.max(np.abs(member.theta - theta)) <= 2e-8
    assert np.array_equal(member.x1, member.theta - 3.0)
    assert not np.any(member.V_samples)
    report = bg.isometry_report(chart, member, U, (np.linspace(0.05, 0.95, 7),
                                                   np.linspace(0.0, 1.0, 5)),
                                tol=1e-9)
    assert report.passed and report.max_F_dev == 0.0


# ---------------------------------------------------------------------------
# charts from a grammar: every draw ends in a member or a typed error
# ---------------------------------------------------------------------------

# c * f(atom): a coefficient c in [-0.3, 0.3], an atom that is a low
# power of x1 and x2, and f the identity, exp, log or sqrt of a shift
# plus the atom, or the reciprocal of that sum
_TERMS = st.builds(
    lambda c, f, atom, shift: f"{c!r}*" + f.format(atom=atom, shift=shift),
    st.integers(-6, 6).map(lambda k: k / 20.0),
    st.sampled_from(["{atom}", "exp({atom})", "log({shift} + {atom})",
                     "sqrt({shift} + {atom})", "1/({shift} + {atom})"]),
    st.sampled_from(["x1", "x2", "x1^2", "x2^2", "x1*x2", "x1^3", "x2^3"]),
    st.integers(0, 3))
_SUMS = st.lists(_TERMS, max_size=2).map(lambda ts: " + ".join(ts) or "0")

# the flat helicoidal chart (g13 = x2, g23 = -x1, g33 = 1 + x1^2 + x2^2)
# plus up to two terms per coefficient, with a domain guard or none
_CONFIGS = st.fixed_dictionaries({
    "g11": _SUMS.map(lambda e: f"1 + {e}"),
    "g12": _SUMS,
    "g13": _SUMS.map(lambda e: f"x2 + {e}"),
    "g22": _SUMS.map(lambda e: f"1 + {e}"),
    "g23": _SUMS.map(lambda e: f"-x1 + {e}"),
    "g33": _SUMS.map(lambda e: f"1 + x1^2 + x2^2 + {e}"),
    "domain_positive": st.sampled_from(["", "3 - x2", "x1", "4 - x1^2 - x2^2"]),
})

_SOL3 = {"g11": "exp(-2*x2)", "g12": "0", "g13": "0", "g22": "1", "g23": "0",
         "g33": "exp(2*x2)", "domain_positive": ""}


@settings(max_examples=150, deadline=None)
@given(config=_CONFIGS,
       start=st.tuples(st.floats(0.5, 2.0), st.floats(-2.0, -1.0)),
       direction=st.floats(1.2, 1.9), length=st.floats(2.0, 4.0),
       slope=st.floats(-0.2, 0.2), m_scale=st.floats(0.9, 1.1),
       theta_frac=st.floats(0.3, 0.7))
@example(config=_SOL3, start=(-3.0, 0.0), direction=0.0, length=6.0,
         slope=0.2, m_scale=1.0, theta_frac=0.5)
def test_grammar_charts_build_a_member_or_raise_a_typed_error(
        config, start, direction, length, slope, m_scale, theta_frac):
    # the member starts at the Cauchy point of theta0, with omega = m U(0)
    # near omega there; it need not pass the isometry check.  Under the
    # ci profile about one draw in seven builds a member (all of them
    # pass), and the rest raise, most of them while the invariant is
    # traced
    end = (start[0] + length * math.cos(direction),
           start[1] + length * math.sin(direction))
    theta0 = theta_frac * length
    try:
        chart = bg.chart_from_config(config)
        traced = bg.solve_orthogonal_invariant(
            chart, bg.line_segment(start, end), np.linspace(0.0, length, 11),
            n_steps=100)
        m = m_scale * float(chart.volume_at(traced.cauchy.point(theta0)))
        U = bg.GeneratrixMetric.from_expression(f"1 + {slope!r}*s", (0.0, 0.5))
        frame = bg.build_frame(chart, traced,
                               rect=((0.5 * m, 2.0 * m), (0.0, length)))
        member = bg.generate_member(U, bg.BourParams(
            m=m, s_range=(0.0, 0.5), step=0.025), frame, theta0)
        report = bg.isometry_report(chart, member, U, (
            np.linspace(0.05, 0.45, 5), np.linspace(0.0, 1.0, 3)))
        event(f"member, isometry check passed: {report.passed}")
    except BourgenError as exc:
        event(type(exc).__name__)
