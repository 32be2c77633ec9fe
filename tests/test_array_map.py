"""The array map: evaluating a member on arrays of (s, t) gives exactly the
per-point values, and the grid verifier matches per-point measurements."""
import numpy as np
import pytest

import bourgen as bg
from bourgen.errors import RangeError
from bourgen.verify import _first_forms


def _grid(s_range, n_s=13, n_t=5):
    lo, hi = s_range
    # both range ends, interior points, and a repeated s value
    s = np.concatenate([np.linspace(lo, hi, n_s), [0.5 * (lo + hi)]])
    t = np.linspace(-0.4, 1.3, n_t)
    return s[:, None], t


def _scalar_map(surface, S, T):
    S, T = np.broadcast_arrays(S, T)
    out = np.empty(S.shape + (3,))
    for i in np.ndindex(S.shape):
        out[i] = surface.map(float(S[i]), float(T[i]))
    return out


def _assert_map_matches_scalar_calls(surface):
    S, T = _grid(surface.s_range)
    x1, x2, x3 = surface.map(S, T)
    assert x1.shape == x2.shape == x3.shape == (S.shape[0], T.shape[0])
    assert np.array_equal(np.stack([x1, x2, x3], axis=-1),
                          _scalar_map(surface, S, T))


def _frameless(member, U=None):
    """The member's samples with no frame attached: a spline map, with the
    generatrix U if given, else the member's."""
    return bg.SurfaceMember(
        s=member.s, x1=member.x1, x2=member.x2, x1p=member.x1p,
        x2p=member.x2p, theta=member.theta, theta_prime=member.theta_prime,
        omega=member.omega, V=member.V_samples, Vp=member.V_prime,
        m=member.m, epsilon=member.epsilon, U=U or member.U,
        space=member.space)


@pytest.fixture(scope="module")
def members(bcv_member, helicoid_member, catenoid_member, tmp_path_factory):
    """Re-solved members, each followed by its JSON round trip (which
    rebuilds the frame), and last a frameless copy of the first (the
    spline map)."""
    out = []
    for k, member in enumerate((bcv_member, helicoid_member, catenoid_member)):
        path = tmp_path_factory.mktemp("members") / f"member_{k}.json"
        member.to_json(path)
        out += [member, bg.SurfaceMember.from_json(path)]
    return out + [_frameless(bcv_member)]


@pytest.fixture(scope="module")
def natural_surface(helicoidal_chart):
    u = np.linspace(0.5, 2.0, 401)
    curve = bg.LiftedCurve(u=u, x1=u, x2=np.zeros_like(u), x3=0.3 * u)
    nat = bg.to_natural(bg.pullback_coefficients(helicoidal_chart, curve))
    return bg.ReparametrizedSurface(curve, nat)


def test_member_map_arrays_equal_scalar_calls(members):
    assert members[-1].frame is None  # the spline map is covered too
    for member in members:
        _assert_map_matches_scalar_calls(member)
    # a round trip re-solves through the rebuilt frame to the bits of the
    # member that was written
    for member, back in zip(members[0:6:2], members[1:6:2]):
        assert back.frame is not None
        S, T = _grid(member.s_range)
        assert np.stack(back.map(S, T)).tobytes() == \
            np.stack(member.map(S, T)).tobytes()


def test_member_map_at_nodes_gives_the_samples(members):
    # both maps pass through the samples at the left end of each interval:
    # the splines, and the re-solve of the stored (omega, theta)
    for member in members:
        s = member.s[:-1]
        x1, x2, x3 = member.map(s, 0.7)
        assert np.array_equal(x1, member.x1[:-1])
        assert np.array_equal(x2, member.x2[:-1])
        assert np.array_equal(x3, 0.7 / member.m + member.V_samples[:-1])


def test_natural_map_arrays_equal_scalar_calls(natural_surface):
    _assert_map_matches_scalar_calls(natural_surface)


def test_map_scalar_input_gives_scalars(bcv_member, natural_surface):
    for surface in (bcv_member, natural_surface):
        p = surface.map(0.6, 0.25)
        assert all(np.ndim(c) == 0 for c in p)
        assert np.array_equal(surface.map(np.array([0.6]), 0.25), [[c] for c in p])


@pytest.mark.parametrize("where", [0, 7, -1])
def test_one_out_of_range_element_raises(members, natural_surface, where):
    for surface in (members[0], members[1], natural_surface):
        lo, hi = surface.s_range
        s = np.linspace(lo, hi, 9)
        s[where] = hi + 1e-6 if where else lo - 1e-6
        with pytest.raises(RangeError, match=f"{s[where]:.6g}"):
            surface.map(s, 0.0)
        with pytest.raises(RangeError):
            surface.map(s.reshape(3, 3), np.zeros((3, 1)))
        with pytest.raises(RangeError):
            surface.map(np.nan, 0.0)


def _point_form(chart, member, s, t, h):
    """(E, F, G) at one point from five scalar map calls."""
    p0 = np.array(member.map(s, t))
    psi_s = (np.array(member.map(s + h, t))
             - np.array(member.map(s - h, t))) / (2 * h)
    psi_t = (np.array(member.map(s, t + h))
             - np.array(member.map(s, t - h))) / (2 * h)
    g = chart.metric_at((p0[0], p0[1]))
    return psi_s @ g @ psi_s, psi_s @ g @ psi_t, psi_t @ g @ psi_t


def _loop_report(chart, member, U, s_values, t_values, h):
    """Maxima and worst point from one fd_first_form call per grid point,
    each checked against scalar map calls."""
    maxima = {"E": 0.0, "F": 0.0, "G": 0.0}
    worst = {}
    for s in s_values:
        U2 = U(s) ** 2
        for t in t_values:
            f = bg.fd_first_form(chart, member, s, t, h)
            assert (f.E, f.F, f.G) == _point_form(chart, member, s, t, h)
            devs = {"E": abs(f.E - 1.0), "F": abs(f.F), "G": abs(f.G - U2)}
            for name, dev in devs.items():
                maxima[name] = max(maxima[name], dev)
            top = max(devs, key=devs.get)
            if not worst or devs[top] > worst["deviation"]:
                worst = {"s": float(s), "t": float(t), "quantity": top,
                         "deviation": float(devs[top])}
    return maxima, worst


def test_isometry_report_equals_fd_first_form_loop(members, natural_surface,
                                                   helicoidal_chart):
    h = 1e-5
    cases = [(bg.make_chart(m.space), m, m.U) for m in members]
    cases.append((helicoidal_chart, natural_surface, natural_surface.nat.U))
    for chart, surface, U in cases:
        lo, hi = surface.s_range
        s_values = np.linspace(lo + 2 * h, hi - 2 * h, 9)
        t_values = np.linspace(0.0, 1.0, 4)
        rep = bg.isometry_report(chart, surface, U, (s_values, t_values), h=h)
        maxima, worst = _loop_report(chart, surface, U, s_values, t_values, h)
        assert (rep.max_E_dev, rep.max_F_dev, rep.max_G_dev) == (
            maxima["E"], maxima["F"], maxima["G"])
        assert rep.worst == worst


def _three_pairings(chart, member, s, t, h):
    """(E, F, G) at the broadcast points (s, t) from one five-row map call,
    with psi_t = (p(t + h) - p(t - h)) / 2h paired through the metric by
    stacked matmuls as psi_s is: the pairing code the invariant first form
    replaced, kept as its bit-for-bit reference."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    p = np.stack(member.map(np.stack([s, s + h, s - h, s, s]),
                            np.stack([t, t, t, t + h, t - h])), axis=-1)
    psi_s = (p[1] - p[2]) / (2 * h)
    psi_t = (p[3] - p[4]) / (2 * h)
    g = chart.metric_at((p[0][..., 0], p[0][..., 1]))
    sg = psi_s[..., None, :] @ g
    tg = psi_t[..., None, :] @ g
    return ((sg @ psi_s[..., :, None])[..., 0, 0],
            (sg @ psi_t[..., :, None])[..., 0, 0],
            (tg @ psi_t[..., :, None])[..., 0, 0])


def test_first_forms_equal_three_pairings_to_the_bit(
        members, natural_surface, helicoidal_chart, helicoid_member):
    # a product with the exact zeros of psi_t = (0, 0, x3_t) rounds as its
    # matmul pairing does: re-solved BCV, helicoidal and rotational members,
    # a frameless member with a table generatrix, and a reparametrized one
    nodes = helicoid_member.s
    table = bg.GeneratrixMetric.from_samples(nodes, helicoid_member.U(nodes))
    tabled = _frameless(helicoid_member, table)
    assert tabled.frame is None and tabled.U.representation == "table"
    cases = [(bg.make_chart(m.space), m) for m in members[0:6:2]]
    cases += [(helicoidal_chart, tabled), (helicoidal_chart, natural_surface)]
    h = 1e-5
    for chart, surface in cases:
        lo, hi = surface.s_range
        s = np.linspace(lo + 2 * h, hi - 2 * h, 17)[:, None]
        t = np.linspace(-0.4, 1.3, 6)[None, :]
        got = _first_forms(chart, surface, s, t, h)
        want = _three_pairings(chart, surface, s, t, h)
        assert all(a.shape == (17, 6) for a in got)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_isometry_worst_names_a_corrupted_point(catenoid_member,
                                                rotational_frame):
    # V + 0.01 s^2 tilts F by 0.02 s g33 / m: largest at the last s
    bad = bg.SurfaceMember(
        s=catenoid_member.s, x1=catenoid_member.x1, x2=catenoid_member.x2,
        x1p=catenoid_member.x1p, x2p=catenoid_member.x2p,
        theta=catenoid_member.theta, theta_prime=catenoid_member.theta_prime,
        omega=catenoid_member.omega,
        V=catenoid_member.V_samples + 0.01 * catenoid_member.s ** 2,
        Vp=catenoid_member.V_prime + 0.02 * catenoid_member.s,
        m=catenoid_member.m, epsilon=catenoid_member.epsilon,
        space=catenoid_member.space, U=catenoid_member.U)
    grid = (np.linspace(-1.0, 1.5, 6), [0.0, 0.5])
    rep = bg.isometry_report(rotational_frame.chart, bad, bad.U, grid)
    maxima, worst = _loop_report(rotational_frame.chart, bad, bad.U, *grid,
                                 1e-5)
    assert not rep.passed
    assert rep.worst == worst
    assert (rep.worst["s"], rep.worst["quantity"]) == (1.5, "F")
