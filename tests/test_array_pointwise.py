"""Array paths of the export, pullback, BCV-window and constant-volume code
against sequential per-point reference loops kept in this file, compared
to the bit (and, for errors, by type, condition and message)."""
import math

import numpy as np
import pytest

import bourgen as bg
from bourgen import spaces
from bourgen.cli import write_obj
from bourgen.errors import DomainViolationError


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# mesh vertices
# ---------------------------------------------------------------------------

def _ref_mesh_xyz(spec, p):
    x1, x2, x3 = p
    if spec.kind == "euclidean_helicoidal":
        return (x1 * math.cos(x3) + x2 * math.sin(x3),
                x2 * math.cos(x3) - x1 * math.sin(x3), spec.a * x3)
    if spec.kind == "euclidean_rotational":
        return (x1 * math.cos(x3), x1 * math.sin(x3), x2)
    r = math.hypot(x1, x2)
    th = x3 + math.atan2(x2, x1)
    return (r * math.cos(th), r * math.sin(th), spec.a * x3)


SPECS = [bg.SpaceSpec("euclidean_helicoidal", a=1.3),
         bg.SpaceSpec("euclidean_rotational"),
         bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0),
         bg.SpaceSpec("bcv_helicoidal", a=-0.7, kappa=-1.0, tau=0.5)]


def _points(n=4000, seed=3):
    """Points with x1 and x2 of both signs, axis points (signed zeros
    included, where atan2 jumps between pi and -pi) and x3 far past pi."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-3.0, 3.0, (3, n))
    p[2] *= 4.0
    p[:, :8] = [[-1.0, -1.0, 0.0, -0.0, 2.0, -2.5, 0.0, 1e-300],
                [0.0, -0.0, 1.0, -1.0, -0.0, 1e-17, 0.0, -1e-300],
                [math.pi, -math.pi, 7.5, -9.0, 0.0, 3 * math.pi, 1.0, 2.0]]
    return p.reshape(3, 80, n // 80)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_mesh_xyz_arrays_match_points(spec):
    p = _points()
    xyz = bg.mesh_xyz(spec, tuple(p))
    ref = np.array([_ref_mesh_xyz(spec, q)
                    for q in zip(*(c.ravel().tolist() for c in p))])
    for k in range(3):
        assert _same_bits(xyz[k].ravel(), ref[:, k])
    # a float point still gives floats, with the same bits
    q = tuple(float(c.flat[1]) for c in p)
    assert all(type(c) is float for c in bg.mesh_xyz(spec, q))
    assert _same_bits(bg.mesh_xyz(spec, q), _ref_mesh_xyz(spec, q))


def test_write_obj_vertices_match_points(tmp_path, bcv_member, bcv_spec):
    path = tmp_path / "m.obj"
    write_obj(bcv_member, bcv_spec, path, t_range=(-4.0, 4.0))
    s = np.linspace(*bcv_member.s_range, 41)
    grid = np.broadcast_arrays(
        *bcv_member.map(s[:, None], np.linspace(-4.0, 4.0, 41)))
    ref = [_ref_mesh_xyz(bcv_spec, q)
           for q in zip(*(c.ravel().tolist() for c in grid))]
    lines = path.read_text().splitlines()
    assert lines[1:1 + len(ref)] == [
        f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in ref]
    assert lines[1 + len(ref)].startswith("f ")


# ---------------------------------------------------------------------------
# natural pullback
# ---------------------------------------------------------------------------

def _ref_pullback(chart, curve):
    du = [np.gradient(arr, curve.u, edge_order=2)
          for arr in (curve.x1, curve.x2, curve.x3)]
    n = len(curve.u)
    E, F, G = np.empty(n), np.empty(n), np.empty(n)
    for k in range(n):
        g = chart.metric_at((curve.x1[k], curve.x2[k]))
        v = np.array([du[0][k], du[1][k], du[2][k]])
        E[k] = v @ g @ v
        F[k] = v @ g[:, 2]
        G[k] = g[2, 2]
    return E, F, G


@pytest.mark.parametrize("spec", [SPECS[0], SPECS[2], SPECS[3]],
                         ids=["helicoidal", "bcv", "bcv-hyperbolic"])
def test_pullback_matches_points(spec):
    u = np.linspace(0.0, 2.0, 1201)
    curve = bg.LiftedCurve(u=u, x1=0.9 + 0.3 * np.cos(3.0 * u),
                           x2=0.4 * np.sin(2.0 * u) - 0.2,
                           x3=0.7 * u + 0.1 * u * u)
    coeffs = bg.pullback_coefficients(bg.make_chart(spec), curve)
    ref = _ref_pullback(bg.make_chart(spec), curve)
    for got, want in zip((coeffs.E, coeffs.F, coeffs.G), ref):
        assert _same_bits(got, want)
    assert _same_bits(coeffs.u, u)


# ---------------------------------------------------------------------------
# BCV omega window
# ---------------------------------------------------------------------------

def _ref_valid_count(spec, ws):
    """The number of leading samples at which the closed-form frame is
    valid, checked one sample at a time."""
    a, kappa, tau = spec.a, spec.kappa, spec.tau
    for k, w in enumerate(ws):
        if spaces._bcv_delta(w, kappa, tau, a) <= 0:
            return k
        den = spaces._bcv_denominator(w, kappa, tau, a)
        if den <= 0:
            return k
        r2 = 4.0 * (w * w - a * a) / den
        if r2 <= 0 or 1.0 + 0.25 * kappa * r2 <= 0:
            return k
    return len(ws)


def _ref_omega_range(spec, n=2048):
    a = spec.a
    lo = abs(a) * (1.0 + 1e-9) + 1e-12
    ws = np.linspace(lo, abs(a) + 20.0, n)
    k = _ref_valid_count(spec, ws)
    if k == 0:
        return None
    last = ws[k - 1]
    margin = 1e-3 * (last - lo) if last > lo else 0.0
    return (lo, float(last - margin))


def test_omega_range_matches_scan():
    results = set()
    for a in (1.0, -1.0, 0.3, 2.0):
        for kappa in (1.0, -1.0, 0.0, 4.0, -3.0):
            for tau in (1.0, 0.5, 0.0, -0.7, 2.0, 0.25):
                spec = bg.SpaceSpec("bcv_helicoidal", a=a, kappa=kappa, tau=tau)
                want = _ref_omega_range(spec)
                if want is None:
                    with pytest.raises(DomainViolationError, match="no valid"):
                        spaces.bcv_valid_omega_range(spec)
                    results.add("none")
                    continue
                got = spaces.bcv_valid_omega_range(spec)
                assert _same_bits(got, want), spec
                results.add("cut" if got[1] < abs(a) + 19.0 else "full")
    assert results == {"none", "cut", "full"}


# ---------------------------------------------------------------------------
# constant-volume member
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chart_name", ["flat", "nil"])
def test_constant_volume_member_matches_points(chart_name, request):
    chart = request.getfixturevalue(f"{chart_name}_chart")
    s = np.linspace(0.0, np.pi, 2001)
    c1, c2 = np.cos(s), np.sin(s)
    member = bg.constant_volume_member(
        chart, bg.LiftedCurve(u=s, x1=c1, x2=c2, x3=np.zeros_like(s)))
    w = np.array([chart.volume_at((c1[k], c2[k])) for k in range(len(s))])
    d1 = np.gradient(c1, s, edge_order=2)
    d2 = np.gradient(c2, s, edge_order=2)
    integrand = np.array([
        -(d1[k] * chart.metric(c1[k], c2[k])[2]
          + d2[k] * chart.metric(c1[k], c2[k])[4])
        for k in range(len(s))])
    assert _same_bits(member.omega, w)
    assert _same_bits(member.V_prime, integrand)
    if chart_name == "nil":
        # the unit circle of the Nil quotient: V' = -1/2
        assert np.allclose(member.V_prime, -0.5, atol=1e-6)
