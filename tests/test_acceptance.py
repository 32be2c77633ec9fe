"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import math

import numpy as np
import pytest

import bourgen as bg
from bourgen._numerics import central_gradient2
from bourgen.chart import invariant_pairing
from conftest import fd_invariant, ratio_theta, swept_nodes


def _report(number, description, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} [{status}] {description}: {detail}")
    assert passed, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. catenoid recovery
# ---------------------------------------------------------------------------

def test_criterion_1_catenoid_recovery(rotational_spec, rotational_frame):
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (-2.0, 2.0))
    params = bg.BourParams(m=1.0, s_range=(-2.0, 2.0), step=0.01, epsilon=1,
                           anchor=0.0)
    member = bg.generate_member(U, params, rotational_frame, 0.0,
                                space=rotational_spec)
    rho = member.x1            # radius coordinate of the rotational chart
    lam = member.theta         # height coordinate
    catenary_dev = np.max(np.abs(rho - np.cosh(lam)))
    arcsinh_dev = np.max(np.abs(lam - np.arcsinh(member.s)))
    _report(1, "catenoid recovery (a=0, U=sqrt(s^2+1), m=1, RK4 step 0.01)",
            catenary_dev < 1e-6 and arcsinh_dev < 1e-6,
            f"max|rho - cosh(lam)| = {catenary_dev:.3e}, "
            f"max|lam - arcsinh(s)| = {arcsinh_dev:.3e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 2. helicoid fixed point
# ---------------------------------------------------------------------------

def test_criterion_2_helicoid_fixed_point(helicoidal_spec, helicoidal_frame):
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (0.5, 2.0))
    s = np.linspace(0.5, 2.0, 601)
    fam = bg.r3_closed_form(U, 1.0, 1, 1.0, s)
    lam_dev = np.max(np.abs(fam.lam_samples))
    rho_dev = np.max(np.abs(fam.rho_samples - s))
    # the generic pipeline degenerates identically
    params = bg.BourParams(m=1.0, s_range=(0.5, 2.0), step=0.005)
    member = bg.generate_member(U, params, helicoidal_frame, 0.0,
                                space=helicoidal_spec)
    gen_dev = max(np.max(np.abs(member.theta)),
                  np.max(np.abs(member.x1 - member.s)))
    _report(2, "helicoid fixed point (a=1, U=sqrt(s^2+1), m=1)",
            lam_dev < 1e-8 and rho_dev < 1e-8 and gen_dev < 1e-8,
            f"max|lam| = {lam_dev:.3e}, max|rho - s| = {rho_dev:.3e}, "
            f"generic pipeline dev = {gen_dev:.3e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 3. family isometry for three members
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def r3_family(helicoidal_spec):
    """Members m in {1, 1.5, 2} for U = sqrt(s^2+2) on the feasible part of
    [0.5, 2]; for m > 1 the radicand vanishes inside the requested range
    (the member does not exist beyond), so the range is shrunk by the
    dense-grid feasibility oracle."""
    frame = bg.builtin_frame(helicoidal_spec)
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    members = {}
    for m in (1.0, 1.5, 2.0):
        s_range = bg.feasible_s_range(U, m, frame, (0.5, 2.0), step=0.005)
        params = bg.BourParams(m=m, s_range=s_range, step=0.005, epsilon=1)
        members[m] = bg.generate_member(U, params, frame, 0.0,
                                        space=helicoidal_spec)
    return U, frame, members


def test_criterion_3_isometry_three_members(r3_family):
    U, frame, members = r3_family
    h = 1e-5
    details = []
    passed = True
    for m, member in members.items():
        lo, hi = member.s_range
        grid = (np.linspace(lo + 2 * h, hi - 2 * h, 21),
                np.linspace(0.0, 1.0, 21))
        rep = bg.isometry_report(frame.chart, member, U, grid, tol=1e-5, h=h)
        worst = max(rep.max_E_dev, rep.max_F_dev, rep.max_G_dev)
        details.append(f"m={m:g} on [{lo:g}, {hi:g}]: {worst:.3e}")
        passed = passed and rep.passed
    _report(3, "family isometry diag(1, U^2) at 21x21, fd step 1e-5",
            passed, "; ".join(details) + " (tol 1e-5 each)")


# ---------------------------------------------------------------------------
# 4. closed-form vs generic cross-check
# ---------------------------------------------------------------------------

def test_criterion_4_cross_check(r3_family, bcv_spec):
    U, frame, members = r3_family
    details = []
    passed = True
    for m, member in members.items():
        closed = bg.r3_closed_form(U, m, 1, 1.0, member.s)
        cc = bg.cross_check(closed, member)
        details.append(f"R3 m={m:g}: rho {cc.rho_dev:.2e}, angle {cc.angle_dev:.2e}")
        passed = passed and cc.rho_dev < 1e-5 and cc.angle_dev < 1e-5

    # BCV reference case; the dense-grid oracle confirms the radicands are
    # positive on the whole range first
    bcv_frame = bg.builtin_frame(bcv_spec)
    Ub = bg.GeneratrixMetric.from_expression("sqrt(s^2+4)", (0.0, 1.0))
    feasible = bg.feasible_s_range(Ub, 1.0, bcv_frame, (0.0, 1.0), step=0.005)
    assert feasible == (0.0, 1.0), "radicand oracle demands a shrink"
    params = bg.BourParams(m=1.0, s_range=(0.0, 1.0), step=0.005, epsilon=1)
    member_b = bg.generate_member(Ub, params, bcv_frame, 0.0, space=bcv_spec)
    closed_b = bg.bcv_closed_form(Ub, 1.0, 1, 1.0, 1.0, 1.0, member_b.s)
    cc_b = bg.cross_check(closed_b, member_b)
    details.append(f"BCV(1,1,1): rho {cc_b.rho_dev:.2e}, angle {cc_b.angle_dev:.2e}")
    passed = passed and cc_b.rho_dev < 1e-5 and cc_b.angle_dev < 1e-5
    _report(4, "closed form vs generic pipeline at step 0.005",
            passed, "; ".join(details) + " (tol 1e-5)")


# ---------------------------------------------------------------------------
# 5. BCV -> flat reduction
# ---------------------------------------------------------------------------

def test_criterion_5_flat_reduction():
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+2)", (0.5, 2.0))
    s = np.linspace(0.5, 2.0, 301)
    worst_same = worst_flip = 0.0
    for eps in (1, -1):
        r3 = bg.r3_closed_form(U, 1.0, eps, 1.0, s)
        bcv = bg.bcv_closed_form(U, 1.0, eps, 0.0, 0.0, 1.0, s)
        r3_flip = bg.r3_closed_form(U, 1.0, -eps, 1.0, s)
        worst_same = max(worst_same,
                         np.max(np.abs(bcv.rho_samples - r3.rho_samples)),
                         np.max(np.abs(bcv.lam_samples - r3.lam_samples)))
        worst_flip = max(worst_flip,
                         np.max(np.abs(bcv.V_samples - r3_flip.V_samples)))
    _report(5, "BCV(kappa=tau=0) reduction: rho, lam at same branch, "
               "V at the flipped branch",
            worst_same < 1e-8 and worst_flip < 1e-8,
            f"max same-branch dev = {worst_same:.3e}, "
            f"max flipped-V dev = {worst_flip:.3e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 6. orthogonal invariant pair
# ---------------------------------------------------------------------------

def test_criterion_6_orthogonal_pair(helicoidal_chart, bcv_frame):
    theta = ratio_theta()
    rng = np.random.default_rng(20240901)
    worst_analytic = 0.0
    for chart in (helicoidal_chart, bcv_frame.chart):
        omega = chart.volume_fn()
        for _ in range(100):
            p = (rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5))
            worst_analytic = max(worst_analytic,
                                 abs(invariant_pairing(chart, omega, theta, p)))

    cauchy = bg.line_segment((1.0, -0.6), (1.0, 0.6))
    traced = bg.solve_orthogonal_invariant(
        helicoidal_chart, cauchy, np.linspace(0.0, 1.2, 61), n_steps=220)
    omega = helicoidal_chart.volume_fn()
    pts = swept_nodes(traced, rng, 100)
    traced_fd = fd_invariant(traced, 1e-5)
    worst_traced = max(abs(invariant_pairing(helicoidal_chart, omega,
                                             traced_fd, p)) for p in pts)
    worst_parallel = 0.0
    for p in pts[:40]:
        dth = central_gradient2(traced, p[0], p[1], 1e-5)
        dq = (-p[1] / p[0] ** 2, 1.0 / p[0])
        worst_parallel = max(worst_parallel,
                             abs(dth[0] * dq[1] - dth[1] * dq[0]))
    _report(6, "orthogonal pair: analytic x2/x1 on both screw spaces and "
               "characteristic-traced theta on flat space",
            worst_analytic < 1e-8 and worst_traced < 1e-6
            and worst_parallel < 1e-5,
            f"analytic pairing {worst_analytic:.3e} (tol 1e-8), traced "
            f"pairing {worst_traced:.3e} (tol 1e-6), gradient parallelism "
            f"{worst_parallel:.3e} (tol 1e-5)")


# ---------------------------------------------------------------------------
# 7. natural-parameter roundtrip
# ---------------------------------------------------------------------------

def test_criterion_7_natural_roundtrip(helicoidal_chart):
    # non-natural parametrization of the x1-axis: u = e^w, so E != 1
    w = np.linspace(math.log(0.5), math.log(2.0), 2001)
    u = np.exp(w)
    curve = bg.LiftedCurve(u=u, x1=u, x2=np.zeros_like(u), x3=np.zeros_like(u))
    coeffs = bg.pullback_coefficients(helicoidal_chart, curve)
    nat = bg.to_natural(coeffs)
    s = nat.s_samples
    c = 0.5  # the additive constant is u at s = 0
    U_dev = np.max(np.abs(np.array([nat.U(x) for x in s])
                          - np.sqrt((s + c) ** 2 + 1.0)))
    surf = bg.ReparametrizedSurface(curve, nat)
    grid = (np.linspace(s[0] + 0.01, s[-1] - 0.01, 15), [0.0, 0.5, 1.0])
    rep = bg.isometry_report(helicoidal_chart, surf, nat.U, grid, tol=1e-5)
    worst = max(rep.max_E_dev, rep.max_F_dev, rep.max_G_dev)
    _report(7, "natural parameters from a non-natural parametrization",
            U_dev < 1e-6 and rep.passed,
            f"max|U - sqrt((s+c)^2+1)| = {U_dev:.3e} (tol 1e-6), "
            f"reparametrized isometry max dev = {worst:.3e} (tol 1e-5)")


# ---------------------------------------------------------------------------
# 8. m = 1 reproduces the original surface
# ---------------------------------------------------------------------------

def _rerun_with_measured_generatrix(member, frame, spec, dense=16001):
    """Measure the volume function along the member's profile, feed it back
    as a sampled generatrix, and re-integrate with m = 1."""
    lo, hi = member.s_range
    s_dense = np.linspace(lo, hi, dense)
    w = frame.chart.volume_at(member.position(s_dense))
    U_meas = bg.GeneratrixMetric.from_samples(s_dense, w / member.m)
    anchor = member.metadata["anchor"]
    params = bg.BourParams(m=1.0, s_range=(lo, hi), step=member.metadata["step"],
                           epsilon=member.epsilon, anchor=anchor)
    theta0 = float(member.theta[np.argmin(np.abs(member.s - anchor))])
    return bg.generate_member(U_meas, params, frame, theta0, space=spec)


def test_criterion_8_m1_identity(catenoid_member, rotational_frame,
                                 rotational_spec, bcv_member, bcv_frame,
                                 bcv_spec, helicoid_member, helicoidal_frame,
                                 helicoidal_spec):
    details = []
    passed = True
    for name, member, frame, spec in (
            ("catenoid", catenoid_member, rotational_frame, rotational_spec),
            ("bcv", bcv_member, bcv_frame, bcv_spec)):
        redone = _rerun_with_measured_generatrix(member, frame, spec)
        dev = max(np.max(np.abs(redone.x1 - member.x1)),
                  np.max(np.abs(redone.x2 - member.x2)))
        details.append(f"{name} (measured volume): {dev:.3e}")
        passed = passed and dev < 1e-6

    # the helicoid sits on the family boundary (radicand identically 0),
    # so the generatrix must be fed back exactly; interpolated derivatives
    # would push the radicand negative
    U = helicoid_member.U
    params = bg.BourParams(m=1.0, s_range=helicoid_member.s_range, step=0.005,
                           epsilon=1)
    redone = bg.generate_member(U, params, helicoidal_frame, 0.0,
                                space=helicoidal_spec)
    dev = max(np.max(np.abs(redone.x1 - helicoid_member.x1)),
              np.max(np.abs(redone.x2 - helicoid_member.x2)))
    details.append(f"helicoid (exact boundary case): {dev:.3e}")
    passed = passed and dev < 1e-6
    _report(8, "feeding the profile's own volume function back at m = 1",
            passed, "; ".join(details) + " (tol 1e-6)")


# ---------------------------------------------------------------------------
# 9. convergence orders
# ---------------------------------------------------------------------------

class _AnalyticCatenoid:
    m = 1.0
    s_range = (-2.0, 2.0)

    def map(self, s, t):
        # arrays of s and t, as fd_first_form evaluates its whole stencil
        # in one call
        return (np.sqrt(s * s + 1.0), np.arcsinh(s), t)


def test_criterion_9_convergence_orders(rotational_frame):
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (-2.0, 2.0))
    errs = []
    for step in (0.04, 0.02):
        params = bg.BourParams(m=1.0, s_range=(-2.0, 2.0), step=step,
                               epsilon=1, anchor=0.0)
        profile = bg.integrate_profile(U, params, rotational_frame, 0.0)
        errs.append(np.max(np.abs(profile.theta - np.arcsinh(profile.s))))
    rk4_ratio = errs[0] / errs[1]

    member = _AnalyticCatenoid()
    fd_errs = []
    for h in (2e-3, 1e-3):
        sample = bg.fd_first_form(rotational_frame.chart, member, 1.0, 0.3, h)
        fd_errs.append(abs(sample.E - 1.0))
    fd_ratio = fd_errs[0] / fd_errs[1]
    _report(9, "step-halving convergence (RK4 and fd first form)",
            12.0 < rk4_ratio < 20.0 and 3.5 < fd_ratio < 4.5,
            f"RK4 error ratio = {rk4_ratio:.2f} (accept [12, 20]), "
            f"fd form error ratio = {fd_ratio:.2f} (accept [3.5, 4.5])")
