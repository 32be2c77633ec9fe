"""The Newton frame: a QuotientFrame over an analytic theta, inverted by
Newton's method, kept for the tests as a reference for the characteristic
frame of ``bourgen.build_frame`` and for the pipeline on a frame that is
not theta-free.

A theta that is not a traced invariant gets no frame in the library; the
tests build this one to compare the characteristic frame with an
independent inversion of the same invariant, and to run the profile,
member and pairing paths on a frame evaluated one point at a time.
"""
import numpy as np

from bourgen import quotient
from bourgen.chart import as_invariant
from bourgen.errors import DomainError, RankDeficiencyError
from bourgen.quotient import _JACOBIAN_FLOOR, QuotientFrame, _latest_call_memo


def newton_frame(chart, theta, rect, *, seed_box, seed_counts=(25, 25)):
    """A QuotientFrame, labelled "<chart label>/frame", from an invariant
    theta on a chart, inverted by ``quotient.newton_invert``.

    ``seed_box`` = ((x1_lo, x1_hi), (x2_lo, x2_hi)) samples the orbit
    space on a ``seed_counts`` grid: the seed grid provides Newton
    starting points and the rank check of the forward map.  Gradient
    norms are computed through the pairing of the chart and re-expressed
    as functions of (omega, theta) via the inverse map, which solves each
    (omega, theta) once while it is the latest one asked for.
    """
    from bourgen.chart import invariant_pairing

    label = f"{chart.label}/frame"
    omega = chart.volume_fn()
    theta = as_invariant(theta)

    (x1_lo, x1_hi), (x2_lo, x2_hi) = seed_box
    xs = np.linspace(x1_lo, x1_hi, seed_counts[0])
    ys = np.linspace(x2_lo, x2_hi, seed_counts[1])
    seeds = []
    (w_lo, w_hi), (t_lo, t_hi) = rect
    pad_w = 0.25 * (w_hi - w_lo)
    pad_t = 0.25 * (t_hi - t_lo)
    for x1 in xs:
        for x2 in ys:
            if not chart.domain(x1, x2):
                continue
            try:
                w = omega(x1, x2)
                t = theta(x1, x2)
            except DomainError:
                continue  # e.g. outside a traced invariant's swept region
            if not np.isfinite(w) or not np.isfinite(t):
                continue
            seeds.append((w, t, x1, x2))
            if w_lo - pad_w <= w <= w_hi + pad_w and t_lo - pad_t <= t <= t_hi + pad_t:
                dw = np.array(omega.gradient_at(x1, x2))
                dt = np.array(theta.gradient_at(x1, x2))
                det = dw[0] * dt[1] - dw[1] * dt[0]
                norm = max(np.hypot(*dw) * np.hypot(*dt), 1e-300)
                if abs(det) < _JACOBIAN_FLOOR * norm:
                    raise RankDeficiencyError(
                        f"(omega, theta) Jacobian nearly singular at "
                        f"({x1:.6g}, {x2:.6g}): |det|/scale = {abs(det)/norm:.3e}")
    if not seeds:
        raise DomainError("seed_box contains no domain points")
    seed_arr = np.array(seeds)  # columns: w, t, x1, x2

    def forward(x1, x2):
        return omega(x1, x2), theta(x1, x2)

    def fwd_jac(x1, x2):
        return np.array([omega.gradient_at(x1, x2),
                         theta.gradient_at(x1, x2)])

    @_latest_call_memo
    def invert(w, t):
        d2 = (seed_arr[:, 0] - w) ** 2 + (seed_arr[:, 1] - t) ** 2
        seed = seed_arr[int(np.argmin(d2)), 2:]
        # looked up at each call, so that a test may count the solves
        return quotient.newton_invert(forward, fwd_jac, (w, t), seed)

    def grad_omega_sq(w, t):
        p = invert(w, t)
        return invariant_pairing(chart, omega, omega, p)

    def grad_theta_sq(w, t):
        p = invert(w, t)
        return invariant_pairing(chart, theta, theta, p)

    return QuotientFrame(
        chart=chart, omega=omega, theta=theta,
        grad_omega_sq=grad_omega_sq, grad_theta_sq=grad_theta_sq,
        invert=invert, rect=rect, label=label)
