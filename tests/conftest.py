import dataclasses
import math

import numpy as np
import pytest
from hypothesis import settings

import bourgen as bg
from bourgen._numerics import central_gradient2
from bourgen.errors import DegenerateGradientError, DomainError

# The profile that CI selects with --hypothesis-profile=ci: every run
# replays the same examples, and a failure prints the blob that
# reproduces it (@reproduce_failure).  Runs without the option stay random.
settings.register_profile("ci", derandomize=True, print_blob=True)


def ratio_theta():
    """The invariant x2/x1 of the screw charts (valid on x1 != 0), with its
    analytic gradient: a transverse invariant that is not the polar angle
    of the built-in frames, for Newton frames and pairings."""
    return bg.InvariantFunction(
        value=lambda x1, x2: x2 / x1,
        gradient=lambda x1, x2: (-x2 / (x1 * x1), 1.0 / x1))


def fd_invariant(f, h):
    """f as an InvariantFunction whose gradient is the central difference
    of relative step h (``invariant_pairing`` differences with a fixed
    smaller step)."""
    return bg.InvariantFunction(
        value=f, gradient=lambda x1, x2: central_gradient2(f, x1, x2, h))


def quotient_matrix(chart, p):
    """The quotient metric of ``chart`` at p = (x1, x2) as a 2x2 matrix."""
    q11, q12, q22 = bg.quotient_metric(chart, *p)
    return np.array([[q11, q12], [q12, q22]])


def set_level_ratio(traced, ratio):
    """Make the level traces of ``traced`` take RK4 steps of ratio trace
    steps, at most ceil(n_steps / ratio) of them (the reach rule of the
    steps it chooses), in place of the step it chose; returns traced."""
    traced.level_step = ratio * traced.step
    traced.level_n_steps = math.ceil(traced.n_steps / ratio)
    return traced


def counting_chart(chart, names=("metric",)):
    """``chart`` with each of its callables ``names`` wrapped to count its
    calls, and the counts, a dict by name that the caller may reset.  A
    trace field evaluation calls the metric once, so the metric's count is
    the number of field evaluations."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(x1, x2):
            calls[name] += 1
            return fn(x1, x2)
        return call

    return dataclasses.replace(
        chart, **{n: counted(n, getattr(chart, n)) for n in names}), calls


def kernel_step(traced, x1, x2, h, sign):
    """One RK4 step of a traced invariant's kernel from (x1, x2): the field
    at the start, then the step that takes its velocity as k1."""
    a1, a2 = traced._field(x1, x2)[:2]
    return traced._rk4_step(x1, x2, a1, a2, h, sign)


def omega_span(traced):
    """omega at the ends of the traces from the middle of the data curve
    of a traced invariant, n_steps trace steps backward and forward, or as
    far as they stay in the domain, as (backward end, forward end)."""
    ends = []
    for sign in (-1.0, 1.0):
        x1, x2 = traced.cauchy.point_at(0.5 * traced.cauchy.length).tolist()
        for _ in range(traced.n_steps):
            try:
                x1, x2 = kernel_step(traced, x1, x2, traced.step, sign)
            except (DomainError, DegenerateGradientError):
                break
        ends.append(float(traced.chart.volume_at((x1, x2))))
    return tuple(ends)


def swept_nodes(traced, rng, n):
    """n random nodes strictly inside the region swept by the
    characteristics of a traced invariant, as an (n, 2) array.

    Node (j, k), k in [0, 2 n_steps], lies k - n_steps RK4 steps of the
    invariant's tracer from the Cauchy point at arc_grid[j] (backward when
    negative).  Rows in [1, J - 1) and k in [K // 8, K - K // 8), with
    K = 2 n_steps + 1, are drawn as two rng.integers calls; a trace whose
    step leaves the domain or meets a degenerate gradient stays where it
    is.
    """
    J, K = len(traced.sigmas), 2 * traced.n_steps + 1
    jj = rng.integers(1, J - 1, size=n)
    kk = rng.integers(K // 8, K - K // 8, size=n)
    out = np.empty((n, 2))
    for i, (j, k) in enumerate(zip(jj, kk)):
        x1, x2 = traced.cauchy.point_at(traced.sigmas[j]).tolist()
        steps = int(k) - traced.n_steps
        sign = 1.0 if steps > 0 else -1.0
        for _ in range(abs(steps)):
            try:
                x1, x2 = kernel_step(traced, x1, x2, traced.step, sign)
            except (DomainError, DegenerateGradientError):
                break
        out[i] = x1, x2
    return out


@pytest.fixture(scope="session")
def helicoidal_spec():
    return bg.SpaceSpec("euclidean_helicoidal", a=1.0)


@pytest.fixture(scope="session")
def helicoidal_chart(helicoidal_spec):
    return bg.make_chart(helicoidal_spec)


@pytest.fixture(scope="session")
def helicoidal_frame(helicoidal_spec):
    return bg.builtin_frame(helicoidal_spec)


@pytest.fixture(scope="session")
def rotational_spec():
    return bg.SpaceSpec("euclidean_rotational")


@pytest.fixture(scope="session")
def rotational_frame(rotational_spec):
    return bg.builtin_frame(rotational_spec)


@pytest.fixture(scope="session")
def bcv_spec():
    return bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0)


@pytest.fixture(scope="session")
def bcv_frame(bcv_spec):
    return bg.builtin_frame(bcv_spec)


@pytest.fixture(scope="session")
def catenoid_member(rotational_spec, rotational_frame):
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (-2.0, 2.0))
    params = bg.BourParams(m=1.0, s_range=(-2.0, 2.0), step=0.01, epsilon=1,
                           anchor=0.0)
    return bg.generate_member(U, params, rotational_frame, 0.0,
                              space=rotational_spec)


@pytest.fixture(scope="session")
def helicoid_member(helicoidal_spec, helicoidal_frame):
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (0.5, 2.0))
    params = bg.BourParams(m=1.0, s_range=(0.5, 2.0), step=0.005, epsilon=1)
    return bg.generate_member(U, params, helicoidal_frame, 0.0,
                              space=helicoidal_spec)


@pytest.fixture(scope="session")
def bcv_member(bcv_spec, bcv_frame):
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+4)", (0.0, 1.0))
    params = bg.BourParams(m=1.0, s_range=(0.0, 1.0), step=0.005, epsilon=1)
    return bg.generate_member(U, params, bcv_frame, 0.0, space=bcv_spec)


@pytest.fixture(scope="session")
def flat_chart():
    return bg.AdaptedChart3(
        metric=lambda x1, x2: (1.0, 0.0, 0.0, 1.0, 0.0, 1.0),
        d_g33=lambda x1, x2: (0.0, 0.0), label="flat")


@pytest.fixture(scope="session")
def nil_chart():
    """Nil in a chart of unit volume function, whose g13 and g23 do not
    vanish."""
    return bg.AdaptedChart3(
        metric=lambda x1, x2: (1.0 + x2 * x2 / 4.0, -x1 * x2 / 4.0, -x2 / 2.0,
                               1.0 + x1 * x1 / 4.0, x1 / 2.0, 1.0 + 0.0 * x1),
        d_g33=lambda x1, x2: (0.0, 0.0), label="nil")
