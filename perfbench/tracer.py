"""Per-layer spans recorded from outside the program.

``install`` replaces bourgen's public functions and methods, on their
module or class, with wrappers that open a span around each call.  A span
counts one call of its name and charges its self time: its duration minus
the part of it that child spans cover.  Spans nest per thread.  A span
opened by a worker thread of ``cli.run``'s pool, with nothing open on its
own thread, is the child of the span open on the main thread at that
moment; the parent then subtracts the union of its children's intervals,
so concurrent children are not subtracted twice.

Counts and times live in one ``_ThreadState`` per thread and are summed by
``snapshot``; no thread writes another's state, so counts are exact.
"""
import dataclasses
import threading
from collections import defaultdict
from time import perf_counter


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)      # (parent name, name) -> calls
        self.extra = defaultdict(float)    # counters filled by hooks


def _covered(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._main = self._state()
        self.active = True

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped in a span called ``name``.  ``hook(state,
        args, result)`` may add to ``state.extra`` after each call."""
        tracer = self
        main = self._main

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            elif st is not main and main.stack:
                parent = main.stack[-1]      # adopted by the main thread
            else:
                parent = None
            # frame: name, children's summed time, child intervals (main
            # thread only), whether a worker thread's span is a child
            frame = [name, 0.0, [] if st is main else None, False]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                child = _covered(frame[2]) if frame[3] else frame[1]
                st.calls[name] += 1
                st.self_s[name] += dur - child
                st.edges[(parent[0] if parent else "", name)] += 1
                if parent is not None:
                    parent[1] += dur
                    if parent[2] is not None:
                        parent[2].append((t0, t1))
                        if st is not main:
                            parent[3] = True
            if hook is not None:
                hook(st, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, hook=None):
        """Replace ``owner.attr`` by a traced wrapper (classmethods kept)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, hook))
        else:
            new = self.wrap(name, raw, hook)
        setattr(owner, attr, new)

    def snapshot(self):
        """Summed (calls, self seconds, edge calls, extra counters)."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        edges = defaultdict(int)
        extra = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for k, v in list(st.calls.items()):
                calls[k] += v
            for k, v in list(st.self_s.items()):
                self_s[k] += v
            for k, v in list(st.edges.items()):
                edges[k] += v
            for k, v in list(st.extra.items()):
                extra[k] += v
        return calls, self_s, edges, extra


# Traced functions: (module, owner path, metric name).  The owner path is
# an attribute of the module, or "Class.attr" for a method.
TRACED = [
    ("cli", "run", "cli.run"),
    ("cli", "write_obj", "cli.write_obj"),
    ("cli", "write_profile_csv", "cli.write_profile_csv"),
    ("bour", "feasible_s_range", "bour.feasible_s_range"),
    ("bour", "integrate_profile", "bour.integrate_profile"),
    ("bour", "ode_rhs", "bour.ode_rhs"),
    ("bour", "vertical_quadrature", "bour.vertical_quadrature"),
    ("bour", "assemble_member", "bour.assemble_member"),
    ("bour", "SurfaceMember.map", "bour.SurfaceMember.map"),
    ("bour", "SurfaceMember.to_json", "bour.SurfaceMember.to_json"),
    ("bour", "SurfaceMember.from_json", "bour.SurfaceMember.from_json"),
    ("verify", "isometry_report", "verify.isometry_report"),
    ("verify", "fd_first_form", "verify.fd_first_form"),
    ("verify", "cross_check", "verify.cross_check"),
    ("spaces", "builtin_frame", "spaces.builtin_frame"),
    ("spaces", "r3_closed_form", "spaces.r3_closed_form"),
    ("spaces", "bcv_closed_form", "spaces.bcv_closed_form"),
    ("spaces", "mesh_xyz", "spaces.mesh_xyz"),
    ("chart", "AdaptedChart3.metric_at", "chart.AdaptedChart3.metric_at"),
    ("chart", "invariant_pairing", "chart.invariant_pairing"),
    ("expressions", "Expression.__call__", "expressions.Expression.__call__"),
    ("expressions", "Expression.derivative", "expressions.Expression.derivative"),
    ("natural", "pullback_coefficients", "natural.pullback_coefficients"),
    ("natural", "to_natural", "natural.to_natural"),
    ("natural", "GeneratrixMetric.table", "natural.GeneratrixMetric.table"),
    ("quotient", "solve_orthogonal_invariant", "quotient.solve_orthogonal_invariant"),
    ("quotient", "build_frame", "quotient.build_frame"),
    ("quotient", "newton_invert", "quotient.newton_invert"),
    ("quotient", "TracedInvariant.value", "quotient.TracedInvariant.value"),
]
# The callables of the frames builtin_frame returns.
FRAME_FIELDS = ("invert", "grad_omega_sq", "grad_theta_sq")
SPAN_NAMES = [name for _, _, name in TRACED] + [
    f"spaces.frame.{f}" for f in FRAME_FIELDS]


def install(tracer, bourgen):
    """Wrap every function of TRACED in ``bourgen``'s modules.

    Must run before the inputs that capture bound methods (a generatrix
    captures ``Expression.derivative``) are built.
    """
    import importlib

    def profile_samples(st, args, result):
        st.extra["profile_samples"] += len(result.s)

    def member_grid(st, args, result):
        if isinstance(args[1], bourgen.bour.SurfaceMember):
            st.extra["member_grid_points"] += 1

    hooks = {"bour.integrate_profile": profile_samples,
             "verify.fd_first_form": member_grid}

    for module, path, name in TRACED:
        mod = importlib.import_module(f"bourgen.{module}")
        owner, _, attr = path.rpartition(".")
        target = getattr(mod, owner) if owner else mod
        tracer.patch(target, attr, name, hooks.get(name))

    spaces = importlib.import_module("bourgen.spaces")
    traced_builtin = spaces.builtin_frame

    def builtin_frame(*args, **kwargs):
        frame = traced_builtin(*args, **kwargs)
        return dataclasses.replace(frame, **{
            f: tracer.wrap(f"spaces.frame.{f}", getattr(frame, f))
            for f in FRAME_FIELDS})

    spaces.builtin_frame = builtin_frame
