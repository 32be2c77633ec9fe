"""The three workloads.

Each workload builds its inputs from the seed (``setup``), lists one round
of operations in a seeded order (``ops``), runs one operation through
bourgen's public entry points (``run``, the only timed call) and checks
its outputs against values computed apart from the program (``check``).
Every round holds the same operations, so every run does the same work;
the seed moves only values that leave the cost of an operation unchanged
(surface phase, t window, curve start, points inside fixed strata).
"""
import contextlib
import io
import json
import math
import shutil

import numpy as np

import checks

GRID = {"s_count": 41, "t_count": 41}

# (name, space, generatrix constant c of U = sqrt(s^2 + c), s_range, step,
#  anchor, members of each config).  Members with m > 1 on the helicoidal
# space are cut near the square-root branch point of the radicand.
FAMILIES = {
    "helicoidal": ({"kind": "euclidean_helicoidal", "a": 1.0, "kappa": 0.0,
                    "tau": 0.0}, 2.0, (0.5, 2.0), 0.002, None,
                   [[1.0], [1.2], [1.5, 2.0]]),
    "bcv": ({"kind": "bcv_helicoidal", "a": 1.0, "kappa": 1.0, "tau": 1.0},
            4.0, (0.0, 1.0), 0.005, None, [[0.9], [1.0, 1.1]]),
    "rotational": ({"kind": "euclidean_rotational", "a": 0.0, "kappa": 0.0,
                    "tau": 0.0}, 1.0, (-2.0, 2.0), 0.01, 0.0, [[0.8], [1.0]]),
}


def _cli(cli, argv):
    """bourgen's main() on argv with stdout captured; a non-zero exit code
    is a failed operation."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"bourgen {' '.join(argv)} exited {code}")


def member_name(m):
    return f"member_m{m:g}".replace(".", "p")


class _Config:
    """One seeded `bourgen family` config: a space kind and its members."""

    def __init__(self, kind, members, rng, directory):
        space, c, s_range, step, anchor, _ = FAMILIES[kind]
        self.kind = kind
        self.space = space
        self.c = c
        self.members = members
        t0 = float(rng.uniform(-0.5, 0.5))
        self.t_range = (t0, t0 + 1.0)
        self.raw = {"space": space, "generatrix": f"sqrt(s^2+{c:g})",
                    "m_values": members, "s_range": list(s_range),
                    "step": step, "anchor": anchor,
                    "theta0": float(rng.uniform(-0.4, 0.4)),
                    "grid": dict(GRID, t_range=list(self.t_range))}
        tag = "_".join(f"{m:g}" for m in members)
        self.path = directory / f"{kind}_{tag}.json"
        self.out = directory / f"out_{kind}_{tag}"

    def write(self):
        self.path.write_text(json.dumps(self.raw, indent=1))

    def U(self, s):
        return np.sqrt(s * s + self.c)

    def artifacts(self):
        names = []
        for m in self.members:
            n = member_name(m)
            names += [f"{n}_profile.csv", f"{n}.json", f"{n}.obj"]
        return [self.out / n for n in names + ["report.json"]]


def _member_s_range(path):
    s = json.loads(path.read_text())["profile"]["s"]
    return (s[0], s[-1])


class _Workload:
    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.digests = {}

    def prepare(self, bourgen):
        """Untimed work before the set-up, done once per run."""

    def prepare_op(self, op):
        """Untimed work before each operation."""

    def same_bytes(self, key, paths):
        """True when the files match what the first run of ``key`` wrote;
        the first call records them and returns None."""
        d = checks.digest(paths)
        if key not in self.digests:
            self.digests[key] = d
            return None
        return self.digests[key] == d


class FamilySweep(_Workload):
    """`bourgen family --strict` on one- and two-member configs, rotating
    over the three space kinds."""

    def setup(self, bourgen):
        self.cli = bourgen.cli
        rng = np.random.default_rng(self.seed)
        by_kind = {k: [_Config(k, ms, rng, self.work) for ms in v[5]]
                   for k, v in FAMILIES.items()}
        for cfgs in by_kind.values():
            for cfg in cfgs:
                cfg.write()
        # helicoidal, bcv, rotational, helicoidal, ...: each kind's configs
        # in a seeded order
        queues = [list(rng.permutation(len(v))) for v in by_kind.values()]
        self.ops = []
        for i in range(max(len(q) for q in queues)):
            for cfgs, q in zip(by_kind.values(), queues):
                if i < len(q):
                    self.ops.append(cfgs[q[i]])

    def prepare_op(self, cfg):
        shutil.rmtree(cfg.out, ignore_errors=True)

    def run(self, cfg):
        _cli(self.cli, ["family", "--config", str(cfg.path),
                        "--out", str(cfg.out), "--strict"])

    def check(self, cfg, _):
        paths = cfg.artifacts()
        same = self.same_bytes(cfg.path.name, paths)
        if same is False:
            return "artifacts differ from the first run of this config"
        if same is None:
            report = json.loads((cfg.out / "report.json").read_text())
            if not report["all_passed"]:
                return "report.json says a member failed"
            for m in cfg.members:
                n = member_name(m)
                dev = checks.obj_isometry_dev(
                    cfg.out / f"{n}.obj", cfg.space, cfg.U,
                    _member_s_range(cfg.out / f"{n}.json"), cfg.t_range)
                if not dev <= checks.OBJ_TOL:
                    return f"{n}.obj isometry deviation {dev:.3e}"
        return None


# Stored members for the read-back workload, one two-member config per kind.
STORED = {"helicoidal": [1.2, 2.0], "bcv": [0.9, 1.1], "rotational": [0.8, 1.0]}
# Lifted meridians u -> (cosh u, u, 0.2 u) of the rotational chart.
CURVE_SAMPLES = 2001
CURVE_LENGTH = 2.0
N_CURVES = 2


class Readback(_Workload):
    """`bourgen verify --strict` + `bourgen mesh` on stored members, and
    `bourgen natural --strict` on lifted-curve CSVs."""

    stored = ()

    def prepare(self, bourgen):
        """Write the stored members with the program's own family command
        (not timed: it is the producer path, measured by family_sweep)."""
        rng = np.random.default_rng([self.seed, 1])
        self.stored = [_Config(k, ms, rng, self.work / "stored")
                       for k, ms in STORED.items()]
        (self.work / "stored").mkdir()
        for cfg in self.stored:
            cfg.write()
            _cli(bourgen.cli, ["family", "--config", str(cfg.path),
                               "--out", str(cfg.out), "--strict"])

    def setup(self, bourgen):
        self.cli = bourgen.cli
        rng = np.random.default_rng(self.seed)
        space = {"kind": "euclidean_rotational", "a": 0.0}
        nat_cfg = self.work / "natural_config.json"
        nat_cfg.write_text(json.dumps({"space": space}))
        self.curves = []
        for i in range(N_CURVES):
            u0 = float(rng.uniform(-1.0, 0.5))
            u = np.linspace(u0, u0 + CURVE_LENGTH, CURVE_SAMPLES)
            path = self.work / f"curve_{i}.csv"
            np.savetxt(path, np.column_stack([u, np.cosh(u), u, 0.2 * u]),
                       delimiter=",", header="u,x1,x2,x3", comments="",
                       fmt="%.17g")
            self.curves.append(("natural", i, u0, path, nat_cfg))
        members = [("member", cfg, m) for cfg in self.stored
                   for m in cfg.members]
        ops = members + self.curves
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def _out(self, op):
        if op[0] == "natural":
            return self.work / f"natural_{op[1]}"
        return self.work / f"mesh_{op[1].kind}_{member_name(op[2])}"

    def prepare_op(self, op):
        shutil.rmtree(self._out(op), ignore_errors=True)

    def run(self, op):
        out = str(self._out(op))
        if op[0] == "natural":
            _, _, _, curve, cfg = op
            _cli(self.cli, ["natural", "--config", str(cfg), "--curve",
                            str(curve), "--out", out, "--strict"])
            return
        member = str(op[1].out / f"{member_name(op[2])}.json")
        _cli(self.cli, ["verify", member, "--strict"])
        _cli(self.cli, ["mesh", member, "--out", out])

    def check(self, op, _):
        out = self._out(op)
        if op[0] == "natural":
            paths = [out / "generatrix.csv", out / "natural_report.json"]
        else:
            paths = [out / f"{member_name(op[2])}.obj"]
        same = self.same_bytes(out.name, paths)
        if same is False:
            return "artifacts differ from the first run of this input"
        if same is None and op[0] == "natural":
            dev = checks.natural_dev(paths[0], op[2])
            if not dev <= checks.NATURAL_TOL:
                return f"natural generatrix deviation {dev:.3e}"
        elif same is None:
            cfg, m = op[1], op[2]
            dev = checks.obj_isometry_dev(
                paths[0], cfg.space, cfg.U,
                _member_s_range(cfg.out / f"{member_name(m)}.json"), (0.0, 1.0))
            if not dev <= checks.OBJ_TOL:
                return f"{paths[0].name} isometry deviation {dev:.3e}"
        return None


# Traced invariant of the flat helicoidal chart (a = 1) from the Cauchy
# segment x1 = 1, x2 in [-0.6, 0.6]; its characteristics are the rays from
# the origin, so theta = x2/x1 + 0.6 in closed form.
THETA_SHIFT = 0.6
RECT = ((1.3, 1.8), (0.3, 0.9))
U_C = 2.0            # U = sqrt(s^2 + 2) on [0.5, 2]
U_RANGE = (0.5, 2.0)
# (omega, theta) strata of the rect.  The cost of one right-hand side
# depends on (omega, theta) only, and grows with the distance of the point
# from the Cauchy segment (0.05 s to 0.85 s), so every round samples each
# stratum once and the seed moves the point only inside the middle tenth
# of its stratum; it picks m (and so s) freely, which costs nothing.
STRATA = (5, 3)
JITTER = (0.45, 0.55)


class TracedRhs(_Workload):
    """bour.ode_rhs on a Newton frame over a characteristic-traced theta."""

    def setup(self, bourgen):
        from bourgen import bour, natural, quotient, spaces
        self.bour = bour
        chart = spaces.make_chart(spaces.SpaceSpec("euclidean_helicoidal", a=1.0))
        traced = quotient.solve_orthogonal_invariant(
            chart, quotient.line_segment((1.0, -THETA_SHIFT), (1.0, THETA_SHIFT)),
            np.linspace(0.0, 2 * THETA_SHIFT, 61), n_steps=220)
        self.frame = quotient.build_frame(
            chart, traced, rect=RECT, seed_box=((0.9, 1.5), (-0.3, 0.4)),
            seed_counts=(8, 8))
        self.U = natural.GeneratrixMetric.from_expression(
            f"sqrt(s^2+{U_C:g})", U_RANGE)
        rng = np.random.default_rng(self.seed)
        (w0, w1), (t0, t1) = RECT
        nw, nt = STRATA
        cw, ct = (w1 - w0) / nw, (t1 - t0) / nt
        points = []
        for i in range(nw):
            for j in range(nt):
                w = w0 + cw * (i + rng.uniform(*JITTER))
                theta = t0 + ct * (j + rng.uniform(*JITTER))
                points.append((w, theta) + self._member(w, rng))
        self.ops = [points[k] for k in rng.permutation(len(points))]
        self.values = {}

    def _member(self, w, rng):
        """A seeded (m, s) with m U(s) = w and a radicand of at least 0.05."""
        lo, hi = (math.sqrt(x * x + U_C) for x in U_RANGE)
        while True:
            m = float(rng.uniform(w / hi, w / lo))
            s = math.sqrt((w / m) ** 2 - U_C)
            if (w * w - 1) / (w * w) - (m * s / math.sqrt(s * s + U_C)) ** 2 > 0.05:
                return m, s

    def run(self, op):
        w, theta, m, s = op
        params = self.bour.BourParams(m=m, s_range=U_RANGE, step=0.01)
        return self.bour.ode_rhs(s, theta, self.U, params, self.frame)

    def check(self, op, value):
        w, theta, m, s = op
        if op in self.values:
            if self.values[op] != value:
                return "right-hand side differs from the first run of this point"
            return None
        self.values[op] = value
        ref = checks.traced_rhs_closed_form(s, theta, m, U_C, THETA_SHIFT)
        if not abs(value - ref) <= checks.RHS_TOL * abs(ref):
            return f"rhs {value!r} against closed form {ref!r}"
        x1, x2 = self.frame.invert(w, theta)
        dev = checks.traced_invert_dev(x1, x2, w, theta, THETA_SHIFT)
        if not dev <= checks.INVERT_TOL:
            return f"inverted point off by {dev:.3e}"
        return None


WORKLOADS = {"family_sweep": FamilySweep, "readback": Readback,
             "traced_rhs": TracedRhs}
