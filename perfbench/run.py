"""bourgen benchmark: one workload, one closed-loop client, one JSON line.

    python3 perfbench/run.py --workload family_sweep --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; bourgen is imported from ./src.
Operations run one after another in this process, each started when the
previous one has ended, in whole rounds of the workload's seeded
operation list until ``--seconds`` have passed (at least two rounds, so
every input is repeated and its artifacts compared byte for byte).
Every time is drift-corrected (see drift.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs the rounds once
untraced and once with spans around bourgen's public functions and
prints the per-layer metrics.  The last line of stdout is the result.
"""
import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fresh interpreters timed for setup_s, whose median is reported
SETUP_SAMPLES = 3
# kernel runs before and after a set-up, which takes seconds
SETUP_REF_RUNS = 5


def _import_bourgen():
    src = ROOT / "src"
    if not (src / "bourgen" / "__init__.py").is_file():
        sys.exit(f"error: no bourgen sources under {src}")
    sys.path.insert(0, str(src))
    import bourgen
    import bourgen.cli
    if Path(bourgen.__file__).resolve().parent != (src / "bourgen").resolve():
        sys.exit(f"error: imported bourgen from {bourgen.__file__}, not {src}")
    return bourgen


sys.path.insert(0, str(HERE))
import drift  # noqa: E402  (needs HERE on the path)


class Measure:
    """Closed-loop runner of one workload, with drift-corrected timing."""

    def __init__(self, workload, seconds, tracer=None):
        self.w = workload
        self.seconds = seconds
        self.tracer = tracer
        self.walls, self.before, self.after = [], [], []
        self.attempted = 0
        self.errors = []    # failed operations, with the reason
        self.wrong = 0      # of which failed a correctness check

    def rounds(self, on_op=None):
        """Run whole rounds, at least two, until the time is up.  Wall and
        kernel times are kept for the operations that passed their checks;
        ``on_op()`` is called after each operation."""
        start = time.perf_counter()
        n_rounds = 0
        while n_rounds < 2 or time.perf_counter() - start < self.seconds:
            for op in self.w.ops:
                self.attempted += 1
                self.w.prepare_op(op)
                try:
                    before = drift.ref_time()
                    t0 = time.perf_counter()
                    result = self.w.run(op)
                    wall = time.perf_counter() - t0
                    after = drift.ref_time()
                except Exception:  # a failed operation is counted, not fatal
                    problem = traceback.format_exc()
                else:
                    try:
                        problem = self.check(op, result)
                    except Exception:  # unreadable output is wrong output
                        problem = traceback.format_exc()
                    self.wrong += problem is not None
                if on_op is not None:
                    on_op(problem is None)
                if problem is not None:
                    self.errors.append(problem)
                    continue
                self.walls.append(wall)
                self.before.append(before)
                self.after.append(after)
            n_rounds += 1

    @property
    def failed(self):
        return len(self.errors)

    def times(self):
        """Drift-corrected times of the operations that passed."""
        return drift.corrected(self.walls, self.before, self.after)

    def check(self, op, result):
        """The workload's check, with no spans recorded inside it."""
        if self.tracer is None:
            return self.w.check(op, result)
        self.tracer.active = False
        try:
            return self.w.check(op, result)
        finally:
            self.tracer.active = True

    def warm_up(self):
        """One untimed operation, so lazy imports and caches are filled."""
        op = self.w.ops[0]
        self.w.prepare_op(op)
        self.w.run(op)


def timed(fn, *args, **kwargs):
    """(result, corrected seconds, wall seconds) of one long call such as
    a set-up."""
    before = drift.ref_time(SETUP_REF_RUNS)
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    after = drift.ref_time(SETUP_REF_RUNS)
    return result, drift.corrected([wall], [before], [after])[0], wall


def setup_probe(args, work):
    """Corrected wall time of a fresh interpreter doing the set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(work)]
    proc, corr, _ = timed(subprocess.run, cmd, cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return corr


def median(values):
    """Median, or 0 when every operation failed."""
    return statistics.median(values) if values else 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, workload, bourgen, work):
    setups = []
    for i in range(SETUP_SAMPLES):
        probe_dir = work / f"setup_{i}"
        probe_dir.mkdir()
        setups.append(setup_probe(args, probe_dir))
    workload.setup(bourgen)
    m = Measure(workload, args.seconds)
    m.warm_up()
    m.rounds()
    times = m.times()
    metrics = {
        "ops_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "op_s_p50": (median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, m


def per_layer(args, workload, bourgen, work):
    import tracer as tr
    plain = Measure(workload, args.seconds / 2.0)
    workload.setup(bourgen)
    plain.warm_up()
    plain.rounds()

    tracer = tr.Tracer()
    tr.install(tracer, bourgen)
    # set up again under tracing: the traced invariant and its frame are
    # built here, and inputs built before install would bypass the wrappers
    _, corr, wall = timed(workload.setup, bourgen)
    base = tracer.snapshot()
    self_s = {name: base[1][name] * corr / wall for name in tr.SPAN_NAMES}

    # raw self time of each passed operation, scaled once the drift
    # factors of the whole series are known
    deltas = []
    last = [base[1]]

    def on_op(passed):
        now = tracer.snapshot()[1]
        if passed:
            deltas.append({k: now[k] - last[0][k] for k in tr.SPAN_NAMES})
        last[0] = now

    traced = Measure(workload, args.seconds / 2.0, tracer)
    traced.rounds(on_op)
    calls, _, edges, extra = tracer.snapshot()
    times = traced.times()
    for d, w, t in zip(deltas, traced.walls, times):
        for name in self_s:
            self_s[name] += d[name] * t / w

    metrics = {}
    for name in tr.SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")

    # ratios over the traced operations only (not the set-up)
    def per(num, den):
        return num / den if den else 0.0

    calls0, _, edges0, extra0 = base
    d_calls = lambda k: calls[k] - calls0[k]
    d_extra = lambda k: extra[k] - extra0[k]
    rhs = d_calls("bour.ode_rhs")
    metrics["expressions.evals_per_sample"] = (per(
        d_calls("expressions.Expression.__call__")
        + d_calls("expressions.Expression.derivative"),
        d_extra("profile_samples")), "count")
    key = ("verify.fd_first_form", "bour.SurfaceMember.map")
    metrics["verify.map_calls_per_grid_point"] = (per(
        edges[key] - edges0[key], d_extra("member_grid_points")), "count")
    metrics["quotient.value_calls_per_rhs"] = (
        per(d_calls("quotient.TracedInvariant.value"), rhs), "count")
    metrics["quotient.newton_calls_per_rhs"] = (
        per(d_calls("quotient.newton_invert"), rhs), "count")
    metrics["bench.ref_s_p50"] = (median(plain.before + plain.after), "s")
    metrics["bench.op_wall_s_p50"] = (median(plain.walls), "s")
    metrics["bench.trace_overhead"] = (
        per(median(times), median(plain.times())), "ratio")
    traced.attempted += plain.attempted
    traced.errors += plain.errors
    traced.wrong += plain.wrong
    return metrics, traced


def main(argv=None):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    bourgen = _import_bourgen()
    make = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        make(args.seed, Path(args.setup_only)).setup(bourgen)
        return 0

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = make(args.seed, work)
        workload.prepare(bourgen)
        run = per_layer if args.trace else end_to_end
        metrics, m = run(args, workload, bourgen, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in m.errors[:3]:
        sys.stderr.write(f"failed operation: {e}\n")
    result = {"correct": m.wrong == 0, "attempted": m.attempted,
              "failed": m.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if m.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
