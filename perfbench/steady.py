"""Steadiness check: run the benchmark over several seeds and summarise.

    python3 perfbench/steady.py --seeds 1-10 --seconds 15 [--workload NAME ...]
        [--out perfbench/results/set_a.json]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json.  Runs one benchmark process at a time, from the root of
the checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workload", action="append",
                   help="workload name (repeatable; default: all)")
    p.add_argument("--out", help="write every run's result to this JSON file")
    args = p.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for name in names:
        runs[name] = []
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[name].append({"seed": seed, **result})
            print(f"{name} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} " + " ".join(
                      f"{k}={v['value']:.5g}"
                      for k, v in result["metrics"].items()), flush=True)
    print()
    print(f"{'workload':13} {'metric':12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for name, rs in runs.items():
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:13} {metric:12} {med:10.5g} {q1:10.5g} {q3:10.5g} "
                  f"{(q3 - q1) / med:7.2%} {bound:6.0%}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
