"""Machine-speed drift correction.

The host's speed drifts during a run (shared vCPUs, growing steal time),
so every wall time the benchmark reports is divided by the time of a fixed
reference kernel run right before and right after it:

    corrected = wall * R0 / mean(kernel times)

The result reads as seconds on a machine where the kernel takes R0.
Single kernel timings are noisy, so the mean is taken over the kernel
runs around a few neighbouring operations (see ``corrected``).  The
kernel mixes interpreter-bound scalar Python (a recursive walk over a
tuple expression tree with dict bindings, as bourgen's Expression does)
with small-array numpy calls (3-vectors and 3x3 matrices, as the metric
pairings do), which is bourgen's own cost profile.  It does not import
bourgen, so a change to the program cannot move it.
"""
import math
import time

import numpy as np

# Median kernel time on the reference machine (2 vCPU x86-64 VM, Python
# 3.11.7, numpy 2.4.6); fixed so corrected times from different runs and
# commits share one unit.
R0 = 0.010

_TREE = ("+", ("call", "sqrt", ("+", ("*", ("var", "s"), ("var", "s")),
                                ("num", 2.0))),
         ("/", ("var", "s"), ("+", ("num", 1.0), ("var", "s"))))
_METRIC = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, -0.7], [0.3, -0.7, 2.5]])


def _walk(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "call":
        return math.sqrt(_walk(node[2], env))
    a = _walk(node[1], env)
    b = _walk(node[2], env)
    if kind == "+":
        return a + b
    if kind == "*":
        return a * b
    return a / b


def reference_kernel(n=230):
    """Fixed work of about R0 seconds; returns a checksum."""
    acc = 0.0
    for i in range(n):
        s = 0.5 + i * 1e-3
        acc += _walk(_TREE, {"s": float(s)})
        v = np.array([s, 1.0 - s, 0.25])
        acc += float(v @ _METRIC @ v)
        acc += float(np.sqrt(np.abs(np.cross(v, _METRIC[2]))).sum())
    return acc


_CHECKSUM = reference_kernel()


def ref_time(runs=1):
    """Mean wall time of ``runs`` back-to-back reference-kernel runs."""
    t0 = time.perf_counter()
    for _ in range(runs):
        if reference_kernel() != _CHECKSUM:
            raise RuntimeError("reference kernel checksum changed")
    return (time.perf_counter() - t0) / runs


def corrected(walls, before, after, k=1):
    """Corrected times of consecutive operations.

    ``before[i]`` and ``after[i]`` are the kernel times right before and
    right after operation i.  Operation i is scaled by the mean kernel
    time over operations i-k .. i+k, so 2(2k+1) kernel runs: one 10 ms
    kernel run scatters by about 19% on a shared host, which makes the
    two runs around a single operation a noisy estimate of its speed.
    """
    n = len(walls)
    out = []
    for i in range(n):
        lo, hi = max(0, i - k), min(n, i + k + 1)
        ref = (sum(before[lo:hi]) + sum(after[lo:hi])) / (2 * (hi - lo))
        out.append(walls[i] * R0 / ref)
    return out
