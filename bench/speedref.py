"""Machine-speed reference: fixed work that shares no code with eprenorm.

On a shared VM the speed our process gets drifts over minutes, and a whole
run can sit in a slow phase: on a 2-vCPU Xeon VM the raw median scan op
ranged from 9.9 to 14.7 ms across ten 30-second runs of the same code.
Timing this fixed kernel right after every op, and expressing the op's time
in units of it, removes most of that drift while still moving one for one
with the program's own cost.  One "ref" is one execution of ``kernel``.

The kernel mixes the three kinds of work the workloads do: numpy calls on
3x3 matrices, float formatting and JSON, and vectorized numpy over a few
thousand points.  In a 200-second test on that VM with the three parts
timed separately, the slowest-to-fastest range of 8-second window medians
of op time was 36-41 % raw, 9-15 % divided by the sum of the parts, and
12-20 % divided by the 3x3 part alone.
"""

import json
import time

import numpy as np

_rng = np.random.default_rng(20260317)
MATRICES = _rng.standard_normal((12, 3, 3)) + 1j * _rng.standard_normal((12, 3, 3))
VALUES = [float(v) for v in _rng.uniform(1e2, 1e4, 250)]
GRID = np.linspace(-50.0, 50.0, 5001)
SHARE = 0.2  # reference time spent per op, as a share of the op's own time


def kernel():
    total = 0.0
    for m in MATRICES:
        total += float(np.abs(np.linalg.eigvals(m)).sum())
        total += float(np.linalg.norm(np.cross(m[0], m[1])))
    for scale in (1.0, 2.0):
        total += len(",".join(format(v * scale, ".12g") for v in VALUES))
    total += len(json.dumps({"rows": [[v, 2.0 * v] for v in VALUES]}))
    for t in (0.3, 0.7):
        total += float(np.trapezoid(np.exp(-1j * GRID * t) / (1.0 + GRID * GRID), GRID).real)
    return total


def measure(budget_s):
    """Median time of one kernel run, repeated for budget_s seconds (at least once)."""
    samples = []
    spent = 0.0
    while not samples or spent < budget_s:
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
        spent += samples[-1]
    samples.sort()
    return samples[len(samples) // 2]
