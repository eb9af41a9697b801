"""Reference computation that puts timings on a steady scale.

On a shared machine the speed at which the same code runs drifts by tens
of percent over seconds to minutes, so raw wall times of one run differ
from those of the next by more than any useful bound.  The benchmark
therefore times this fixed computation right before and after each timed
call and each set-up sample, on as many processes as the call keeps busy,
and scales the timing by ``REFERENCE_NS / reference time``:
a timing reads as it would at the speed where the reference takes
exactly ``REFERENCE_NS``.  The reference is plain numpy and Python math
on small arrays, the same kind of work as a control step, with a stencil
pass over a grid-sized array every ``GRID_EVERY`` iterations; it does not
touch plumetrack.  It is timed in ``PARTS`` equal parts and reads as
``PARTS`` times the median part, so that a short stall of the machine in
one part does not rescale the whole call.  Raw times are reported next
to the scaled ones.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

import numpy as np

REFERENCE_NS = 100_000_000      # nominal time of one reference chunk
ITERATIONS = 10000              # about REFERENCE_NS on a 2-CPU x86-64 VM
GRID = 160                      # side of the grid-sized array
GRID_EVERY = 50                 # small-array iterations per grid pass
PARTS = 5                       # separately timed parts of one chunk


def reference() -> int:
    """Wall ns of one reference chunk: ``PARTS`` times its median part."""
    x = np.linspace(-1.0, 1.0, 24).reshape(6, 4)
    w = np.linspace(0.5, 1.5, 4)
    grid = np.linspace(0.0, 1.0, GRID * GRID).reshape(GRID, GRID)
    acc = 0.0
    parts = []
    per_part = ITERATIONS // PARTS
    for part in range(PARTS):
        t0 = perf_counter_ns()
        for i in range(part * per_part, (part + 1) * per_part):
            y = np.exp(-(x * x) * (1.0 + 1e-4 * i)) @ w
            acc += math.hypot(float(y[0]), float(y[1])) + float(y.sum())
            if i % GRID_EVERY == 0:
                # a stencil pass over a grid-sized array, like a grid step
                z = np.exp(-grid * (1.0 + 1e-6 * i))
                acc += float((4.0 * z[1:-1, 1:-1] - z[:-2, 1:-1] - z[2:, 1:-1]
                              - z[1:-1, :-2] - z[1:-1, 2:]).sum())
        parts.append(perf_counter_ns() - t0)
    if not math.isfinite(acc):
        raise RuntimeError("reference computation is not finite")
    return PARTS * sorted(parts)[PARTS // 2]


def scale(raw: float, before_ns: int, after_ns: int) -> float:
    """``raw`` at the reference speed, from the chunks timed around it."""
    return raw * REFERENCE_NS / (0.5 * (before_ns + after_ns))
