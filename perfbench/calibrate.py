"""Machine-speed probe, and job times scaled to a reference speed.

The benchmark runs on a shared host whose speed drifts by as much as
1.7x over minutes, far more than the changes it has to resolve.
``probe()`` times a fixed truncated bivariate product with Fraction
coefficients: the same mix of bytecode, dict and Fraction operations
the workloads spend their time in, and none of it fglcalc code, so no
change to the program under test moves it.  The workers probe between
jobs, outside every timed span, and ``scale`` turns each measured time
into seconds on a machine where one probe takes ``REFERENCE_S``: the
measured time times ``REFERENCE_S`` over the mean of the probes
nearest to it.  Drift common to the job and its probes cancels; a
change that makes fglcalc faster still shows in full.  The mean, not
the median: a job absorbs the host's short stalls in proportion to
its length, so its expected slowdown is the probes' mean slowdown.

Set-up time (process spawn, interpreter start, imports) does not slow
with the host the way arithmetic does, so ``start_probe()`` times a
bare interpreter start instead, and set-up times are scaled to a
machine where one takes ``START_REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import sys
import time
from fractions import Fraction

TRUNC = 9
KERNELS = 4
# about one probe on an unloaded 2-core virtual machine (Python
# 3.11.7); any value would do, as long as it stays fixed so that the
# scaled times of different runs and commits compare
REFERENCE_S = 0.006
# about one bare interpreter start on the same machine
START_REFERENCE_S = 0.04
# probes whose mean sets one job's speed
NEAREST = 9

_A = {(i, j): Fraction(i + 2 * j + 1, 3 + i * j) for i in range(TRUNC) for j in range(TRUNC - i)}
_B = {(i, j): Fraction(2 * i - j + 5, 2 + i + j) for i in range(TRUNC) for j in range(TRUNC - i)}


def _kernel():
    out = {}
    for (i1, j1), a in _A.items():
        for (i2, j2), b in _B.items():
            i, j = i1 + i2, j1 + j2
            if i + j < TRUNC:
                key = (i, j)
                out[key] = out.get(key, 0) + a * b
    return out


def probe() -> tuple[float, float]:
    """(midpoint, seconds) of one probe run now.  The cyclic collector
    is off meanwhile: a collection here would scan the program's own
    heap, and a program holding more objects would look like a slower
    machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(KERNELS):
            _kernel()
        t1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (t0 + t1) / 2, t1 - t0


def start_probe() -> tuple[float, float]:
    """(midpoint, seconds) of one bare interpreter start now; isolated
    (``-I``), so nothing in the checkout or the environment moves it."""
    import subprocess  # here: the workers never start one, nor pay to import it

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


def scale(spans, probes, reference=REFERENCE_S):
    """Scale each (start, seconds) span to the reference speed, using
    the NEAREST probes (midpoint, seconds) in time to its midpoint."""
    probes = sorted(probes)
    mids = [m for m, _ in probes]
    out = []
    for start, seconds in spans:
        at = bisect.bisect(mids, start + seconds / 2)
        lo = max(0, min(at - NEAREST // 2, len(probes) - NEAREST))
        near = [s for _, s in probes[lo : lo + NEAREST]]
        out.append(seconds * reference * len(near) / sum(near))
    return out
