"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark's host is shared: the same call into hcmeta ran 1x to 2x its
fastest time from second to second, and a slow stretch could last a whole
run.  The reference loop belongs to the benchmark, so no change to hcmeta
moves it.  Timed next to the workload, it gives the factor by which the
machine was slow: a time ``t`` measured while the loop's fastest time was
``r`` is reported as ``t * REFERENCE_S / r``.

The loop mixes the two kinds of work hcmeta does: interpreted Python on
dicts, sets, tuples and fractions, and numpy sorts and gathers.  A loop of
one kind tracked the workloads' slowdown worse.  Over four minutes of
``build-large`` passes on a 2-vCPU Xeon VM, cut into 20 s windows, the
quartile spread of the windows' fastest pass was 13 % raw, 17 % normalised
by a pure dict-and-integer loop and 6 % normalised by a mixed loop of this
kind.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

# the loop's fastest time on the 2-vCPU Xeon VM the benchmark was written on;
# a normalised time reads as seconds on a machine that runs the loop this fast
REFERENCE_S = 0.017


def reference_loop() -> int:
    rng = random.Random(5)
    xs = [rng.randrange(10**6) for _ in range(6000)]
    d: dict = {}
    for i, x in enumerate(xs):
        key = (x & 511, i & 7)
        d[key] = d.get(key, 0) + x
    s = {frozenset((a, b, v & 15)) for (a, b), v in
         sorted(d.items(), key=lambda kv: (kv[1], kv[0]))}
    f = sum((Fraction(x % 13 + 1, x % 7 + 1) for x in xs[:400]), Fraction(0))
    # arrays of 96 kB: below glibc's mmap threshold, so the loop's speed does
    # not depend on what the process allocated and freed before it
    a = np.arange(12_000, dtype=float)
    for _ in range(25):
        a = np.sort(a[::-1] * 1.0001)
        a = a[np.argsort(a % 97, kind="stable")]
    return len(s) + f.numerator % 7 + int(a[0])


def time_reference() -> float:
    """Seconds taken by one reference loop."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0
