"""Machine-speed references, timed next to every measured scan.

On a shared 2-vCPU machine the same scan takes from 0.22 s to 0.38 s
depending on what other tenants run, in phases from under a second to
minutes long, and process CPU time drifts with wall time, so neither
longer runs nor CPU time make a run's median repeat.  The benchmark
therefore times a fixed piece of work that does not touch nuqsim right
before each measurement and reports the measurement rescaled to a
machine on which that work takes its nominal time:

    normalized = wall seconds * nominal seconds / reference seconds

Two references, because the two kinds of measurement slow down
differently:

- in-process scans: ``hot_reference_s``, a loop of Python arithmetic,
  dict traffic and numpy calls on 2x2 complex arrays, run in the
  scanning process;
- fresh processes (set-up and cli-cold scans): a fresh interpreter that
  imports numpy (``COLD_ARGV``), timed from spawn to exit.

A faster nuqsim still lowers a normalized time by the same share; what
cancels is the phase of the machine.
"""
from __future__ import annotations

import math
import time

HOT_NOMINAL_S = 0.03    # about the loop's median on the 2-vCPU Xeon used
COLD_NOMINAL_S = 0.13   # about the median of COLD_ARGV there
COLD_ARGV = ["-c", "import numpy"]


def hot_reference_s() -> float:
    """Wall time of one pass of the fixed in-process reference loop."""
    import numpy as np
    start = time.perf_counter()
    mix = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    state = np.array([1.0, 0.0], dtype=complex)
    acc = 0.0
    for i in range(3000):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        state = np.array([[c, -s], [s, c]], dtype=complex) @ (mix @ state)
        acc += float(abs(state[0]) ** 2)
    table: dict[int, float] = {}
    for i in range(40000):
        table[i % 97] = table.get(i % 97, 0.0) + math.sqrt(i)
        acc += table[i % 97] * 1e-9
    return time.perf_counter() - start
