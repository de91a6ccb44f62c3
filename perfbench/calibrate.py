"""Host-speed calibration for the benchmark's end-to-end timings.

The shared 2-core host this benchmark was built on drifts between speed
states: the same `concentrate` pass measured 6.2 s in one run and 9.9 s in a
run a few minutes later.  CPU time tracks wall time and steal time stays
near zero, so the process is not waiting; the host runs it slower.  A median
over a run's passes removes short stalls but not a state that outlasts the
run.

So a run also times `loop()` after every op and every setup sample: a fixed
piece of work that does not touch entspec and mixes what the program spends
its time on, Python loops over floats with `math.log` and `math.fsum` over
growing lists, and small dense eigenproblems.  The run's timings are scaled
by REF_S / (median loop time in the run), so they read as seconds on a host
where the loop takes REF_S: about its time on the reference host (2-core
x86_64 virtual machine, Python 3.11.7, NumPy 2.4.6) in its fast state.  A
change to the program moves the ops and not the loop, so it shows in full;
the raw seconds are printed on stderr next to the factor.
"""

from __future__ import annotations

import math
import time

import numpy as np

REF_S = 0.04


def _work() -> float:
    # half quantile-scan-like Python (a loop of logs with math.fsum over the
    # growing list), half small dense eigenproblems: on the reference host this
    # mix tracked the speed of all four workloads best among the kernels tried
    masses = []
    acc = 0.0
    for i in range(1, 4201):
        p = 1.0 / (i + 1)
        masses.append(-math.log(p) * p)
        if i % 8 == 0:
            acc += math.fsum(masses)
    for m in np.random.default_rng(1).standard_normal((1500, 8, 8)):
        acc += float(np.linalg.eigvalsh(m + m.T)[-1])
    return acc


def loop() -> float:
    """Seconds this host takes for the fixed calibration work right now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
