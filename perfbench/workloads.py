"""Seeded inputs for the benchmark's four workloads.

One op is one `entspec` command line.  A seed picks the IID base distribution
(p1, p2, p3) near the centre (0.6, 0.3, 0.1) and the `verify` seed; the
program only ever sees the generated command lines.

The base moves by at most JITTER in each of p1 and p2 (p3 takes the rest).
The cost per atom is steep in the base: moving p1 and p2 by up to 0.02 each
changed one `rates` op's time 7x between corners of that band, mostly with
p3, which would drown any regression bound.  At +-0.001 the seeds still
exercise different numbers while the cost per seed stays within a few
percent.  Atom counts do not move at all: every type class of n letters
over three distinct probabilities is its own atom, so k = C(n + 2, 2) for
every seed.

The rates of `concentrate` and `dilute` scale with the base's entropy, so
each seed sits at the same relative distance below and above H.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("rates", "concentrate", "dilute", "verify")

CENTRE = (6000, 3000, 1000)  # base probabilities in units of 1e-4
JITTER = 10  # largest move of p1 and of p2, in units of 1e-4

RATES_N = (150, 200, 250)
RATES_EPS = "0.01,0.1,0.25"
CONCENTRATE_N = (40, 50, 60)
CONCENTRATE_RATE = 0.5  # nats per copy at the centre; below H
DILUTE_N = (150, 200)
DILUTE_RATE = 1.2  # nats per copy at the centre; above H

# IID(0.9, 0.1) at n = 2000 underflows a tail atom: the seed commit exits 2
# with "spectrum mass ... deviates from 1".  It stays in the rates workload,
# unchanged, so the failure is counted until the program handles it.
UNDERFLOW_OP = ("rates", "iid:0.9,0.1", "--n", "2000", "--eps", "0.1")


def base(seed: int) -> tuple[float, float, float]:
    """The seed's base distribution; seed 0 is the centre itself."""
    a, b, _ = CENTRE
    if seed != 0:
        rng = random.Random(seed)
        a += rng.randint(-JITTER, JITTER)
        b += rng.randint(-JITTER, JITTER)
    return (a / 10_000, b / 10_000, (10_000 - a - b) / 10_000)


def _entropy(probs) -> float:
    return -math.fsum(p * math.log(p) for p in probs)


def ops(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The command lines of one pass of `workload` for `seed`."""
    probs = base(seed)
    model = "iid:" + ",".join(repr(p) for p in probs)
    scale = _entropy(probs) / _entropy([c / 10_000 for c in CENTRE])
    if workload == "rates":
        return [("rates", model, "--n", str(n), "--eps", RATES_EPS) for n in RATES_N] + [UNDERFLOW_OP]
    if workload == "concentrate":
        rate = repr(CONCENTRATE_RATE * scale)
        return [("concentrate", model, "--rate", rate, "--n", str(n)) for n in CONCENTRATE_N]
    if workload == "dilute":
        rate = repr(DILUTE_RATE * scale)
        return [("dilute", model, "--rate", rate, "--n", str(n)) for n in DILUTE_N]
    if workload == "verify":
        return [("verify", "all", "--seed", str(seed))]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
