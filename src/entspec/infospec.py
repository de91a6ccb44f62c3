"""Tail functionals and entropy-rate proxies of self-information spectra.

For a spectrum s at block length n the self-information rate of an atom with
probability p is -(1/n) ln p.  The cumulative mass below a threshold is the
basic tail functional; its quantiles are finite-size proxies for the limiting
entropy rates of a state sequence.  Everything here works on compressed
spectra and costs one pass over the atoms, no gridding.

Conventions (fixed, documented):
  * natural log everywhere; unit conversion is a display concern,
  * the CDF includes an atom whose rate equals the threshold,
  * the upper proxy takes the left edge of a flat stretch of the CDF, the
    lower proxy the right edge,
  * at epsilon = 1 the proxies clamp to the extreme atom rates.

The dense operator tails `tail_C` and `tail_D` live with the rest of the
operator calculus in `hermitian`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable

from .spectra import Spectrum, cumulative_mass
# no caller here; perfbench/spans.py rebinds infospec.generate (ROADMAP item 1)
from .spectra import generate  # noqa: F401

_QUANTILE_TOL = 1e-12


def cdf_selfinfo(s: Spectrum, n: int, a: float) -> float:
    """Mass of atoms whose self-information rate is <= a; a NaN threshold raises.

    Bisects the k rate-ascending atoms (O(log k) logs) and reads the cached prefix table.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if math.isnan(a):
        raise ValueError("threshold a must be a number, got nan")
    k = bisect_right(s.atoms, a, key=lambda atom: -math.log(atom[0]) / n)
    return s.prefix_table[1][k - 1] if k else 0.0


def _check_epsilon(eps: float) -> float:
    """eps itself if it lies in [0, 1]; NaN, +-inf and the rest raise ValueError."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {eps!r}")
    return eps


def entropy_proxies(s: Spectrum, n: int, epsilons: Iterable[float]) -> list[tuple[float, float]]:
    """Finite-size quantile proxies (lower, upper) of the entropy rate, per epsilon.

    lower = sup { a : F_n(a) <= epsilon },  upper = inf { a : F_n(a) >= 1 - epsilon }
    with F_n the self-information CDF.  Both are atom rates; no interpolation.
    A mass tolerance of 1e-12 absorbs float dust at exact ties (epsilon = 0
    compares against exact zero so arbitrarily small leading atoms count).
    Returns one pair per epsilon, in the order given.  Costs one O(k) walk of
    big-int adds over the k atoms that stops at the grid's last proxy, then two
    bisects and two logs per epsilon.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    cuts = [
        (eps + _QUANTILE_TOL if eps > 0.0 else 0.0, (1.0 - eps) - _QUANTILE_TOL)
        for eps in map(_check_epsilon, epsilons)
    ]
    lo_stop = max((lo for lo, _ in cuts), default=0.0)
    hi_stop = max((hi for _, hi in cuts), default=0.0)
    masses = []
    for cum in cumulative_mass(s.atoms):
        masses.append(cum)
        if cum > lo_stop and cum >= hi_stop:
            break
    last = len(masses) - 1  # a walk that never stops clamps epsilon = 1 to the extreme atoms

    def rate(i: int) -> float:
        return -math.log(s.atoms[min(i, last)][0]) / n + 0.0

    return [(rate(bisect_right(masses, lo)), rate(bisect_left(masses, hi))) for lo, hi in cuts]
