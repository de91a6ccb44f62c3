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

from .spectra import Spectrum, cumulative_mass
# no caller here; perfbench/spans.py rebinds infospec.generate (ROADMAP item 1)
from .spectra import generate  # noqa: F401

_QUANTILE_TOL = 1e-12


def cdf_selfinfo(s: Spectrum, n: int, a: float) -> float:
    """Mass of atoms whose self-information rate is <= a; a NaN threshold raises.

    Costs O(k) big-int adds over the k atoms below the cut.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if math.isnan(a):
        raise ValueError("threshold a must be a number, got nan")
    total = 0.0
    for (p, _), cum in zip(s.atoms, cumulative_mass(s.atoms)):
        if not -math.log(p) / n <= a:
            break  # atoms are rate-ascending
        total = cum
    return total


def entropy_proxies(s: Spectrum, n: int, epsilon: float) -> tuple[float, float]:
    """Finite-size quantile proxies (lower, upper) of the entropy rate.

    lower = sup { a : F_n(a) <= epsilon },  upper = inf { a : F_n(a) >= 1 - epsilon }
    with F_n the self-information CDF.  Both are atom rates; no interpolation.
    A mass tolerance of 1e-12 absorbs float dust at exact ties (epsilon = 0
    compares against exact zero so arbitrarily small leading atoms count).
    Costs O(k) big-int adds for k atoms; the walk stops at the later proxy.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    lo_threshold = epsilon + _QUANTILE_TOL if epsilon > 0.0 else 0.0
    hi_threshold = (1.0 - epsilon) - _QUANTILE_TOL
    lower = None
    upper = None
    last_rate = 0.0
    for (p, _), cum in zip(s.atoms, cumulative_mass(s.atoms)):
        rate = -math.log(p) / n + 0.0
        last_rate = rate
        if upper is None and cum >= hi_threshold:
            upper = rate
        if lower is None and cum > lo_threshold:
            lower = rate
        if lower is not None and upper is not None:
            break
    if lower is None:
        lower = last_rate  # epsilon = 1 clamps to the largest atom rate
    if upper is None:
        upper = last_rate
    return lower, upper

