"""Tail functionals and entropy-rate proxies of self-information spectra.

For a spectrum s at block length n the self-information rate of an atom with
probability p is -(1/n) ln p.  The cumulative mass below a threshold is the
basic tail functional; its quantiles are finite-size proxies for the limiting
entropy rates of a state sequence.  Everything here works on compressed
spectra and costs one pass over the atoms, no gridding.

Conventions (fixed, documented):
  * natural log everywhere; unit conversion is a display concern,
  * the CDF includes the boundary atom by default (`boundary="nonstrict"`),
  * the upper proxy takes the left edge of a flat stretch of the CDF, the
    lower proxy the right edge,
  * at epsilon = 1 the proxies clamp to the extreme atom rates.

Dense operator tails live here too: the mass of a state above an exponential
threshold against a reference operator, in projector form and positive-part
form.  Both use an eigenvalue cutoff of 1e-10 relative to the spectral norm;
eigenvalues below the cutoff count as non-positive.
"""

from __future__ import annotations

import math

import numpy as np

from .spectra import _EXP_LIMIT, Spectrum, _mass_term, cumulative_mass
# no caller here; perfbench/spans.py rebinds infospec.generate (ROADMAP item 1)
from .spectra import generate  # noqa: F401

_QUANTILE_TOL = 1e-12
_EIG_CUT_REL = 1e-10


def _positive_eigs(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues above 1e-10 relative to the spectral norm."""
    cut = _EIG_CUT_REL * float(np.abs(w).max()) if w.size else 0.0
    return w > cut


def cdf_selfinfo(s: Spectrum, n: int, a: float, *, boundary: str = "nonstrict") -> float:
    """Mass of atoms whose self-information rate is <= a (or < a when strict).

    Costs O(k) big-int adds over the k atoms below the cut.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if boundary not in ("nonstrict", "strict"):
        raise ValueError(f"boundary must be 'nonstrict' or 'strict', got {boundary!r}")
    total = 0.0
    for (p, _), cum in zip(s.atoms, cumulative_mass(s.atoms)):
        rate = -math.log(p) / n + 0.0
        if not (rate <= a if boundary == "nonstrict" else rate < a):
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


# ---------------------------------------------------------------------------
# Dense operator tails


def _as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _threshold_factor(n: int, a: float) -> float:
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n * a > _EXP_LIMIT:
        raise ValueError(f"exp({n * a}) overflows double precision")
    return math.exp(n * a)


def tail_D(rho, sigma, n: int, a: float) -> float:
    """Mass of rho on the strictly positive part of rho - e^(n a) sigma.

    Computed from the eigendecomposition of the difference; eigenvalues within
    1e-10 of zero relative to the spectral norm count as non-positive.
    """
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    diff = r - _threshold_factor(n, a) * s
    diff = (diff + diff.conj().T) / 2.0
    w, v = np.linalg.eigh(diff)
    keep = _positive_eigs(w)
    if not keep.any():
        return 0.0
    vk = v[:, keep]
    return float(np.real(np.einsum("ij,ik,kj->", vk.conj(), r, vk)))


def tail_C(rho, sigma, n: int, a: float) -> float:
    """Trace of the positive part of rho - e^(n a) sigma."""
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    diff = r - _threshold_factor(n, a) * s
    diff = (diff + diff.conj().T) / 2.0
    w = np.linalg.eigvalsh(diff)
    return float(np.sum(w[_positive_eigs(w)]))


def tail_D_spectrum(s: Spectrum, n: int, a: float) -> float:
    """Diagonal fast path of tail_D against the identity reference.

    Equals the mass of atoms with p > e^(n a), i.e. the strict CDF of the
    self-information rate at -a.
    """
    return cdf_selfinfo(s, n, -a, boundary="strict")


def tail_C_spectrum(s: Spectrum, n: int, a: float) -> float:
    """Diagonal fast path of tail_C against the identity reference."""
    t = _threshold_factor(n, a)
    return math.fsum(_mass_term(p - t, m) for p, m in s.atoms if p > t)
