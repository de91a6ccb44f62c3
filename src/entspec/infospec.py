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


def _positive_counts(w: np.ndarray) -> np.ndarray:
    """How many of each row's ascending eigenvalues exceed 1e-10 of its spectral norm.

    The positive eigenvalues are a suffix of each row.
    """
    cut = _EIG_CUT_REL * np.abs(w).max(axis=-1, keepdims=True, initial=0.0)
    return np.count_nonzero(w > cut, axis=-1)


def _count_groups(w: np.ndarray) -> list:
    """(c, selector) for each distinct count c of positive eigenvalues among the rows of w.

    Stacked work is done per group, never with padding or masking: a zero-padded
    sum or product rounds differently from the per-matrix one.
    """
    counts = _positive_counts(w)
    return [(c, counts == c) for c in set(counts.ravel().tolist())]


def _columns(v: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Eigenvector columns lo..hi of each matrix, column-major as v[:, mask] lays them out.

    BLAS and einsum round by memory layout, so the layout matches the per-matrix one.
    """
    return np.ascontiguousarray(v[..., lo:hi].swapaxes(-1, -2)).swapaxes(-1, -2)


def _positive_sum(w: np.ndarray) -> np.ndarray:
    """Sum of the positive eigenvalues of each row of ascending eigenvalues."""
    out = np.zeros(w.shape[:-1])
    d = w.shape[-1]
    for c, sel in _count_groups(w):
        out[sel] = w[sel][..., d - c:].sum(axis=-1)
    return out


def _positive_trace(m: np.ndarray) -> np.ndarray:
    """Trace of the positive part of each matrix of a (..., d, d) Hermitian stack."""
    return _positive_sum(np.linalg.eigvalsh(m))


def _per_matrix(x: np.ndarray):
    """A float for a single matrix's result, the array for a stack's."""
    return float(x) if x.ndim == 0 else x


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


def _threshold_factor(n: int, a: float) -> float:
    # both checks written so that NaN fails
    if not n >= 1:
        raise ValueError("n must be a positive integer")
    if not n * a <= _EXP_LIMIT:
        raise ValueError(f"exp({n * a}) is not a finite double")
    return math.exp(n * a)


def _tail_difference(rho, sigma, n, a) -> tuple[np.ndarray, np.ndarray]:
    """rho as a complex (..., d, d) stack, and the Hermitian part of rho - e^(n a) sigma.

    n and a are numbers or sequences broadcast against the stack.
    """
    mats = []
    for x in (rho, sigma):
        m = np.asarray(x, dtype=complex)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        mats.append(m)
    r, s = mats
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    ns, xs = np.broadcast_arrays(n, a)
    factors = [_threshold_factor(k, x) for k, x in zip(ns.ravel().tolist(), xs.ravel().tolist())]
    diff = r - np.reshape(factors, ns.shape + (1, 1)) * s
    return r, (diff + diff.conj().swapaxes(-1, -2)) / 2.0


def _projected_mass(r: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Mass of each r on the strictly positive part of the matching diff."""
    w, v = np.linalg.eigh(diff)
    out = np.zeros(w.shape[:-1])
    d = w.shape[-1]
    for c, sel in _count_groups(w):
        if c:
            # one contraction per matrix: a stacked einsum rounds differently
            out[sel] = [np.einsum("ij,ik,kj->", x.conj(), y, x).real for x, y in zip(_columns(v[sel], d - c, d), r[sel])]
    return out


def tail_D(rho, sigma, n, a):
    """Mass of rho on the strictly positive part of rho - e^(n a) sigma.

    Computed from the eigendecomposition of the difference; eigenvalues within
    1e-10 of zero relative to the spectral norm count as non-positive.  Takes
    a matrix pair or a (..., d, d) stack pair with n and a broadcast against it,
    and gives a float or an array.
    """
    return _per_matrix(_projected_mass(*_tail_difference(rho, sigma, n, a)))


def tail_C(rho, sigma, n, a):
    """Trace of the positive part of rho - e^(n a) sigma; stacks as in tail_D."""
    return _per_matrix(_positive_trace(_tail_difference(rho, sigma, n, a)[1]))


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
