"""Majorization on compressed spectra, with constructive certificates.

p is majorized by q when every prefix sum of the descending expansion of p
is bounded by the matching prefix of q, with equality of the totals; vectors
of different length are compared after zero padding.  The predicate here
walks the compressed atoms directly, so it works at expanded dimensions far
beyond anything materializable.

Two constructions witness the order:

* `kh_certificate` builds, for a deterministic map, a doubly stochastic
  block matrix (one block per fiber, each a convex mix of transpositions of
  the first coordinate) that carries the split-of-mass vectors of the
  pushforward back onto the source distribution.
* `transfer_matrix` builds, for any majorized pair, a doubly stochastic
  matrix as a product of at most m - 1 two-coordinate averaging steps with
  D q = p on descending expansions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .spectra import (
    DEFAULT_MAX_EXPANDED_DIM,
    BudgetExceededError,
    Spectrum,
    _mass_term,
    cumulative_mass,
    expand,
)

MAJORIZE_TOL = 1e-10


def _prefix_mass(atoms, cum_counts, cum_masses, k: int) -> float:
    """Mass of the first k >= 1 expanded entries; k may exceed the dimension."""
    if k >= cum_counts[-1]:
        return cum_masses[-1]
    i = bisect_left(cum_counts, k)  # first atom whose cumulative count reaches k
    before_count = cum_counts[i - 1] if i else 0
    before_mass = cum_masses[i - 1] if i else 0.0
    return before_mass + _mass_term(atoms[i][0], k - before_count)


def prefix_gap_min(p: Spectrum, q: Spectrum) -> tuple[float, int]:
    """Minimum of (q prefix - p prefix) over atom-boundary counts, with its argmin.

    Costs O(k) big-int adds for the prefix masses of k atoms, plus a sort and
    a binary search per boundary.
    """
    pc = list(accumulate(m for _, m in p.atoms))
    qc = list(accumulate(m for _, m in q.atoms))
    pm = list(cumulative_mass(p.atoms))
    qm = list(cumulative_mass(q.atoms))
    best, best_k = math.inf, 0
    for k in sorted(set(pc) | set(qc)):
        gap = _prefix_mass(q.atoms, qc, qm, k) - _prefix_mass(p.atoms, pc, pm, k)
        if gap < best:
            best, best_k = gap, k
    return best, best_k


def majorizes(p: Spectrum, q: Spectrum, *, tol: float = MAJORIZE_TOL) -> bool:
    """True when p is majorized by q (q at least as ordered), within tolerance.

    Prefix gaps within `tol` of zero count as satisfied; total masses are
    already pinned to 1 by the spectrum invariant.  Costs O(k) big-int adds
    for k atoms (see `prefix_gap_min`).
    """
    gap, _ = prefix_gap_min(p, q)
    return gap >= -tol


@dataclass(frozen=True)
class DeterministicMap:
    """Total map from expanded domain indices to codomain indices."""

    domain_size: int
    targets: tuple[int, ...]
    codomain_size: int

    def __post_init__(self):
        if self.domain_size < 1 or self.codomain_size < 1:
            raise ValueError("domain and codomain must be nonempty")
        if len(self.targets) != self.domain_size:
            raise ValueError(f"need {self.domain_size} targets, got {len(self.targets)}")
        for t in self.targets:
            if not 0 <= t < self.codomain_size:
                raise ValueError(f"target {t} outside codomain of size {self.codomain_size}")

    def to_json_dict(self) -> dict:
        return {
            "domain_size": self.domain_size,
            "codomain_size": self.codomain_size,
            "targets": list(self.targets),
        }


class BistochasticMatrix:
    """Square matrix with nonnegative entries and unit row and column sums."""

    def __init__(self, entries, *, tol: float = 1e-10):
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        # both checks written so that NaN fails
        if m.size and not m.min() >= -tol:
            raise ValueError(f"negative entry {m.min()!r} below tolerance")
        if m.size:
            rows = np.abs(m.sum(axis=1) - 1.0).max()
            cols = np.abs(m.sum(axis=0) - 1.0).max()
            if not (rows <= tol and cols <= tol):
                raise ValueError(f"row/column sums deviate from 1 by {max(rows, cols)!r}")
        self.entries = m

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def pushforward(p: Spectrum, phi: DeterministicMap, *, max_expanded_dim: int = DEFAULT_MAX_EXPANDED_DIM) -> Spectrum:
    """Distribution of phi(X) when X has the expanded law of p, descending order.

    Domain index i carries the i-th entry of the descending expansion of p.
    Codomain elements with zero mass are dropped.
    """
    xs = expand(p, max_expanded_dim)
    if phi.domain_size != len(xs):
        raise ValueError(f"map domain {phi.domain_size} does not match expanded dimension {len(xs)}")
    masses = [[] for _ in range(phi.codomain_size)]
    for i, y in enumerate(phi.targets):
        masses[y].append(float(xs[i]))
    values = [math.fsum(bucket) for bucket in masses if bucket]
    return Spectrum.from_probs(values)


def _fibers_of(p: Spectrum, phi: DeterministicMap, max_dim: int):
    if p.total_dim > max_dim:
        raise BudgetExceededError("max_certificate_dim", p.total_dim, max_dim)
    xs = expand(p, max_dim)
    if phi.domain_size != len(xs):
        raise ValueError(f"map domain {phi.domain_size} does not match expanded dimension {len(xs)}")
    fibers = [[] for _ in range(phi.codomain_size)]
    for i, y in enumerate(phi.targets):
        fibers[y].append(i)
    return xs, fibers


def _split_and_reconstruction(xs, fibers, d: int):
    """Mass-on-first-slot vector per fiber, and the fiber-ordered source masses."""
    split = np.zeros(d)
    recon = np.zeros(d)
    offset = 0
    for members in fibers:
        k = len(members)
        if k == 0:
            continue
        split[offset] = math.fsum(float(xs[i]) for i in members)
        recon[offset : offset + k] = [float(xs[i]) for i in members]
        offset += k
    return split, recon


def kh_certificate(p: Spectrum, phi: DeterministicMap, *, max_dim: int = 2048) -> BistochasticMatrix:
    """Doubly stochastic block witness that p is majorized by its pushforward.

    One block per codomain element in index order, sized by its fiber.  The
    block for fiber (x_1 .. x_k) with image mass q is the convex combination
    sum_j (p(x_j)/q) T_j where T_j transposes coordinates 1 and j.  Applied
    to the vector that puts the whole image mass on the first fiber slot, the
    block reproduces the source masses on that fiber; empty fibers contribute
    nothing (a zero-size identity block).
    """
    xs, fibers = _fibers_of(p, phi, max_dim)
    d = len(xs)
    block = np.zeros((d, d))
    offset = 0
    for members in fibers:
        k = len(members)
        if k == 0:
            continue
        qy = math.fsum(float(xs[i]) for i in members)
        weights = [float(xs[i]) / qy for i in members]
        sub = block[offset : offset + k, offset : offset + k]
        for j, w in enumerate(weights):
            if j == 0:
                for i in range(k):
                    sub[i, i] += w
            else:
                # transposition of coordinates 1 and j+1 fixes the rest
                sub[0, j] += w
                sub[j, 0] += w
                for i in range(1, k):
                    if i != j:
                        sub[i, i] += w
        offset += k
    cert = BistochasticMatrix(block)
    if kh_residual(p, phi, cert, max_dim=max_dim) > 1e-10:
        raise RuntimeError("certificate failed to reproduce the source masses")
    return cert


def kh_residual(p: Spectrum, phi: DeterministicMap, cert: BistochasticMatrix, *, max_dim: int = 2048) -> float:
    """Worst entrywise error of the certificate reproducing the source masses."""
    xs, fibers = _fibers_of(p, phi, max_dim)
    if cert.dim != len(xs):
        raise ValueError(f"certificate dimension {cert.dim} does not match source {len(xs)}")
    split, recon = _split_and_reconstruction(xs, fibers, len(xs))
    return float(np.abs(cert.entries @ split - recon).max())


def transfer_matrix(
    p: Spectrum,
    q: Spectrum,
    *,
    tol: float = MAJORIZE_TOL,
    max_expanded_dim: int = 4096,
) -> BistochasticMatrix:
    """Doubly stochastic D with D q = p on descending zero-padded expansions.

    Built as a product of at most m - 1 two-coordinate averaging steps, each
    moving mass from the largest still-overweight coordinate to the first
    underweight coordinate after it.  Requires majorizes(p, q).
    """
    gap, at = prefix_gap_min(p, q)
    if gap < -tol:
        raise ValueError(f"majorization fails at prefix count {at}: gap {gap!r}")
    pv = expand(p, max_expanded_dim)
    qv = expand(q, max_expanded_dim)
    m = max(len(pv), len(qv))
    target = np.zeros(m)
    target[: len(pv)] = pv
    cur = np.zeros(m)
    cur[: len(qv)] = qv
    d = np.eye(m)
    eps = 1e-13
    for _ in range(m - 1):
        diff = cur - target
        over = np.nonzero(diff > eps)[0]
        if over.size == 0:
            break
        j = int(over[-1])
        under = np.nonzero(diff[j + 1 :] < -eps)[0]
        if under.size == 0:
            break
        k = j + 1 + int(under[0])
        delta = min(diff[j], -diff[k])
        lam = 1.0 - delta / (cur[j] - cur[k])
        step = np.eye(m)
        step[j, j] = step[k, k] = lam
        step[j, k] = step[k, j] = 1.0 - lam
        cur = step @ cur
        d = step @ d
    if np.abs(cur - target).max() > 1e-9:
        raise RuntimeError("two-coordinate mixing failed to reach the target vector")
    return BistochasticMatrix(d)
