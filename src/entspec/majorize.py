"""Majorization on compressed spectra, with constructive certificates.

p is majorized by q when every prefix sum of the descending expansion of p
is bounded by the matching prefix of q, with equality of the totals; vectors
of different length are compared after zero padding.  The predicate here
walks the compressed atoms directly, in one merge over the two spectra's
prefix tables, so it works at expanded dimensions far beyond anything
materializable.

Two constructions witness the order:

* `kh_certificate` builds, for a deterministic map, a doubly stochastic
  block matrix (one block per fiber, each a convex mix of transpositions of
  the first coordinate) that carries the split-of-mass vectors of the
  pushforward back onto the source distribution.
* `transfer_matrix` builds, for any majorized pair, a doubly stochastic
  matrix as a product of at most m - 1 two-coordinate averaging steps with
  D q = p on descending expansions.

The predicate needs no NumPy.  The dense constructions (`BistochasticMatrix`,
the certificates and their residual) import it when they run, so importing
this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spectra import (
    DEFAULT_MAX_EXPANDED_DIM,
    BudgetExceededError,
    Spectrum,
    expand,
)

MAJORIZE_TOL = 1e-10
# largest expanded dimensions of the dense d x d certificates; transfer_matrix's
# m - 1 dense m x m steps cost O(m^4): 0.22 s at m = 256, 3.0 s at m = 512 (one
# BLAS thread, 2-core x86_64 VM, NumPy 2.4)
MAX_CERTIFICATE_DIM = 2048
MAX_TRANSFER_DIM = 512


def prefix_gap_min(p: Spectrum, q: Spectrum) -> tuple[float, int]:
    """Minimum of (q prefix - p prefix) over atom-boundary counts, with its argmin.

    One merge walk over both spectra's prefix tables (`Spectrum.prefix_table`,
    built once per spectrum), one step per distinct boundary count:
    O(k_p + k_q) float operations for k_p and k_q atoms.  A side's prefix
    mass at a count k inside or at the end of one of its atoms is the
    table's mass before that atom plus the mass of the atom's first k -
    (count before it) entries; at or past the side's total count it is the
    table's total.  The argmin is the first count that reaches the minimum.
    """
    pc, pm = p.prefix_table
    qc, qm = q.prefix_table
    pa, qa = p.atoms, q.atoms
    p_end, q_end = pc[-1], qc[-1]
    best, best_k = math.inf, 0
    i = j = 0  # the atoms of p and q that the next count falls in or ends
    p_count = q_count = 0  # the counts before those atoms
    p_mass = q_mass = 0.0  # and the masses before them
    while i < len(pc) or j < len(qc):
        pk = pc[i] if i < len(pc) else math.inf
        qk = qc[j] if j < len(qc) else math.inf
        k = pk if pk < qk else qk
        pv = p_mass + pa[i][0] * (k - p_count) if k < p_end else pm[-1]
        qv = q_mass + qa[j][0] * (k - q_count) if k < q_end else qm[-1]
        gap = qv - pv
        if gap < best:
            best, best_k = gap, k
        if k == pk:
            p_count, p_mass = k, pm[i]
            i += 1
        if k == qk:
            q_count, q_mass = k, qm[j]
            j += 1
    return best, best_k


def majorizes(p: Spectrum, q: Spectrum) -> bool:
    """True when p is majorized by q (q at least as ordered), within tolerance.

    Prefix gaps within MAJORIZE_TOL of zero count as satisfied; total masses are
    already pinned to 1 by the spectrum invariant.  Costs one merge walk
    over the two prefix tables, O(k_p + k_q) for k_p and k_q atoms, plus
    O(k) big-int adds to build the table of a spectrum not seen before (see
    `prefix_gap_min`).
    """
    gap, _ = prefix_gap_min(p, q)
    return gap >= -MAJORIZE_TOL


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
    """Square matrix with nonnegative entries and unit row and column sums, within 1e-10.

    `defect` is the largest deviation of a row or column sum from 1.
    """

    def __init__(self, entries):
        import numpy as np

        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        # both checks written so that NaN fails (a NaN entry makes its row's sum NaN)
        low = m.min(initial=math.inf)
        if not low >= -1e-10:
            raise ValueError(f"negative entry {low!r} below tolerance")
        rows = float(np.abs(m.sum(axis=1) - 1.0).max(initial=0.0))
        cols = float(np.abs(m.sum(axis=0) - 1.0).max(initial=0.0))
        self.defect = max(rows, cols)
        if not (rows <= 1e-10 and cols <= 1e-10):
            raise ValueError(f"row/column sums deviate from 1 by {self.defect!r}")
        self.entries = m

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _fibers_of(p: Spectrum, phi: DeterministicMap, max_dim: int, budget: str):
    """p's descending expansion as a list of floats, and the domain indices phi sends to each codomain element."""
    if p.total_dim > max_dim:
        raise BudgetExceededError(budget, p.total_dim, max_dim)
    xs = expand(p).tolist()  # max_dim is at most expand's own budget
    if phi.domain_size != len(xs):
        raise ValueError(f"map domain {phi.domain_size} does not match expanded dimension {len(xs)}")
    fibers = [[] for _ in range(phi.codomain_size)]
    for i, y in enumerate(phi.targets):
        fibers[y].append(i)
    return xs, fibers


def pushforward(p: Spectrum, phi: DeterministicMap) -> Spectrum:
    """Distribution of phi(X) when X has the expanded law of p, descending order.

    Domain index i carries the i-th entry of the descending expansion of p.
    Codomain elements with zero mass are dropped.
    """
    xs, fibers = _fibers_of(p, phi, DEFAULT_MAX_EXPANDED_DIM, "max_expanded_dim")
    return Spectrum.from_probs([math.fsum(xs[i] for i in members) for members in fibers if members])


def _split_and_reconstruction(xs, fibers):
    """Mass-on-first-slot vector per fiber, and the fiber-ordered source masses."""
    import numpy as np

    split = np.zeros(len(xs))
    recon = np.zeros(len(xs))
    offset = 0
    for members in filter(None, fibers):
        split[offset] = math.fsum(xs[i] for i in members)
        recon[offset : offset + len(members)] = [xs[i] for i in members]
        offset += len(members)
    return split, recon


def kh_certificate(p: Spectrum, phi: DeterministicMap) -> BistochasticMatrix:
    """Doubly stochastic block witness that p is majorized by its pushforward.

    One block per codomain element in index order, sized by its fiber.  The
    block for fiber (x_1 .. x_k) with image mass q is the convex combination
    sum_j (p(x_j)/q) T_j where T_j transposes coordinates 1 and j.  Applied
    to the vector that puts the whole image mass on the first fiber slot, the
    block reproduces the source masses on that fiber; empty fibers contribute
    nothing (a zero-size identity block).  The certificate is checked
    against the same expansion and fibers it is built from.
    """
    import numpy as np

    xs, fibers = _fibers_of(p, phi, MAX_CERTIFICATE_DIM, "max_certificate_dim")
    split, recon = _split_and_reconstruction(xs, fibers)
    d = len(xs)
    block = np.zeros((d, d))
    offset = 0
    for k in map(len, filter(None, fibers)):
        qy = float(split[offset])
        sub = block[offset : offset + k, offset : offset + k]
        for j, x in enumerate(recon[offset : offset + k]):
            w = float(x) / qy
            # T_j swaps slots 0 and j (T_0 is the identity) and fixes the rest
            for i in range(k):
                sub[i, j if i == 0 else 0 if i == j else i] += w
        offset += k
    cert = BistochasticMatrix(block)
    if np.abs(block @ split - recon).max() > 1e-10:
        raise RuntimeError("certificate failed to reproduce the source masses")
    return cert


def kh_residual(p: Spectrum, phi: DeterministicMap, cert: BistochasticMatrix) -> float:
    """Worst entrywise error of the certificate reproducing the source masses."""
    import numpy as np

    xs, fibers = _fibers_of(p, phi, MAX_CERTIFICATE_DIM, "max_certificate_dim")
    if cert.dim != len(xs):
        raise ValueError(f"certificate dimension {cert.dim} does not match source {len(xs)}")
    split, recon = _split_and_reconstruction(xs, fibers)
    return float(np.abs(cert.entries @ split - recon).max())


def transfer_matrix(p: Spectrum, q: Spectrum) -> BistochasticMatrix:
    """Doubly stochastic D with D q = p on descending zero-padded expansions.

    Built as a product of at most m - 1 two-coordinate averaging steps, each
    moving mass from the largest still-overweight coordinate to the first
    underweight coordinate after it.  Requires majorizes(p, q).  Each step
    finds its two coordinates by a Python scan of the current vector and
    applies itself as a dense m x m matrix (one identity whose four entries
    are set and reset), so D is the same BLAS product, bit for bit, as with
    a fresh identity per step.  m above MAX_TRANSFER_DIM exceeds `max_transfer_dim`.
    """
    import numpy as np

    m = max(p.total_dim, q.total_dim)
    if m > MAX_TRANSFER_DIM:
        raise BudgetExceededError("max_transfer_dim", m, MAX_TRANSFER_DIM)
    gap, at = prefix_gap_min(p, q)
    if gap < -MAJORIZE_TOL:
        raise ValueError(f"majorization fails at prefix count {at}: gap {gap!r}")
    pv = expand(p)
    qv = expand(q)
    target = np.zeros(m)
    target[: len(pv)] = pv
    cur = np.zeros(m)
    cur[: len(qv)] = qv
    d = np.eye(m)
    eps = 1e-13
    tgt = target.tolist()
    step = np.eye(m)
    for _ in range(m - 1):
        c = cur.tolist()
        j = next((x for x in range(m - 1, -1, -1) if c[x] - tgt[x] > eps), None)
        if j is None:
            break
        k = next((x for x in range(j + 1, m) if c[x] - tgt[x] < -eps), None)
        if k is None:
            break
        delta = min(c[j] - tgt[j], -(c[k] - tgt[k]))
        lam = 1.0 - delta / (c[j] - c[k])
        step[j, j] = step[k, k] = lam
        step[j, k] = step[k, j] = 1.0 - lam
        cur = step @ cur
        d = step @ d
        step[j, j] = step[k, k] = 1.0
        step[j, k] = step[k, j] = 0.0
    if np.abs(cur - target).max() > 1e-9:
        raise RuntimeError("two-coordinate mixing failed to reach the target vector")
    return BistochasticMatrix(d)
