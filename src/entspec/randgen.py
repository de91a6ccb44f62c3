"""Deterministic map synthesis approximating a target distribution by a pushforward.

The greedy rule: process source elements in descending probability and send
each to the codomain element with the largest remaining deficit, i.e. target
mass minus mass assigned so far, lowest index on ties.

All bookkeeping is exact.  Finite doubles are dyadic rationals, so every
probability in play scales to an integer over one common power-of-two
denominator and deficits never see rounding.  A multiplicity run of m equal
source elements is assigned in closed form: the m pre-assignment deficits
consumed by the greedy rule are exactly the m largest values in the union of
the arithmetic progressions {deficit − i·P} over codomain fibers, so a cut
level plus a residue-ordered remainder reproduces the expanded behaviour
without materializing type classes.  Synthesis stays polynomial in the atom
counts when the expanded dimensions are astronomical.

Cost: the F fibers stay sorted by deficit across the k_p source runs, so the
fibers of one level (deficit // P) form a contiguous block.  A run finds the
cut from the blocks at or above it, with one bisect and one big-int division
per block (O(B·log F) for B blocks, no division per fiber); it makes one
big-int subtraction per fiber it lowers or takes, and merges the few sorted
blocks it lowers onto the cut level.  Moving and comparing fibers is done by
list slices and C-level maps.  One sort by start index at the end restores
codomain order.  A run splits at most one fiber, so F <= k_p + k_q, the bound
the max_greedy_fibers budget checks up front.

A DeterministicMap is built only on request (`with_map=True`): the same
kernel is then stepped one source element at a time, one kernel call per
element, so its cost grows with the expanded source dimension, which
DEFAULT_MAX_EXPANDED_DIM bounds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, count, islice, product, repeat
from operator import eq, itemgetter, mul, neg, sub
from typing import Optional

from .majorize import DeterministicMap
from .spectra import (
    DEFAULT_MAX_EXPANDED_DIM,
    DEFAULT_MAX_TYPE_CLASSES,
    BudgetExceededError,
    Spectrum,
    _scaled_atoms,
)
# no caller here; perfbench/spans.py rebinds randgen.generate (ROADMAP item 1)
from .spectra import generate  # noqa: F401

DEFAULT_BRUTE_FORCE_CAP = 10**6


# Fiber state: parallel lists of scaled deficit, start index, element count
# and target atom (the index in q.atoms of the fiber's target), one entry per
# run of codomain elements.  Between source runs they are in (deficit
# descending, start ascending) order, the order the greedy rule consumes
# elements in.  Codomain neighbours never share (target, deficit), and fibers
# that share a deficit are adjacent in that order.
Fibers = tuple[list[int], list[int], list[int], list[int]]


def _permute(fibers: Fibers, lo: int, order: list[int]) -> None:
    """Overwrite fibers lo.. with the fibers at the indices in order."""
    pick = itemgetter(*order)
    for col in fibers:
        col[lo : lo + len(order)] = pick(col)


def _block_end(D: list[int], i: int, floor: int) -> int:
    """First index after i whose deficit lies below floor, given D[i] >= floor."""
    j = i + 1
    if j == len(D) or D[j] < floor:
        return j
    return bisect_right(D, -floor, j + 1, key=neg)


def _assign_run(fibers: Fibers, P: int, m: int) -> None:
    """Assign a run of m source elements of scaled probability P, in place."""
    D, S, C, A = fibers

    # Elements of a fiber at level L = deficit // P (one per codomain slot,
    # value t*P + residue, residue in [0, P)) exist for every t <= L.  T(t)
    # counts elements at level >= t; the cut level is the largest t with
    # T(t) >= m.  Equal levels are contiguous blocks of the order: walk them
    # downwards.  Over the blocks walked, T(t) = a - b*t, so the cut is
    # (a - m) // b once that lies above the next block's level.
    a = b = i = 0
    L = D[0] // P
    blocks = []
    while True:
        j = _block_end(D, i, L * P)
        n = C[i] if j == i + 1 else sum(islice(C, i, j))
        a += n * (L + 1)
        b += n
        blocks.append((i, j, L))
        if j < len(D):
            L = D[j] // P
        if j == len(D) or a - m >= b * (L + 1):
            break
        i = j
    t, cut = (a - m) // b, j

    # everything strictly above the cut is consumed outright: lower those
    # blocks to the cut level and merge them there by deficit, equal
    # deficits in block order for now
    for i, j, L in blocks:
        if L > t:
            if j == i + 1:
                D[i] -= (L - t) * P
            else:
                D[i:j] = map(sub, D[i:j], repeat((L - t) * P))
    if len(blocks) > 1:
        _permute(fibers, 0, sorted(range(cut), key=D.__getitem__, reverse=True))

    # T(t + 1) < m elements lay above the cut, so r >= 1 remain for the cut
    # level; they are consumed from the front of the order, every fiber but
    # the last taking its full count.  Only the group of equal deficits at
    # the boundary needs its start order before the take; the others get it
    # at the end of the run.
    r = m - (a - b * (t + 1))
    for k in range(cut):
        if C[k] >= r:
            break
        r -= C[k]
    else:
        raise RuntimeError("greedy run accounting failed to place every element")
    lo = hi = k
    while lo and D[lo - 1] == D[k]:
        lo -= 1
    while hi + 1 < cut and D[hi + 1] == D[k]:
        hi += 1
    if hi > lo:
        r += sum(islice(C, lo, k))
        _permute(fibers, lo, sorted(range(lo, hi + 1), key=S.__getitem__))
        for k in range(lo, hi + 1):
            if C[k] >= r:
                break
            r -= C[k]
    if C[k] > r:
        for col, v in zip(fibers, (D[k], S[k] + r, C[k] - r, A[k])):
            col.insert(k + 1, v)
        C[k] = r
        cut += 1
    k += 1
    D[:k] = map(sub, D[:k], repeat(P))

    # the taken fibers now lie one level below the cut: move them behind the
    # rest of the cut level and merge them into the block already there
    floor = (t - 1) * P
    end = _block_end(D, cut, floor) if cut < len(D) and D[cut] >= floor else cut
    for col in fibers:
        col[:cut] = col[k:cut] + col[:k]
    if end > cut:
        _permute(fibers, cut - k, sorted(range(cut - k, end), key=D.__getitem__, reverse=True))

    # put every group of equal deficits in start order; codomain neighbours
    # that now share target and deficit become one fiber
    ties = list(compress(count(1), map(eq, islice(D, 1, end), D)))
    for x in ties:
        while x and D[x] == D[x - 1] and S[x] < S[x - 1]:
            for col in (S, C, A):
                col[x - 1], col[x] = col[x], col[x - 1]
            x -= 1
    for x in reversed(ties):
        if S[x - 1] + C[x - 1] == S[x] and A[x - 1] == A[x]:
            C[x - 1] += C[x]
            for col in fibers:
                del col[x]


def _run_greedy(
    p: Spectrum, q: Spectrum, targets: Optional[list[int]] = None
) -> tuple[Fibers, list[int], int]:
    """Fiber columns (deficits, starts, counts, target atoms) in codomain order
    after every source run, q's probabilities, all scaled by 2**e, and e.

    Given a `targets` list, the kernel steps one source element at a time and
    appends the codomain index each element goes to: the first element of
    the front fiber, which has the largest deficit and, among equal
    deficits, the lowest start.
    """
    e, (ps, qs) = _scaled_atoms(p, q)
    counts = [mult for _, mult in q.atoms]
    fibers = (list(qs), [0, *accumulate(counts[:-1])], counts, list(range(len(qs))))
    for P, (_, mult) in zip(ps, p.atoms):
        if targets is None:
            _assign_run(fibers, P, mult)
            continue
        for _ in range(mult):
            targets.append(fibers[1][0])
            _assign_run(fibers, P, 1)
    S = fibers[1]
    if len(S) > 1:
        _permute(fibers, 0, sorted(range(len(S)), key=S.__getitem__))
    return fibers, qs, e


@dataclass(frozen=True)
class FiberAssignment:
    """Run of codomain elements sharing target mass and assigned mass."""

    target_prob: float
    assigned_mass: float
    count: int

    def to_json_row(self) -> list:
        return [self.target_prob, self.assigned_mass, self.count]


@dataclass(frozen=True)
class MapSynthesisReport:
    """Synthesis outcome: the map (when requested), its pushforward,
    and the variational distance sum_y |q(y) - q~(y)| to the target.

    `assignments` preserves the codomain-label pairing that the sorted
    `pushforward` spectrum forgets; the distance is defined on that pairing.
    """

    target: Spectrum
    pushforward: Spectrum
    achieved_distance: float
    assignments: tuple[FiberAssignment, ...]
    map: Optional[DeterministicMap]

    def __post_init__(self):
        if not 0.0 <= self.achieved_distance <= 2.0 + 1e-11:
            raise ValueError(f"variational distance {self.achieved_distance!r} outside [0, 2]")
        if sum(f.count for f in self.assignments) != self.target.total_dim:
            raise ValueError("assignments do not cover the codomain")
        if self.map is not None and self.map.codomain_size != self.target.total_dim:
            raise ValueError("map codomain does not match target dimension")

    def to_json_dict(self) -> dict:
        return {
            "target": self.target.to_json_dict(),
            "pushforward": self.pushforward.to_json_dict(),
            "achieved_distance": self.achieved_distance,
            "assignments": [f.to_json_row() for f in self.assignments],
            "map": None if self.map is None else self.map.to_json_dict(),
        }


def _report(
    q: Spectrum,
    assignments: tuple[FiberAssignment, ...],
    distance: float,
    map_: Optional[DeterministicMap],
) -> MapSynthesisReport:
    """The report of a map onto q, with the pushforward built from the assignments."""
    push = Spectrum.from_atoms(
        [(a.assigned_mass, a.count) for a in assignments if a.assigned_mass > 0.0], mass_tol=1e-11
    )
    return MapSynthesisReport(
        target=q, pushforward=push, achieved_distance=distance, assignments=assignments, map=map_
    )


def synthesize_map(
    p: Spectrum,
    q: Spectrum,
    *,
    with_map: bool = False,
    max_fibers: int = DEFAULT_MAX_TYPE_CLASSES,
) -> MapSynthesisReport:
    """Greedy largest-deficit assignment of p's expansion onto q's labels.

    Runs in compressed form on F <= k_p + k_q fibers (k_p, k_q the atom
    counts of p and q) kept in deficit order: per source run, O(B·log F)
    bisects for the B level blocks at or above the cut, one big-int
    subtraction per fiber lowered or taken, and a merge of a few sorted
    blocks; no division per fiber.  The report's assignments and distance
    are exact.  The explicit DeterministicMap is built only when with_map is
    set, by one more kernel call per source element; a source expansion
    above DEFAULT_MAX_EXPANDED_DIM then raises a BudgetExceededError.
    """
    if len(p.atoms) + len(q.atoms) > max_fibers:
        raise BudgetExceededError("max_greedy_fibers", len(p.atoms) + len(q.atoms), max_fibers)
    if with_map and p.total_dim > DEFAULT_MAX_EXPANDED_DIM:
        raise BudgetExceededError("max_expanded_dim", p.total_dim, DEFAULT_MAX_EXPANDED_DIM)
    fibers, qs, e = _run_greedy(p, q)
    map_: Optional[DeterministicMap] = None
    if with_map:
        targets: list[int] = []
        if _run_greedy(p, q, targets)[0] != fibers:
            raise RuntimeError("element-stepped and run-wise greedy assignments disagree")
        map_ = DeterministicMap(p.total_dim, tuple(targets), q.total_dim)
    deficits, _, counts, atoms = fibers
    den = 1 << e
    assignments = tuple(
        FiberAssignment(q.atoms[a][0], (qs[a] - d) / den, c) for d, c, a in zip(deficits, counts, atoms)
    )
    return _report(q, assignments, sum(map(abs, map(mul, counts, deficits))) / den, map_)


def brute_force_optimal(
    p: Spectrum,
    q: Spectrum,
    *,
    cap: int = DEFAULT_BRUTE_FORCE_CAP,
) -> MapSynthesisReport:
    """Exhaustive minimum of the variational distance over all deterministic maps.

    Ties resolve to the first optimum in lexicographic target order.  The
    search space is |Y|^|X|; anything above `cap` is rejected.
    """
    nx, ny = p.total_dim, q.total_dim
    total = ny**nx
    if total > cap:
        raise BudgetExceededError("brute_force_cap", total, cap)
    e, (p_sc, q_sc) = _scaled_atoms(p, q)
    xs = []
    for sc, (_, mult) in zip(p_sc, p.atoms):
        xs.extend([sc] * mult)
    q_scaled = []
    q_probs = []
    for sc, (prob, mult) in zip(q_sc, q.atoms):
        q_scaled.extend([sc] * mult)
        q_probs.extend([prob] * mult)
    best_d = None
    best_targets = None
    best_masses = None
    for targets in product(range(ny), repeat=nx):
        masses = [0] * ny
        for x, yy in zip(xs, targets):
            masses[yy] += x
        d = 0
        for qs, mu in zip(q_scaled, masses):
            d += abs(qs - mu)
        if best_d is None or d < best_d:
            best_d, best_targets, best_masses = d, targets, masses
    den = 1 << e
    groups: list[list] = []
    for qs, prob, mu in zip(q_scaled, q_probs, best_masses):
        if groups and groups[-1][0] == qs and groups[-1][1] == mu:
            groups[-1][3] += 1
        else:
            groups.append([qs, mu, prob, 1])
    assignments = tuple(FiberAssignment(prob, mu / den, c) for _, mu, prob, c in groups)
    return _report(q, assignments, best_d / den, DeterministicMap(nx, tuple(best_targets), ny))
