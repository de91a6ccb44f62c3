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

Cost: each of the k_p source runs makes one pass over the F current fibers,
so synthesis takes O(k_p·F) exact big-int steps plus one sort of the fibers
at the cut level per run.  A run splits at most one fiber, so
F <= k_p + k_q, the bound the max_greedy_fibers budget checks up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, product, repeat
from operator import mul
from typing import Optional

from .majorize import DeterministicMap
from .spectra import (
    DEFAULT_MAX_EXPANDED_DIM,
    DEFAULT_MAX_TYPE_CLASSES,
    BudgetExceededError,
    SequenceModel,
    Spectrum,
    _common_exponent,
    _mass_term,
    _scaled,
    generate,
)

DEFAULT_BRUTE_FORCE_CAP = 10**6


# Fiber state is columnar: parallel lists of start index, scaled target,
# scaled deficit and element count, one entry per run of codomain elements.
# Adjacent fibers are contiguous and never share (target, deficit).
def _assign_run(cols: list[list[int]], P: int, m: int) -> None:
    """Assign a run of m source elements of scaled probability P, in place."""
    starts, targets, deficits, counts = cols
    levels = [d // P for d in deficits]

    # Elements of fiber b at level t (one per codomain slot, value t*P + residue,
    # residue in [0, P)) exist for every t <= level_b.  T(t) counts elements at
    # level >= t; the cut level is the largest t with T(t) >= m.  Sweep the
    # distinct levels downwards; between consecutive ones T(t) = a - b*t.
    hist: dict[int, int] = {}
    for lv, c in zip(levels, counts):
        hist[lv] = hist.get(lv, 0) + c
    tops = sorted(hist, reverse=True)
    a = b = 0
    for i, top in enumerate(tops):
        a += hist[top] * (top + 1)
        b += hist[top]
        t = (a - m) // b
        if t >= top:
            t = top
            break
        if i + 1 == len(tops) or t > tops[i + 1]:
            break
    # everything strictly above the cut is consumed outright; that is
    # T(t + 1) < m elements, so r >= 1 remain for the cut level
    r = m - (a - b * (t + 1))
    new = [d - (lv - t) * P if lv > t else d for d, lv in zip(deficits, levels)]

    # the remainder is consumed at the cut level in value order: residue
    # descending, then codomain index ascending (the greedy tie rule, kept by
    # the stable sort); every fiber but the last takes its full count
    eligible = [i for i, lv in enumerate(levels) if lv >= t]
    eligible.sort(key=new.__getitem__, reverse=True)
    for j in eligible:
        new[j] -= P
        if counts[j] >= r:
            break
        r -= counts[j]
    else:
        raise RuntimeError("greedy run accounting failed to place every element")
    cols[2] = deficits = new
    if counts[j] > r:
        starts.insert(j + 1, starts[j] + r)
        targets.insert(j + 1, targets[j])
        deficits.insert(j + 1, deficits[j] + P)
        counts.insert(j + 1, counts[j] - r)
        counts[j] = r
    for i in range(len(deficits) - 1, 0, -1):
        if deficits[i] == deficits[i - 1] and targets[i] == targets[i - 1]:
            counts[i - 1] += counts[i]
            del starts[i], targets[i], deficits[i], counts[i]


def _run_greedy(p: Spectrum, q: Spectrum) -> tuple[list[list[int]], int]:
    """Fiber columns [starts, targets, deficits, counts] after every source run,
    scaled by 2**e, and e."""
    e = _common_exponent(p, q)
    targets = [_scaled(prob, e) for prob, _ in q.atoms]
    counts = [mult for _, mult in q.atoms]
    cols = [[0, *accumulate(counts[:-1])], targets, list(targets), counts]
    for prob, mult in p.atoms:
        _assign_run(cols, _scaled(prob, e), mult)
    return cols, e


def _expanded_greedy(p: Spectrum, q: Spectrum, e: int) -> tuple[list[int], list[int]]:
    """Element-by-element greedy on a max-heap of exact scaled deficits."""
    import heapq

    heap = []
    y = 0
    for prob, mult in q.atoms:
        sc = _scaled(prob, e)
        for _ in range(mult):
            heap.append((-sc, y))
            y += 1
    heapq.heapify(heap)
    targets = []
    for prob, mult in p.atoms:
        sc = _scaled(prob, e)
        for _ in range(mult):
            negd, yy = heapq.heappop(heap)
            targets.append(yy)
            heapq.heappush(heap, (negd + sc, yy))
    deficits = [0] * y
    for negd, yy in heap:
        deficits[yy] = -negd
    return targets, deficits


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
    """Synthesis outcome: the map (when materializable), its pushforward,
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
        recomputed = math.fsum(
            _mass_term(abs(f.target_prob - f.assigned_mass), f.count) for f in self.assignments
        )
        if abs(recomputed - self.achieved_distance) > 1e-12:
            raise ValueError(
                f"achieved_distance {self.achieved_distance!r} does not match "
                f"assignments ({recomputed!r})"
            )
        rebuilt = Spectrum.from_atoms(
            [(f.assigned_mass, f.count) for f in self.assignments if f.assigned_mass > 0.0],
            mass_tol=1e-11,
        )
        if rebuilt.atoms != self.pushforward.atoms:
            raise ValueError("pushforward spectrum does not match assignments")
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


def synthesize_map(
    p: Spectrum,
    q: Spectrum,
    *,
    max_expanded_dim: int = DEFAULT_MAX_EXPANDED_DIM,
    max_fibers: int = DEFAULT_MAX_TYPE_CLASSES,
) -> MapSynthesisReport:
    """Greedy largest-deficit assignment of p's expansion onto q's labels.

    Runs in compressed form in O(k_p·F) exact big-int steps, with
    F <= k_p + k_q fibers (k_p, k_q the atom counts of p and q).  The explicit
    DeterministicMap is materialized only when both expanded dimensions fit
    max_expanded_dim; the report's assignments and distance are exact either
    way.
    """
    if len(p.atoms) + len(q.atoms) > max_fibers:
        raise BudgetExceededError("max_greedy_fibers", len(p.atoms) + len(q.atoms), max_fibers)
    (_, targets, deficits, counts), e = _run_greedy(p, q)
    den = 1 << e
    distance = sum(map(abs, map(mul, counts, deficits))) / den
    assignments = tuple(
        FiberAssignment(t / den, (t - d) / den, c) for t, d, c in zip(targets, deficits, counts)
    )
    push = Spectrum.from_atoms(
        [(a.assigned_mass, a.count) for a in assignments if a.assigned_mass > 0.0],
        mass_tol=1e-11,
    )
    map_: Optional[DeterministicMap] = None
    if p.total_dim <= max_expanded_dim and q.total_dim <= max_expanded_dim:
        targets_x, deficits_x = _expanded_greedy(p, q, e)
        if deficits_x != list(chain.from_iterable(map(repeat, deficits, counts))):
            raise RuntimeError("compressed and expanded greedy assignments disagree")
        map_ = DeterministicMap(p.total_dim, tuple(targets_x), q.total_dim)
    return MapSynthesisReport(
        target=q,
        pushforward=push,
        achieved_distance=distance,
        assignments=assignments,
        map=map_,
    )


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
    e = _common_exponent(p, q)
    xs = []
    for prob, mult in p.atoms:
        xs.extend([_scaled(prob, e)] * mult)
    q_scaled = []
    q_probs = []
    for prob, mult in q.atoms:
        q_scaled.extend([_scaled(prob, e)] * mult)
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
    push = Spectrum.from_atoms(
        [(a.assigned_mass, a.count) for a in assignments if a.assigned_mass > 0.0],
        mass_tol=1e-11,
    )
    return MapSynthesisReport(
        target=q,
        pushforward=push,
        achieved_distance=best_d / den,
        assignments=assignments,
        map=DeterministicMap(nx, tuple(best_targets), ny),
    )


def convergence_experiment(
    source: SequenceModel,
    target: SequenceModel,
    n_grid,
    *,
    max_type_classes: int = DEFAULT_MAX_TYPE_CLASSES,
    max_expanded_dim: int = DEFAULT_MAX_EXPANDED_DIM,
) -> list[tuple[int, float]]:
    """Synthesis distance at each n for generated source/target spectra."""
    out = []
    for n in n_grid:
        ps = generate(source, n, max_type_classes=max_type_classes)
        qs = generate(target, n, max_type_classes=max_type_classes)
        report = synthesize_map(ps, qs, max_expanded_dim=max_expanded_dim)
        out.append((n, report.achieved_distance))
    return out
