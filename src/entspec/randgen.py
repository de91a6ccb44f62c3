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

Cost: the F fibers stay sorted by deficit across the k_p source runs, one
immutable row (deficit, count, pos, Q) per fiber in one list, so the
fibers of one level (deficit // P) form a contiguous block.  Q is the target
atom's scaled probability, the very int its fibers' deficits start from, and
pos is the fiber's place in that atom's range of codomain elements (the
shared 0 until a take splits the atom), so a row allocates no index of its
own.  Codomain order is Q descending, then pos ascending.  A run
finds the cut from the blocks at or above it, with one bisect and one
big-int division per block (O(B·log F) for B blocks, no division per
fiber).  It lowers each block above the cut by one amount and the fibers it
takes by one more; in each step the largest group of fibers that moves by
one amount (the fibers that do not move count as one) stays put and one
shared offset records its shift, so with the usual two blocks a run
rebuilds at most F/2 rows per step, one big-int subtraction each.  It then
sorts the rows of the cut level by deficit, which merges the presorted
blocks it lowered there, and moves rows by list slices: O(F) pointer moves
and O(F·log B) comparisons per run, O(k_p·F) over the synthesis while B
stays small (for i.i.d. sources onto flat targets, two or three blocks per
run once F is large).  Fibers of equal deficit stay in any order except the
one group at the boundary of the take, which is put in codomain order there,
the only place the rule reads it.  Codomain neighbours that come to share
target and deficit are coalesced by one sort into codomain order, whenever
the fiber count has doubled since the last coalescing and once more after the
last run.  So a tie-heavy source, whose runs keep splitting fibers that
meet again later at equal deficits, carries fewer than twice the fibers of
its coalesced state, not one more per run.  A run splits at most one fiber,
so F <= k_p + k_q, the bound the max_greedy_fibers budget checks up front.

A DeterministicMap is built only on request (`with_map=True`): the same
kernel is then stepped one source element at a time, one kernel call per
element, each taken (Q, pos) read back as an absolute codomain index, so
its cost grows with the expanded source dimension, which
DEFAULT_MAX_EXPANDED_DIM bounds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, eq, itemgetter, mul, ne, sub, truediv
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

BRUTE_FORCE_CAP = 10**6


class _Fibers:
    """Fiber state between source runs, one fiber per run of codomain
    elements that share target and deficit.

    `rows` holds one immutable row (deficit, count, pos, Q) per fiber in
    deficit-descending order, equal deficits in any order: the stored
    deficit, the element count, the fiber's place inside its target atom's
    codomain range, and the atom's scaled probability Q, the int the
    atom's deficits start from.  Probabilities are distinct across atoms, so
    Q names the atom, and codomain order is (Q descending, pos
    ascending).  Stored deficits are true deficits minus `offset`, so a
    uniform shift of one side of the order can move the other side instead.
    `total` is the codomain size.  Codomain neighbours may share target and
    deficit until the live fiber count reaches twice `coalesced`, the count
    after the last coalescing (`_coalesce_fibers`).
    """

    __slots__ = ("rows", "offset", "coalesced", "total")

    def __init__(self, q: Spectrum, qs: list[int]):
        self.rows = list(zip(qs, map(_count, q.atoms), repeat(0), qs))
        self.offset = 0
        self.coalesced = len(self.rows)
        self.total = q.total_dim


_deficit = itemgetter(0)
_count = itemgetter(1)
_pos = itemgetter(2)
_target = itemgetter(3)


def _descending(row: tuple[int, ...]) -> int:
    """Bisect key of the deficit-descending row order."""
    return -row[0]


def _in_codomain_order(rows) -> list[tuple[int, ...]]:
    """The rows sorted by Q descending, then pos ascending: two stable sorts."""
    rows = sorted(rows, key=_pos)
    rows.sort(key=_target, reverse=True)
    return rows


def _shift(R: list[tuple[int, ...]], i: int, j: int, x: int) -> None:
    """Subtract x from the deficits of rows i to j, one row at a time, so
    each old row is freed before the next new one is made."""
    for k in range(i, j):
        d, c, pos, Q = R[k]
        R[k] = (d - x, c, pos, Q)


def _assign_run(f: _Fibers, P: int, m: int) -> tuple[int, int]:
    """Assign a run of m source elements of scaled probability P, in place.

    Returns (Q, pos) of the first element taken at the cut level: for
    m = 1, the codomain element the one element goes to."""
    R, off = f.rows, f.offset
    n = len(R)

    # Elements of a fiber at level L = deficit // P (one per codomain slot,
    # value t*P + residue, residue in [0, P)) exist for every t <= L.  T(t)
    # counts elements at level >= t; the cut level is the largest t with
    # T(t) >= m.  Equal levels are contiguous blocks of the order: walk them
    # downwards, block x spanning rows bounds[x] to bounds[x + 1].  Over the
    # blocks walked, T(t) = a - b*t, so the cut is (a - m) // b once that
    # lies above the next block's level.
    a = b = i = 0
    L = (R[0][0] + off) // P
    bounds, levels = [0], []
    while True:
        floor = L * P - off
        j = i + 1
        if j < n and R[j][0] >= floor:
            j = bisect_right(R, -floor, j + 1, key=_descending)
        if j == i + 1:
            c = R[i][1]
        else:  # a block that reaches the end holds every element not yet counted
            c = f.total - b if j == n else sum(map(_count, islice(R, i, j)))
        a += c * (L + 1)
        b += c
        bounds.append(j)
        levels.append(L)
        if j == n:
            break
        L = (R[j][0] + off) // P
        if a - m >= b * (L + 1):
            break
        i = j
    t, cut = (a - m) // b, j

    # everything strictly above the cut is consumed outright: lower those
    # blocks to the cut level.  The fibers from `below` on stay where they
    # are.  If the largest lowered block outnumbers them, its shift goes
    # into the offset and every other group moves by the difference.  Then
    # merge the lowered blocks by deficit.
    lowered = len(levels) - (levels[-1] == t)
    x = 0
    if lowered:
        below = bounds[lowered]
        sizes = list(map(sub, bounds[1 : lowered + 1], bounds))
        big = max(sizes)
        if big > n - below:
            x = (levels[sizes.index(big)] - t) * P
            _shift(R, below, n, -x)
            off -= x
    for i, j, L in zip(bounds, bounds[1 : lowered + 1], levels):
        y = (L - t) * P - x
        if j == i + 1:
            d, c, pos, Q = R[i]
            R[i] = (d - y, c, pos, Q)
        elif y:
            _shift(R, i, j, y)
    if len(levels) > 1:
        R[:cut] = sorted(islice(R, cut), key=_deficit, reverse=True)

    # T(t + 1) < m elements lay above the cut, so r >= 1 remain for the cut
    # level; they are consumed from the front of the order, every fiber but
    # the last taking its full count.  The greedy rule breaks deficit ties
    # by lowest codomain index, so the group of equal deficits at the
    # boundary is put in codomain order before the take; no other tie is
    # ever read.
    r = m - (a - b * (t + 1))
    for k, row in enumerate(islice(R, cut)):
        if row[1] >= r:
            break
        r -= row[1]
    else:
        raise RuntimeError("greedy run accounting failed to place every element")
    d = row[0]
    lo = hi = k
    while lo and R[lo - 1][0] == d:
        lo -= 1
    while hi + 1 < cut and R[hi + 1][0] == d:
        hi += 1
    if hi > lo:
        r += sum(map(_count, islice(R, lo, k)))
        R[lo : hi + 1] = _in_codomain_order(islice(R, lo, hi + 1))
        for k in range(lo, hi + 1):
            if R[k][1] >= r:
                break
            r -= R[k][1]
    d, c, pos, Q = R[k]
    if c > r:
        R[k] = (d, r, pos, Q)
        R.insert(k + 1, (d, c - r, pos + r, Q))
        cut += 1
        n += 1
    k += 1

    # the taken fibers now lie one level below the cut: lower them by P (or
    # raise the others into the offset), move them behind the rest of the
    # cut level and merge them into the block already there
    if 2 * k <= n:
        _shift(R, 0, k, P)
    else:
        _shift(R, k, n, -P)
        off -= P
    R[:cut] = R[k:cut] + R[:k]
    floor = (t - 1) * P - off
    if cut < n and R[cut][0] >= floor:
        end = bisect_right(R, -floor, cut + 1, key=_descending)
        R[cut - k : end] = sorted(islice(R, cut - k, end), key=_deficit, reverse=True)
    f.offset = off
    if n >= 2 * f.coalesced:
        _coalesce_fibers(f)
    return Q, pos


def _codomain_columns(f: _Fibers) -> tuple[list[int], ...]:
    """The fiber columns (deficits, positions, counts, Qs) in codomain order,
    each run of neighbours that share target and deficit made one fiber."""
    rows = _in_codomain_order(f.rows)
    off = f.offset
    D = list(map(add, map(_deficit, rows), repeat(off))) if off else list(map(_deficit, rows))
    return _coalesce(D, list(map(_pos, rows)), list(map(_count, rows)), list(map(_target, rows)))


def _coalesce_fibers(f: _Fibers) -> None:
    """Coalesce f's fibers and put them back in deficit order (stable, so
    ties stay in codomain order), with the offset folded in.  Called whenever
    the fiber count doubles, it keeps the count below twice that of the
    coalesced state, at O(log F) amortized comparisons per run."""
    D, Pos, C, Q = _codomain_columns(f)
    f.rows = sorted(zip(D, C, Pos, Q), key=_deficit, reverse=True)
    f.offset = 0
    f.coalesced = len(D)


def _run_greedy(
    p: Spectrum, q: Spectrum, targets: Optional[list[int]] = None
) -> tuple[tuple[list[int], list[int], list[int], list[int]], int]:
    """Fiber columns (deficits, positions, counts, Qs) in codomain order after
    every source run, deficits and Qs scaled by 2**e, and e.

    Codomain neighbours that share target and deficit are one fiber.  Given
    a `targets` list, the kernel steps one source element at a time and
    appends the codomain index each element goes to: its atom's first index
    plus its position.
    """
    e, (ps, qs) = _scaled_atoms(p, q)
    f = _Fibers(q, qs)
    if targets is not None:
        first = dict(zip(qs, accumulate(map(_count, q.atoms), initial=0)))
    del qs  # the rows hold its ints; the list itself is not kept
    for P, (_, mult) in zip(ps, p.atoms):
        if targets is None:
            _assign_run(f, P, mult)
        else:
            for _ in range(mult):
                Q, pos = _assign_run(f, P, 1)
                targets.append(first[Q] + pos)
    return _codomain_columns(f), e


def _coalesce(D: list[int], Pos: list[int], C: list[int], Q: list[int]) -> tuple[list[int], ...]:
    """Codomain-ordered fiber columns (deficits, positions, counts, Qs) with
    each run of neighbours that share target and deficit made one fiber,
    which keeps the first neighbour's entries."""
    cols = (D, Pos, C, Q)
    ties = [x for x in compress(count(1), map(eq, islice(D, 1, None), D)) if Q[x] == Q[x - 1]]
    if not ties:
        return cols
    keep = [True] * len(D)
    for x in reversed(ties):
        C[x - 1] += C[x]
        keep[x] = False
    return tuple(list(compress(col, keep)) for col in cols)


@dataclass(frozen=True)
class MapSynthesisReport:
    """Synthesis outcome: the map (when requested), its pushforward,
    and the variational distance sum_y |q(y) - q~(y)| to the target.

    Three parallel columns hold one entry per fiber, a run of codomain
    elements, in codomain order: the target probability `target_probs`, the
    mass `assigned_masses` assigned to each element of the fiber, and the
    element count `counts`.  They preserve the codomain-label pairing that
    the sorted `pushforward` spectrum forgets; the distance is defined on
    that pairing.  `assignments` zips them into (target_prob, assigned_mass,
    count) rows for the readers that want rows.
    """

    target: Spectrum
    pushforward: Spectrum
    achieved_distance: float
    target_probs: tuple[float, ...]
    assigned_masses: tuple[float, ...]
    counts: tuple[int, ...]
    map: Optional[DeterministicMap]

    def __post_init__(self):
        if not 0.0 <= self.achieved_distance <= 2.0 + 1e-11:
            raise ValueError(f"variational distance {self.achieved_distance!r} outside [0, 2]")
        if not len(self.target_probs) == len(self.assigned_masses) == len(self.counts):
            raise ValueError("fiber columns differ in length")
        if sum(self.counts) != self.target.total_dim:
            raise ValueError("assignments do not cover the codomain")
        if self.map is not None and self.map.codomain_size != self.target.total_dim:
            raise ValueError("map codomain does not match target dimension")

    @property
    def assignments(self) -> tuple[tuple[float, float, int], ...]:
        return tuple(zip(self.target_probs, self.assigned_masses, self.counts))


def _report(
    q: Spectrum, fibers: tuple[list[int], ...], e: int, map_: Optional[DeterministicMap]
) -> MapSynthesisReport:
    """The report of a map onto q from its coalesced fiber columns, deficits
    and Qs scaled by 2**e: the three report columns, the exact distance, and
    the pushforward built from (mass, count) pairs.  Each atom of q covers
    a run of consecutive fibers, over which Q holds, so a fiber's atom index
    is the count of Q changes before it and its target probability is that
    atom's own double; its assigned mass is (Q - deficit) / 2**e, a
    correctly rounded int quotient."""
    deficits, _, counts, qs = fibers
    den = 1 << e
    atoms = accumulate(map(ne, qs, chain(qs[:1], qs)))
    probs = tuple(map(itemgetter(0), map(q.atoms.__getitem__, atoms)))
    masses = tuple(map(truediv, map(sub, qs, deficits), repeat(den)))
    distance = sum(map(abs, map(mul, counts, deficits))) / den
    # an assigned mass is a sum of source probabilities, so never negative;
    # from_atoms drops the fibers of zero mass
    push = Spectrum.from_atoms(zip(masses, counts), mass_tol=1e-11)
    return MapSynthesisReport(
        target=q, pushforward=push, achieved_distance=distance,
        target_probs=probs, assigned_masses=masses, counts=tuple(counts), map=map_,
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
    counts of p and q), one (deficit, count, pos, Q) row each, kept in
    deficit order.  Per source run: O(B·log F) bisects for the B
    level blocks at or above the cut, one rebuilt row and big-int
    subtraction per fiber outside the largest group that moves by one
    amount (one shared offset records that group's shift), one sort of the
    cut level's rows that merges a few presorted blocks, and O(F) pointer
    moves of one row list; no division per fiber, O(k_p·F) in all.  Ties between
    equal deficits are resolved lazily: put in codomain order only at the
    boundary of each take, and codomain neighbours that share target and
    deficit are coalesced whenever the fiber count doubles and after the
    last run.  The report's columns and distance are exact.  The
    explicit DeterministicMap is built only when with_map is set, by one
    more kernel call per source element; a source expansion above
    DEFAULT_MAX_EXPANDED_DIM then raises a BudgetExceededError.
    """
    if len(p.atoms) + len(q.atoms) > max_fibers:
        raise BudgetExceededError("max_greedy_fibers", len(p.atoms) + len(q.atoms), max_fibers)
    if with_map and p.total_dim > DEFAULT_MAX_EXPANDED_DIM:
        raise BudgetExceededError("max_expanded_dim", p.total_dim, DEFAULT_MAX_EXPANDED_DIM)
    fibers, e = _run_greedy(p, q)
    map_: Optional[DeterministicMap] = None
    if with_map:
        targets: list[int] = []
        if _run_greedy(p, q, targets)[0] != fibers:
            raise RuntimeError("element-stepped and run-wise greedy assignments disagree")
        map_ = DeterministicMap(p.total_dim, tuple(targets), q.total_dim)
    return _report(q, fibers, e, map_)


def brute_force_optimal(p: Spectrum, q: Spectrum) -> MapSynthesisReport:
    """Exact minimum of the variational distance over all deterministic maps.

    Ties resolve to the first optimum in lexicographic target order.  A
    depth-first branch-and-bound over codomain loads visits the maps in
    that order, the source elements in expansion order, each tried on
    targets 0, 1, ...  After each placement the distance of every
    completion is at least the overshoot (load above target, summed) plus
    |positive deficit - remaining source mass|, in exact ints over 2**e; a
    branch whose bound is not below the best distance so far holds no
    earlier optimum and is skipped.  At a complete map the bound is its
    distance.  The search space is |Y|^|X|; anything above BRUTE_FORCE_CAP
    maps raises a BudgetExceededError naming the `brute_force_cap` budget.
    """
    nx, ny = p.total_dim, q.total_dim
    total = ny**nx
    if total > BRUTE_FORCE_CAP:
        raise BudgetExceededError("brute_force_cap", total, BRUTE_FORCE_CAP)
    e, (p_sc, q_sc) = _scaled_atoms(p, q)
    xs = [sc for sc, (_, mult) in zip(p_sc, p.atoms) for _ in range(mult)]
    q_scaled = [Q for Q, (_, mult) in zip(q_sc, q.atoms) for _ in range(mult)]
    # with the loads' overshoot o, the positive deficit less the unplaced
    # mass is o + c for the constant c = total target - total source mass
    c = sum(q_scaled) - sum(xs)
    gaps = q_scaled[:]  # target minus load, per codomain element
    targets = [-1] * nx
    over = [0] * nx  # over[i]: the overshoot before element i is placed
    best_d = best_targets = best_gaps = None
    i = 0
    while i >= 0:
        x, y = xs[i], targets[i]
        if y >= 0:
            gaps[y] += x
        y += 1
        if y == ny:
            targets[i] = -1
            i -= 1
            continue
        targets[i] = y
        g = gaps[y]
        gaps[y] = g - x
        o = over[i] + (x if g <= 0 else x - g if g < x else 0)
        bound = o + abs(o + c)
        if best_d is not None and bound >= best_d:
            continue
        if i + 1 < nx:
            i += 1
            over[i] = o
        else:
            best_d, best_targets, best_gaps = bound, tuple(targets), gaps[:]
    # one fiber per codomain element, coalesced as the greedy's are
    positions = [pos for _, mult in q.atoms for pos in range(mult)]
    fibers = _coalesce(best_gaps, positions, [1] * ny, q_scaled)
    return _report(q, fibers, e, DeterministicMap(nx, best_targets, ny))
