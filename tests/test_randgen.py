import gc
import math
import tracemalloc
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, product, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_synthesis_report
from entspec.hermitian import rand_spectrum
from entspec.majorize import DeterministicMap, majorizes, pushforward
from entspec.randgen import (
    MapSynthesisReport,
    _Fibers,
    _assign_run,
    _coalesce,
    _codomain_columns,
    _report,
    _run_greedy,
    brute_force_optimal,
    synthesize_map,
)
from entspec.spectra import (
    DEFAULT_MAX_EXPANDED_DIM,
    IID,
    BudgetExceededError,
    MaxEnt,
    Spectrum,
    _scaled_atoms,
    generate,
    iid_spectrum,
    maxent_rank,
    maxent_spectrum,
)


# the report's own checks, before tests/conftest.py appends its oracle
_PROGRAM_REPORT_CHECKS = MapSynthesisReport.__post_init__


def _probs(*xs):
    return Spectrum.from_probs(list(xs))


def test_uniform_four_to_two_is_exact():
    r = synthesize_map(_probs(0.25, 0.25, 0.25, 0.25), _probs(0.5, 0.5), with_map=True)
    assert r.achieved_distance == 0.0
    assert r.pushforward.atoms == ((0.5, 2),)
    assert r.map is not None


def test_greedy_three_to_two():
    r = synthesize_map(_probs(0.4, 0.3, 0.3), _probs(0.5, 0.5))
    assert abs(r.achieved_distance - 0.2) < 1e-12
    assert r.assignments == ((0.5, 0.4, 1), (0.5, 0.6, 1))


def test_point_mass_to_uniform():
    r = synthesize_map(_probs(1.0), _probs(0.5, 0.5))
    assert r.achieved_distance == 1.0
    assert r.assignments == ((0.5, 1.0, 1), (0.5, 0.0, 1))


def test_brute_force_matches_greedy_on_three_to_two():
    b = brute_force_optimal(_probs(0.4, 0.3, 0.3), _probs(0.5, 0.5))
    assert abs(b.achieved_distance - 0.2) < 1e-12


def test_brute_force_rows_follow_the_greedy_row_rule():
    # codomain neighbours with equal target and equal assigned mass make one row
    p, q = _probs(0.5, 0.5), maxent_spectrum(4)
    want = ((0.25, 0.5, 2), (0.25, 0.0, 2))
    assert brute_force_optimal(p, q).assignments == synthesize_map(p, q).assignments == want


def test_uniform_pair_to_skewed_target():
    r = synthesize_map(_probs(0.5, 0.5), _probs(0.8, 0.2))
    assert abs(r.achieved_distance - 0.4) < 1e-12
    assert r.pushforward.atoms == ((1.0, 1),)
    # greedy stacks both halves on the heavy label; brute force agrees
    b = brute_force_optimal(_probs(0.5, 0.5), _probs(0.8, 0.2))
    assert abs(b.achieved_distance - 0.4) < 1e-12


def test_label_pairing_survives_order_inversion():
    # the heavy source atom overfills the second-heaviest target label, so
    # assigned masses come out non-monotone; the per-label pairing must not
    # be re-sorted before the distance is taken
    r = synthesize_map(_probs(0.39, 0.21, 0.2, 0.2), _probs(0.4, 0.38, 0.22))
    got = r.assignments
    assert len(got) == 3
    assert got[0] == (0.4, 0.39, 1)
    assert abs(got[1][1] - 0.41) < 1e-12 and got[1][0] == 0.38
    assert got[2] == (0.22, 0.2, 1)
    assert abs(r.achieved_distance - 0.06) < 1e-12


def test_brute_force_cap():
    p = iid_spectrum(_probs(0.9, 0.1), 5)
    q = _probs(0.5, 0.5)
    with pytest.raises(BudgetExceededError):
        brute_force_optimal(p, q)


def test_fiber_budget():
    p = iid_spectrum(_probs(0.9, 0.1), 50)
    with pytest.raises(BudgetExceededError):
        synthesize_map(p, _probs(0.5, 0.5), max_fibers=10)


def test_greedy_never_beats_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(60):
        p = rand_spectrum(rng, 5)
        q = rand_spectrum(rng, 3)
        g = synthesize_map(p, q)
        b = brute_force_optimal(p, q)
        assert g.achieved_distance >= b.achieved_distance - 1e-12


def test_materialized_map_reproduces_pushforward():
    rng = np.random.default_rng(8)
    for _ in range(40):
        p = rand_spectrum(rng, 8)
        q = rand_spectrum(rng, 4)
        r = synthesize_map(p, q, with_map=True)
        assert r.map is not None
        assert pushforward(p, r.map).atoms == r.pushforward.atoms


def test_pushforward_always_majorizes_source():
    rng = np.random.default_rng(19)
    for _ in range(60):
        p = rand_spectrum(rng, 8)
        q = rand_spectrum(rng, 4)
        r = synthesize_map(p, q)
        assert majorizes(p, r.pushforward)


def test_compressed_map_without_materialization():
    p = iid_spectrum(_probs(0.9, 0.1), 60)
    q = Spectrum.from_atoms([(2.0 ** -12, 2 ** 12)])
    r = synthesize_map(p, q)
    assert r.map is None
    assert 0.0 <= r.achieved_distance <= 2.0
    assert sum(c for _, _, c in r.assignments) == 2 ** 12


def test_requested_map_above_expansion_budget():
    q = _probs(0.5, 0.5)
    at = Spectrum.from_atoms([(1.0 / DEFAULT_MAX_EXPANDED_DIM, DEFAULT_MAX_EXPANDED_DIM)])
    assert len(synthesize_map(at, q, with_map=True).map.targets) == DEFAULT_MAX_EXPANDED_DIM
    above = Spectrum.from_atoms([(0.5 / DEFAULT_MAX_EXPANDED_DIM, 2 * DEFAULT_MAX_EXPANDED_DIM)])
    for p in (above, iid_spectrum(_probs(0.9, 0.1), 60)):
        with pytest.raises(BudgetExceededError) as exc:
            synthesize_map(p, q, with_map=True)
        assert exc.value.budget == "max_expanded_dim"
        assert synthesize_map(p, q).map is None


def test_report_validation():
    with pytest.raises(ValueError, match="cover"):
        MapSynthesisReport(
            target=_probs(0.5, 0.5),
            pushforward=_probs(1.0),
            achieved_distance=0.5,
            target_probs=(),
            assigned_masses=(),
            counts=(),  # the codomain has two elements
            map=None,
        )
    good = synthesize_map(_probs(0.4, 0.3, 0.3), _probs(0.5, 0.5), with_map=True)
    columns = (good.target_probs, good.assigned_masses, good.counts)
    with pytest.raises(ValueError, match="outside"):
        MapSynthesisReport(good.target, good.pushforward, 2.5, *columns, good.map)
    wide = DeterministicMap(3, (0, 1, 2), 3)
    with pytest.raises(ValueError, match="map codomain"):
        MapSynthesisReport(good.target, good.pushforward, 0.2, *columns, wide)
    with pytest.raises(ValueError, match="differ in length"):
        MapSynthesisReport(good.target, good.pushforward, 0.2, good.target_probs, (), good.counts, None)


def _distances(source, target, n_grid):
    return [synthesize_map(generate(source, n), generate(target, n)).achieved_distance for n in n_grid]


def test_convergence_below_entropy_rate():
    dists = _distances(IID(_probs(0.9, 0.1)), MaxEnt(0.2), (50, 100, 200))
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.1


def test_convergence_above_entropy_rate():
    assert all(d >= 0.5 for d in _distances(IID(_probs(0.9, 0.1)), MaxEnt(0.45), (100, 200)))


def test_convergence_flat_self_is_exact():
    assert _distances(MaxEnt(math.log(2.0)), MaxEnt(math.log(2.0)), (10, 60)) == [0.0, 0.0]


def test_convergence_improves_with_block_length():
    dists = _distances(IID(_probs(0.9, 0.1)), MaxEnt(0.2), (25, 50, 100, 200))
    assert all(b <= a + 0.05 for a, b in zip(dists, dists[1:]))


# The row-wise greedy kernel the columnar ones replaced: it re-sorts every fiber
# twice per source run, allocates one object per fiber and merges in a second
# pass.  Kept as the oracle the deficit-ordered kernel must match bit for bit.
def _dyadic_exponent(x: float) -> int:
    return x.as_integer_ratio()[1].bit_length() - 1


def _scaled(x: float, e: int) -> int:
    num, den = x.as_integer_ratio()
    return num << (e - (den.bit_length() - 1))


def _common_exponent(*spectra):
    return max((_dyadic_exponent(p) for s in spectra for p, _ in s.atoms), default=0)


@dataclass
class _OracleFiber:
    """A run of codomain elements sharing target value and current deficit."""

    start: int
    target_prob: float
    target_scaled: int
    deficit: int
    count: int


def _oracle_assign_run(fibers, p_scaled, m):
    """Assign a run of m source elements of scaled probability p_scaled."""
    P = p_scaled
    levels = [f.deficit // P for f in fibers]

    order = sorted(range(len(fibers)), key=lambda i: -levels[i])
    a = b = 0
    t_star = None
    i = 0
    while i < len(order):
        top = levels[order[i]]
        j = i
        while j < len(order) and levels[order[j]] == top:
            a += fibers[order[j]].count * (top + 1)
            b += fibers[order[j]].count
            j += 1
        t_cand = (a - m) // b
        if t_cand >= top:
            t_star = top
            break
        nxt = levels[order[j]] if j < len(order) else None
        if nxt is None or t_cand > nxt:
            t_star = t_cand
            break
        i = j
    assert t_star is not None

    taken = 0
    for k, f in enumerate(fibers):
        if levels[k] > t_star:
            taken += f.count * (levels[k] - t_star)
    r = m - taken

    extra = {}
    if r > 0:
        eligible = sorted(
            (k for k in range(len(fibers)) if levels[k] >= t_star),
            key=lambda k: (-(fibers[k].deficit - levels[k] * P), fibers[k].start),
        )
        for k in eligible:
            if r <= 0:
                break
            take = min(fibers[k].count, r)
            extra[k] = take
            r -= take
    if r != 0:
        raise RuntimeError("greedy run accounting failed to place every element")

    out = []
    for k, f in enumerate(fibers):
        base = f.deficit - max(0, levels[k] - t_star) * P
        take = extra.get(k, 0)
        if take:
            out.append(_OracleFiber(f.start, f.target_prob, f.target_scaled, base - P, take))
            if take < f.count:
                out.append(_OracleFiber(f.start + take, f.target_prob, f.target_scaled, base, f.count - take))
        else:
            out.append(_OracleFiber(f.start, f.target_prob, f.target_scaled, base, f.count))

    merged = [out[0]]
    for f in out[1:]:
        last = merged[-1]
        if (
            f.target_scaled == last.target_scaled
            and f.deficit == last.deficit
            and f.start == last.start + last.count
        ):
            last.count += f.count
        else:
            merged.append(f)
    return merged


def _oracle_run_greedy(p, q):
    e = _common_exponent(p, q)
    fibers = []
    start = 0
    for prob, mult in q.atoms:
        sc = _scaled(prob, e)
        fibers.append(_OracleFiber(start, prob, sc, sc, mult))
        start += mult
    for prob, mult in p.atoms:
        fibers = _oracle_assign_run(fibers, _scaled(prob, e), mult)
    return fibers, e


def _iid(n):
    return iid_spectrum(_probs(0.6, 0.3, 0.1), n)


def _flat(rate, n):
    return maxent_spectrum(maxent_rank(rate, n))


def _tied(n):
    # dyadic letters: every probability is a power of two, so deficits tie
    # across fibers and codomain neighbours keep meeting at equal deficits
    return iid_spectrum(_probs(0.5, 0.25, 0.25), n)


# concentration onto flat targets (many source runs), dilution from flat
# sources (one run over fibers spread across many levels), a long
# two-letter source, and a tie-heavy concentration
_GRID = [(_iid(n), _flat(0.5, n)) for n in (10, 20, 30)]
_GRID += [(_flat(1.2, n), _iid(n)) for n in (40, 80)]
_GRID += [(iid_spectrum(_probs(0.9, 0.1), 200), _flat(0.2, 200))]
_GRID += [(_tied(30), _flat(0.5, 30))]
_GRID_IDS = ["iid10-flat", "iid20-flat", "iid30-flat", "flat-iid40", "flat-iid80", "iid2x200-flat", "tied30-flat"]


# The element-by-element heap greedy that built requested maps before the
# kernel was stepped one element at a time.  Kept as the oracle the requested
# map must match element for element.
def _expanded_greedy(p: Spectrum, q: Spectrum) -> tuple[list[int], list[int]]:
    """Element-by-element greedy on a max-heap of exact scaled deficits."""
    import heapq

    _, (ps, qs) = _scaled_atoms(p, q)
    heap = []
    y = 0
    for sc, (_, mult) in zip(qs, q.atoms):
        for _ in range(mult):
            heap.append((-sc, y))
            y += 1
    heapq.heapify(heap)
    targets = []
    for sc, (_, mult) in zip(ps, p.atoms):
        for _ in range(mult):
            negd, yy = heapq.heappop(heap)
            targets.append(yy)
            heapq.heappush(heap, (negd + sc, yy))
    deficits = [0] * y
    for negd, yy in heap:
        deficits[yy] = -negd
    return targets, deficits


def _assert_map_matches_heap(p, q):
    """The requested map sends each source element where the heap greedy
    does, and the run-wise fibers expand to the heap's final deficits."""
    targets, deficits = _expanded_greedy(p, q)
    assert synthesize_map(p, q, with_map=True).map.targets == tuple(targets)
    (D, _, C, _), _ = _run_greedy(p, q)
    assert list(chain.from_iterable(map(repeat, D, C))) == deficits


class _Absolute:
    """The adapter through which the white-box tests read the kernel: a
    fiber's (pos, Q), its place inside its target atom's codomain range
    and the atom's scaled probability, becomes (absolute start, atom index),
    so rows read (deficit, count, start, atom) and codomain columns
    (deficits, starts, counts, atoms), as the oracles write them."""

    def __init__(self, q, qs):
        starts = accumulate((mult for _, mult in q.atoms), initial=0)
        self.first = {Q: (s, a) for a, (Q, s) in enumerate(zip(qs, starts))}

    def place(self, pos, Q):
        s, a = self.first[Q]
        return s + pos, a

    def rows(self, rows):
        return [(d, c, *self.place(pos, Q)) for d, c, pos, Q in rows]

    def columns(self, cols):
        D, Pos, C, Q = cols
        S, A = map(list, zip(*map(self.place, Pos, Q)))
        return D, S, C, A


def _assert_matches_oracle(p, q):
    cols, e = _run_greedy(p, q)
    _, (_, qs) = _scaled_atoms(p, q)
    D, S, C, A = _Absolute(q, qs).columns(cols)
    fibers, want_e = _oracle_run_greedy(p, q)
    assert e == want_e
    got = [(s, qs[a], q.atoms[a][0], d, c) for d, s, c, a in zip(D, S, C, A)]
    assert got == [(f.start, f.target_scaled, f.target_prob, f.deficit, f.count) for f in fibers]


def _assert_fiber_invariants(p, q):
    """Step the kernel run by run and check the fiber rows after each, then
    check the coalesced codomain-order output against the last state."""
    e, (ps, qs) = _scaled_atoms(p, q)
    f = _Fibers(q, qs)
    at = _Absolute(q, qs)
    q_starts = [0, *accumulate(mult for _, mult in q.atoms)]
    for runs, (P, (_, mult)) in enumerate(zip(ps, p.atoms), 1):
        before = {s for _, _, s, _ in at.rows(f.rows)}
        _assign_run(f, P, mult)
        D = [d for d, _, _, _ in f.rows]
        starts = [s for _, _, s, _ in at.rows(f.rows)]
        assert len(set(starts) - before) <= 1  # at most one fiber split
        assert len(starts) == len(set(starts))  # a start names one fiber
        assert all(x >= y for x, y in zip(D, D[1:]))  # deficit non-increasing
        rows = sorted((s, c, a) for _, c, s, a in at.rows(f.rows))  # codomain order
        C = [c for _, c, _ in rows]
        assert rows[0][0] == 0 and sum(C) == q.total_dim == f.total and min(C) > 0
        assert all(s + c == s2 for (s, c, _), (s2, _, _) in zip(rows, rows[1:]))
        assert all(q_starts[a] <= s and s + c <= q_starts[a + 1] for s, c, a in rows)
        assert len(f.rows) <= runs + len(q.atoms)  # the fiber bound
    D, S, C, A = at.columns(_run_greedy(p, q)[0])
    assert S == [0, *accumulate(C[:-1])] and sum(C) == q.total_dim and min(C) > 0  # codomain order
    pairs = list(zip(A, D))
    assert all(x != y for x, y in zip(pairs, pairs[1:]))  # nothing left to coalesce
    for d, c, s, a in at.rows(f.rows):
        x = bisect_right(S, s) - 1  # the output fiber holding this one
        assert s + c <= S[x] + C[x] and (A[x], D[x]) == (a, d + f.offset)


def _assert_matches_oracle_after_every_run(p, q):
    """Step the kernel and the row-wise oracle together and compare their
    coalesced codomain-order states after each run, so that a state error a
    later run masks still fails."""
    e, (ps, qs) = _scaled_atoms(p, q)
    assert e == _common_exponent(p, q)
    f = _Fibers(q, qs)
    at = _Absolute(q, qs)
    starts = accumulate((mult for _, mult in q.atoms), initial=0)
    fibers = [_OracleFiber(s, prob, sc, sc, mult) for s, sc, (prob, mult) in zip(starts, qs, q.atoms)]
    for P, (_, mult) in zip(ps, p.atoms):
        _assign_run(f, P, mult)
        fibers = _oracle_assign_run(fibers, P, mult)
        D, S, C, A = at.columns(_codomain_columns(f))
        got = [(s, qs[a], q.atoms[a][0], d, c) for d, s, c, a in zip(D, S, C, A)]
        assert got == [(o.start, o.target_scaled, o.target_prob, o.deficit, o.count) for o in fibers]


@pytest.mark.parametrize("p,q", _GRID, ids=_GRID_IDS)
def test_columnar_kernel_matches_oracle(p, q):
    _assert_matches_oracle(p, q)


@pytest.mark.parametrize("p,q", _GRID, ids=_GRID_IDS)
def test_fiber_invariants(p, q):
    _assert_fiber_invariants(p, q)


@pytest.mark.parametrize("p,q", _GRID, ids=_GRID_IDS)
def test_row_kernel_matches_oracle_after_every_run(p, q):
    _assert_matches_oracle_after_every_run(p, q)


def test_tie_heavy_fiber_count_stays_below_twice_the_coalesced_count():
    # tied30-flat ends with 2 fibers and its coalesced state never holds more
    # than 6; a kernel that coalesces only after the last run carries one
    # fiber per source run, 32 before that pass
    p, q = _GRID[_GRID_IDS.index("tied30-flat")]
    _, (ps, qs) = _scaled_atoms(p, q)
    f = _Fibers(q, qs)
    at = _Absolute(q, qs)
    most = len(q.atoms)
    for P, (_, mult) in zip(ps, p.atoms):
        _assign_run(f, P, mult)
        # fibers left after merging codomain neighbours of one target and deficit
        rows = sorted((s, a, d) for d, _, s, a in at.rows(f.rows))
        most = max(most, 1 + sum(x[1:] != y[1:] for x, y in zip(rows, rows[1:])))
        assert len(f.rows) < 2 * most <= 12


def test_tie_across_level_blocks_takes_lowest_start_first():
    # The first run (1/3) splits the two halves into start 0 at deficit 1/6
    # (level 1 of 1/9) and start 1 at 1/2 (level 4).  The second run (six of
    # 1/9) cuts at level 0 and lowers both blocks onto 1/18, start 1 first in
    # block order; the one element left at the cut must go to start 0.
    p = Spectrum.from_atoms([(1 / 3, 1), (1 / 9, 6)])
    q = Spectrum.from_atoms([(0.5, 2)])
    _assert_matches_oracle(p, q)
    _assert_fiber_invariants(p, q)
    r = synthesize_map(p, q, with_map=True)
    assert r.map.targets == (0, 1, 1, 1, 0, 1, 0)
    _assert_map_matches_heap(p, q)
    assert [(mu, c) for _, mu, c in r.assignments] == [(5 / 9, 1), (4 / 9, 1)]


def test_tied_concentration_map_matches_heap():
    # 3**8 = 6,561 source elements onto rank 55; the run-wise state ends
    # with codomain neighbours at equal deficits, coalesced only at the end
    _assert_map_matches_heap(_tied(8), _flat(0.5, 8))


_TINY = (1 + 2**-52) * 2**-1022  # dyadic exponent 1074, the largest of any normal double


def test_scaled_atoms_scan_past_a_last_atom_with_trailing_zeros():
    # 0.125 has dyadic exponent 3; the common one, 54, comes from 0.3 and 0.2
    q = Spectrum.from_atoms([(0.3, 1), (0.2, 1), (0.125, 4)])
    p = _probs(0.75, 0.25)
    e, (ps, qs) = _scaled_atoms(p, q)
    assert e == _common_exponent(p, q) == 54
    assert ps == [_scaled(x, e) for x, _ in p.atoms] and qs == [_scaled(x, e) for x, _ in q.atoms]


@pytest.mark.parametrize("k", [970, 971, 972, 1022])
@pytest.mark.parametrize("head", [(0.75, 0.25), (1.0,)], ids=["half", "one"])
def test_scaled_atoms_are_exact_past_the_double_range(k, head):
    # (1 + 2**-52) * 2**-k has dyadic exponent e = k + 52, and past e = 1023
    # the head's int p * 2**e outgrows the double range
    q = Spectrum.from_atoms([(0.5, 2), ((1 + 2**-52) * 2.0**-k, 1)])
    p = _probs(*head)
    e, (ps, qs) = _scaled_atoms(p, q)
    assert e == _common_exponent(p, q) == k + 52
    assert ps == [_scaled(x, e) for x, _ in p.atoms] and qs == [_scaled(x, e) for x, _ in q.atoms]


def test_bottom_of_the_normal_range_matches_the_oracles():
    # e = 1074, the largest dyadic exponent of a normal double; the requested
    # map reads every taken (Q, pos) back as a codomain index
    p = Spectrum.from_atoms([(0.375, 2), (0.25, 1), (_TINY, 3)])
    q = Spectrum.from_atoms([(0.5, 1), (0.125, 4), (_TINY, 2)])
    assert _scaled_atoms(p, q)[0] == 1074
    _assert_matches_oracle(p, q)
    _assert_fiber_invariants(p, q)
    _assert_matches_oracle_after_every_run(p, q)
    _assert_map_matches_heap(p, q)
    r = synthesize_map(p, q, with_map=True)
    cols, _ = _run_greedy(p, q)
    _, _, _, A = _Absolute(q, _scaled_atoms(p, q)[1][1]).columns(cols)
    assert r.target_probs == tuple(q.atoms[a][0] for a in A)  # each fiber reads its atom's double


def _traced(fn):
    """fn's result, the bytes it allocates and keeps, and its peak, both
    over the memory traced before it.  A full collection first empties the
    free lists, whose recycled tuples and floats tracemalloc does not see."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - base, peak - base


def _half_and_halved(s):
    """0.5 beside s halved: a head near 1 beside atoms near the bottom of
    the normal range, so e is near 1074 and the head's int has e bits."""
    return Spectrum.from_atoms([(0.5, 1), *((x / 2, m) for x, m in s.atoms)])


@pytest.mark.parametrize(
    "p,q",
    [
        (_flat(1.2, 120), _iid(120)),
        (_probs(0.75, 0.25), _half_and_halved(iid_spectrum(_probs(0.9, 0.1), 400))),
    ],
    ids=["flat-iid120", "half-iid2x400"],
)
def test_scaled_atoms_peaks_at_what_it_returns(p, q):
    # no as_integer_ratio pair is held per atom: holding them all until the
    # ints were built peaked at about three times what is kept
    _, kept, peak = _traced(lambda: _scaled_atoms(p, q))
    assert peak <= 1.1 * kept


def test_synthesis_peaks_below_twice_its_target(monkeypatch):
    # flat R=1.2 onto IID(0.6,0.3,0.1) at n=120: the rows share the target's
    # scaled ints and hold positions, so the greedy's state stays near the size
    # of the target itself (1.70x; absolute starts and atom indices read
    # 2.32x).  The report oracle re-derives every report inside its
    # __post_init__, so here the program's own checks run in the traced call
    # and the oracle after it.
    monkeypatch.setattr(MapSynthesisReport, "__post_init__", _PROGRAM_REPORT_CHECKS)
    p = _flat(1.2, 120)
    q, size, _ = _traced(lambda: _iid(120))
    r, _, peak = _traced(lambda: synthesize_map(p, q))
    check_synthesis_report(r)
    assert peak <= 2.0 * size


@st.composite
def _spectra(draw):
    """Spectra whose multiplicities reach 2**70, probabilities w / sum(w * m)."""
    atom = st.tuples(st.integers(1, 1000), st.integers(1, 2**70))
    pairs = draw(st.lists(atom, min_size=1, max_size=6))
    total = sum(w * m for w, m in pairs)
    return Spectrum.from_atoms([(w / total, m) for w, m in pairs])


@st.composite
def _tied_spectra(draw):
    """Spectra with weights 1-8 and small multiplicities, so that deficits of
    different fibers often coincide."""
    atom = st.tuples(st.integers(1, 8), st.integers(1, 30))
    pairs = draw(st.lists(atom, min_size=1, max_size=8))
    total = sum(w * m for w, m in pairs)
    return Spectrum.from_atoms([(w / total, m) for w, m in pairs])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_spectra(), _spectra())
def test_columnar_kernel_matches_oracle_on_random_pairs(p, q):
    _assert_matches_oracle(p, q)
    _assert_fiber_invariants(p, q)
    _assert_matches_oracle_after_every_run(p, q)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tied_spectra(), _tied_spectra())
def test_columnar_kernel_matches_oracle_on_tied_pairs(p, q):
    _assert_matches_oracle(p, q)
    _assert_fiber_invariants(p, q)
    _assert_matches_oracle_after_every_run(p, q)
    # at most 8 atoms of multiplicity 30: both expansions stay small
    _assert_map_matches_heap(p, q)


def _enumerated_optimum(p: Spectrum, q: Spectrum) -> MapSynthesisReport:
    """The report of the first optimum over every map, enumerated in
    lexicographic target order with itertools.product: the exhaustive search
    brute_force_optimal's branch-and-bound must reproduce."""
    nx, ny = p.total_dim, q.total_dim
    e, (p_sc, q_sc) = _scaled_atoms(p, q)
    xs = [sc for sc, (_, mult) in zip(p_sc, p.atoms) for _ in range(mult)]
    q_scaled = [Q for Q, (_, mult) in zip(q_sc, q.atoms) for _ in range(mult)]
    best_d = best_targets = best_masses = None
    for targets in product(range(ny), repeat=nx):
        masses = [0] * ny
        for x, y in zip(xs, targets):
            masses[y] += x
        d = sum(abs(Q - mu) for Q, mu in zip(q_scaled, masses))
        if best_d is None or d < best_d:
            best_d, best_targets, best_masses = d, targets, masses
    positions = [pos for _, mult in q.atoms for pos in range(mult)]
    deficits = [Q - mu for Q, mu in zip(q_scaled, best_masses)]
    fibers = _coalesce(deficits, positions, [1] * ny, q_scaled)
    return _report(q, fibers, e, DeterministicMap(nx, tuple(best_targets), ny))


@st.composite
def _small_spectra(draw, max_dim):
    """Spectra of expanded dimension up to max_dim: Dirichlet-like floats, or
    rational masses c / total with small counts, whose ties make many maps
    share the optimal distance."""
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_dim))
        total = sum(counts)
        return Spectrum.from_probs([c / total for c in counts])
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=max_dim))
    total = math.fsum(weights)
    return Spectrum.from_atoms([(w / total, 1) for w in weights], mass_tol=1e-9)


def _assert_same_optimum(p, q):
    got, want = brute_force_optimal(p, q), _enumerated_optimum(p, q)
    assert got.achieved_distance == want.achieved_distance
    assert got.map.targets == want.map.targets
    assert (got.target_probs, got.assigned_masses, got.counts) == (want.target_probs, want.assigned_masses, want.counts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_spectra(6), _small_spectra(4))
def test_branch_and_bound_finds_the_enumerated_first_optimum(p, q):
    _assert_same_optimum(p, q)


def test_branch_and_bound_matches_the_enumeration_on_the_suite_draws():
    # the greedy-vs-brute suite's own draws: up to 6 source and 3 target entries
    rng = np.random.default_rng(5)
    for _ in range(300):
        _assert_same_optimum(rand_spectrum(rng, 6), rand_spectrum(rng, 3))


def test_branch_and_bound_keeps_the_first_of_tied_optima():
    # every split of four equal masses onto two equal targets is optimal; the
    # first in lexicographic order sends the first two elements to target 0
    r = brute_force_optimal(maxent_spectrum(4), maxent_spectrum(2))
    assert r.achieved_distance == 0.0 and r.map.targets == (0, 0, 1, 1)
