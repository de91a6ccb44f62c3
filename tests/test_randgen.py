import math
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entspec.hermitian import rand_spectrum
from entspec.majorize import DeterministicMap, majorizes, pushforward
from entspec.randgen import (
    MapSynthesisReport,
    _assign_run,
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
    _dyadic_exponent,
    _scaled,
    _scaled_atoms,
    generate,
    iid_spectrum,
    maxent_rank,
    maxent_spectrum,
)


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
    got = [(a.target_prob, a.assigned_mass) for a in r.assignments]
    assert got == [(0.5, 0.4), (0.5, 0.6)]


def test_point_mass_to_uniform():
    r = synthesize_map(_probs(1.0), _probs(0.5, 0.5))
    assert r.achieved_distance == 1.0
    assert [(a.target_prob, a.assigned_mass) for a in r.assignments] == [(0.5, 1.0), (0.5, 0.0)]


def test_brute_force_matches_greedy_on_three_to_two():
    b = brute_force_optimal(_probs(0.4, 0.3, 0.3), _probs(0.5, 0.5))
    assert abs(b.achieved_distance - 0.2) < 1e-12


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
    got = [(a.target_prob, a.assigned_mass, a.count) for a in r.assignments]
    assert len(got) == 3
    assert got[0] == (0.4, 0.39, 1)
    assert abs(got[1][1] - 0.41) < 1e-12 and got[1][0] == 0.38
    assert got[2] == (0.22, 0.2, 1)
    assert abs(r.achieved_distance - 0.06) < 1e-12


def test_brute_force_cap():
    p = iid_spectrum(_probs(0.9, 0.1), 5)
    q = _probs(0.5, 0.5)
    with pytest.raises(BudgetExceededError):
        brute_force_optimal(p, q, cap=100)


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
    assert sum(a.count for a in r.assignments) == 2 ** 12


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
            assignments=(),  # the codomain has two elements
            map=None,
        )
    good = synthesize_map(_probs(0.4, 0.3, 0.3), _probs(0.5, 0.5), with_map=True)
    with pytest.raises(ValueError, match="outside"):
        MapSynthesisReport(good.target, good.pushforward, 2.5, good.assignments, good.map)
    wide = DeterministicMap(3, (0, 1, 2), 3)
    with pytest.raises(ValueError, match="map codomain"):
        MapSynthesisReport(good.target, good.pushforward, 0.2, good.assignments, wide)


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


# concentration onto flat targets (many source runs), dilution from flat
# sources (one run over fibers spread across many levels), and a long
# two-letter source
_GRID = [(_iid(n), _flat(0.5, n)) for n in (10, 20, 30)]
_GRID += [(_flat(1.2, n), _iid(n)) for n in (40, 80)]
_GRID += [(iid_spectrum(_probs(0.9, 0.1), 200), _flat(0.2, 200))]
_GRID_IDS = ["iid10-flat", "iid20-flat", "iid30-flat", "flat-iid40", "flat-iid80", "iid2x200-flat"]


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
    (D, _, C, _), _, _ = _run_greedy(p, q)
    assert list(chain.from_iterable(map(repeat, D, C))) == deficits


def _assert_matches_oracle(p, q):
    (D, S, C, A), qs, e = _run_greedy(p, q)
    fibers, want_e = _oracle_run_greedy(p, q)
    assert e == want_e
    got = [(s, qs[a], q.atoms[a][0], d, c) for d, s, c, a in zip(D, S, C, A)]
    assert got == [(f.start, f.target_scaled, f.target_prob, f.deficit, f.count) for f in fibers]


def _assert_fiber_invariants(p, q):
    """Step the kernel run by run and check the fiber state after each."""
    e, (ps, qs) = _scaled_atoms(p, q)
    counts = [mult for _, mult in q.atoms]
    fibers = (list(qs), [0, *accumulate(counts[:-1])], counts, list(range(len(qs))))
    for P, (_, mult) in zip(ps, p.atoms):
        before = set(fibers[1])
        _assign_run(fibers, P, mult)
        D, S, C, A = fibers
        assert len(set(S) - before) <= 1  # at most one fiber split
        assert len({len(col) for col in fibers}) == 1
        order = [(-d, s) for d, s in zip(D, S)]
        assert order == sorted(order)  # deficit descending, start ascending
        rows = sorted(zip(S, C, A, D))  # codomain order
        assert rows[0][0] == 0 and sum(C) == q.total_dim and min(C) > 0
        assert all(s + c == s2 for (s, c, _, _), (s2, *_) in zip(rows, rows[1:]))
        pairs = [(qs[a], d) for _, _, a, d in rows]
        assert all(x != y for x, y in zip(pairs, pairs[1:]))
    assert len(fibers[0]) <= len(p.atoms) + len(q.atoms)
    D, S, C, A = _run_greedy(p, q)[0]
    assert sorted(zip(*fibers)) == sorted(zip(D, S, C, A))


@pytest.mark.parametrize("p,q", _GRID, ids=_GRID_IDS)
def test_columnar_kernel_matches_oracle(p, q):
    _assert_matches_oracle(p, q)


@pytest.mark.parametrize("p,q", _GRID, ids=_GRID_IDS)
def test_fiber_invariants(p, q):
    _assert_fiber_invariants(p, q)


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
    assert [(a.assigned_mass, a.count) for a in r.assignments] == [(5 / 9, 1), (4 / 9, 1)]


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tied_spectra(), _tied_spectra())
def test_columnar_kernel_matches_oracle_on_tied_pairs(p, q):
    _assert_matches_oracle(p, q)
    _assert_fiber_invariants(p, q)
    # at most 8 atoms of multiplicity 30: both expansions stay small
    _assert_map_matches_heap(p, q)
