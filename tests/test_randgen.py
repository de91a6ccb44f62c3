import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entspec.hermitian import rand_spectrum
from entspec.majorize import majorizes, pushforward
from entspec.randgen import (
    MapSynthesisReport,
    _assign_run,
    _run_greedy,
    brute_force_optimal,
    convergence_experiment,
    synthesize_map,
)
from entspec.spectra import (
    IID,
    BudgetExceededError,
    MaxEnt,
    Spectrum,
    _common_exponent,
    _scaled,
    iid_spectrum,
    maxent_rank,
    maxent_spectrum,
)


def _probs(*xs):
    return Spectrum.from_probs(list(xs))


def test_uniform_four_to_two_is_exact():
    r = synthesize_map(_probs(0.25, 0.25, 0.25, 0.25), _probs(0.5, 0.5))
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
        r = synthesize_map(p, q)
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
    r = synthesize_map(p, q, max_expanded_dim=2 ** 11)
    assert r.map is None
    assert 0.0 <= r.achieved_distance <= 2.0
    assert sum(a.count for a in r.assignments) == 2 ** 12


def test_report_validation():
    with pytest.raises(ValueError):
        MapSynthesisReport(
            target=_probs(0.5, 0.5),
            pushforward=_probs(1.0),
            achieved_distance=0.5,  # inconsistent with assignments
            assignments=(),
            map=None,
        )


def test_convergence_below_entropy_rate():
    out = convergence_experiment(IID(_probs(0.9, 0.1)), MaxEnt(0.2), (50, 100, 200))
    dists = [d for _, d in out]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.1


def test_convergence_above_entropy_rate():
    out = convergence_experiment(IID(_probs(0.9, 0.1)), MaxEnt(0.45), (100, 200))
    assert all(d >= 0.5 for _, d in out)


def test_convergence_flat_self_is_exact():
    out = convergence_experiment(MaxEnt(math.log(2.0)), MaxEnt(math.log(2.0)), (10, 60))
    assert out == [(10, 0.0), (60, 0.0)]


def test_convergence_improves_with_block_length():
    out = convergence_experiment(IID(_probs(0.9, 0.1)), MaxEnt(0.2), (25, 50, 100, 200))
    dists = [d for _, d in out]
    assert all(b <= a + 0.05 for a, b in zip(dists, dists[1:]))


# The row-wise greedy kernel the columnar one replaced: it re-sorts every fiber
# twice per source run, allocates one object per fiber and merges in a second
# pass.  Kept as the oracle the columnar kernel must match bit for bit.
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


def _assert_matches_oracle(p, q):
    cols, e = _run_greedy(p, q)
    fibers, want_e = _oracle_run_greedy(p, q)
    assert e == want_e
    assert list(zip(*cols)) == [(f.start, f.target_scaled, f.deficit, f.count) for f in fibers]


def _assert_fiber_invariants(p, q):
    """Step the kernel run by run and check the fiber columns after each."""
    e = _common_exponent(p, q)
    targets = [_scaled(prob, e) for prob, _ in q.atoms]
    counts = [mult for _, mult in q.atoms]
    cols = [[0, *accumulate(counts[:-1])], targets, list(targets), counts]
    for prob, mult in p.atoms:
        before = set(cols[0])
        _assign_run(cols, _scaled(prob, e), mult)
        starts, targets, deficits, counts = cols
        assert len(set(starts) - before) <= 1  # at most one fiber split
        assert starts[0] == 0 and sum(counts) == q.total_dim and min(counts) > 0
        assert all(s + c == s2 for s, c, s2 in zip(starts, counts, starts[1:]))
        pairs = list(zip(targets, deficits))
        assert all(a != b for a, b in zip(pairs, pairs[1:]))
    assert len(cols[0]) <= len(p.atoms) + len(q.atoms)
    assert cols == _run_greedy(p, q)[0]


@pytest.mark.parametrize("p,q", _GRID, ids=_GRID_IDS)
def test_columnar_kernel_matches_oracle(p, q):
    _assert_matches_oracle(p, q)


@pytest.mark.parametrize("p,q", _GRID, ids=_GRID_IDS)
def test_fiber_invariants(p, q):
    _assert_fiber_invariants(p, q)


@st.composite
def _spectra(draw):
    """Spectra whose multiplicities reach 2**70, probabilities w / sum(w * m)."""
    atom = st.tuples(st.integers(1, 1000), st.integers(1, 2**70))
    pairs = draw(st.lists(atom, min_size=1, max_size=6))
    total = sum(w * m for w, m in pairs)
    return Spectrum.from_atoms([(w / total, m) for w, m in pairs])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_spectra(), _spectra())
def test_columnar_kernel_matches_oracle_on_random_pairs(p, q):
    _assert_matches_oracle(p, q)
    _assert_fiber_invariants(p, q)
