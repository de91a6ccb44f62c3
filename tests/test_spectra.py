import gc
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from operator import itemgetter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entspec.convert import direct_convert
from entspec.hermitian import verify_product_tails
from entspec.infospec import cdf_selfinfo, entropy_proxies
from entspec.spectra import (
    IID,
    MASS_TOL,
    MERGE_RTOL,
    AmplitudeMatrix,
    BudgetExceededError,
    Explicit,
    MaxEnt,
    MaxEntExplicit,
    Mixture,
    Spectrum,
    cumulative_mass,
    entropy,
    expand,
    generate,
    iid_spectrum,
    load_model,
    maxent_rank,
    maxent_spectrum,
    schmidt_from_amplitudes,
    _integer,
    _normal_spectrum,
    _real,
    _type_classes,
)

from dense_oracle import rand_unitary

R = 1.0 / math.sqrt(2.0)


def test_schmidt_bell_state():
    s = schmidt_from_amplitudes([[R, 0.0], [0.0, R]])
    assert len(s.atoms) == 1
    p, m = s.atoms[0]
    assert m == 2
    assert abs(p - 0.5) < 1e-14
    assert abs(entropy(s) - math.log(2.0)) < 1e-12


def test_schmidt_product_state():
    s = schmidt_from_amplitudes([[1.0, 0.0], [0.0, 0.0]])
    assert s.atoms == ((1.0, 1),)
    assert entropy(s) == 0.0


def test_schmidt_diagonal():
    s = schmidt_from_amplitudes([[math.sqrt(0.9), 0.0], [0.0, math.sqrt(0.1)]])
    assert len(s.atoms) == 2
    assert abs(s.atoms[0][0] - 0.9) < 1e-14
    assert abs(s.atoms[1][0] - 0.1) < 1e-14


def test_schmidt_rejects_unnormalized():
    with pytest.raises(ValueError):
        AmplitudeMatrix([[1.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize(
    "call",
    [
        lambda n: direct_convert(Spectrum.from_probs([1.0]), Spectrum.from_probs([1.0]), n),
        lambda n: cdf_selfinfo(Spectrum.from_probs([0.9, 0.1]), n, 0.1),
        lambda n: verify_product_tails(Spectrum.from_probs([0.9, 0.1]), Spectrum.from_probs([1.0]), n, 0.1),
        lambda n: iid_spectrum(Spectrum.from_probs([0.9, 0.1]), n),
        lambda n: maxent_rank(0.5, n),
        lambda n: generate(MaxEnt(0.5), n),
    ],
    ids=["direct_convert", "cdf_selfinfo", "verify_product_tails", "iid_spectrum", "maxent_rank", "generate"],
)
@pytest.mark.parametrize("n", [0, -1])
def test_block_length_below_one_is_rejected(call, n):
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        call(n)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: generate(object(), 1), TypeError, "^unknown sequence model <object object at"),
        (lambda: AmplitudeMatrix([0.6, 0.8]), ValueError,
         r"^amplitude matrix must be 2-D and nonempty, got shape \(2,\)$"),
    ],
    ids=["unknown-model", "1d-amplitudes"],
)
def test_malformed_spectrum_inputs_are_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_schmidt_rejects_non_finite_amplitudes():
    # a NaN used to pass the norm check and fail later inside the SVD
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not normalized"):
            AmplitudeMatrix([[bad, 0.0], [0.0, 1.0]])


def test_schmidt_unitary_invariance():
    rng = np.random.default_rng(11)
    c = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    c /= np.sqrt(np.sum(np.abs(c) ** 2))
    base = schmidt_from_amplitudes(c)
    for k in range(5):
        u = rand_unitary(rng, 3)
        v = rand_unitary(rng, 4)
        rotated = schmidt_from_amplitudes(u @ c @ v)
        got = expand(rotated)
        want = expand(base)
        assert len(got) == len(want)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8


def test_iid_uniform_base_stays_uniform():
    s = iid_spectrum(Spectrum.from_atoms([(0.5, 2)]), 3)
    assert s.atoms == ((0.125, 8),)


def test_iid_binomial_n2():
    s = iid_spectrum(Spectrum.from_probs([0.9, 0.1]), 2)
    assert len(s.atoms) == 3
    (p0, m0), (p1, m1), (p2, m2) = s.atoms
    assert (m0, m1, m2) == (1, 2, 1)
    assert abs(p0 - 0.81) < 1e-15 and abs(p1 - 0.09) < 1e-15 and abs(p2 - 0.01) < 1e-15


def test_iid_large_n_binomial_identity():
    s = iid_spectrum(Spectrum.from_probs([0.9, 0.1]), 200)
    assert len(s.atoms) == 201
    assert abs(math.fsum(p * m for p, m in s.atoms) - 1.0) < 1e-9
    assert s.total_dim == 2 ** 200


def test_iid_entropy_additivity():
    base = Spectrum.from_probs([0.6, 0.3, 0.1])
    for n in (1, 2, 5, 9):
        assert abs(entropy(iid_spectrum(base, n)) - n * entropy(base)) < 1e-9


def test_iid_budget_rejection():
    base = Spectrum.from_probs([0.4, 0.3, 0.2, 0.1])
    with pytest.raises(BudgetExceededError) as err:
        iid_spectrum(base, 100, max_type_classes=50)
    assert "max_type_classes" in str(err.value)


def test_iid_underflow_beyond_mass_tolerance_is_a_budget():
    base = Spectrum.from_probs([0.9, 0.1])
    # at n = 1200 the type classes below the smallest normal double carry
    # about 1.1e-34 (mpmath), so the spectrum is kept without them
    kept = iid_spectrum(base, 1200)
    assert len(kept.atoms) < 1201 and abs(math.fsum(p * m for p, m in kept.atoms) - 1.0) < 1e-12
    # at n = 2000 they carry about 0.0257 (8.0e-4 of it in classes that
    # underflow to zero)
    with pytest.raises(BudgetExceededError) as err:
        iid_spectrum(base, 2000)
    assert err.value.budget == "iid_underflow_mass"
    assert 0.025 < err.value.needed < 0.027


def test_one_atom_iid_base_builds_no_power_table():
    # the one-atom class used to be read from a table of n + 1 powers: 30 MB at n = 10**6
    tracemalloc.start()
    try:
        s = iid_spectrum(Spectrum.from_probs([1.0]), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.atoms == ((1.0, 1),) and peak < 1 << 20


def test_one_atom_class_below_the_normal_doubles_builds_no_multiplicity():
    # 0.5**(10**8) underflows to 0.0, so iid_spectrum names the lost mass
    # before its class, of multiplicity 2**(10**8), is ever made
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            iid_spectrum(Spectrum.from_atoms([(0.5, 2)]), 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.budget == "iid_underflow_mass" and err.value.needed == 1.0
    assert peak < 1 << 20


def test_iid_fails_before_enumerating_only_once_the_top_class_underflows():
    # 0.5**1022 is the smallest normal double itself: its one class is kept
    half = Spectrum.from_atoms([(0.5, 2)])
    assert iid_spectrum(half, 1022).atoms == ((sys.float_info.min, 2**1022),)
    with pytest.raises(BudgetExceededError) as err:
        iid_spectrum(half, 1023)
    assert (err.value.budget, err.value.needed, err.value.limit) == ("iid_underflow_mass", 1.0, MASS_TOL)


def test_iid_holds_no_class_it_drops():
    # all 10,001 type classes underflow to 0.0 (0.6**10000 ~ e**-5108), with
    # multiplicities of up to ~10,000 bits: read as they are made, each is
    # freed once dropped, so the peak is the generator's power tables (641 KB
    # traced on x86_64), not the ~11 MB the classes would hold in one list.
    # iid_spectrum itself fails before enumerating them, as the top class
    # underflows, so the generator is fed to _normal_spectrum directly
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            _normal_spectrum(_type_classes(Spectrum.from_probs([0.6, 0.4]), 10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.budget == "iid_underflow_mass" and err.value.needed == 1.0
    assert peak < 2 << 20


def test_normal_spectrum_names_the_underflow_budget_only_after_a_drop():
    # nothing was dropped, so from_atoms's mass error stands
    with pytest.raises(ValueError, match="spectrum mass 0.5 deviates"):
        _normal_spectrum([(0.5, 1)])
    with pytest.raises(BudgetExceededError) as err:
        _normal_spectrum([(0.5, 1), (1e-320, 1)])
    assert err.value.budget == "iid_underflow_mass" and err.value.needed == 0.5
    assert _normal_spectrum([(1.0, 1), (1e-320, 1)]).atoms == ((1.0, 1),)


def test_normal_spectrum_keeps_what_from_atoms_keeps():
    # the pairs leave 1.49e-12 of the mass beyond the dropped one, but merge
    # into one atom of mass 1 - 0.5e-12: from_atoms builds it, as it builds
    # the same atoms read from a model file
    h = (1.0 - 0.5e-12) / 1000
    pairs = [(h, 1), (h * (1 - 0.99e-12), 999), (1e-320, 1)]
    assert 1.0 - math.fsum(p * m for p, m in pairs[:2]) > MASS_TOL
    s = _normal_spectrum(pairs)
    assert s.atoms == ((h, 1000),) and s == Spectrum.from_atoms(pairs[:2])


def test_iid_drops_subnormal_atoms():
    # at n = 1500, IID(0.9, 0.1) has 17 type classes whose probability is
    # subnormal; the last was stored as 5e-324, which put its rate 1.7e-4 nats
    # below the exact one
    n = 1500
    s = iid_spectrum(Spectrum.from_probs([0.9, 0.1]), n)
    assert min(p for p, _ in s.atoms) >= sys.float_info.min
    # the eps = 1 proxy is the rate of the last kept type class, k copies of 0.9
    p_last = s.atoms[-1][0]
    k = round((math.log(p_last) - n * math.log(0.1)) / (math.log(0.9) - math.log(0.1)))
    exact = -(k * math.log(0.9) + (n - k) * math.log(0.1)) / n
    lower, _ = entropy_proxies(s, n, [1.0])[0]
    assert abs(lower - exact) < 1e-12


# The recursive enumeration iid_spectrum replaced: one composition tuple and
# one math.comb per letter per type class.  Kept as the oracle the flat loops
# must match bit for bit.
def _compositions(n: int, k: int):
    # all k-tuples of nonnegative ints summing to n, first coordinate descending
    if k == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _multinomial(n: int, counts) -> int:
    out = 1
    rem = n
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


def _oracle_iid_spectrum(base: Spectrum, n: int) -> Spectrum:
    k = len(base.atoms)
    n_classes = math.comb(n + k - 1, k - 1)
    pairs = []
    for comp in _compositions(n, k):
        prob = 1.0
        mult = _multinomial(n, comp)
        for (pv, pm), c in zip(base.atoms, comp):
            if c:
                prob *= pv**c
                if pm != 1:
                    mult *= pm**c
        if prob >= sys.float_info.min:
            pairs.append((prob, mult))
    if len(pairs) < n_classes:
        lost = 1.0 - math.fsum(p * m for p, m in pairs)
        if abs(lost) > MASS_TOL:
            raise BudgetExceededError("iid_underflow_mass", lost, MASS_TOL)
    return Spectrum.from_atoms(pairs)


def _generated(gen, base: Spectrum, n: int):
    try:
        s = gen(base, n)
    except BudgetExceededError as exc:
        return exc.budget, exc.needed
    return [(p.hex(), m) for p, m in s.atoms], s.total_dim


# n stays where the oracle enumerates a few thousand classes at most
_MAX_N = {1: 60, 2: 60, 3: 60, 4: 30, 5: 16}


@st.composite
def _iid_cases(draw):
    k = draw(st.integers(1, 5))
    # weights down to 1e-9 put the far classes below the smallest normal
    # double, so the drop rule runs too
    weights = draw(st.lists(st.floats(1e-9, 1.0), min_size=k, max_size=k))
    mults = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    total = math.fsum(w * m for w, m in zip(weights, mults))
    base = Spectrum.from_atoms([(w / total, m) for w, m in zip(weights, mults)])
    return base, draw(st.integers(1, _MAX_N[k]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_iid_cases())
@example((Spectrum.from_atoms([(0.25, 2), (0.1, 4), (0.05, 2)]), 30))
@example((Spectrum.from_probs([1.0 - 1e-9, 1e-9]), 60))
def test_iid_spectrum_matches_enumeration_oracle(case):
    base, n = case
    assert _generated(iid_spectrum, base, n) == _generated(_oracle_iid_spectrum, base, n)


@pytest.mark.parametrize(
    "probs, n", [((0.6, 0.3, 0.1), 150), ((0.9, 0.1), 1200), ((0.9, 0.1), 1500), ((0.9, 0.1), 2000)]
)
def test_iid_spectrum_matches_oracle_at_benchmark_sizes(probs, n):
    # at n = 2000 both raise the underflow budget with the same lost mass
    base = Spectrum.from_probs(list(probs))
    got = _generated(iid_spectrum, base, n)
    assert got == _generated(_oracle_iid_spectrum, base, n)
    assert (got[0] == "iid_underflow_mass") == (n == 2000)


def test_maxent_spectrum():
    assert maxent_spectrum(1).atoms == ((1.0, 1),)
    assert maxent_spectrum(4).atoms == ((0.25, 4),)
    with pytest.raises(ValueError):
        maxent_spectrum(0)


def test_maxent_rank_budget_keeps_normal_doubles():
    # 1/rank stays a normal double up to rank 2**1022; beyond it the flat
    # spectrum is a named budget, not an OverflowError from 1.0 / rank
    assert maxent_spectrum(2**1022).atoms == ((2.0**-1022, 2**1022),)
    for rank in (2**1022 + 1, 10**400):
        with pytest.raises(BudgetExceededError) as exc:
            maxent_spectrum(rank)
        assert exc.value.budget == "max_maxent_rank"


def test_maxent_rank_ceiling():
    assert maxent_rank(0.2, 10) == 8  # ceil(e^2)
    # exact powers must not be bumped by exp dust
    ln2 = math.log(2.0)
    for n in range(1, 31):
        assert maxent_rank(ln2, n) == 2 ** n


def test_maxent_rank_rejects_rates_that_are_not_finite_and_nonnegative():
    assert maxent_rank(0.0, 10) == maxent_rank(-0.0, 10) == 1
    with pytest.raises(ValueError, match="rate must be a number, got nan"):
        maxent_rank(math.nan, 10)
    for rate in (math.inf, -math.inf, -1e-300, -5.0):
        with pytest.raises(ValueError, match="rate must be finite and nonnegative"):
            maxent_rank(rate, 10)
    with pytest.raises(BudgetExceededError) as exc:
        maxent_rank(70.1, 10)
    assert exc.value.budget == "max_maxent_exponent"


def test_generate_mixture_merges_atoms():
    mx = Mixture(
        (
            (0.5, IID(Spectrum.from_probs([0.9, 0.1]))),
            (0.5, IID(Spectrum.from_atoms([(0.5, 2)]))),
        )
    )
    assert generate(mx, 1).atoms == ((0.45, 1), (0.25, 2), (0.05, 1))
    assert abs(math.fsum(p * m for p, m in generate(mx, 6).atoms) - 1.0) < 1e-12


def test_mixture_drops_subnormal_atoms():
    # a weight of 1e-15 puts 16 of IID(0.9, 0.1)'s type classes at n = 1400
    # below the smallest normal double; kept, the smallest (4e-323) put the
    # eps = 1 proxy 1.8e-5 nats off its exact rate
    n = 1400
    iid = IID(Spectrum.from_probs([0.9, 0.1]))
    w = 0.000000000000001
    assert sum(w * p < sys.float_info.min for p, _ in generate(iid, n).atoms) == 16
    s = generate(Mixture(((w, iid), (0.999999999999999, MaxEnt(0.3)))), n)
    assert min(p for p, _ in s.atoms) >= sys.float_info.min
    # the eps = 1 proxy is the rate of the last kept atom, w times a class
    # with k copies of 0.9
    p_last = s.atoms[-1][0]
    k = round((math.log(p_last / w) - n * math.log(0.1)) / (math.log(0.9) - math.log(0.1)))
    with mpmath.workprec(200):
        exact = -(mpmath.log(w) + k * mpmath.log(0.9) + (n - k) * mpmath.log(0.1)) / n
    lower, _ = entropy_proxies(s, n, [1.0])[0]
    assert abs(lower - float(exact)) < 1e-12


def test_generate_explicit_indexing():
    s1 = Spectrum.from_probs([1.0])
    s2 = Spectrum.from_atoms([(0.5, 2)])
    model = Explicit((s1, s2))
    assert generate(model, 2) is s2
    with pytest.raises(ValueError):
        generate(model, 3)


def test_generate_maxent_ln2():
    s = generate(MaxEnt(math.log(2.0)), 5)
    assert s.atoms == ((1.0 / 32.0, 32),)


def test_generate_maxent_explicit():
    model = MaxEntExplicit((2, 4, 6))
    assert generate(model, 3).atoms == ((1.0 / 6.0, 6),)
    with pytest.raises(ValueError, match="explicit rank list has 3 entries, asked for n=4"):
        generate(model, 4)


def test_entropy_examples():
    assert abs(entropy(Spectrum.from_atoms([(0.5, 2)])) - math.log(2.0)) < 1e-15
    assert entropy(Spectrum.from_probs([1.0])) == 0.0
    got = entropy(Spectrum.from_probs([0.9, 0.1]))
    assert abs(got - 0.3250829733914482) < 1e-12


def test_from_atoms_validation():
    nan = float("nan")
    for pairs, match in (
        ([(nan, 1)], "nonnegative"),
        ([(-0.1, 1), (1.0, 1)], "nonnegative"),
        ([(1.0, 0.5)], "positive integer"),
        ([(1.0, True)], "positive integer"),
        ([(1.0, 0)], "must be positive"),
        ([(0.0, 3)], "no positive atoms"),
        ([(0.5, 1)], "deviates from 1"),
        ([(0.5, 2), (0.1, 1)], "deviates from 1"),
    ):
        with pytest.raises(ValueError, match=match):
            Spectrum.from_atoms(pairs)
    # an integer-valued float multiplicity is taken as that int
    s = Spectrum.from_atoms([(0.5, 2.0)])
    assert s.atoms == ((0.5, 2),) and type(s.atoms[0][1]) is int


def test_from_atoms_merges_and_sorts():
    s = Spectrum.from_atoms([(0.25, 1), (0.5, 1), (0.25, 1)])
    assert s.atoms == ((0.5, 1), (0.25, 2))
    assert s.total_dim == 3
    # a run merges within MERGE_RTOL of its first value, not of its last:
    # x(1 - 1.2e-12) is 0.6e-12 below its neighbour but 1.2e-12 below x
    x = 1.0 / 3.0
    s = Spectrum.from_atoms([(x * (1 - 1.2e-12), 1), (x, 1), (x * (1 - 0.6e-12), 1)])
    assert s.atoms == ((x, 2), (x * (1 - 1.2e-12), 1))


def test_from_atoms_mass_beyond_float_range():
    # a subnormal atom is dropped, so a spectrum of nothing else has no atoms
    # left; a normal one whose multiplicity leaves the double range has a
    # mass that fails the check
    with pytest.raises(ValueError, match="no positive atoms of normal probability"):
        Spectrum.from_atoms([(2.0**-1070, 2**1070)])
    with pytest.raises(ValueError, match="spectrum mass inf deviates from 1"):
        Spectrum.from_atoms([(0.5, 10**400)])


def test_from_atoms_drops_subnormal_atoms():
    assert Spectrum.from_atoms([(1.0, 1), (5e-324, 1)]).atoms == ((1.0, 1),)
    assert Spectrum.from_atoms([(1.0, 1), (2.0**-1070, 3)]).total_dim == 1
    # the dropped mass counts against the tolerance
    with pytest.raises(ValueError, match="deviates from 1"):
        Spectrum.from_atoms([(0.5, 1), (2.0**-1070, 2**1069)])


_TINY_PROBS = [0.0, 5e-324, 2.0**-1070, 2.0**-1030, sys.float_info.min, 2.0**-1000, 1e-300, 1e-20, 0.01]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from(_TINY_PROBS), st.integers(1, 9), st.integers(2, 30)),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),
)
def test_from_atoms_result_has_normal_atoms_and_finite_mass_terms(small, overflow):
    # atoms of mass about k * 10**-e each (huge counts on tiny probabilities),
    # one head atom that brings the total to 1, and perhaps an atom whose
    # count leaves the double range
    pairs = [(p, max(1, int(Fraction(k, 10**e) / Fraction(p))) if p else 2**1100) for p, k, e in small]
    left = 1 - sum(Fraction(p) * m for p, m in pairs)
    pairs.append((float(left), 1))
    if overflow:
        pairs.append((0.5, 2**1030))
    dropped = sum(Fraction(p) * m for p, m in pairs if p < sys.float_info.min)
    try:
        s = Spectrum.from_atoms(pairs)
    except ValueError as exc:
        assert "deviates from 1" in str(exc)
        assert overflow or dropped > 1e-13
        return
    assert not overflow and dropped < 1e-11
    assert all(p >= sys.float_info.min and math.isfinite(p * m) for p, m in s.atoms)


# Spectrum.from_atoms as it was before it summed in input order: the body
# verbatim.  It reads every input into a new list and sorts that list in place.
def _from_atoms_oracle(cls, pairs, *, mass_tol=MASS_TOL):
    cleaned = []
    tiny = sys.float_info.min
    for pair in pairs:
        p, m = pair
        if type(p) is not float or type(m) is not int or type(pair) is not tuple:
            # a (float, int) tuple is kept as it is; anything else is read into one
            pair = p, m = _real(p, "probability"), _integer(m, "multiplicity")
        if m <= 0:
            raise ValueError(f"multiplicity must be positive, got {m}")
        if p >= tiny:
            cleaned.append(pair)
        elif not p >= 0.0:  # NaN or negative; zero and subnormal atoms are dropped
            raise ValueError(f"probability must be nonnegative, got {p!r}")
    if not cleaned:
        raise ValueError("spectrum has no positive atoms of normal probability")
    cleaned.sort(key=itemgetter(0), reverse=True)
    # one pass: a run of values within MERGE_RTOL of its first (largest)
    # value becomes one atom at that value; a run of one keeps its pair
    merged = []
    run = iter(cleaned)
    first = next(run)
    head, mult = first
    tol = MERGE_RTOL * head
    for pair in run:
        p, m = pair
        if head - p <= tol:
            mult += m
            first = None
        else:
            merged.append(first or (head, mult))
            first = pair
            head, mult = pair
            tol = MERGE_RTOL * head
    merged.append(first or (head, mult))
    del cleaned, run  # free the sorted list before the atoms tuple is built
    try:
        mass = math.fsum(p * m for p, m in merged)
    except OverflowError:  # a multiplicity beyond the double range
        mass = math.inf
    if abs(mass - 1.0) > mass_tol:
        raise ValueError(f"spectrum mass {mass!r} deviates from 1 beyond tolerance {mass_tol}")
    return cls(atoms=tuple(merged), total_dim=sum(m for _, m in merged))


# relative steps down a chain of near-tied probabilities, around MERGE_RTOL:
# two 0.6e-12 steps put a value within tolerance of the run's last value but
# not of its first
_TIE_STEPS = [0.0, 0.3e-12, 0.6e-12, 0.9e-12, 1e-12, 1.1e-12, 2e-12]
_DROPPED_PROBS = [0.0, -0.0, 5e-324, 2.0**-1070, 2.0**-1030]
_BAD_PROBS = [math.nan, -0.1, -5e-324, -math.inf, math.inf]
# (probability, multiplicity) whose mass term leaves the double range
_HUGE_PAIRS = [(0.5, 10**400), (sys.float_info.min, 2**1100), (1e-300, 2**1030)]
_BAD_MULTS = [0, -3, 0.5, 2.5, True, False, math.nan]


@st.composite
def _pair_lists(draw):
    """Pair lists of mass near 1: weights over their total, each atom split
    into a chain of near-ties, shuffled, then a few pairs changed or added
    that are read, dropped or rejected.  Some are scaled off mass 1, so the
    failure message prints a mass summed over merged atoms."""
    k = draw(st.integers(1, 8))
    weights = draw(st.lists(st.integers(1, 1000), min_size=k, max_size=k))
    mults = draw(st.lists(st.integers(1, 40), min_size=k, max_size=k))
    total = sum(w * m for w, m in zip(weights, mults)) / draw(st.sampled_from([1.0, 1.0, 1.0, 1 + 3e-12, 1.5]))
    pairs = []
    for w, m in zip(weights, mults):
        p = w / total
        parts = draw(st.integers(1, min(m, 4)))
        step = 0.0
        for j in range(parts):
            pairs.append((p * (1 - step), m - parts + 1 if j == 0 else 1))
            step += draw(st.sampled_from(_TIE_STEPS))
    pairs = list(draw(st.permutations(pairs)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["list", "float_mult", "np_prob", "bool_mult", "bad_mult", "dropped", "bad", "huge"]))
        i = draw(st.integers(0, len(pairs) - 1))
        p, m = pairs[i]
        if kind == "list":
            pairs[i] = [p, m]
        elif kind == "float_mult" and m < 2**53:
            pairs[i] = (p, float(m))
        elif kind == "np_prob":
            pairs[i] = (np.float64(p), m)
        elif kind == "bool_mult":
            pairs[i] = (p, True)
        elif kind == "bad_mult":
            pairs[i] = (p, draw(st.sampled_from(_BAD_MULTS)))
        elif kind == "dropped":
            m = draw(st.sampled_from([1, 3, 2**1069]))
            pairs.insert(i, (draw(st.sampled_from(_DROPPED_PROBS)), m))
        elif kind == "bad":
            pairs.insert(i, (draw(st.sampled_from(_BAD_PROBS)), 1))
        elif kind == "huge":
            pairs.insert(i, draw(st.sampled_from(_HUGE_PAIRS)))
    return pairs


def _outcome(build, pairs):
    """The atoms (float.hex and ints) and total_dim built, or the failure's
    type and message."""
    try:
        s = build(pairs)
    except Exception as exc:  # every failure is compared, whatever its type
        return type(exc), str(exc)
    return [(p.hex(), type(m), m) for p, m in s.atoms], type(s.total_dim), s.total_dim


def _dropped(pair) -> bool:
    """A pair that from_atoms drops: a float below the smallest normal double, not
    negative, with a positive int multiplicity."""
    p, m = pair
    return type(p) is float and 0.0 <= p < sys.float_info.min and type(m) is int and m > 0


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_pair_lists())
@example([])
@example([(1.0 / 3.0 * (1 - 1.2e-12), 1), (1.0 / 3.0, 1), (1.0 / 3.0 * (1 - 0.6e-12), 1)])
@example([(0.25, 1), (0.5, 1), (0.25, 1)])
@example([(0.5, 10**400)])
@example([(1.0, 1), (5e-324, 1)])
@example([(0.5, 1), (2.0**-1070, 2**1069)])
def test_from_atoms_matches_the_oracle_and_keeps_its_input(pairs):
    expected = _outcome(lambda ps: _from_atoms_oracle(Spectrum, ps), list(pairs))
    snapshot, text = list(pairs), repr(pairs)
    assert _outcome(Spectrum.from_atoms, pairs) == expected
    # the list passed in comes back unchanged and in order
    assert repr(pairs) == text and all(a is b for a, b in zip(pairs, snapshot)) and len(pairs) == len(snapshot)
    assert _outcome(Spectrum.from_atoms, iter(list(pairs))) == expected
    # a caller that drops those pairs first gets the same outcome, so none needs to
    assert _outcome(Spectrum.from_atoms, [pair for pair in pairs if not _dropped(pair)]) == expected


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


def test_from_atoms_peaks_near_what_it_keeps():
    # a clean list is used as it is and only a sorted copy is made: 2.60x of
    # the atoms tuple it keeps.  Reading the list into a new one and sorting
    # that read 2.69x, and a sorted copy of that new list 3.69x
    base = Spectrum.from_probs([0.6, 0.3, 0.1])
    pairs = list(_type_classes(base, 250))
    s, kept, peak = _traced(lambda: Spectrum.from_atoms(pairs))
    assert len(s.atoms) == len(pairs) == 31626
    assert peak <= 2.75 * kept
    # generation peaked at 5,458 KB before from_atoms reused the clean list
    _, _, peak = _traced(lambda: generate(IID(base), 250))
    assert peak <= 5458 * 1024


def test_zero_atoms_dropped():
    s = Spectrum.from_probs([0.5, 0.5, 0.0])
    assert s.atoms == ((0.5, 2),)


def test_text_and_json_round_trip():
    s = iid_spectrum(Spectrum.from_probs([0.7, 0.3]), 4)
    assert Spectrum.from_json_dict(s.to_json_dict()).atoms == s.atoms


def test_expand_budget():
    s = iid_spectrum(Spectrum.from_probs([0.9, 0.1]), 30)
    with pytest.raises(BudgetExceededError):
        expand(s)  # total_dim 2^30 exceeds the default expansion budget


def test_rates_align_with_atoms():
    s = Spectrum.from_probs([0.9, 0.1])
    r = [-math.log(p) / 2 + 0.0 for p, _ in s.atoms]
    assert r == [-math.log(0.9) / 2 + 0.0, -math.log(0.1) / 2 + 0.0]


def test_load_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "iid", "base": {"atoms": [[0.9, 1], [0.1, 1]]}}))
    model = load_model(str(path))
    assert isinstance(model, IID)
    assert model.base.atoms == ((0.9, 1), (0.1, 1))
    # bare spectrum file acts as a one-element explicit sequence
    path2 = tmp_path / "spec.json"
    path2.write_text(json.dumps({"atoms": [[0.5, 2]]}))
    model2 = load_model(str(path2))
    assert generate(model2, 1).atoms == ((0.5, 2),)


# atoms need not form a spectrum here: any order, any total; but every
# probability is a normal double and every mass term fits, as in a spectrum
_NORMAL_ATOMS = st.tuples(st.floats(min_value=1e-300, max_value=1.0), st.integers(1, 2**60))
_SMALLEST_NORMAL_ATOMS = st.tuples(st.floats(min_value=sys.float_info.min, max_value=1e-300), st.integers(1, 2**20))
# multiplicities far beyond 2**64 on the smallest probabilities
_HUGE_MULT_ATOMS = st.tuples(st.floats(min_value=sys.float_info.min, max_value=1e-290), st.integers(2**900, 2**1000))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_NORMAL_ATOMS, _SMALLEST_NORMAL_ATOMS, _HUGE_MULT_ATOMS), min_size=1, max_size=40))
@example([(1.0, 1)])
@example([(sys.float_info.min, 1)])
@example([(sys.float_info.min, 2**1022)])
@example([(0.9, 1), (0.1, 1)])
def test_cumulative_mass_is_fsum_of_every_prefix(atoms):
    terms = [p * m for p, m in atoms]
    got = [x.hex() for x in cumulative_mass(atoms)]
    assert got == [math.fsum(terms[: i + 1]).hex() for i in range(len(terms))]


def test_cumulative_mass_edge_cases():
    assert list(cumulative_mass([])) == []
    s = iid_spectrum(Spectrum.from_probs([0.9, 0.1]), 1200)
    terms = [p * m for p, m in s.atoms]
    assert [x.hex() for x in cumulative_mass(s.atoms)] == [
        math.fsum(terms[: i + 1]).hex() for i in range(len(terms))
    ]
