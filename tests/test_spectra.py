import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entspec.infospec import entropy_proxies
from entspec.spectra import (
    IID,
    MASS_TOL,
    AmplitudeMatrix,
    BudgetExceededError,
    Explicit,
    MaxEnt,
    MaxEntExplicit,
    Mixture,
    Spectrum,
    _mass_term,
    cumulative_mass,
    entropy,
    expand,
    generate,
    iid_spectrum,
    load_model,
    maxent_rank,
    maxent_spectrum,
    schmidt_from_amplitudes,
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
    assert abs(s.mass() - 1.0) < 1e-9
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
    assert len(kept.atoms) < 1201 and abs(kept.mass() - 1.0) < 1e-12
    # at n = 2000 they carry about 0.0257 (8.0e-4 of it in classes that
    # underflow to zero)
    with pytest.raises(BudgetExceededError) as err:
        iid_spectrum(base, 2000)
    assert err.value.budget == "iid_underflow_mass"
    assert 0.025 < err.value.needed < 0.027


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
    lower, _ = entropy_proxies(s, n, 1.0)
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
        lost = 1.0 - math.fsum(_mass_term(p, m) for p, m in pairs)
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


def test_generate_mixture_merges_atoms():
    mx = Mixture(
        (
            (0.5, IID(Spectrum.from_probs([0.9, 0.1]))),
            (0.5, IID(Spectrum.from_atoms([(0.5, 2)]))),
        )
    )
    assert generate(mx, 1).atoms == ((0.45, 1), (0.25, 2), (0.05, 1))
    assert abs(generate(mx, 6).mass() - 1.0) < 1e-12


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
    lower, _ = entropy_proxies(s, n, 1.0)
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
    model = MaxEntExplicit(lambda n: 2 * n)
    assert generate(model, 3).atoms == ((1.0 / 6.0, 6),)


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
    # the mass term of this atom overflows p * m, so the mass check takes
    # _mass_term's exp/log route (2.0**-1100 would underflow to 0.0)
    p, m = 2.0**-1070, 2**1070
    with pytest.raises(OverflowError):
        p * m
    s = Spectrum.from_atoms([(p, m)])
    assert s.atoms == ((p, m),) and s.total_dim == m
    with pytest.raises(ValueError, match="deviates from 1"):
        Spectrum.from_atoms([(p, 2 * m)])


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
    r = s.rates(2)
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


# atoms need not form a spectrum here: any order, any total
_NORMAL_ATOMS = st.tuples(st.floats(min_value=1e-300, max_value=1.0), st.integers(1, 2**60))
_SUBNORMAL_ATOMS = st.tuples(st.floats(min_value=5e-324, max_value=2.2e-308), st.integers(1, 2**20))
# multiplicities beyond the float range send _mass_term through exp/log
_HUGE_MULT_ATOMS = st.tuples(st.floats(min_value=5e-324, max_value=1e-40), st.integers(2**1024, 2**1100))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_NORMAL_ATOMS, _SUBNORMAL_ATOMS, _HUGE_MULT_ATOMS), min_size=1, max_size=40))
@example([(1.0, 1)])
@example([(5e-324, 1)])
@example([(2.0**-1070, 2**1070)])
@example([(0.9, 1), (0.1, 1)])
def test_cumulative_mass_is_fsum_of_every_prefix(atoms):
    terms = [_mass_term(p, m) for p, m in atoms]
    got = [x.hex() for x in cumulative_mass(atoms)]
    assert got == [math.fsum(terms[: i + 1]).hex() for i in range(len(terms))]


def test_cumulative_mass_edge_cases():
    with pytest.raises(OverflowError):
        2.0**-1070 * 2**1070  # so that example of the property takes _mass_term's exp/log fallback
    assert list(cumulative_mass([])) == []
    s = iid_spectrum(Spectrum.from_probs([0.9, 0.1]), 1200)
    terms = [_mass_term(p, m) for p, m in s.atoms]
    assert [x.hex() for x in cumulative_mass(s.atoms)] == [
        math.fsum(terms[: i + 1]).hex() for i in range(len(terms))
    ]
