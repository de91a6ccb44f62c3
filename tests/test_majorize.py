import importlib.util
import math
from bisect import bisect_left
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entspec import hermitian
from entspec.hermitian import rand_spectrum
from entspec.majorize import (
    MAJORIZE_TOL,
    MAX_CERTIFICATE_DIM,
    MAX_TRANSFER_DIM,
    BistochasticMatrix,
    DeterministicMap,
    _fibers_of,
    _split_and_reconstruction,
    kh_certificate,
    kh_residual,
    majorizes,
    prefix_gap_min,
    pushforward,
    transfer_matrix,
)
from entspec.randgen import synthesize_map
from entspec.spectra import (
    IID,
    BudgetExceededError,
    Spectrum,
    cumulative_mass,
    expand,
    generate,
    iid_spectrum,
    maxent_rank,
    maxent_spectrum,
)


def _naive_majorizes(p, q, tol=1e-10):
    pv = list(expand(p))
    qv = list(expand(q))
    m = max(len(pv), len(qv))
    pv += [0.0] * (m - len(pv))
    qv += [0.0] * (m - len(qv))
    return all(
        sum(qv[: k + 1]) - sum(pv[: k + 1]) >= -tol for k in range(m)
    )


def test_majorizes_examples():
    half = Spectrum.from_probs([0.5, 0.5])
    skew = Spectrum.from_probs([0.7, 0.3])
    assert majorizes(half, skew)
    assert not majorizes(skew, half)
    assert majorizes(skew, Spectrum.from_probs([1.0]))


def test_majorizes_reflexive():
    for probs in ([1.0], [0.5, 0.5], [0.4, 0.3, 0.2, 0.1]):
        s = Spectrum.from_probs(probs)
        assert majorizes(s, s)
        gap, _ = prefix_gap_min(s, s)
        assert gap == 0.0


def test_majorizes_antisymmetric_up_to_sorting():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = rand_spectrum(rng, 8)
        b = rand_spectrum(rng, 8)
        if majorizes(a, b) and majorizes(b, a):
            av, bv = list(expand(a)), list(expand(b))
            m = max(len(av), len(bv))
            av += [0.0] * (m - len(av))
            bv += [0.0] * (m - len(bv))
            assert max(abs(x - y) for x, y in zip(av, bv)) < 1e-9


def test_majorizes_matches_naive_on_small_spectra():
    rng = np.random.default_rng(41)
    for _ in range(200):
        a = rand_spectrum(rng, 12)
        b = rand_spectrum(rng, 12)
        assert majorizes(a, b) == _naive_majorizes(a, b)


def test_majorizes_huge_compressed():
    p = iid_spectrum(Spectrum.from_probs([0.9, 0.1]), 100)
    flat = Spectrum.from_atoms([(2.0 ** -100, 2 ** 100)])
    assert majorizes(flat, p)
    assert not majorizes(p, flat)


def test_deterministic_map_validation():
    with pytest.raises(ValueError):
        DeterministicMap(2, (0,), 1)
    with pytest.raises(ValueError):
        DeterministicMap(2, (0, 3), 2)
    phi = DeterministicMap(2, (1, 0), 2)
    assert phi.to_json_dict() == {"domain_size": 2, "codomain_size": 2, "targets": [1, 0]}


def test_pushforward_constant_map():
    p = Spectrum.from_probs([0.4, 0.3, 0.2, 0.1])
    phi = DeterministicMap(4, (0, 0, 0, 0), 1)
    assert pushforward(p, phi).atoms == ((1.0, 1),)


def test_pushforward_pairing():
    p = Spectrum.from_probs([0.4, 0.3, 0.2, 0.1])
    phi = DeterministicMap(4, (0, 0, 1, 1), 2)
    got = pushforward(p, phi)
    assert abs(got.atoms[0][0] - 0.7) < 1e-15
    assert abs(got.atoms[1][0] - 0.3) < 1e-15


def test_pushforward_identity_and_empty_buckets():
    p = Spectrum.from_probs([0.6, 0.4])
    ident = DeterministicMap(2, (0, 1), 2)
    assert pushforward(p, ident).atoms == p.atoms
    skip = DeterministicMap(2, (0, 2), 3)  # codomain element 1 never hit
    assert pushforward(p, skip).atoms == p.atoms


def test_pushforward_domain_mismatch():
    p = Spectrum.from_probs([0.6, 0.4])
    with pytest.raises(ValueError):
        pushforward(p, DeterministicMap(3, (0, 0, 0), 1))


def test_pushforward_majorizes_source():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = rand_spectrum(rng, 10)
        d = p.total_dim
        targets = tuple(int(t) for t in rng.integers(0, 3, size=d))
        q = pushforward(p, DeterministicMap(d, targets, 3))
        assert majorizes(p, q)


def test_kh_certificate_identity_map():
    p = Spectrum.from_probs([0.5, 0.3, 0.2])
    cert = kh_certificate(p, DeterministicMap(3, (0, 1, 2), 3))
    assert np.array_equal(cert.entries, np.eye(3))


def test_kh_certificate_single_fiber():
    p = Spectrum.from_probs([0.7, 0.3])
    phi = DeterministicMap(2, (0, 0), 1)
    cert = kh_certificate(p, phi)
    assert np.allclose(cert.entries, [[0.7, 0.3], [0.3, 0.7]], atol=1e-15)
    # the whole image mass on the first fiber slot maps back to the source
    assert np.allclose(cert.entries @ [1.0, 0.0], [0.7, 0.3], atol=1e-15)
    assert kh_residual(p, phi, cert) == 0.0


def test_kh_certificate_random_maps():
    rng = np.random.default_rng(77)
    for _ in range(50):
        p = rand_spectrum(rng, 10)
        d = p.total_dim
        ny = int(rng.integers(1, 4))
        targets = tuple(int(t) for t in rng.integers(0, ny, size=d))
        phi = DeterministicMap(d, targets, ny)
        cert = kh_certificate(p, phi)
        assert cert.dim == d
        assert kh_residual(p, phi, cert) <= 1e-10


def test_kh_certificate_budget():
    p = iid_spectrum(Spectrum.from_probs([0.9, 0.1]), 20)
    phi = DeterministicMap(2 ** 20, tuple([0] * 2 ** 20), 1)
    with pytest.raises(BudgetExceededError) as err:
        kh_certificate(p, phi)
    assert (err.value.budget, err.value.needed, err.value.limit) == ("max_certificate_dim", 2 ** 20, MAX_CERTIFICATE_DIM)


def test_transfer_matrix_budget_is_checked_at_entry():
    # past the cap the dense steps cost O(m^4); it used to raise the
    # max_expanded_dim budget of expand, and only above 4096
    m = MAX_TRANSFER_DIM + 1
    for p, q in ((Spectrum.from_atoms([(1.0 / m, m)]), Spectrum.from_probs([1.0])),
                 (Spectrum.from_probs([1.0]), Spectrum.from_atoms([(1.0 / m, m)]))):
        with pytest.raises(BudgetExceededError) as err:
            transfer_matrix(p, q)  # the second pair is not even majorized
        assert (err.value.budget, err.value.needed, err.value.limit) == ("max_transfer_dim", m, MAX_TRANSFER_DIM)


def test_bistochastic_validation():
    with pytest.raises(ValueError):
        BistochasticMatrix([[0.5, 0.5]])
    with pytest.raises(ValueError):
        BistochasticMatrix([[1.2, -0.2], [-0.2, 1.2]])
    with pytest.raises(ValueError):
        BistochasticMatrix([[0.9, 0.0], [0.0, 0.9]])
    b = BistochasticMatrix([[0.7, 0.3], [0.3, 0.7]])
    assert b.dim == 2


def test_bistochastic_validation_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            BistochasticMatrix([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            BistochasticMatrix([[0.5, 0.5], [0.5, bad]])


def test_transfer_matrix_identity_when_equal():
    p = Spectrum.from_probs([0.4, 0.35, 0.25])
    d = transfer_matrix(p, p)
    assert np.array_equal(d.entries, np.eye(3))


def test_transfer_matrix_full_mixing():
    d = transfer_matrix(Spectrum.from_probs([0.5, 0.5]), Spectrum.from_probs([1.0]))
    assert np.allclose(d.entries, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_transfer_matrix_contract():
    p = Spectrum.from_probs([0.4, 0.35, 0.25])
    q = Spectrum.from_probs([0.6, 0.3, 0.1])
    d = transfer_matrix(p, q)
    assert np.abs(d.entries @ [0.6, 0.3, 0.1] - [0.4, 0.35, 0.25]).max() < 1e-9


def test_transfer_matrix_random_pairs():
    rng = np.random.default_rng(13)
    done = 0
    while done < 50:
        p = rand_spectrum(rng, 8)
        q = rand_spectrum(rng, 8)
        if not majorizes(p, q):
            continue
        done += 1
        d = transfer_matrix(p, q)
        m = d.dim
        pv = list(expand(p)) + [0.0] * m
        qv = list(expand(q)) + [0.0] * m
        assert np.abs(d.entries @ qv[:m] - pv[:m]).max() < 1e-9


def test_transfer_matrix_on_sequences_matches_one_pair_at_a_time():
    # pairs of several expanded sizes, in one call: each certificate is the
    # one-pair call's, bit for bit, in input order
    rng = np.random.default_rng(21)
    ps, qs = [], []
    while len(ps) < 40:
        p, q = rand_spectrum(rng, 6), rand_spectrum(rng, 6)
        if majorizes(p, q):
            ps.append(p)
            qs.append(q)
    certs = transfer_matrix(ps, qs)
    assert len({c.dim for c in certs}) > 1
    assert [c.entries.tobytes() for c in certs] == [transfer_matrix(p, q).entries.tobytes() for p, q in zip(ps, qs)]
    assert transfer_matrix([], []) == []
    with pytest.raises(ValueError, match="as many targets as sources"):
        transfer_matrix(ps, qs[1:])
    # every pair is checked before any step is taken
    with pytest.raises(ValueError, match="majorization fails"):
        transfer_matrix(ps + [Spectrum.from_probs([0.6, 0.4])], qs + [Spectrum.from_probs([0.5, 0.5])])


def test_transfer_matrix_rejects_nonmajorized():
    with pytest.raises(ValueError) as err:
        transfer_matrix(Spectrum.from_probs([0.6, 0.4]), Spectrum.from_probs([0.5, 0.5]))
    assert str(err.value) == "majorization fails at prefix count 1: gap -0.09999999999999998"


def test_prefix_gap_min_reports_argmin():
    gap, at = prefix_gap_min(Spectrum.from_probs([0.6, 0.4]), Spectrum.from_probs([0.5, 0.5]))
    assert at == 1
    assert abs(gap + 0.1) < 1e-15


def _oracle_prefix_tables(s):
    """Cumulative counts and masses with one fsum over the whole prefix per atom: O(k^2)."""
    counts, masses, acc, c = [], [], [], 0
    for p, m in s.atoms:
        c += m
        acc.append(p * m)
        counts.append(c)
        masses.append(math.fsum(acc))
    return counts, masses


def _oracle_prefix_gap_min(p, q):
    def prefix_mass(s, counts, masses, k):
        if k >= counts[-1]:
            return masses[-1]
        before_count, before_mass = 0, 0.0
        for (v, _), c, mass in zip(s.atoms, counts, masses):
            if c >= k:
                return before_mass + v * (k - before_count)
            before_count, before_mass = c, mass

    pc, pm = _oracle_prefix_tables(p)
    qc, qm = _oracle_prefix_tables(q)
    best, best_k = math.inf, 0
    for k in sorted(set(pc) | set(qc)):
        gap = prefix_mass(q, qc, qm, k) - prefix_mass(p, pc, pm, k)
        if gap < best:
            best, best_k = gap, k
    return best, best_k


def _assert_same_gap(p, q):
    gap, at = prefix_gap_min(p, q)
    want_gap, want_at = _oracle_prefix_gap_min(p, q)
    assert (gap.hex(), at) == (want_gap.hex(), want_at)
    assert majorizes(p, q) == (want_gap >= -MAJORIZE_TOL)


def test_prefix_gap_min_matches_fsum_oracle_on_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(300):
        _assert_same_gap(rand_spectrum(rng, 12), rand_spectrum(rng, 12))


def test_prefix_gap_min_matches_fsum_oracle_iid_versus_flat():
    for base in ([0.6, 0.3, 0.1], [0.9, 0.1]):
        for n in (10, 25, 40):
            s = iid_spectrum(Spectrum.from_probs(base), n)
            for rate in (0.2, 0.5, 0.9, 1.2):
                flat = maxent_spectrum(maxent_rank(rate, n))
                _assert_same_gap(s, flat)
                _assert_same_gap(flat, s)
    huge = iid_spectrum(Spectrum.from_probs([0.9, 0.1]), 100)
    _assert_same_gap(Spectrum.from_atoms([(2.0 ** -100, 2 ** 100)]), huge)


def _bisect_prefix_gap_min(p, q):
    """prefix_gap_min by another route: a sort of the boundary counts, and a
    binary search per count into prefix tables built afresh."""

    def prefix_mass(atoms, cum_counts, cum_masses, k):
        if k >= cum_counts[-1]:
            return cum_masses[-1]
        i = bisect_left(cum_counts, k)  # first atom whose cumulative count reaches k
        before_count = cum_counts[i - 1] if i else 0
        before_mass = cum_masses[i - 1] if i else 0.0
        return before_mass + atoms[i][0] * (k - before_count)

    pc = list(accumulate(m for _, m in p.atoms))
    qc = list(accumulate(m for _, m in q.atoms))
    pm = list(cumulative_mass(p.atoms))
    qm = list(cumulative_mass(q.atoms))
    best, best_k = math.inf, 0
    for k in sorted(set(pc) | set(qc)):
        gap = prefix_mass(q.atoms, qc, qm, k) - prefix_mass(p.atoms, pc, pm, k)
        if gap < best:
            best, best_k = gap, k
    return best, best_k


def _compressed(atoms):
    """A spectrum of the descending atoms, unnormalized: the walk reads only
    atoms and prefix tables."""
    return Spectrum(tuple(atoms), sum(m for _, m in atoms))


# atoms down to 1e-300; multiplicities small or above 2**64
_ATOMS = st.one_of(
    st.tuples(st.floats(min_value=1e-300, max_value=1.0), st.integers(1, 6)),
    st.tuples(st.floats(min_value=1e-300, max_value=1.0), st.integers(2**64, 2**80)),
)
_ATOM_LISTS = st.lists(_ATOMS, min_size=1, max_size=25, unique_by=lambda a: a[0]).map(
    lambda atoms: sorted(atoms, reverse=True)
)


@st.composite
def _compressed_pairs(draw):
    p, q = draw(_ATOM_LISTS), draw(_ATOM_LISTS)
    shared = draw(st.integers(0, len(p)))
    if shared:
        # q starts with p's first atoms scaled by one factor, so both sides
        # end atoms at the same counts there; its own atoms follow below
        f = draw(st.floats(min_value=0.5, max_value=1.0))
        head = [(v * f, m) for v, m in p[:shared]]
        floor = 0.5 * head[-1][0]
        q = head + [(v * floor, m) for v, m in q if v * floor >= 1e-300]
    return _compressed(p), _compressed(q)


def _assert_same_walk(p, q):
    assert repr(prefix_gap_min(p, q)) == repr(_bisect_prefix_gap_min(p, q))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_compressed_pairs())
@example((_compressed([(0.5, 2)]), _compressed([(0.5, 2)])))
@example((_compressed([(0.25, 4)]), _compressed([(0.5, 1), (0.25, 2)])))
@example((_compressed([(1e-300, 2**990)]), _compressed([(2.0**-70, 2**64), (2.0**-80, 3)])))
def test_prefix_walk_matches_the_bisect_oracle(pair):
    p, q = pair
    _assert_same_walk(p, q)
    _assert_same_walk(q, p)


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefix_walk_matches_the_bisect_oracle_on_dilute_pairs(seed):
    """The benchmark's `dilute` certificate at n = 150: its flat source
    against the greedy pushforward (some 4,000 atoms), both ways round."""
    workloads = _load_workloads()
    probs = workloads.base(seed)
    argv = workloads.ops("dilute", seed)[0]
    rate, n = float(argv[3]), int(argv[5])
    assert n == 150
    flat = maxent_spectrum(maxent_rank(rate, n))
    push = synthesize_map(flat, generate(IID(Spectrum.from_probs(list(probs))), n)).pushforward
    _assert_same_walk(flat, push)
    _assert_same_walk(push, flat)


def _dense_transfer_entries(p, q):
    """transfer_matrix's product of averaging steps with a fresh m x m
    identity per step and NumPy scans for the two coordinates."""
    pv = expand(p, MAX_TRANSFER_DIM)
    qv = expand(q, MAX_TRANSFER_DIM)
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
    return d


def test_transfer_matrix_matches_the_dense_step_oracle_bit_for_bit(monkeypatch):
    """Every instance of the `transfer` suite for three seeds (1,500 pairs)."""
    pairs = []

    def recording(ps, qs):
        certs = transfer_matrix(ps, qs)
        pairs.extend(zip(ps, qs, certs))
        return certs

    monkeypatch.setattr(hermitian, "transfer_matrix", recording)
    for seed in (0, 1, 2):
        hermitian.run_suite("transfer", seed=seed)
    assert len(pairs) == 1500
    # the suite's stacked certificates and the one-pair form's
    differ = [i for i, (p, q, cert) in enumerate(pairs)
              if {cert.entries.tobytes(), transfer_matrix(p, q).entries.tobytes()}
              != {_dense_transfer_entries(p, q).tobytes()}]
    assert differ == []


def _looped_kh_entries(p, phi):
    """kh_certificate's blocks filled one entry at a time: for each fiber,
    each term j and each row i, the weight p(x_j) / q added to the entry of
    T_j in row i."""
    xs, fibers = _fibers_of(p, phi, MAX_CERTIFICATE_DIM, "max_certificate_dim")
    split, recon = _split_and_reconstruction(xs, fibers)
    block = np.zeros((len(xs), len(xs)))
    offset = 0
    for k in map(len, filter(None, fibers)):
        qy = float(split[offset])
        sub = block[offset : offset + k, offset : offset + k]
        for j, x in enumerate(recon[offset : offset + k]):
            w = float(x) / qy
            for i in range(k):
                sub[i, j if i == 0 else 0 if i == j else i] += w
        offset += k
    return block


def test_kh_certificate_matches_the_looped_fill_bit_for_bit(monkeypatch):
    """Every instance of the `kh` suite for three seeds (1,500 maps)."""
    certs = []

    def recording(p, phi):
        cert = kh_certificate(p, phi)
        certs.append((p, phi, cert))
        return cert

    monkeypatch.setattr(hermitian, "kh_certificate", recording)
    for seed in (0, 1, 2):
        hermitian.run_suite("kh", seed=seed)
    assert len(certs) == 1500
    differ = [i for i, (p, phi, cert) in enumerate(certs)
              if cert.entries.tobytes() != _looped_kh_entries(p, phi).tobytes()]
    assert differ == []
