import json
import math
import weakref
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entspec import hermitian
from entspec.hermitian import (
    MAX_VERIFY_DIM,
    SUITES,
    CPTPMap,
    StochasticMap,
    TransposeMix,
    _apply_tp,
    _positive_trace,
    _projector,
    _trace_norm,
    rand_spectrum,
    run_suite,
    verify_bd_sandwich,
    verify_continuity,
    verify_lemma_bdm,
    verify_lemma_np,
    verify_product_tails,
    verify_tail_monotonicity,
)
from entspec.hermitian import tail_C, tail_D
from entspec.majorize import DeterministicMap, transfer_matrix
from entspec.spectra import BudgetExceededError, Spectrum

import dense_oracle
from dense_oracle import rand_contraction, rand_density, rand_diagonal_density, rand_hermitian, rand_unitary

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def _depolarizing(p=0.5):
    s = math.sqrt(p / 4.0)
    return CPTPMap((math.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2, dtype=complex), s * X, s * Y, s * Z))


def _rand_cptp(rng, dim):
    return CPTPMap(dense_oracle.rand_cptp(rng, dim)[1])


def _rand_stochastic(rng, dim):
    return StochasticMap(dense_oracle.rand_stochastic(rng, dim)[1])


def _rand_doubly_stochastic(rng, dim):
    return StochasticMap(dense_oracle.rand_doubly_stochastic(rng, dim)[1])


def _bdm_identity(a):
    """verify_lemma_bdm under the identity map on a stack of one: operator validation and nothing else."""
    return verify_lemma_bdm(TransposeMix(0.0), np.array([a]))


def test_hermitian_construction():
    (r,) = _bdm_identity([[1.0, 1.0j], [-1.0j, 2.0]])
    assert r.ok and r.checks == 1
    with pytest.raises(ValueError, match="Hermitian"):
        _bdm_identity([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="square"):
        _bdm_identity([[1.0, 2.0]])


def test_contraction_eigenvalue_gate():
    a = np.diag([1.0, -1.0, 0.5])
    assert verify_lemma_np(a[None], [np.diag([0.0, 0.5, 1.0])])[0].ok
    for bad in ([0.0, 1.5, 0.5], [-0.2, 0.5, 0.5]):
        with pytest.raises(ValueError, match="interval"):
            verify_lemma_np(np.array([a, a]), [np.diag([0.0, 0.5, 1.0]), np.diag(bad)])


def test_operator_validation_rejects_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        for m in ([[bad, 0.0], [0.0, 1.0]], [[0.0, bad], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="non-finite"):
                _bdm_identity(np.array(m))
    # a NaN entry used to pass the deviation check and read as 0.0
    with pytest.raises(ValueError, match="non-finite"):
        _bdm_identity([[math.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("tail", [tail_C, tail_D])
@pytest.mark.parametrize(
    "rho,sigma,message",
    [
        (np.ones((2, 3)) / 2, np.ones((2, 3)) / 2, "nonempty square"),
        (np.eye(2) / 2, np.eye(3) / 3, "one shape"),
        (np.zeros((0, 0)), np.zeros((0, 0)), "nonempty square"),  # the tails used to accept it
        (np.diag([math.nan, 0.5]), np.eye(2) / 2, "non-finite"),
    ],
    ids=["non-square", "shape-mismatch", "empty", "non-finite"],
)
def test_tails_validate_operators_as_the_verifiers_do(tail, rho, sigma, message):
    rho, sigma = rho[None], sigma[None]
    with pytest.raises(ValueError, match=message) as verifier:
        verify_bd_sandwich(rho, sigma, 1, 0.1, 0.1)
    with pytest.raises(ValueError, match=message) as got:
        tail(rho, sigma, 1, 0.1)
    assert str(got.value) == str(verifier.value)


def test_contraction_gate_rejects_non_finite_entries():
    a = np.diag([1.0, -1.0])[None]
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            verify_lemma_np(a, [np.diag([bad, 0.5])])
    # the eigenvalue gate on its own: an infinite entry gives NaN eigenvalues
    with pytest.raises(ValueError, match="interval"):
        hermitian._check_unit_interval(np.diag([math.inf, 0.5]).astype(complex))


def test_map_validation():
    with pytest.raises(ValueError):
        CPTPMap((np.eye(2, dtype=complex) * 2.0,))
    with pytest.raises(ValueError):
        StochasticMap(np.array([[0.9, 0.0], [0.0, 0.9]]))
    with pytest.raises(ValueError):
        TransposeMix(1.5)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_map_validation_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="Kraus completeness"):
        CPTPMap((np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex),))
    with pytest.raises(ValueError, match="negative entry|column sums"):
        StochasticMap(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="negative entry|column sums"):
        StochasticMap(np.array([[0.5, 0.5], [bad, 0.5]]))
    with pytest.raises(ValueError):
        TransposeMix(math.nan)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CPTPMap(()), "^need at least one Kraus operator$"),
        (lambda: CPTPMap((np.eye(2, dtype=complex), np.eye(3, dtype=complex))),
         "^Kraus operators must be square and equally sized$"),
        (lambda: StochasticMap(np.ones(3)), r"^expected a square matrix, got shape \(3,\)$"),
    ],
    ids=["no-kraus", "kraus-sizes", "stochastic-1d"],
)
def test_malformed_maps_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_violation_payloads_serialize_maps_and_reject_unknown_values():
    # a kh or greedy-vs-brute violation prints its deterministic map
    p = Spectrum.from_probs([0.5, 0.3, 0.2])
    phi = DeterministicMap(3, (0, 0, 1), 2)
    payload = hermitian._payload(source=p, map=phi)()
    assert json.loads(json.dumps(payload)) == {
        "source": p.to_json_dict(),
        "map": {"domain_size": 3, "codomain_size": 2, "targets": [0, 0, 1]},
    }
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        hermitian._json_value(object())


def _cdiag(values):
    return np.diag(values).astype(complex)


def test_projector_zero_operator_convention():
    # eigenvalues below the cutoff count as non-positive, so zero projects onto nothing
    assert np.array_equal(_projector(*np.linalg.eigh(np.zeros((2, 2), dtype=complex))), np.zeros((2, 2)))
    assert np.array_equal(_projector(*np.linalg.eigh(_cdiag([1.0, -1.0]))), _cdiag([1.0, 0.0]))


def test_trace_plus_examples():
    assert _positive_trace(_cdiag([1.0, -1.0])) == 1.0
    assert _positive_trace(_cdiag([0.3, 0.2, -0.5])) == 0.5
    assert _positive_trace(np.zeros((3, 3), dtype=complex)) == 0.0


def test_trace_plus_halved_norm_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rand_hermitian(rng, 6)
        tr = float(np.trace(a).real)
        assert abs(_positive_trace(a) - 0.5 * (_trace_norm(a) + tr)) < 1e-9


def test_lemma_np_attainment():
    rng = np.random.default_rng(0)
    results = verify_lemma_np(np.array([np.diag([1.0, -1.0])] * 50), [rand_contraction(rng, 2) for _ in range(50)])
    assert len(results) == 50
    for r in results:
        assert r.ok
        assert r.checks == 2  # the sampled contraction plus the attainment check
        assert r.worst_slack >= -1e-9
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rand_hermitian(rng, 5)
        assert all(r.ok for r in verify_lemma_np(np.array([a] * 20), [rand_contraction(rng, 5) for _ in range(20)]))


def test_apply_tp_identity_kraus_is_exact():
    ident = CPTPMap((np.eye(2, dtype=complex),))
    a = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
    assert np.array_equal(_apply_tp(ident, a), a)


def test_apply_tp_transpose_mix():
    a = np.array([[0.3, 0.1j], [-0.1j, 0.7]])
    out = _apply_tp(TransposeMix(1.0), a)
    assert np.array_equal(out, a.T)
    half = _apply_tp(TransposeMix(0.5), a)
    assert np.abs(half.imag).max() < 1e-15


def test_apply_tp_preserves_trace():
    rng = np.random.default_rng(15)
    for _ in range(20):
        a = rand_density(rng, 4)
        for f in (_rand_cptp(rng, 4), TransposeMix(float(rng.uniform(0, 1)))):
            out = _apply_tp(f, a)
            assert abs(np.trace(out).real - 1.0) < 1e-10
        d = rand_diagonal_density(rng, 4)
        out = _apply_tp(_rand_stochastic(rng, 4), d)
        assert abs(np.trace(out).real - 1.0) < 1e-10


def test_apply_tp_stochastic_on_diagonal():
    f = StochasticMap(np.array([[0.5, 1.0], [0.5, 0.0]]))
    out = _apply_tp(f, _cdiag([0.8, 0.2]))
    assert np.allclose(out, np.diag([0.6, 0.4]), atol=1e-15)


def test_stochastic_maps_reject_non_diagonal_arguments():
    rng = np.random.default_rng(1)
    f = _rand_stochastic(rng, 3)
    rho = rand_density(rng, 3)
    diag = rand_diagonal_density(rng, 3)
    with pytest.raises(ValueError, match="diagonal arguments"):
        _apply_tp(f, rho)
    with pytest.raises(ValueError, match="diagonal arguments"):
        verify_lemma_bdm(f, rho[None])
    # one off-diagonal matrix in a stack is enough
    with pytest.raises(ValueError, match="diagonal arguments"):
        verify_lemma_bdm(f, np.array([diag, rho]))
    assert verify_lemma_bdm(f, diag[None])[0].ok


def test_lemma_bdm_identity_and_depolarizing():
    a = np.diag([1.0, -1.0])[None]
    (r,) = verify_lemma_bdm(CPTPMap((np.eye(2, dtype=complex),)), a)
    assert r.ok and r.worst_slack == 0.0
    (r2,) = verify_lemma_bdm(_depolarizing(0.5), a)
    assert r2.ok
    assert abs(r2.worst_slack - 0.5) < 1e-12  # contraction by 1 - p


def test_bd_sandwich_hand_example():
    (r,) = verify_bd_sandwich(np.diag([0.7, 0.3])[None], np.eye(2)[None], 1, -0.5, 0.5)
    assert r.ok and r.checks == 2
    # tighter bound is the shifted cut: tail_C = 0.7 - e^{-1/2} vs 0 - e^{-1/4}
    assert abs(r.worst_slack - math.exp(-0.5)) < 1e-12


def test_bd_sandwich_validation():
    with pytest.raises(ValueError):
        verify_bd_sandwich(np.diag([0.7, 0.3])[None], np.eye(2)[None], 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        verify_bd_sandwich(np.diag([0.7, 0.7])[None], np.eye(2)[None], 1, 0.0, 0.1)
    # a NaN gamma used to pass and give NaN margins
    with pytest.raises(ValueError, match="gamma"):
        verify_bd_sandwich(np.diag([0.7, 0.3])[None], np.eye(2)[None], 1, 0.0, math.nan)
    with pytest.raises(ValueError, match="gamma"):
        verify_bd_sandwich(np.array([np.diag([0.7, 0.3])] * 2), np.array([np.eye(2)] * 2), 1, 0.0, [0.1, 0.0])


def test_continuity_identical_states():
    rho = np.diag([0.7, 0.3])[None]
    (r,) = verify_continuity(rho, rho, np.eye(2)[None], 1, -0.5)
    assert r.ok and r.worst_slack == 0.0


def test_continuity_random_perturbations():
    rng = np.random.default_rng(21)
    for _ in range(20):
        rho = rand_density(rng, 4)
        rho2 = rand_density(rng, 4)
        sigma = rand_density(rng, 4)
        assert verify_continuity(rho[None], rho2[None], sigma[None], 2, float(rng.uniform(-1, 1)))[0].ok


def test_product_tails_point_second_factor():
    r = verify_product_tails(Spectrum.from_probs([0.9, 0.1]), Spectrum.from_probs([1.0]), 1, 0.5)
    assert r.ok
    assert r.checks == 2  # inequality plus the expanded cross-check
    assert r.worst_slack == 0.0


def test_product_tails_random():
    rng = np.random.default_rng(33)
    for _ in range(30):
        pa = rand_spectrum(rng, 8)
        sb = rand_spectrum(rng, 8)
        r = verify_product_tails(pa, sb, int(rng.integers(1, 3)), float(rng.uniform(-0.5, 3.0)))
        assert r.ok


def test_product_cross_check_catches_a_wrong_compressed_sum(monkeypatch):
    # compressed sum 0.9 * cdf_selfinfo(second, 1, 2.0 + ln 0.9) = 0.9; a relative
    # error of 1e-6 in the second factor's tail moves it far past the 1e-9 tolerance
    first, second = Spectrum.from_probs([0.9, 0.1]), Spectrum.from_probs([0.5, 0.5])
    assert verify_product_tails(first, second, 1, 2.0).ok
    cdf = hermitian.cdf_selfinfo

    def skewed(s, n, a):
        return cdf(s, n, a) * (1.0 + 1e-6) if s is second else cdf(s, n, a)

    monkeypatch.setattr(hermitian, "cdf_selfinfo", skewed)
    r = verify_product_tails(first, second, 1, 2.0)
    assert "compressed-matches-expanded" in [v["check"] for v in r.violations]


def test_monotonicity_identity_and_depolarizing():
    rho = np.diag([0.7, 0.3])[None]
    sigma = np.eye(2)[None]
    assert verify_tail_monotonicity(rho, sigma, CPTPMap((np.eye(2, dtype=complex),)), 1, -0.5)[0].ok
    (r,) = verify_tail_monotonicity(rho, sigma, _depolarizing(0.5), 1, -0.5)
    assert r.ok and r.worst_slack > 0.0


def test_monotonicity_rejects_stochastic_on_nondiagonal():
    rng = np.random.default_rng(1)
    rho = rand_density(rng, 3)[None]
    flat = np.eye(3)[None] / 3.0
    f = _rand_stochastic(rng, 3)
    with pytest.raises(ValueError, match="diagonal arguments"):
        verify_tail_monotonicity(rho, flat, f, 1, 0.0)
    with pytest.raises(ValueError, match="diagonal arguments"):
        verify_tail_monotonicity(flat, rho, f, 1, 0.0)
    # the maps come first: n = 0 would fail the tail's own check
    with pytest.raises(ValueError, match="diagonal arguments"):
        verify_tail_monotonicity(rho, flat, f, 0, 0.0)


_EYE = np.eye(2)[None]
_STACK_SHAPE = r"expected an \(N, d, d\) stack of operators, got shape"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: verify_lemma_bdm(np.eye(2), _EYE), TypeError, "not a TP map"),
        (lambda: verify_lemma_bdm(CPTPMap((np.eye(3, dtype=complex),)), _EYE), ValueError, "dimension mismatch"),
        (lambda: verify_lemma_bdm(TransposeMix(0.5), np.zeros((1, 2, 2, 2))), ValueError, _STACK_SHAPE),
        (lambda: verify_lemma_np(np.diag([1.0, -1.0])[None], np.eye(2)), ValueError, _STACK_SHAPE),
        (lambda: verify_lemma_np(np.diag([1.0, -1.0])[None], np.zeros((0, 2, 2))), ValueError, "one shape"),
        (lambda: verify_lemma_np(np.diag([1.0, -1.0])[None], [np.eye(3)]), ValueError, "one shape"),
        (lambda: verify_lemma_np(np.array([np.eye(2)] * 2), [[np.eye(2)]]), ValueError, _STACK_SHAPE),
        # no verifier takes a single matrix
        (lambda: verify_lemma_np(np.diag([1.0, -1.0]), np.eye(2)), ValueError, _STACK_SHAPE),
        (lambda: verify_lemma_bdm(TransposeMix(0.5), np.eye(2)), ValueError, _STACK_SHAPE),
        (lambda: verify_bd_sandwich(np.eye(2) / 2, np.eye(2) / 2, 1, 0.1, 0.1), ValueError, _STACK_SHAPE),
        (lambda: verify_continuity(np.eye(2) / 2, np.eye(2) / 2, np.eye(2) / 2, 1, 0.1), ValueError, _STACK_SHAPE),
        (lambda: verify_tail_monotonicity(np.eye(2) / 2, np.eye(2) / 2, TransposeMix(0.5), 1, 0.1), ValueError,
         _STACK_SHAPE),
        (lambda: verify_bd_sandwich(np.eye(2)[None] / 2, np.diag([1.5, -0.5])[None], 1, 0.1, 0.1), ValueError,
         "^sigma has negative eigenvalue -0.5$"),
    ],
    ids=["bare-array-map", "map-dimension", "4d-stack",
         "contractions-not-3d", "no-contractions", "contraction-dimension", "contraction-count",
         "single-np", "single-bdm", "single-bd", "single-continuity", "single-monotonicity", "sigma-not-psd"],
)
def test_verifier_entry_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_monotonicity_doubly_stochastic_diagonal():
    rng = np.random.default_rng(44)
    for _ in range(20):
        rho = rand_diagonal_density(rng, 5)
        f = _rand_doubly_stochastic(rng, 5)
        assert verify_tail_monotonicity(rho[None], np.eye(5)[None], f, 1, float(rng.uniform(-1, 0.5)))[0].ok


def test_sampler_validity():
    # the stacked builders the suites use, on stacks of three
    rng = np.random.default_rng(100)
    u = hermitian._unitaries(rng.standard_normal((3, 2, 6, 6)))
    assert np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(6)).max() < 1e-12
    f = hermitian._cptps(rng.standard_normal((3, 3, 2, 5, 5)))
    acc = sum(k.conj().swapaxes(-1, -2) @ k for k in f.kraus)
    assert acc.shape == (3, 5, 5) and np.abs(acc - np.eye(5)).max() < 1e-12
    d = hermitian._doubly_stochastics(rng.uniform(size=(3, 9)), np.array([[rng.permutation(7) for _ in range(9)] for _ in range(3)]))
    assert np.abs(d.matrix.sum(axis=-2) - 1.0).max() < 1e-12
    assert np.abs(d.matrix.sum(axis=-1) - 1.0).max() < 1e-12
    t = hermitian._contractions(rng.standard_normal((3, 2, 4, 4)), rng.uniform(0.0, 1.0, (3, 4)))
    w = np.linalg.eigvalsh(t)
    assert w.min() >= -1e-10 and w.max() <= 1.0 + 1e-10
    s = rand_spectrum(rng, 9)
    assert s.total_dim <= 9 and abs(math.fsum(p * m for p, m in s.atoms) - 1.0) < 1e-11


def test_suite_table_ids_are_unique():
    ids = [suite.id for suite in SUITES.values()]
    assert len(set(ids)) == len(ids) == 9
    assert all(suite.trials >= 1 for suite in SUITES.values())


def test_run_suite_deterministic():
    a = run_suite("np", seed=5, trials=25)
    b = run_suite("np", seed=5, trials=25)
    assert a.to_json_dict() == b.to_json_dict()
    c = run_suite("np", seed=6, trials=25)
    assert c.worst_slack != a.worst_slack


def test_run_suite_rejects_unknown():
    with pytest.raises(KeyError):
        run_suite("nope", seed=1, trials=5)


def test_run_suite_checks_dim_before_sampling(monkeypatch):
    def boom(rng, k, dim):
        raise AssertionError("sampled an instance")

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, SUITES[name]._replace(draw=boom))
        for dim in (1, 0, -3):
            with pytest.raises(ValueError, match="--dim"):
                run_suite(name, seed=1, trials=1, dim=dim)
        with pytest.raises(BudgetExceededError) as err:
            run_suite(name, seed=1, trials=1, dim=MAX_VERIFY_DIM + 1)
        assert err.value.budget == "max_verify_dim"
        with pytest.raises(AssertionError, match="sampled"):
            run_suite(name, seed=1, trials=1, dim=MAX_VERIFY_DIM)


def test_run_suite_bounds_trials_by_the_seed_word_before_sampling(monkeypatch):
    # instance k is one uint32 word of its seed, so k stops at 2**32 - 1
    def boom(rng, k, dim):
        raise AssertionError("sampled an instance")

    monkeypatch.setitem(SUITES, "np", SUITES["np"]._replace(draw=boom))
    with pytest.raises(ValueError, match="trials must be at most 4294967296"):
        run_suite("np", seed=1, trials=2**32 + 1)
    with pytest.raises(AssertionError, match="sampled"):
        run_suite("np", seed=1, trials=2**32)


def test_all_suites_pass_at_small_trials():
    reports = [run_suite(name, seed=11, trials=30) for name in SUITES]
    assert [r.suite for r in reports] == list(SUITES)
    for r in reports:
        assert r.ok, f"{r.suite}: {r.violations[:1]}"
        assert r.trials == 30
        json.dumps(r.to_json_dict())  # reports must stay JSON-serializable


def test_greedy_suite_reports_gap_histogram():
    g = run_suite("greedy-vs-brute", seed=3, trials=20)
    assert g.ok
    assert set(g.extras) == {"gap_histogram", "gap_max", "gap_mean"}
    assert sum(g.extras["gap_histogram"].values()) == 20
    assert g.extras["gap_max"] >= 0.0


DENSE_SUITES = ("np", "bdm", "bd", "continuity", "monotonicity")


def _stacked_results(name, seed, trials, dim):
    suite = SUITES[name]
    return [
        [(r.worst_slack.hex(), r.checks, r.violations) for r in results]
        for _, results, _ in hermitian._instance_results(suite, seed, trials, dim)
    ]


def _oracle_results(name, seed, trials, dim):
    suite = SUITES[name]
    return [
        [(worst.hex(), checks, violations) for worst, checks, violations in dense_oracle.instance_results(
            name, np.random.default_rng([seed % (1 << 63), suite.id, k]), k, dim)]
        for k in range(trials)
    ]


@pytest.mark.parametrize("name", DENSE_SUITES)
def test_stacked_suites_match_per_instance_oracle_bit_for_bit(name, monkeypatch):
    # every instance's margins, check counts and violations equal the
    # per-instance evaluation's, with 150 trials in one chunk at the default
    # budget and across chunk boundaries at a budget of 2 (chunks of 32, 5
    # and 2 instances at dims 2, 5 and 8)
    for seed in (0, 7, 11):
        for dim in (2, 5, 8):
            oracle = _oracle_results(name, seed, 150, dim)
            assert _stacked_results(name, seed, 150, dim) == oracle, (seed, dim)
            with monkeypatch.context() as m:
                m.setattr(hermitian, "_CHUNK", 2)
                assert _stacked_results(name, seed, 150, dim) == oracle, (seed, dim, "chunk budget 2")
    # six instances cover every map family, at the largest allowed dimension
    assert _stacked_results(name, 5, 6, MAX_VERIFY_DIM) == _oracle_results(name, 5, 6, MAX_VERIFY_DIM)


@pytest.mark.parametrize("name", DENSE_SUITES)
def test_suite_results_do_not_depend_on_the_chunk_size(name, monkeypatch):
    stacked = _stacked_results(name, 3, 40, 8)
    report = run_suite(name, seed=3, trials=40).to_json_dict()
    monkeypatch.setattr(hermitian, "_CHUNK", 1)
    assert _stacked_results(name, 3, 40, 8) == stacked
    assert run_suite(name, seed=3, trials=40).to_json_dict() == report


@pytest.mark.parametrize("dim", (8, MAX_VERIFY_DIM))
@pytest.mark.parametrize("name", DENSE_SUITES)
def test_a_suite_draws_one_chunk_before_its_first_result(name, dim):
    # the memory bound: a chunk's stacks hold at most _CHUNK * 64 matrix
    # entries, so a suite draws at most one chunk of instances ahead of its
    # results, whatever --trials is
    chunk = max(1, hermitian._CHUNK * 64 // dim**2)
    suite = SUITES[name]
    drawn = []

    def counting_draw(rng, k, dim):
        drawn.append(k)
        return suite.draw(rng, k, dim)

    next(hermitian._instance_results(suite._replace(draw=counting_draw), 0, chunk + 1, dim))
    assert len(drawn) == chunk


SPECTRUM_SUITES = ("product", "kh", "transfer", "greedy-vs-brute")


@pytest.mark.parametrize("dim", (8, MAX_VERIFY_DIM))
@pytest.mark.parametrize("name", SPECTRUM_SUITES)
def test_a_spectrum_suite_chunk_does_not_shrink_with_dim(name, dim, monkeypatch):
    # a spectrum suite draws no (d, d) stack, so --dim leaves its chunk alone
    monkeypatch.setattr(hermitian, "_CHUNK", 12)
    suite = SUITES[name]
    drawn = []

    def counting_draw(rng, k, dim):
        drawn.append(k)
        return suite.draw(rng, k, dim)

    next(hermitian._instance_results(suite._replace(draw=counting_draw), 0, 13, dim))
    assert len(drawn) == 12


def test_transfer_steps_each_expanded_size_in_one_call(monkeypatch):
    # one transfer_matrix call per distinct m among a chunk's draws, each
    # with every pair of that m
    calls = []

    def recording(ps, qs):
        (m,) = {max(p.total_dim, q.total_dim) for p, q in zip(ps, qs)}
        calls.append((m, len(ps)))
        return transfer_matrix(ps, qs)

    monkeypatch.setattr(hermitian, "transfer_matrix", recording)
    suite = SUITES["transfer"]
    ms = [suite.draw(rng, k, 8)[0] for rng, k in zip(hermitian._generators(4, suite.id, range(200)), range(200))]
    assert run_suite("transfer", seed=4, trials=200).ok
    assert sorted(calls) == sorted((m, ms.count(m)) for m in set(ms))
    assert len(calls) < 40


@pytest.mark.parametrize("name", SPECTRUM_SUITES)
def test_a_spectrum_suite_frees_each_generator_with_its_instance(name, monkeypatch):
    # a spectrum suite's draw is its whole instance, so a chunk keeps no
    # generator past its instance.  Generator and PCG64 take no weak
    # references, but each PCG64 keeps its seed sequence alive
    live = weakref.WeakSet()

    class TrackedWords(hermitian._StateWords):
        def __init__(self, words):
            super().__init__(words)
            live.add(self)

    monkeypatch.setattr(hermitian, "_StateWords", TrackedWords)
    suite = SUITES[name]
    counts = []

    def counting_draw(rng, k, dim):
        counts.append(len(live))
        return suite.draw(rng, k, dim)

    results = list(hermitian._instance_results(suite._replace(draw=counting_draw), 0, 300, 8))
    assert len(results) == len(counts) == 300
    assert max(counts) <= 2


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(-(2**70), 2**70),
    suite_id=st.integers(1, 9),
    # windows holding 0, the chunk boundary at --dim 8, and the largest index
    start=st.sampled_from((0, hermitian._CHUNK - 2, hermitian._MAX_TRIALS - 5)) | st.integers(0, 2**32 - 5),
)
# one-word and two-word seeds, taken mod 2**63 as run_suite takes them
@example(seed=0, suite_id=1, start=0)
@example(seed=1, suite_id=9, start=0)
@example(seed=2**32 - 1, suite_id=3, start=2**32 - 5)
@example(seed=2**32, suite_id=3, start=2**32 - 5)
@example(seed=2**63 - 1, suite_id=5, start=hermitian._CHUNK - 2)
@example(seed=-1, suite_id=7, start=0)
def test_chunk_generators_match_default_rng(seed, suite_id, start):
    seed %= 1 << 63
    ks = range(start, start + 5)
    rngs = list(hermitian._generators(seed, suite_id, ks))
    assert len(rngs) == len(ks)
    for k, rng in zip(ks, rngs):
        ref = np.random.default_rng([seed, suite_id, k])
        assert rng.bit_generator.state == ref.bit_generator.state, k
        assert _bits(rng.standard_normal(4)) == _bits(ref.standard_normal(4)), k


def test_one_call_draws_match_the_per_call_draws():
    # the same values and dtype, and the generator in the same state after
    for seed in range(20):
        for dim in range(1, 40):
            rng, ref = np.random.default_rng([seed, dim]), np.random.default_rng([seed, dim])
            w, perms = hermitian._draw_doubly_stochastic(rng, dim)
            ref_w = ref.uniform(size=dim + 2)
            ref_perms = np.array([ref.permutation(dim) for _ in range(dim + 2)])
            assert _bits(w) == _bits(ref_w) and perms.dtype == ref_perms.dtype
            assert np.array_equal(perms, ref_perms), (seed, dim)
            assert rng.random() == ref.random(), (seed, dim)
    for seed in range(50):
        for dim in range(2, 9):
            rng, ref = np.random.default_rng([seed, dim]), np.random.default_rng([seed, dim])
            kraus = hermitian._draw_cptp(rng, dim)
            ref_kraus = np.array([hermitian._draw_gaussian(ref, dim) for _ in range(3)])
            assert kraus.dtype == ref_kraus.dtype and _bits(kraus) == _bits(ref_kraus), (seed, dim)
            assert rng.random() == ref.random(), (seed, dim)


def _bits(x):
    return np.asarray(x).tobytes()


@st.composite
def _operator_stacks(draw):
    """A seed, a dimension and, per matrix, a sign pattern (-1, 0, 1) of its spectrum.

    Zero patterns give the zero operator; mixed patterns give every count of
    positive eigenvalues, so a stack spans several count groups.
    """
    d = draw(st.integers(1, 6))
    signs = draw(st.lists(st.lists(st.sampled_from((-1, 0, 1)), min_size=d, max_size=d), min_size=1, max_size=7))
    return draw(st.integers(0, 2**32 - 1)), d, signs


def _stack(seed, d, signs):
    rng = np.random.default_rng(seed)
    out = []
    for pattern in signs:
        u = rand_unitary(rng, d)
        out.append(_symmetrize((u * (np.array(pattern) * rng.uniform(0.1, 2.0, d))) @ u.conj().T))
    return np.array(out)


def _symmetrize(m):
    return (m + m.conj().T) / 2.0


@settings(max_examples=60, deadline=None)
@given(_operator_stacks())
def test_stacked_calculus_equals_per_matrix_calls_bit_for_bit(case):
    seed, d, signs = case
    a = _stack(seed, d, signs)
    rng = np.random.default_rng(seed + 1)
    n = [int(x) for x in rng.integers(1, 4, len(a))]
    x = [float(v) for v in rng.uniform(-1.0, 1.0, len(a))]
    rho = np.array([rand_density(rng, d) for _ in a])
    sigma = np.array([rand_density(rng, d) for _ in a])
    cptp = CPTPMap(tuple(np.array(k) for k in zip(*(_rand_cptp(rng, d).kraus for _ in a))))
    stochastic = StochasticMap(np.array([_rand_stochastic(rng, d).matrix for _ in a]))
    mix = TransposeMix(rng.uniform(0.0, 1.0, len(a)))
    # stochastic maps take diagonal arguments only
    diag = np.array([np.diag(np.diagonal(m)) for m in a])

    def projector(m):
        return hermitian._symmetrized(_projector(*np.linalg.eigh(m)))

    stacked = {
        "trace_plus": _positive_trace(a),
        "trace_norm": _trace_norm(a),
        "projector": projector(a),
        "cptp": _apply_tp(cptp, a),
        "stochastic": _apply_tp(stochastic, diag),
        "transpose": _apply_tp(mix, a),
        "tail_C": tail_C(rho, sigma, n, x),
        "tail_D": tail_D(rho, sigma, n, x),
    }
    # the stack's matrices are exactly Hermitian, as the verifiers' validation leaves them
    for i, m in enumerate(a):
        per_matrix = {
            "trace_plus": (_positive_trace(m), dense_oracle.trace_plus(m)),
            "trace_norm": (_trace_norm(m), dense_oracle.trace_norm(m)),
            "projector": (projector(m), dense_oracle.jordan(m)[2]),
            "cptp": (_apply_tp(CPTPMap(tuple(k[i] for k in cptp.kraus)), m),
                     dense_oracle.apply_tp(("cptp", tuple(k[i] for k in cptp.kraus)), m)),
            "stochastic": (_apply_tp(StochasticMap(stochastic.matrix[i]), diag[i]),
                           dense_oracle.apply_tp(("stochastic", stochastic.matrix[i]), diag[i])),
            "transpose": (_apply_tp(TransposeMix(float(mix.t[i])), m),
                          dense_oracle.apply_tp(("transpose_mix", float(mix.t[i])), m)),
            "tail_C": (tail_C(rho[i], sigma[i], n[i], x[i]), dense_oracle.tail_C(rho[i], sigma[i], n[i], x[i])),
            "tail_D": (tail_D(rho[i], sigma[i], n[i], x[i]), dense_oracle.tail_D(rho[i], sigma[i], n[i], x[i])),
        }
        for name, (single, oracle) in per_matrix.items():
            assert _bits(stacked[name][i]) == _bits(single) == _bits(oracle), (name, i)
    zeros = np.zeros((len(a), d, d), dtype=complex)
    assert _positive_trace(zeros[0]) == 0.0
    assert np.array_equal(projector(zeros), zeros)

    # each public verifier gives on a stack what it gives on stacks of one, violations included
    t = np.array([rand_contraction(rng, d) for _ in a])
    gamma = [float(g) for g in rng.uniform(0.05, 1.0, len(a))]
    diag_rho = np.array([rand_diagonal_density(rng, d) for _ in a])
    diag_sigma = np.array([rand_diagonal_density(rng, d) for _ in a])
    maps = (
        (cptp, lambda i: CPTPMap(tuple(k[i] for k in cptp.kraus))),
        (stochastic, lambda i: StochasticMap(stochastic.matrix[i])),
        (mix, lambda i: TransposeMix(float(mix.t[i]))),
    )

    def one(m, i):
        return m[i : i + 1]

    calls = [
        (verify_lemma_np, (a, t), lambda i: (one(a, i), one(t, i))),
        (verify_bd_sandwich, (rho, sigma, n, x, gamma), lambda i: (one(rho, i), one(sigma, i), n[i], x[i], gamma[i])),
        (verify_continuity, (rho, sigma, sigma, n, x),
         lambda i: (one(rho, i), one(sigma, i), one(sigma, i), n[i], x[i])),
        (verify_tail_monotonicity, (diag_rho, diag_sigma, stochastic, n, x),
         lambda i: (one(diag_rho, i), one(diag_sigma, i), maps[1][1](i), n[i], x[i])),
    ]
    for f, instance in maps:
        b = diag if f is stochastic else a
        calls.append((verify_lemma_bdm, (f, b), lambda i, instance=instance, b=b: (instance(i), one(b, i))))
        if f is not stochastic:
            calls.append((verify_tail_monotonicity, (rho, sigma, f, n, x),
                          lambda i, instance=instance: (one(rho, i), one(sigma, i), instance(i), n[i], x[i])))
    # a second pass flags every check, so every payload is built and compared
    finish = hermitian._finish
    flag_all = mock.patch.object(hermitian, "_finish", lambda checks, payload: finish(
        [(name, -1.0, 0.0) for name, _, _ in checks], payload))
    for patch in (nullcontext(), flag_all):
        with patch:
            for verify, args, stacks_of_one in calls:
                stacked = [_verdict(r) for r in verify(*args)]
                assert stacked == [_verdict(r) for i in range(len(a)) for r in verify(*stacks_of_one(i))], verify.__name__
                assert (patch is flag_all) == all(v[2] != "[]" for v in stacked)


def _verdict(r):
    return r.worst_slack.hex(), r.checks, json.dumps(r.violations)
