import json
import math

import numpy as np
import pytest

from entspec.hermitian import (
    MAX_VERIFY_DIM,
    SUITES,
    Contraction,
    CPTPMap,
    HermitianOperator,
    StochasticMap,
    TransposeMix,
    apply_tp,
    jordan,
    rand_contraction,
    rand_cptp,
    rand_density,
    rand_diagonal_density,
    rand_doubly_stochastic,
    rand_hermitian,
    rand_spectrum,
    rand_stochastic,
    rand_unitary,
    run_suite,
    trace_norm,
    trace_plus,
    verify_bd_sandwich,
    verify_continuity,
    verify_lemma_bdm,
    verify_lemma_np,
    verify_product_tails,
    verify_tail_monotonicity,
)
from entspec.spectra import BudgetExceededError, Spectrum

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def _depolarizing(p=0.5):
    s = math.sqrt(p / 4.0)
    return CPTPMap((math.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2, dtype=complex), s * X, s * Y, s * Z))


def test_hermitian_construction():
    h = HermitianOperator([[1.0, 1.0j], [-1.0j, 2.0]])
    assert h.dimension == 2
    assert np.array_equal(np.asarray(h), h.entries)
    with pytest.raises(ValueError):
        HermitianOperator([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        HermitianOperator([[1.0, 2.0]])


def test_contraction_eigenvalue_gate():
    Contraction(np.diag([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        Contraction(np.diag([0.0, 1.5]))
    with pytest.raises(ValueError):
        Contraction(np.diag([-0.2, 0.5]))


def test_map_validation():
    with pytest.raises(ValueError):
        CPTPMap((np.eye(2, dtype=complex) * 2.0,))
    with pytest.raises(ValueError):
        StochasticMap(np.array([[0.9, 0.0], [0.0, 0.9]]))
    with pytest.raises(ValueError):
        TransposeMix(1.5)


def test_jordan_signed_diagonal():
    ap, am, pp, pn = jordan(np.diag([1.0, -1.0]))
    assert np.allclose(ap.entries, np.diag([1.0, 0.0]))
    assert np.allclose(am.entries, np.diag([0.0, 1.0]))
    assert np.allclose(pp.entries, np.diag([1.0, 0.0]))
    assert np.allclose(pn.entries, np.diag([0.0, 1.0]))


def test_jordan_zero_operator_convention():
    _, _, pp, pn = jordan(np.zeros((2, 2)))
    assert np.array_equal(pp.entries, np.zeros((2, 2)))
    assert np.array_equal(pn.entries, np.eye(2))


def test_jordan_reconstruction():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rand_hermitian(rng, 8)
        ap, am, pp, pn = jordan(a)
        assert np.abs(ap.entries - am.entries - a.entries).max() < 1e-9
        assert np.abs(pp.entries + pn.entries - np.eye(8)).max() < 1e-12
        assert abs(trace_plus(a) - np.trace(ap.entries).real) < 1e-9
        assert abs(trace_norm(a) - (np.trace(ap.entries) + np.trace(am.entries)).real) < 1e-9


def test_trace_plus_examples():
    assert trace_plus(np.diag([1.0, -1.0])) == 1.0
    assert trace_plus(np.diag([0.3, 0.2, -0.5])) == 0.5
    assert trace_plus(np.zeros((3, 3))) == 0.0


def test_trace_plus_halved_norm_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rand_hermitian(rng, 6)
        tr = float(np.trace(a.entries).real)
        assert abs(trace_plus(a) - 0.5 * (trace_norm(a) + tr)) < 1e-9


def test_lemma_np_attainment():
    r = verify_lemma_np(np.diag([1.0, -1.0]), 50)
    assert r.ok
    assert r.checks == 51  # 50 sampled contractions plus the attainment check
    assert r.worst_slack >= -1e-9
    rng = np.random.default_rng(4)
    for _ in range(10):
        assert verify_lemma_np(rand_hermitian(rng, 5), 20, rng=rng).ok


def test_apply_tp_identity_kraus_is_exact():
    ident = CPTPMap((np.eye(2, dtype=complex),))
    a = HermitianOperator([[0.3, 0.1], [0.1, 0.7]])
    assert np.array_equal(apply_tp(ident, a).entries, a.entries)


def test_apply_tp_transpose_mix():
    a = HermitianOperator([[0.3, 0.1j], [-0.1j, 0.7]])
    out = apply_tp(TransposeMix(1.0), a)
    assert np.array_equal(out.entries, a.entries.T)
    half = apply_tp(TransposeMix(0.5), a)
    assert np.abs(half.entries.imag).max() < 1e-15


def test_apply_tp_preserves_trace():
    rng = np.random.default_rng(15)
    for _ in range(20):
        a = rand_density(rng, 4)
        for f in (rand_cptp(rng, 4), TransposeMix(float(rng.uniform(0, 1)))):
            out = apply_tp(f, a)
            assert abs(np.trace(out.entries).real - 1.0) < 1e-10
        d = rand_diagonal_density(rng, 4)
        out = apply_tp(rand_stochastic(rng, 4), d)
        assert abs(np.trace(out.entries).real - 1.0) < 1e-10


def test_apply_tp_stochastic_on_diagonal():
    f = StochasticMap(np.array([[0.5, 1.0], [0.5, 0.0]]))
    out = apply_tp(f, np.diag([0.8, 0.2]))
    assert np.allclose(out.entries, np.diag([0.6, 0.4]), atol=1e-15)


def test_lemma_bdm_identity_and_depolarizing():
    a = np.diag([1.0, -1.0])
    r = verify_lemma_bdm(CPTPMap((np.eye(2, dtype=complex),)), a)
    assert r.ok and r.worst_slack == 0.0
    r2 = verify_lemma_bdm(_depolarizing(0.5), a)
    assert r2.ok
    assert abs(r2.worst_slack - 0.5) < 1e-12  # contraction by 1 - p


def test_bd_sandwich_hand_example():
    r = verify_bd_sandwich(np.diag([0.7, 0.3]), np.eye(2), 1, -0.5, 0.5)
    assert r.ok and r.checks == 2
    # tighter bound is the shifted cut: tail_C = 0.7 - e^{-1/2} vs 0 - e^{-1/4}
    assert abs(r.worst_slack - math.exp(-0.5)) < 1e-12


def test_bd_sandwich_validation():
    with pytest.raises(ValueError):
        verify_bd_sandwich(np.diag([0.7, 0.3]), np.eye(2), 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        verify_bd_sandwich(np.diag([0.7, 0.7]), np.eye(2), 1, 0.0, 0.1)


def test_continuity_identical_states():
    rho = np.diag([0.7, 0.3])
    r = verify_continuity(rho, rho, np.eye(2), 1, -0.5)
    assert r.ok and r.worst_slack == 0.0


def test_continuity_random_perturbations():
    rng = np.random.default_rng(21)
    for _ in range(20):
        rho = rand_density(rng, 4)
        rho2 = rand_density(rng, 4)
        sigma = rand_density(rng, 4)
        assert verify_continuity(rho, rho2, sigma, 2, float(rng.uniform(-1, 1))).ok


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


def test_monotonicity_identity_and_depolarizing():
    rho = np.diag([0.7, 0.3])
    sigma = np.eye(2)
    assert verify_tail_monotonicity(rho, sigma, CPTPMap((np.eye(2, dtype=complex),)), 1, -0.5).ok
    r = verify_tail_monotonicity(rho, sigma, _depolarizing(0.5), 1, -0.5)
    assert r.ok and r.worst_slack > 0.0


def test_monotonicity_rejects_stochastic_on_nondiagonal():
    rng = np.random.default_rng(1)
    rho = rand_density(rng, 3)
    with pytest.raises(ValueError):
        verify_tail_monotonicity(rho, np.eye(3) / 3.0, rand_stochastic(rng, 3), 1, 0.0)


def test_monotonicity_doubly_stochastic_diagonal():
    rng = np.random.default_rng(44)
    for _ in range(20):
        rho = rand_diagonal_density(rng, 5)
        f = rand_doubly_stochastic(rng, 5)
        assert verify_tail_monotonicity(rho, np.eye(5), f, 1, float(rng.uniform(-1, 0.5))).ok


def test_sampler_validity():
    rng = np.random.default_rng(100)
    u = rand_unitary(rng, 6)
    assert np.abs(u @ u.conj().T - np.eye(6)).max() < 1e-12
    f = rand_cptp(rng, 5)
    acc = sum(k.conj().T @ k for k in f.kraus)
    assert np.abs(acc - np.eye(5)).max() < 1e-12
    d = rand_doubly_stochastic(rng, 7)
    assert np.abs(d.matrix.sum(axis=0) - 1.0).max() < 1e-12
    assert np.abs(d.matrix.sum(axis=1) - 1.0).max() < 1e-12
    t = rand_contraction(rng, 4)
    w = np.linalg.eigvalsh(t.entries)
    assert w.min() >= -1e-10 and w.max() <= 1.0 + 1e-10
    s = rand_spectrum(rng, 9)
    assert s.total_dim <= 9 and abs(s.mass() - 1.0) < 1e-11


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
        monkeypatch.setitem(SUITES, name, SUITES[name]._replace(instance=boom))
        for dim in (1, 0, -3):
            with pytest.raises(ValueError, match="--dim"):
                run_suite(name, seed=1, trials=1, dim=dim)
        with pytest.raises(BudgetExceededError) as err:
            run_suite(name, seed=1, trials=1, dim=MAX_VERIFY_DIM + 1)
        assert err.value.budget == "max_verify_dim"
        with pytest.raises(AssertionError, match="sampled"):
            run_suite(name, seed=1, trials=1, dim=MAX_VERIFY_DIM)


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
