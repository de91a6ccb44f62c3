import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entspec import hermitian
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
from entspec.infospec import tail_C, tail_D
from entspec.spectra import BudgetExceededError, Spectrum

import dense_oracle

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
        monkeypatch.setitem(SUITES, name, SUITES[name]._replace(draw=boom))
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
def test_stacked_suites_match_per_instance_oracle_bit_for_bit(name):
    # 150 trials span a chunk boundary; every instance's margins, check counts
    # and violations equal the per-instance evaluation's
    for seed in (0, 7, 11):
        for dim in (2, 5, 8):
            assert _stacked_results(name, seed, 150, dim) == _oracle_results(name, seed, 150, dim), (seed, dim)
    # six instances cover every map family, at the largest allowed dimension
    assert _stacked_results(name, 5, 6, MAX_VERIFY_DIM) == _oracle_results(name, 5, 6, MAX_VERIFY_DIM)


@pytest.mark.parametrize("name", DENSE_SUITES)
def test_suite_results_do_not_depend_on_the_chunk_size(name, monkeypatch):
    stacked = _stacked_results(name, 3, 40, 8)
    report = run_suite(name, seed=3, trials=40).to_json_dict()
    monkeypatch.setattr(hermitian, "_CHUNK", 1)
    assert _stacked_results(name, 3, 40, 8) == stacked
    assert run_suite(name, seed=3, trials=40).to_json_dict() == report


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
    rho = np.array([rand_density(rng, d).entries for _ in a])
    sigma = np.array([rand_density(rng, d).entries for _ in a])
    cptp = CPTPMap(tuple(np.array(k) for k in zip(*(rand_cptp(rng, d).kraus for _ in a))))
    stochastic = StochasticMap(np.array([rand_stochastic(rng, d).matrix for _ in a]))
    mix = TransposeMix(rng.uniform(0.0, 1.0, len(a)))
    # half of the stochastic arguments diagonal, half not: both branches in one stack
    diag = a.copy()
    diag[::2] = [np.diag(np.diagonal(m)) for m in a[::2]]

    stacked = {
        "trace_plus": trace_plus(a),
        "trace_norm": trace_norm(a),
        "jordan": jordan(a),
        "cptp": apply_tp(cptp, a),
        "stochastic": apply_tp(stochastic, diag),
        "transpose": apply_tp(mix, a),
        "tail_C": tail_C(rho, sigma, n, x),
        "tail_D": tail_D(rho, sigma, n, x),
    }
    for i, m in enumerate(a):
        op = HermitianOperator(m)
        per_matrix = {
            "trace_plus": (trace_plus(op), dense_oracle.trace_plus(op.entries)),
            "trace_norm": (trace_norm(op), dense_oracle.trace_norm(op.entries)),
            "jordan": ([p.entries for p in jordan(op)], dense_oracle.jordan(op.entries)),
            "cptp": (apply_tp(CPTPMap(tuple(k[i] for k in cptp.kraus)), op).entries,
                     dense_oracle.apply_tp(("cptp", tuple(k[i] for k in cptp.kraus)), op.entries)),
            "stochastic": (apply_tp(StochasticMap(stochastic.matrix[i]), diag[i]).entries,
                           dense_oracle.apply_tp(("stochastic", stochastic.matrix[i]), HermitianOperator(diag[i]).entries)),
            "transpose": (apply_tp(TransposeMix(float(mix.t[i])), op).entries,
                          dense_oracle.apply_tp(("transpose_mix", float(mix.t[i])), op.entries)),
            "tail_C": (tail_C(rho[i], sigma[i], n[i], x[i]), dense_oracle.tail_C(rho[i], sigma[i], n[i], x[i])),
            "tail_D": (tail_D(rho[i], sigma[i], n[i], x[i]), dense_oracle.tail_D(rho[i], sigma[i], n[i], x[i])),
        }
        for name, (single, oracle) in per_matrix.items():
            got = [p[i] for p in stacked[name]] if name == "jordan" else stacked[name][i]
            assert _bits(got) == _bits(single) == _bits(oracle), (name, i)
    assert trace_plus(np.zeros((d, d))) == 0.0
    assert np.array_equal(jordan(np.zeros((len(a), d, d)))[3], np.broadcast_to(np.eye(d), (len(a), d, d)))

    # a violation found on the stack reports instance i exactly as a per-instance call would
    forced = [[("forced", -1.0, 0.0)] for _ in a]
    maps = (
        (cptp, lambda i: CPTPMap(tuple(k[i] for k in cptp.kraus))),
        (stochastic, lambda i: StochasticMap(stochastic.matrix[i])),
        (mix, lambda i: TransposeMix(float(mix.t[i]))),
    )
    for f, instance in maps:
        from_stack = hermitian._results(forced, map=f, operator=a, n=n)
        for i, res in enumerate(from_stack):
            single = instance(i)
            expected = hermitian._finish(forced[i], hermitian._payload(map=single, operator=HermitianOperator(a[i]), n=n[i]))
            assert json.dumps(res.violations) == json.dumps(expected.violations)
