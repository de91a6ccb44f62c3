"""End-to-end acceptance checks.

Every test prints one CRITERION verdict line, so the -rA report doubles as a
scoreboard.  Runtime limits are asserted where a check is meant to stay cheap.

The first check is recorded as an expected failure: at n = 400 the eps = 0.1
quantile proxies of IID(0.9, 0.1) sit exactly 8 ln(9) / 400 = 0.0439 nats from
the entropy, which no correct quantile computation can bring inside the 0.03
band (the companion check pins our values to exact rational binomial
quantiles; the band first holds at n = 775 and for every n >= 872).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from entspec import cli
from entspec.convert import concentration_experiment, dilution_experiment
from entspec.hermitian import run_suite
from entspec.infospec import entropy_proxies
from entspec.randgen import brute_force_optimal, synthesize_map
from entspec.spectra import IID, Mixture, Spectrum, generate

H_BERNOULLI = 0.9 * math.log(10.0 / 9.0) + 0.1 * math.log(10.0)  # = 0.325083
LN2 = math.log(2.0)


def _binomial_rate(k: int, n: int) -> float:
    return ((n - k) * math.log(10.0 / 9.0) + k * math.log(10.0)) / n


def _exact_binomial_quantile_types(n: int, eps: Fraction, weight: Fraction):
    """First type counts whose exact weighted binomial(n, 1/10) cumulative mass
    passes eps (strictly) and 1 - eps (non-strictly)."""
    p, q = Fraction(1, 10), Fraction(9, 10)
    cum = Fraction(0)
    k_lo = k_hi = None
    for k in range(n + 1):
        cum += Fraction(math.comb(n, k)) * q ** (n - k) * p ** k * weight
        if k_lo is None and cum > eps:
            k_lo = k
        if k_hi is None and cum >= 1 - eps:
            k_hi = k
        if k_lo is not None and k_hi is not None:
            return k_lo, k_hi
    return k_lo, k_hi


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="quantile granularity: at n=400 both eps=0.1 proxies of IID(0.9,0.1) sit "
    "8*ln(9)/400 = 0.0439 nats from the entropy; a 0.03 band first holds at n=775",
)
def test_iid_proxies_within_declared_band():
    s = generate(IID(Spectrum.from_probs([0.9, 0.1])), 400)
    lo, hi = entropy_proxies(s, 400, [0.1])[0]
    print(
        f"CRITERION 1 (iid proxy band): lower off by {abs(lo - H_BERNOULLI):.6f}, "
        f"upper off by {abs(hi - H_BERNOULLI):.6f}, band 0.03"
    )
    assert abs(lo - H_BERNOULLI) <= 0.03
    assert abs(hi - H_BERNOULLI) <= 0.03


def test_iid_proxies_match_exact_binomial_quantiles():
    t0 = time.perf_counter()
    s = generate(IID(Spectrum.from_probs([0.9, 0.1])), 400)
    lo, hi = entropy_proxies(s, 400, [0.1])[0]
    k_lo, k_hi = _exact_binomial_quantile_types(400, Fraction(1, 10), Fraction(1))
    assert (k_lo, k_hi) == (32, 48)
    assert abs(lo - _binomial_rate(k_lo, 400)) < 1e-12
    assert abs(hi - _binomial_rate(k_hi, 400)) < 1e-12
    gap = 8.0 * math.log(9.0) / 400.0
    assert abs(abs(lo - H_BERNOULLI) - gap) < 1e-12
    assert abs(abs(hi - H_BERNOULLI) - gap) < 1e-12
    assert gap <= 0.045
    elapsed = time.perf_counter() - t0
    print(
        "CRITERION 1 (iid proxy band): FAIL at the stated 0.03: both proxies are the "
        f"exact binomial quantile rates (types 32 and 48), each {gap:.6f} nats from the "
        f"entropy; no tighter value exists at n=400. {elapsed:.2f}s"
    )
    assert elapsed < 5.0


def test_mixture_proxies_split_between_component_rates():
    t0 = time.perf_counter()
    model = Mixture(
        (
            (0.5, IID(Spectrum.from_probs([0.9, 0.1]))),
            (0.5, IID(Spectrum.from_probs([0.5, 0.5]))),
        )
    )
    s = generate(model, 400)
    lo, hi = entropy_proxies(s, 400, [0.25])[0]
    assert abs(lo - H_BERNOULLI) <= 0.05
    assert abs(hi - LN2) <= 0.05
    # independent oracle: the lower proxy is the weighted median type of the
    # skewed half, the upper the flat rate of the uniform half
    k_lo, _ = _exact_binomial_quantile_types(400, Fraction(1, 4), Fraction(1, 2))
    assert k_lo == 40
    want_lo = (360.0 * math.log(10.0 / 9.0) + 40.0 * math.log(10.0) + LN2) / 400.0
    want_hi = LN2 * 401.0 / 400.0
    assert abs(lo - want_lo) < 1e-12
    assert abs(hi - want_hi) < 1e-12
    elapsed = time.perf_counter() - t0
    print(
        f"CRITERION 2 (mixture rate split): PASS: proxies ({lo:.6f}, {hi:.6f}) land "
        f"{abs(lo - H_BERNOULLI):.6f} and {abs(hi - LN2):.6f} from the component rates "
        f"(band 0.05) and match the per-component oracle to 1e-12. {elapsed:.2f}s"
    )
    assert elapsed < 10.0


def test_conversion_converges_below_rate_limits():
    model = IID(Spectrum.from_probs([0.9, 0.1]))
    t0 = time.perf_counter()
    conc = concentration_experiment(model, 0.2, (50, 100, 200))
    t_conc = time.perf_counter() - t0
    errs_c = [r.trace_distance_upper for r in conc.reports]
    assert all(b < a for a, b in zip(errs_c, errs_c[1:]))
    assert errs_c[-1] < 0.2
    t0 = time.perf_counter()
    dilu = dilution_experiment(model, 0.45, (50, 100, 200))
    t_dilu = time.perf_counter() - t0
    errs_d = [r.trace_distance_upper for r in dilu.reports]
    assert all(b < a for a, b in zip(errs_d, errs_d[1:]))
    assert errs_d[-1] < 0.2
    print(
        "CRITERION 3 (achievable-rate convergence): PASS: concentration at 0.2 errors "
        f"{[round(e, 4) for e in errs_c]} ({t_conc:.2f}s), dilution at 0.45 errors "
        f"{[round(e, 4) for e in errs_d]} ({t_dilu:.2f}s), both strictly decreasing"
    )
    assert t_conc < 30.0 and t_dilu < 30.0


def test_conversion_obstructed_beyond_rate_limits():
    model = IID(Spectrum.from_probs([0.9, 0.1]))
    conc = concentration_experiment(model, 0.45, (100, 150, 200))
    dilu = dilution_experiment(model, 0.2, (100, 150, 200))
    errs = [r.trace_distance_upper for r in conc.reports] + [r.trace_distance_upper for r in dilu.reports]
    assert all(e >= 0.5 for e in errs)
    print(
        "CRITERION 4 (rate obstruction): PASS: concentration at 0.45 and dilution at "
        f"0.2 keep error >= 0.5 on n in (100, 150, 200); measured min {min(errs):.4f}"
    )


def test_operator_inequality_suites_run_clean():
    t0 = time.perf_counter()
    names = ("np", "bdm", "bd", "continuity", "product", "monotonicity")
    reports = [run_suite(name, seed=7, trials=1000, dim=8) for name in names]
    elapsed = time.perf_counter() - t0
    for r in reports:
        assert r.ok, f"{r.suite}: {r.violations[:1]}"
        assert r.trials == 1000
    worst = {r.suite: float(f"{r.worst_slack:.3g}") for r in reports}
    print(
        f"CRITERION 5 (operator suites): PASS: 6 suites x 1000 instances, zero "
        f"violations, worst slacks {worst}, {elapsed:.2f}s"
    )
    assert elapsed < 60.0


def test_coupling_certificates_run_clean():
    r = run_suite("kh", seed=7, trials=500)
    assert r.ok and r.trials == 500
    print(
        "CRITERION 6 (coupling certificates): PASS: 500 random map instances, every "
        "pushforward majorizes its source, every certificate bistochastic and "
        f"reproducing the source within 1e-10 (worst slack {r.worst_slack:.3g})"
    )


_GAP_EDGES = ((0.0, "0"), (0.01, "(0,0.01]"), (0.05, "(0.01,0.05]"), (0.1, "(0.05,0.1]"), (0.5, "(0.1,0.5]"), (2.0, "(0.5,2]"))


def test_greedy_optimality_gap_on_small_grids():
    rng = np.random.default_rng(900)
    hist = {label: 0 for _, label in _GAP_EDGES}
    gaps = []
    for nx in range(1, 7):
        for ny in range(1, 4):
            for _ in range(10):
                p = Spectrum.from_probs([float(v) for v in rng.dirichlet(np.ones(nx))])
                q = Spectrum.from_probs([float(v) for v in rng.dirichlet(np.ones(ny))])
                g = synthesize_map(p, q)
                b = brute_force_optimal(p, q)
                gap = g.achieved_distance - b.achieved_distance
                assert gap >= -1e-12
                gaps.append(gap)
                for edge, label in _GAP_EDGES:
                    if gap <= edge + 1e-15:
                        hist[label] += 1
                        break
    suite = run_suite("greedy-vs-brute", seed=7, trials=500)
    assert suite.ok
    shown = ", ".join(f"{label}: {c}" for label, c in hist.items())
    print(
        "CRITERION 7 (greedy vs exhaustive): PASS: greedy never beats the optimum on "
        f"{len(gaps)} instances covering every source dim <= 6 and target dim <= 3; "
        f"gap histogram {{{shown}}}; max gap {max(gaps):.4f}; 500-instance suite "
        f"histogram {suite.extras['gap_histogram']}"
    )


def test_transfer_contract_runs_clean():
    r = run_suite("transfer", seed=7, trials=500)
    assert r.ok and r.trials == 500
    print(
        "CRITERION 8 (transfer contract): PASS: 500 random majorized pairs, every "
        "matrix bistochastic within 1e-10 and carrying target to source within 1e-8 "
        f"(worst slack {r.worst_slack:.3g})"
    )


def test_outputs_are_deterministic(tmp_path):
    pairs = []
    for stem, argv in (
        ("verify", ["verify", "all", "--seed", "7"]),
        (
            "conc",
            ["concentrate", "iid:0.9,0.1", "--rate", "0.2", "--n", "50,100", "--format", "json"],
        ),
    ):
        files = []
        for tag in ("a", "b"):
            dest = tmp_path / f"{stem}-{tag}.json"
            code = cli.main(argv + ["--out", str(dest)])
            assert code == 0
            files.append(dest.read_bytes())
        pairs.append((stem, files[0] == files[1]))
    assert all(same for _, same in pairs)
    suites = json.loads((tmp_path / "verify-a.json").read_text())["suites"]
    assert all(s["ok"] for s in suites)
    print(
        "CRITERION 9 (determinism): PASS: repeated `verify all --seed 7` and repeated "
        "concentration runs produce byte-identical reports"
    )
