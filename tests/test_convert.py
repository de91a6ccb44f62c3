import math
from collections import Counter

import mpmath
import numpy as np
import pytest

from entspec import convert, spectra
from entspec.convert import (
    ConversionReport,
    RateVerdict,
    _sqrt_term,
    direct_convert,
    fixed_rate_experiment,
)
from entspec.hermitian import rand_spectrum
from entspec.infospec import entropy_proxies
from entspec.randgen import synthesize_map
from entspec.spectra import IID, MaxEnt, Spectrum, iid_spectrum, maxent_rank, maxent_spectrum


def _probs(*xs):
    return Spectrum.from_probs(list(xs))


def test_reflexive_conversion_is_lossless():
    r = direct_convert(_probs(0.5, 0.5), _probs(0.5, 0.5), 1)
    assert r.fidelity == 1.0
    assert r.trace_distance_lower == 0.0
    assert r.trace_distance_upper == 0.0
    assert r.synthesis.achieved_distance == 0.0
    assert r.nielsen_ok


def test_uniform_to_skewed_instance():
    r = direct_convert(_probs(0.5, 0.5), _probs(0.8, 0.2), 1)
    assert abs(r.synthesis.achieved_distance - 0.4) < 1e-12
    assert r.synthesis.pushforward.atoms == ((1.0, 1),)
    # all mass lands on the 0.8 label, so F = sqrt(0.8)
    assert abs(r.fidelity - math.sqrt(0.8)) < 1e-12
    assert r.nielsen_ok
    assert abs(r.trace_distance_upper - math.sqrt(1.0 - 0.8)) < 1e-12


def test_block_conversion_reaches_high_fidelity():
    p = iid_spectrum(_probs(0.5, 0.5), 50)
    q = iid_spectrum(_probs(0.8, 0.2), 50)
    r = direct_convert(p, q, 50)
    assert r.fidelity >= 0.95
    assert r.nielsen_ok


def test_bound_invariants_on_random_instances():
    rng = np.random.default_rng(29)
    for _ in range(50):
        p = rand_spectrum(rng, 10)
        q = rand_spectrum(rng, 6)
        r = direct_convert(p, q, 1)
        assert abs(r.trace_distance_lower - (1.0 - r.fidelity)) < 1e-12
        assert abs(r.trace_distance_upper - math.sqrt(max(0.0, 1.0 - r.fidelity ** 2))) < 1e-12
        assert r.trace_distance_lower <= r.trace_distance_upper + 1e-12
        assert r.nielsen_ok  # coarse-graining always majorizes its source
        f = math.fsum(_sqrt_term(c, mu, qv) for qv, mu, c in r.synthesis.assignments)
        assert abs(min(max(f, 0.0), 1.0) - r.fidelity) < 1e-12


@pytest.mark.parametrize("count, mu, qv", [(3, 1e-200, 1e-200), (7, 1e-160, 3e-150), (10**300, 1e-160, 1e-160)])
def test_sqrt_term_through_logs_matches_mpmath(count, mu, qv):
    # mu * qv lies below 1e-300 (0.0, 3e-310 and 1e-320 in doubles), so the
    # term is summed in logs
    assert mu * qv <= 1e-300
    with mpmath.workdps(50):
        exact = mpmath.mpf(count) * mpmath.sqrt(mpmath.mpf(mu) * mpmath.mpf(qv))
        assert abs((_sqrt_term(count, mu, qv) - exact) / exact) < 1e-12


def test_self_conversion_through_underflowing_terms_is_lossless():
    # 165 of the 304 fibers of IID(0.9, 0.1) at n = 400 onto itself have
    # mu * qv <= 1e-300 and take the log route
    s = iid_spectrum(_probs(0.9, 0.1), 400)
    r = direct_convert(s, s, 400)
    syn = r.synthesis
    assert sum(mu * qv <= 1e-300 for mu, qv in zip(syn.assigned_masses, syn.target_probs)) == 165
    assert r.fidelity == 1.0


def test_report_validation_rejects_inconsistent_fields():
    good = direct_convert(_probs(0.5, 0.5), _probs(0.8, 0.2), 1)
    fields = dict(n=good.n, source_spectrum=good.source_spectrum, synthesis=good.synthesis)
    for f in (-1e-9, 1.0 + 1e-9, math.nan):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            ConversionReport(**fields, nielsen_ok=True, fidelity=f)
    with pytest.raises(ValueError, match="majorization"):
        ConversionReport(**fields, nielsen_ok=False, fidelity=good.fidelity)
    with pytest.raises(ValueError, match="positive integer"):
        ConversionReport(**{**fields, "n": 0}, nielsen_ok=True, fidelity=good.fidelity)
    # a point mass cannot reach the flat intermediate (0.5, 0.5), so only
    # nielsen_ok=False is consistent
    spread = synthesize_map(_probs(0.5, 0.5), _probs(0.5, 0.5))
    with pytest.raises(ValueError, match="majorization"):
        ConversionReport(n=1, source_spectrum=_probs(1.0), synthesis=spread, nielsen_ok=True, fidelity=1.0)
    ConversionReport(n=1, source_spectrum=_probs(1.0), synthesis=spread, nielsen_ok=False, fidelity=1.0)


@pytest.mark.parametrize("task", ["concentration", "dilution"])
def test_direct_convert_builds_each_prefix_table_once(monkeypatch, task):
    """The certificate and the report's re-check both run `majorizes` on
    the source and the pushforward; each spectrum's prefix table is built
    by the first of them and read by the second."""
    built = Counter()

    def counting_cumulative_mass(atoms):
        built[id(atoms)] += 1
        return cumulative_mass(atoms)

    checked = []

    def counting_majorizes(p, q):
        checked.append((p, q))
        return majorizes(p, q)

    cumulative_mass, majorizes = spectra.cumulative_mass, convert.majorizes
    monkeypatch.setattr(spectra, "cumulative_mass", counting_cumulative_mass)
    monkeypatch.setattr(convert, "majorizes", counting_majorizes)
    modeled = iid_spectrum(_probs(0.6, 0.3, 0.1), 40)
    flat = maxent_spectrum(maxent_rank(0.5 if task == "concentration" else 1.2, 40))
    p, q = (modeled, flat) if task == "concentration" else (flat, modeled)
    r = direct_convert(p, q, 40)
    push = r.synthesis.pushforward
    assert checked == [(p, push), (p, push)]
    assert built == {id(p.atoms): 1, id(push.atoms): 1}


def test_concentration_below_entropy_rate_converges():
    v = fixed_rate_experiment("concentration", IID(_probs(0.9, 0.1)), 0.2, (50, 100, 200))
    errs = [r.trace_distance_upper for r in v.reports]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.2
    assert all(rep.nielsen_ok for rep in v.reports)


def test_concentration_above_entropy_rate_stalls():
    v = fixed_rate_experiment("concentration", IID(_probs(0.9, 0.1)), 0.45, (100, 150, 200))
    assert all(r.trace_distance_upper >= 0.5 for r in v.reports)


def test_error_decay_forces_rate_below_proxies():
    # contrapositive of the converse bound: a vanishing error at rate R means
    # the source's lower entropy proxy cannot sit far below R
    for rate in (0.1, 0.2, 0.3):
        v = fixed_rate_experiment("concentration", IID(_probs(0.9, 0.1)), rate, (200,))
        n, err = v.reports[-1].n, v.reports[-1].trace_distance_upper
        if err <= 0.1:
            src = v.reports[-1].source_spectrum
            for eps in (0.1, 0.25):
                lo, _ = entropy_proxies(src, n, [eps])[0]
                assert lo >= rate - 0.05


def test_flat_concentration_just_below_rate():
    rate = math.log(2.0) - 0.05
    v = fixed_rate_experiment("concentration", MaxEnt(math.log(2.0)), rate, (20, 40, 80))
    errs = [r.trace_distance_upper for r in v.reports]
    assert all(e <= 0.2 for e in errs)
    assert errs[-1] < 0.01


def test_flat_dilution_at_exact_rate_is_lossless():
    v = fixed_rate_experiment("dilution", MaxEnt(math.log(2.0)), math.log(2.0), (20, 40, 80))
    assert all(r.trace_distance_upper == 0.0 for r in v.reports)
    assert v.task == "dilution"


def test_rate_verdict_json_shape():
    v = fixed_rate_experiment("concentration", MaxEnt(math.log(2.0)), math.log(2.0) - 0.05, (20,))
    d = v.to_json_dict()
    assert d["task"] == "concentration"
    assert abs(d["rate"] - (math.log(2.0) - 0.05)) < 1e-15
    row = d["series"][0]
    assert set(row) == {"n", "error", "fidelity", "nielsen_ok"}
    assert row["n"] == 20
    assert abs(row["error"] - 0.08671897677207832) < 1e-12
    assert isinstance(row["nielsen_ok"], bool)


def test_rate_verdict_validation():
    v = fixed_rate_experiment("concentration", MaxEnt(math.log(2.0)), 0.5, (20, 30))
    with pytest.raises(ValueError, match="unknown task"):
        RateVerdict(task="swap", rate=0.5, reports=v.reports)


@pytest.mark.parametrize("task", ["swap", "Concentration", "", None])
def test_fixed_rate_experiment_rejects_an_unknown_task_before_generating(monkeypatch, task):
    # the message is RateVerdict's, and no spectrum is generated or converted
    calls = []
    monkeypatch.setattr(convert, "generate", lambda *a, **k: calls.append("generate"))
    monkeypatch.setattr(convert, "direct_convert", lambda *a, **k: calls.append("direct_convert"))
    with pytest.raises(ValueError) as err:
        fixed_rate_experiment(task, MaxEnt(math.log(2.0)), 0.5, (20, 30))
    with pytest.raises(ValueError) as verdict_err:
        RateVerdict(task=task, rate=0.5, reports=())
    assert str(err.value) == str(verdict_err.value) == f"unknown task {task!r}"
    assert calls == []
    assert convert.TASKS == ("concentration", "dilution")
