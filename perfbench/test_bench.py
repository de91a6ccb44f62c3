"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

cli = run.import_cli()
from entspec.spectra import IID, Spectrum, generate  # noqa: E402  (needs src/ on the path)

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "convert", "hermitian", "infospec", "majorize", "randgen", "spectra")


def test_generator_is_deterministic_and_atom_counts_do_not_depend_on_the_seed():
    seen = set()
    for seed in range(24):
        probs = workloads.base(seed)
        seen.add(probs)
        assert len(set(probs)) == 3 and math.isclose(sum(probs), 1.0)
        assert all(abs(p - c / 10_000) <= 2 * workloads.JITTER / 10_000 for p, c in zip(probs, workloads.CENTRE))
        for w in workloads.WORKLOADS:
            assert workloads.ops(w, seed) == workloads.ops(w, seed)
    assert len(seen) > 20
    for seed in (0, 1, 5, 17):
        model = IID(Spectrum.from_probs(list(workloads.base(seed))))
        for n in workloads.RATES_N + workloads.CONCENTRATE_N + workloads.DILUTE_N:
            assert len(generate(model, n).atoms) == math.comb(n + 2, 2)


def test_underflow_op_stays_in_every_rates_pass():
    for seed in (0, 3, 11):
        assert workloads.ops("rates", seed)[-1] == workloads.UNDERFLOW_OP


def _namespaces():
    return {m: dict(vars(import_module("entspec." + m))) for m in MODULES}


def _assert_same(before, after):
    for module, attrs in before.items():
        assert attrs.keys() == after[module].keys()
        assert all(after[module][k] is v for k, v in attrs.items()), module


def test_wrappers_leave_every_module_attribute_as_they_found_it():
    before = _namespaces()
    with spans.traced(spans.Tracer()):
        convert = import_module("entspec.convert")
        assert convert.synthesize_map is not before["convert"]["synthesize_map"]
    _assert_same(before, _namespaces())
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()):
            raise RuntimeError("boom")
    _assert_same(before, _namespaces())


def test_traced_op_counts_atoms_fibers_and_calls():
    tracer = spans.Tracer()
    tally = run.Tally({})
    ops = [("concentrate", "iid:0.6,0.3,0.1", "--rate", "0.5", "--n", "10"), ("verify", "kh", "greedy-vs-brute", "--trials", "3")]
    with spans.traced(tracer):
        run.run_pass(cli, ops, tally, [], tracer)
    got = {name: value for name, (value, _) in spans.layer_metrics(tracer.spans, list(checks.SUITES)).items()}
    source_atoms = math.comb(12, 2)
    assert got["spectra.generate.calls"] == 1 and got["spectra.generate.atoms_out"] == source_atoms
    assert got["convert.direct_convert.calls"] == 1
    # the conversion's own check plus the report's re-check
    assert got["majorize.majorizes.calls"] == 2
    # one conversion too large to materialize, three small greedy-vs-brute maps
    assert got["randgen.synthesize_map.calls"] == 1 + 3
    assert got["randgen.synthesize_map.maps_materialized"] == 3
    assert got["randgen.synthesize_map.atoms_in"] >= source_atoms + 1
    assert got["randgen.brute_force_optimal.calls"] == 3
    # kh: pushforward, prefix_gap_min, kh_certificate, kh_residual; greedy-vs-brute: pushforward
    assert got["majorize.certificates.calls"] == 3 * 4 + 3
    assert got["hermitian.suite.kh.checks"] == 9 and got["hermitian.suite.greedy-vs-brute.checks"] == 6
    assert got["hermitian.suite.np.s"] == 0
    assert got["convert.direct_convert.self_s"] >= 0 and got["hermitian.self_s"] > 0 and got["cli.self_s"] > 0
    assert got["convert.direct_convert.s"] >= got["majorize.majorizes.s"]
    assert {r["op"] for r in tracer.spans} == {checks.op_key(op) for op in ops}


def _output(argv):
    _, code, stdout, _ = run.run_op(cli, argv)
    assert code == 0
    return stdout


def _replace_row(stdout, index, fields):
    lines = stdout.splitlines()
    lines[index] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_checker_accepts_real_rates_output_and_rejects_corrupted_rows():
    argv = ("rates", "iid:0.6,0.3,0.1", "--n", "20", "--eps", "0.01,0.1,0.25")
    good = _output(argv)
    assert checks.check(argv, 0, good, {}) == []
    n, e, lo, hi = good.splitlines()[1].split(",")
    assert checks.check(argv, 0, _replace_row(good, 1, [n, e, hi, lo]), {})
    n2, e2, lo2, hi2 = good.splitlines()[2].split(",")
    assert checks.check(argv, 0, _replace_row(good, 2, [n2, e2, repr(float(lo) / 2), hi2]), {})
    assert checks.check(argv, 0, "\n".join(good.splitlines()[:-1]) + "\n", {})
    assert checks.check(argv, 0, "", {})


def test_checker_rejects_corrupted_conversion_rows():
    argv = ("concentrate", "iid:0.6,0.3,0.1", "--rate", "0.5", "--n", "12")
    good = _output(argv)
    assert checks.check(argv, 0, good, {}) == []
    n, err, fid, _ = good.splitlines()[1].split(",")
    assert checks.check(argv, 0, _replace_row(good, 1, [n, err, fid, "false"]), {})
    assert checks.check(argv, 0, _replace_row(good, 1, [n, repr(float(err) * 1.01 + 1e-9), fid, "true"]), {})
    assert checks.check(argv, 0, _replace_row(good, 1, [n, "0.0", "1.5", "true"]), {})


def test_checker_rejects_failed_suites_and_wrong_check_counts():
    argv = ("verify", "all", "--seed", "3")
    suites = [
        {"suite": s, "seed": 3, "trials": t, "checks": c, "ok": True, "violations": []}
        for s, (t, c) in checks.SUITES.items()
    ]
    assert checks.check(argv, 0, json.dumps({"seed": 3, "suites": suites}), {}) == []
    suites[0]["checks"] -= 1
    assert checks.check(argv, 0, json.dumps({"seed": 3, "suites": suites}), {})
    suites[0]["checks"] += 1
    suites[-1].update(ok=False, violations=[{"instance_index": 4}])
    assert checks.check(argv, 1, json.dumps({"seed": 3, "suites": suites}), {})


def test_checker_rejects_a_changed_digest():
    argv = ("rates", "iid:0.6,0.3,0.1", "--n", "20", "--eps", "0.1")
    good = _output(argv)
    recorded = {checks.op_key(argv): {"code": 0, "sha256": checks.digest(good)}}
    assert checks.check(argv, 0, good, recorded) == []
    # still a valid row, but not the seed commit's bytes
    n, e, lo, hi = good.splitlines()[1].split(",")
    nudged = _replace_row(good, 1, [n, e, repr(math.nextafter(float(lo), 0.0)), hi])
    assert checks.check(argv, 0, nudged, {}) == []
    assert checks.check(argv, 0, nudged, recorded) == ["stdout differs from the seed commit's"]
    # an op that failed at the seed commit has no digest to match
    fixed = {checks.op_key(argv): {"code": 2, "sha256": None}}
    assert checks.check(argv, 0, nudged, fixed) == []


def test_a_non_zero_exit_counts_as_failed_but_not_as_a_wrong_result():
    tally = run.Tally({})
    tally.add(workloads.UNDERFLOW_OP, 2, "", "error: spectrum mass deviates from 1")
    assert (tally.attempted, tally.failed, tally.problems) == (1, 1, [])


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    layers = spans.layer_metrics([], list(checks.SUITES))
    per_layer = {name: unit for name, (_, unit) in layers.items()}
    per_layer.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.dominant_share": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
