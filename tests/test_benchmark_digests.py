"""The benchmark's recorded outputs hold for seed 0 of every workload and
for seed 1 of the synthesis workloads and of `verify`.

perfbench/expected.json records, per op, the exit code and stdout SHA-256 of
each command line the benchmark runs.  This runs those ops in-process: an op
recorded with a digest must exit 0 and print exactly that output; an op
recorded without one (it failed when recorded) is judged by the benchmark's
own output checks alone.  Seed 1 moves the base distribution off the centre,
so the greedy synthesis of `concentrate` and `dilute` is pinned on a second
set of numbers; seed 1's `verify all` draws a second set of suite instances,
so the certificates' margins (`prefix_gap_min` in `kh`, `transfer_matrix`
in `transfer`) are pinned on them too.  The benchmark files are only read.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from entspec import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")
RECORDED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["ops"]
OPS = [argv for w in workloads.WORKLOADS for argv in workloads.ops(w, 0)]
SYNTHESIS_OPS = [argv for w in ("concentrate", "dilute") for argv in workloads.ops(w, 1)]
VERIFY_OPS = workloads.ops("verify", 1)


def _assert_matches_recording(argv, seed):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    stdout = out.getvalue()
    recorded = RECORDED[str(seed)]
    assert checks.check(argv, code, stdout, recorded) == []
    reference = recorded[checks.op_key(argv)]
    if reference["sha256"] is not None:
        assert (code, checks.digest(stdout)) == (0, reference["sha256"]), err.getvalue()


@pytest.mark.parametrize("argv", OPS, ids=checks.op_key)
def test_seed_zero_op_matches_the_recorded_output(argv):
    _assert_matches_recording(argv, 0)


@pytest.mark.parametrize("argv", SYNTHESIS_OPS, ids=checks.op_key)
def test_seed_one_synthesis_op_matches_the_recorded_output(argv):
    _assert_matches_recording(argv, 1)


@pytest.mark.parametrize("argv", VERIFY_OPS, ids=checks.op_key)
def test_seed_one_verify_op_matches_the_recorded_output(argv):
    _assert_matches_recording(argv, 1)
