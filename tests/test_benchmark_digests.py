"""The benchmark's recorded outputs hold for seed 0 of every workload.

perfbench/expected.json records, per op, the exit code and stdout SHA-256 of
each command line the benchmark runs.  This runs seed 0's ops in-process:
an op recorded with a digest must exit 0 and print exactly that output; an
op recorded without one (it failed when recorded) is judged by the
benchmark's own output checks alone.  The benchmark files are only read.
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
RECORDED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["ops"]["0"]
OPS = [argv for w in workloads.WORKLOADS for argv in workloads.ops(w, 0)]


@pytest.mark.parametrize("argv", OPS, ids=checks.op_key)
def test_seed_zero_op_matches_the_recorded_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    stdout = out.getvalue()
    assert checks.check(argv, code, stdout, RECORDED) == []
    reference = RECORDED[checks.op_key(argv)]
    if reference["sha256"] is not None:
        assert (code, checks.digest(stdout)) == (0, reference["sha256"]), err.getvalue()
