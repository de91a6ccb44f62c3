"""Every recorded benchmark output, checked in one process.

    PYTHONPATH=src python tests/digest_sweep.py

runs each op of `workloads.ops(w, seed)` for the four workloads and every
seed in perfbench/expected.json (0-23) through `cli.main`, and exits 1
unless each op passes `checks.check` against its recording, each op
recorded with a digest exits 0 and prints exactly that output, and each
`UNDERFLOW_OP` exits 3 (the named `iid_underflow_mass` budget).  The
benchmark files are only read.  pytest does not collect this file; tier-1
pins seeds 0 and 1 (tests/test_benchmark_digests.py).
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import time
from pathlib import Path

from entspec import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


def op_problems(argv, recorded: dict) -> tuple[list[str], bool]:
    """The problems with one op's run against its seed's recording, and
    whether the op was judged by its digest."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    stdout = out.getvalue()
    problems = checks.check(argv, code, stdout, recorded)
    reference = recorded.get(checks.op_key(argv))
    if reference is None:
        return problems + ["no recording"], False
    if reference["sha256"] is not None:
        if (code, checks.digest(stdout)) != (0, reference["sha256"]):
            problems.append(f"exit {code}, stdout sha256 {checks.digest(stdout)}: {err.getvalue().strip()}")
        return problems, True
    if tuple(argv) == workloads.UNDERFLOW_OP and code != 3:
        problems.append(f"exit {code}, not 3: {err.getvalue().strip()}")
    return problems, False


def main() -> int:
    recorded = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["ops"]
    t0 = time.perf_counter()
    failures = digests = underflows = 0
    for seed in sorted(recorded, key=int):
        ops = [argv for w in workloads.WORKLOADS for argv in workloads.ops(w, int(seed))]
        missing = set(recorded[seed]) - {checks.op_key(argv) for argv in ops}
        if missing:
            failures += 1
            print(f"seed {seed}: recorded ops no workload runs: {sorted(missing)}")
        for argv in ops:
            problems, by_digest = op_problems(argv, recorded[seed])
            digests += by_digest and not problems
            underflows += tuple(argv) == workloads.UNDERFLOW_OP and not problems
            if problems:
                failures += 1
                print(f"seed {seed}: {checks.op_key(argv)}: {'; '.join(problems)}")
    print(f"{len(recorded)} seeds: {digests} ops matched by digest, {underflows} underflow ops exited 3, "
          f"{failures} failures, {time.perf_counter() - t0:.1f} s")
    return 1 if failures or not digests or underflows != len(recorded) else 0


if __name__ == "__main__":
    sys.exit(main())
