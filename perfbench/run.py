"""Closed-loop, single-client benchmark of the `entspec` command line.

    python3 perfbench/run.py --workload rates --seed 1 --seconds 30 --trace 0

Runs the workload's ops (see workloads.py) through `entspec.cli.main` in
this process, one after another, pass after pass, checking every output
(see checks.py).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ops run, "failed": ops that exited non-zero
     or printed a wrong result, "metrics": {name: {"value": v, "unit": u}}}

`correct` is false when any printed result broke a check.  With --trace 0
the metrics are end to end: `wall_s`, the median time of one pass, and
`setup_s`, the median over fresh interpreters of importing `entspec.cli` and
building its parser, both scaled to the reference host's speed (see
calibrate.py; the raw seconds go to stderr); `peak_rss_mb`, this process's
peak resident set.  With --trace 1
a second set of passes ends with one traced pass, and the metrics are that
pass's per-layer spans (see spans.py) plus the tracing overhead.  Spans are
written to perfbench/out/ when the run ends.

The program is imported from src/ next to this directory and nowhere else;
without it the benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path

import calibrate
import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

SETUP_SAMPLES = 5
MIN_PASSES = 3
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import entspec.cli
entspec.cli.build_parser()
elapsed = time.perf_counter() - start
if not entspec.cli.__file__.startswith(sys.argv[1]):
    sys.exit("entspec was imported from outside " + sys.argv[1])
print(elapsed)
"""
# the layer each workload is built to stress; its share of the traced pass
# is reported as trace.dominant_share
DOMINANT = {
    "rates": ["infospec.entropy_proxies.s"],
    "concentrate": ["randgen.synthesize_map.s"],
    "dilute": ["majorize.majorizes.s"],
    "verify": [f"hermitian.suite.{s}.s" for s in checks.SUITES],
}


def measure_setup(calibration: list) -> list[float]:
    """Cold import of entspec.cli plus its parser, once per fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
        calibration.append(calibrate.loop())
    return samples


def import_cli():
    if not (SRC / "entspec" / "cli.py").is_file():
        raise SystemExit(f"entspec sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = import_module("entspec.cli")
    if Path(cli.__file__).resolve().parent != SRC / "entspec":
        raise SystemExit(f"entspec was imported from {cli.__file__}, not from {SRC}")
    return cli


class Tally:
    """Ops attempted and failed, and every problem found in their output."""

    def __init__(self, recorded: dict):
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: set[str] = set()

    def add(self, argv, code: int, stdout: str, stderr: str) -> None:
        found = checks.check(argv, code, stdout, self.recorded)
        self.attempted += 1
        if code != 0 or found:
            self.failed += 1
        if code != 0:
            self.errors.add(f"exit {code}: {checks.op_key(argv)}: {stderr.strip()[:200]}")
        self.problems += [f"{checks.op_key(argv)}: {p}" for p in found]


def run_op(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return argv, code, out.getvalue(), err.getvalue()


def run_pass(cli, ops, tally: Tally, calibration: list, tracer=None) -> float:
    """One pass over the ops; returns the time spent in them.

    A calibration loop follows each op, outside the timed intervals, and so
    do the output checks.
    """
    results = []
    elapsed = 0.0
    for argv in ops:
        start = time.perf_counter()
        if tracer is None:
            results.append(run_op(cli, argv))
        else:
            tracer.op = checks.op_key(argv)
            with tracer.span("cli"):
                results.append(run_op(cli, argv))
        elapsed += time.perf_counter() - start
        calibration.append(calibrate.loop())
    for result in results:
        tally.add(*result)
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    calibrate.loop()  # the first call pays NumPy's lazy set-up
    calibration: list[float] = []
    setup = measure_setup(calibration)
    recorded = json.loads(EXPECTED.read_text())["ops"].get(str(args.seed), {})
    ops = workloads.ops(args.workload, args.seed)
    tally = Tally(recorded)

    passes: list[float] = []
    start = time.perf_counter()
    # stop before a pass that would overrun the window: under --trace 1 the
    # traced pass still has to fit, hence the room for two more passes
    room = 2 if args.trace else 1
    while True:
        passes.append(run_pass(cli, ops, tally, calibration))
        elapsed = time.perf_counter() - start
        if len(passes) >= (1 if args.trace else MIN_PASSES) and elapsed + room * elapsed / len(passes) > args.seconds:
            break
    speed = calibrate.REF_S / statistics.median(calibration)

    if args.trace:
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced_wall = run_pass(cli, ops, tally, [], tracer)
        layers = spans.layer_metrics(tracer.spans, list(checks.SUITES))
        dominant = sum(layers[name][0] for name in DOMINANT[args.workload])
        metrics = {
            **layers,
            "trace.wall_s": (traced_wall, "s"),
            "trace.overhead_s": (traced_wall - statistics.median(passes), "s"),
            "trace.dominant_share": (dominant / traced_wall, "ratio"),
        }
        OUT.mkdir(exist_ok=True)
        spans.write_jsonl(tracer.spans, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "wall_s": (statistics.median(passes) * speed, "s"),
            "setup_s": (statistics.median(setup) * speed, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    info = {
        "passes": len(passes),
        "wall_raw_s": passes,
        "setup_raw_s": setup,
        "calibration_s": calibration,
        "speed": speed,
        "failed_frac": tally.failed / tally.attempted,
    }
    print(f"{args.workload} seed {args.seed}: " + json.dumps(info), file=sys.stderr)
    for line in sorted(tally.errors) + tally.problems[:20]:
        print("  " + line, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not tally.problems,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
