"""Run the benchmark over workloads and seeds and summarize every metric.

    python3 perfbench/report.py                  # seed 0, four workloads, end to end
    python3 perfbench/report.py --trace 1        # the per-layer metrics instead
    python3 perfbench/report.py --seeds 1-10 --out perfbench/out/steadiness.json

Each (seed, workload) is one fresh `run.py` process, as a harness would run
it; seeds are the outer loop so drift in the host's speed spreads over all
workloads alike.  Prints every metric by name and unit, with failed_frac =
failed / attempted, and over several seeds the median, quartiles and spread
(quartile distance over median) of each end-to-end metric next to the bound
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def blas_threads():
    """Threads NumPy's bundled OpenBLAS will use, as the verify suites see it."""
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    prefix = f"{workload} seed {seed}: "
    info = next(json.loads(line[len(prefix):]) for line in done.stderr.splitlines() if line.startswith(prefix))
    return {**json.loads(done.stdout.splitlines()[-1]), "info": info}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="0", help="one seed, or first-last inclusive")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every run and the summary here as JSON")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    names = args.workloads.split(",")

    runs = []
    for seed in seeds:
        for workload in names:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"workload": workload, "seed": seed, "trace": args.trace, **result})
            print(f"{workload} seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
                  f"failed {result['failed']}, {result['info']['passes']} passes")
            for name, m in result["metrics"].items():
                print(f"  {name} {m['value']:.6g} {m['unit']}")
            print(f"  failed_frac {result['failed'] / result['attempted']:.6g} ratio")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in names:
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {
            "failed_frac": spread([r["failed"] / r["attempted"] for r in mine]),
            # uncorrected seconds, for comparison with the host-corrected metrics
            "wall_raw_s": spread([statistics.median(r["info"]["wall_raw_s"]) for r in mine]),
            "setup_raw_s": spread([statistics.median(r["info"]["setup_raw_s"]) for r in mine]),
        }
        for name in mine[0]["metrics"]:
            summary[workload][name] = spread([r["metrics"][name]["value"] for r in mine])
            if name in bounds:
                summary[workload][name]["bound"] = bounds[name]
    if len(seeds) > 1:
        print(f"\nover seeds {seeds[0]}-{seeds[-1]}: median [q1, q3] spread (bound)")
        for workload, metrics in summary.items():
            for name, s in metrics.items():
                if "bound" in s or name in ("failed_frac", "wall_raw_s", "setup_raw_s"):
                    print(f"{workload:12s} {name:12s} {s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}] "
                          f"{s['spread']:.4f} ({s.get('bound', '-')})")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"environment": environment(), "seconds": args.seconds, "summary": summary, "runs": runs},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
