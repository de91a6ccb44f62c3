"""Record each op's exit code and stdout digest for a range of seeds.

    python3 perfbench/record.py --seeds 0-23

Run at the commit whose output is the reference (the seed commit of the
benchmark); it rewrites perfbench/expected.json, which run.py compares
every later run against.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--commit", required=True, help="the commit the digests come from")
    args = parser.parse_args(argv)
    first, last = (int(t) for t in args.seeds.split("-"))
    cli = run.import_cli()
    recorded = {}
    for seed in range(first, last + 1):
        recorded[str(seed)] = {}
        for workload in workloads.WORKLOADS:
            for op in workloads.ops(workload, seed):
                _, code, stdout, _ = run.run_op(cli, op)
                recorded[str(seed)][checks.op_key(op)] = {
                    "code": code,
                    "sha256": checks.digest(stdout) if code == 0 else None,
                }
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    run.EXPECTED.write_text(json.dumps({"commit": args.commit, "ops": recorded}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
