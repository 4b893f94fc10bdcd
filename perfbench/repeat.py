"""Which per-layer counters repeat exactly from run to run?

    python3 perfbench/repeat.py --workload NAME [--seed N]

Runs ``run.py --trace 1`` three times with the same seed and prints, for
every count-valued per-layer metric, whether all runs read the same
value.  Only counters that repeat exactly can carry a count-based
claim; the rest vary with scheduling (which worker's incremental SAT
session sees which query, and in what order).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    runs = []
    for _ in range(RUNS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    print(f"{args.workload} seed={args.seed}, {RUNS} traced runs")
    for name, doc in runs[0].items():
        if doc["unit"] not in ("count", "bytes"):
            continue
        values = [run[name]["value"] for run in runs]
        verdict = "exact" if len(set(values)) == 1 else "varies"
        print(f"  {name:<24} {verdict:<7} {' / '.join(str(v) for v in values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
