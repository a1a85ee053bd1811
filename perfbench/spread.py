"""Spread of the end-to-end metrics over repeated runs of one workload.

    python3 perfbench/spread.py quad_solve 101-110 [--seconds 30]

Runs perfbench/run.py once per seed, one run at a time, and prints each run's
metrics and, per metric, the median and the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seeds", help="first-last, e.g. 101-110")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))

    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=os.path.dirname(HERE))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for k, v in metrics.items():
            values.setdefault(k, []).append(v)
        print(seed, result["correct"], result["attempted"], result["failed"],
              {k: round(v, 5) for k, v in metrics.items()}, flush=True)
    for k, v in values.items():
        if len(v) >= 2:
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"{k:16s} median {med:.5g}  iqr/median {(q3 - q1) / med:.3f}  "
                  f"min {min(v):.5g}  max {max(v):.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
